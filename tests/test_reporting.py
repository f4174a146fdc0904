import csv
import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import dressedcavity.reporting as reporting
from dressedcavity.reporting import csv_body, format_value

COLUMNS = ["t[natural-time]", "value[dimensionless]"]


def writer_body(columns, rows):
    """Every row through format_value and csv.writer: the route for rows
    that are not all floats, and the one every row took before."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([format_value(v) for v in row])
    return buffer.getvalue()


ROWS = {
    "zeros": (0.0, -0.0),
    "non-finite": (float("nan"), float("inf"), float("-inf")),
    "extremes": (5e-324, 1e16, 1e-5, -1.7976931348623157e308),
    "float64": (np.float64(0.1), np.float64(-0.0), np.float64("nan"), np.float64(5e-324),
                np.float64(1e16), np.float64(-np.inf)),
    "ints": (1, 2, -3),
    "float-and-int": (0.5, 2),
    "none": (None, 1.0, None),
    "error-string": (3, 0.5, 'error: a, "quoted" value'),
    "bool": (True, 1.0),
    "float32": (np.float32(0.5), 1.0),
    "empty": (),
}


@pytest.mark.parametrize("row", ROWS.values(), ids=ROWS.keys())
def test_every_row_renders_as_csv_writer_does(row):
    assert csv_body(COLUMNS, [row]) == writer_body(COLUMNS, [row])


def test_a_table_of_mixed_rows_renders_as_csv_writer_does():
    rows = list(ROWS.values())
    assert csv_body(COLUMNS, rows) == writer_body(COLUMNS, rows)


@given(st.lists(st.lists(st.floats(), min_size=1, max_size=6), max_size=8))
def test_float_rows_render_as_csv_writer_does(rows):
    assert csv_body(COLUMNS, rows) == writer_body(COLUMNS, rows)


def test_float_rows_skip_format_value(monkeypatch):
    calls = []
    monkeypatch.setattr(reporting, "format_value", lambda v: calls.append(v) or str(v))
    csv_body(COLUMNS, [(0.5, np.float64(1.5)), (1.0, 2.0)])
    assert calls == []
    csv_body(COLUMNS, [(1, 0.5)])
    assert calls == [1, 0.5]
