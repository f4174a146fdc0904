"""Deterministic CSV and manifest emission.

CSV bodies must be byte-identical across runs of the same config: floats are
written with repr (shortest round trip), metadata lives in leading comment
lines, and wall-clock only ever appears in the JSON manifest.  `csv_body`
renders the header and rows once; `write_csv` writes a body under each
file's own metadata lines, so files that share their rows (a sweep's
points of one model) share one rendering.  Each run writes one CSV and
beside it one manifest, which lists that CSV with its SHA-256 and size;
the manifest is written atomically (write to temp file, then rename).
`hashlib` is imported by `sha256_of`, when the first manifest is written,
so OpenSSL's libcrypto is not resident while a run computes and adds
nothing to its peak RSS.
"""

from __future__ import annotations

import csv
import io
import json
import os
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence


def format_value(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):  # includes numpy float64; repr of the builtin round-trips
        return repr(float(value))
    return str(value)


def csv_body(columns: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """The header line and one line per row.

    A row of floats (`np.float64` included) is joined from their reprs,
    the bytes `csv.writer` writes for them; any other row goes through
    `format_value` and `csv.writer`, which quotes what needs quoting.
    Column names carry their unit in square brackets, e.g. `t[natural-time]`.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        try:
            line = ",".join(map(float.__repr__, row))
        except TypeError:  # a value that is not a float: None, an int, a string
            writer.writerow([format_value(v) for v in row])
        else:
            buffer.write(line + "\n")
    return buffer.getvalue()


def write_csv(path: Path, body: str, metadata: Mapping[str, Any] | None = None) -> Path:
    """Write a CSV: `# key = value` metadata lines above a `csv_body`."""
    header = "".join(f"# {key} = {format_value(value)}\n"
                     for key, value in (metadata or {}).items())
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as stream:
        stream.write(header)
        stream.write(body)
    return path


def sha256_of(path: Path) -> str:
    import hashlib  # OpenSSL's libcrypto (about 3.5 MB) loads after the compute, not at start

    digest = hashlib.sha256()
    digest.update(path.read_bytes())
    return digest.hexdigest()


def write_manifest(csv_path: Path, payload: Mapping[str, Any]) -> Path:
    """Atomically write manifest.json beside the CSV at `csv_path`: the
    payload, and the one output it lists, that CSV with its checksum and size."""
    manifest = dict(payload)
    manifest["outputs"] = [{"file": csv_path.name, "sha256": sha256_of(csv_path),
                            "bytes": csv_path.stat().st_size}]
    target = csv_path.parent / "manifest.json"
    tmp = csv_path.parent / ".manifest.json.tmp"
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, target)
    return target
