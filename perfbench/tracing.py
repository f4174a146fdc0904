"""Outside-in tracing of the dressedcavity package for the per-layer metrics.

Every public function of each layer module, and every public method of the
classes those modules define, is replaced by a wrapper at every binding the
package holds: module globals (`cli` and `density` import names directly,
`thermal` rebinds `amplitude_matrix`), dict values such as `cli.COMMANDS`,
and class attributes such as `DressedSpectrum.reconstruction_residual`.
Nothing changes on disk, and `uninstall` puts every original back.

Each wrapped call records a span (name, start, end, parent).  Helpers that
run once per output value only bump a counter, so they add no span each.
A few wrappers also probe arguments or results for computed sizes; the time
a probe takes is charged to neither the span nor its parent.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time
from collections import Counter
from pathlib import Path

PACKAGE = "dressedcavity"
LAYERS = ("model", "spectral", "dynamics", "density", "entanglement", "thermal",
          "reporting", "cli")
COUNT_ONLY = frozenset({"reporting.format_value", "thermal.bose_einstein"})

# Inclusive seconds and call counts reported as per-layer metrics.
FUNCTION_SECONDS = ("spectral.diagonalize", "spectral.reconstruction_residual",
                    "model.build_coupling_matrix", "dynamics.amplitude_matrix",
                    "dynamics.survival_amplitude", "thermal.occupation_series",
                    "entanglement.measures", "density.reduced_density_closed",
                    "density.thermal_trace_oracle", "reporting.write_csv",
                    "reporting.write_manifest")
FUNCTION_CALLS = ("spectral.diagonalize", "entanglement.measures",
                  "density.reduced_density_closed", "density.thermal_trace_oracle")
MAXIMA = ("model.matrix_bytes", "dynamics.amplitude_bytes", "density.oracle_backgrounds",
          "density.oracle_dense_bytes")
TOTALS = ("reporting.bytes_written", "reporting.files_written")


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "probe_s")

    def __init__(self, name: str, layer: str, parent: int):
        self.name, self.layer, self.parent = name, layer, parent
        self.start = self.end = self.probe_s = 0.0


def _array_of(value):
    """The ndarray behind a CouplingMatrix-like wrapper, or the value itself."""
    return getattr(value, "matrix", value)


class Tracer:
    """Wraps the package's public callables while installed; one per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.totals: Counter = Counter()
        self.spectral_keys: set[str] = set()
        self.probe_errors = 0
        self._stack: list[int] = []
        self._restore: list = []
        self._probes = {
            "model.build_coupling_matrix": self._probe_matrix,
            "spectral.diagonalize": self._probe_spectral_key,
            "dynamics.amplitude_matrix": self._probe_amplitudes,
            "density.thermal_trace_oracle": self._probe_oracle,
            "reporting.write_csv": self._probe_written,
            "reporting.write_manifest": self._probe_written,
        }

    # ------------------------------------------------------------ probes

    def _probe_matrix(self, bound, result):
        self.maxima["model.matrix_bytes"] = max(self.maxima["model.matrix_bytes"],
                                                _array_of(result).nbytes)

    def _probe_spectral_key(self, bound, result):
        matrix = _array_of(bound["matrix"])
        self.spectral_keys.add(hashlib.blake2b(matrix.tobytes(), digest_size=16).hexdigest())

    def _probe_amplitudes(self, bound, result):
        self.maxima["dynamics.amplitude_bytes"] = max(self.maxima["dynamics.amplitude_bytes"],
                                                      result.nbytes)

    def _probe_oracle(self, bound, result):
        bath = bound["bath"]
        backgrounds = (bath.n_max + 1) ** bath.n_modes_oracle
        dense = 3 * 16 * (2 * (bath.n_max + 2) ** bath.n_modes_oracle) ** 2
        self.maxima["density.oracle_backgrounds"] = max(
            self.maxima["density.oracle_backgrounds"], backgrounds)
        self.maxima["density.oracle_dense_bytes"] = max(
            self.maxima["density.oracle_dense_bytes"], dense)

    def _probe_written(self, bound, result):
        self.totals["reporting.bytes_written"] += Path(result).stat().st_size
        self.totals["reporting.files_written"] += 1

    # ---------------------------------------------------------- wrapping

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _spanned(self, name, layer, fn):
        spans, stack = self.spans, self._stack
        probe = self._probes.get(name)
        signature = inspect.signature(fn) if probe else None

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            index = len(spans)
            span = Span(name, layer, stack[-1] if stack else -1)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if probe is not None:
                try:
                    probe(signature.bind(*args, **kwargs).arguments, result)
                except (AttributeError, KeyError, TypeError, OSError):
                    self.probe_errors += 1
                span.probe_s = time.perf_counter() - span.end
            return result
        return spanned

    def _wrapper(self, layer: str, attr: str, fn):
        name = f"{layer}.{attr}"
        if name in COUNT_ONLY:
            return self._counted(name, fn)
        return self._spanned(name, layer, fn)

    def install(self) -> None:
        """Wrap every public function and method of the layer modules at every binding."""
        modules = {name: module for name, module in sys.modules.items()
                   if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))}
        wrappers = {}  # id(original) -> wrapper; each wrapper keeps its original alive
        for layer in LAYERS:
            module = modules[f"{PACKAGE}.{layer}"]
            for attr, value in vars(module).items():
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    wrappers[id(value)] = self._wrapper(layer, attr, value)
                elif inspect.isclass(value):
                    for method_name, method in list(vars(value).items()):
                        if inspect.isfunction(method) and not method_name.startswith("_"):
                            setattr(value, method_name, self._wrapper(layer, method_name, method))
                            self._restore.append((setattr, value, method_name, method))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])
                    self._restore.append((setattr, module, attr, value))
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            value[key] = wrappers[id(item)]
                            self._restore.append((dict.__setitem__, value, key, item))

    def uninstall(self) -> None:
        while self._restore:
            put, target, key, original = self._restore.pop()
            put(target, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ----------------------------------------------------------- results

    def reset(self) -> None:
        """Forget what was recorded; wrappers stay installed."""
        self.spans.clear()
        self.counts.clear()
        self.maxima.clear()
        self.totals.clear()
        self.spectral_keys.clear()
        self.probe_errors = 0

    def self_seconds(self) -> dict[str, float]:
        """Self time per function name: span duration minus its children's spans and probes."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.end - span.start + span.probe_s
        result: Counter = Counter()
        for span, child in zip(self.spans, covered):
            result[span.name] += span.end - span.start - child
        return dict(result)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics for what was recorded since the last reset."""
        own = self.self_seconds()
        inclusive: Counter = Counter()
        calls: Counter = Counter()
        for span in self.spans:
            inclusive[span.name] += span.end - span.start
            calls[span.name] += 1
        out = {f"{layer}.self_s": sum(v for k, v in own.items() if k.startswith(layer + "."))
               for layer in LAYERS}
        out.update({f"{name}.s": inclusive[name] for name in FUNCTION_SECONDS})
        out.update({f"{name}.calls": calls[name] for name in FUNCTION_CALLS})
        out.update({f"{name}.calls": self.counts[name] for name in sorted(COUNT_ONLY)})
        out.update({name: self.maxima[name] for name in MAXIMA})
        out.update({name: self.totals[name] for name in TOTALS})
        out["spectral.distinct_keys"] = len(self.spectral_keys)
        out["spectral.useful_ratio"] = (len(self.spectral_keys) / calls["spectral.diagonalize"]
                                        if calls["spectral.diagonalize"] else 1.0)
        out["traced.spans"] = len(self.spans)
        out["traced.probe_errors"] = self.probe_errors
        return out
