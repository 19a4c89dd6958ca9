"""Spans around the public functions at each hurstlab module boundary.

install() wraps the functions named in LAYER_FUNCTIONS and swaps every
reference a caller holds, since several callers keep their own: the
estimator dispatch table, and names imported directly into evalharness,
traces and cli.  Each span records its name, start, end and the span that
caused it; a span's self time is its duration minus that of its children.
Spans stay in memory until write_spans().
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, function, layer-qualified name)
LAYER_FUNCTIONS = (
    ("hurstlab.fgn", "synthesize_fgn", "fgn.synthesize_fgn"),
    ("hurstlab.fgn", "build_embedding", "fgn.build_embedding"),
    ("hurstlab.estimators.periodogram", "periodogram_of", "periodogram.periodogram_of"),
    ("hurstlab.estimators.periodogram", "estimate_periodogram", "periodogram.estimate_periodogram"),
    ("hurstlab.estimators.whittle", "whittle_objective", "whittle.whittle_objective"),
    ("hurstlab.estimators.whittle", "minimize_whittle", "whittle.minimize_whittle"),
    ("hurstlab.estimators.whittle", "whittle_point_value", "whittle.whittle_point_value"),
    ("hurstlab.estimators.whittle", "estimate_whittle", "whittle.estimate_whittle"),
    ("hurstlab.estimators.rs", "estimate_rs", "rs.estimate_rs"),
    ("hurstlab.estimators.wavelet", "estimate_abry_veitch", "wavelet.estimate_abry_veitch"),
    ("hurstlab.estimators.wavelet", "dwt", "wavelet.dwt"),
    ("hurstlab.evalharness", "run_grid", "evalharness.run_grid"),
    ("hurstlab.evalharness", "mean_convergence_curve", "evalharness.mean_convergence_curve"),
    ("hurstlab.evalharness", "write_summary_csv", "evalharness.write_summary_csv"),
    ("hurstlab.evalharness", "write_replicates_csv", "evalharness.write_replicates_csv"),
    ("hurstlab.evalharness", "write_convergence_csv", "evalharness.write_convergence_csv"),
    ("hurstlab.traces", "parse_capture_csv", "traces.parse_capture_csv"),
    ("hurstlab.traces", "bin_to_series", "traces.bin_to_series"),
    ("hurstlab.traces", "sliding_window_scan", "traces.sliding_window_scan"),
    ("hurstlab.traces", "write_window_scan_csv", "traces.write_window_scan_csv"),
    ("hurstlab.cli", "main", "cli.main"),
)
# Evaluations of the closure that whittle_objective returns.
OBJECTIVE = "whittle.objective"
SPAN_NAMES = tuple(name for _, _, name in LAYER_FUNCTIONS) + (OBJECTIVE,)


class Tracer:
    """In-memory span recorder with per-name call counts and self times."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent id
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.total_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.samples_synthesized = 0
        self.rows_parsed = 0
        # One frame per open span: [span id, child seconds].
        self._stack: list[list] = []
        # Open spans per name: parse_capture_csv calls itself once (path,
        # then stream), and only the outermost call adds to total_s.
        self.open = dict.fromkeys(SPAN_NAMES, 0)

    def wrap(self, name: str, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1][0] if self._stack else -1
            self.spans.append((name, 0.0, 0.0, parent))
            frame = [span_id, 0.0]
            self._stack.append(frame)
            self.open[name] += 1
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.open[name] -= 1
                duration = end - start
                self.spans[span_id] = (name, start, end, parent)
                self.calls[name] += 1
                if not self.open[name]:
                    self.total_s[name] += duration
                self.self_s[name] += duration - frame[1]
                if self._stack:
                    self._stack[-1][1] += duration

        return traced

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def _replace_references(original, replacement) -> None:
    """Point every hurstlab module attribute and dispatch-table entry at replacement."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "hurstlab" or module_name.startswith("hurstlab.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
            elif isinstance(value, dict):
                for key, entry in list(value.items()):
                    if entry is original:
                        value[key] = replacement


def install() -> Tracer:
    """Wrap every function in LAYER_FUNCTIONS; the program must already be imported."""
    tracer = Tracer()
    for module_name, attr, name in LAYER_FUNCTIONS:
        module = sys.modules[module_name]
        original = getattr(module, attr)
        wrapped = tracer.wrap(name, original)
        if name == "fgn.synthesize_fgn":
            wrapped = _counting(wrapped, tracer, name, "samples_synthesized", lambda args, _: args[0].length)
        elif name == "traces.parse_capture_csv":
            wrapped = _counting(wrapped, tracer, name, "rows_parsed", lambda _, result: len(result))
        elif name == "whittle.whittle_objective":
            wrapped = _objective_builder(wrapped, tracer)
        _replace_references(original, wrapped)
    return tracer


def _counting(func, tracer: Tracer, name: str, counter: str, amount):
    """Add amount(args, result) to a tracer counter, for outermost calls only."""
    @functools.wraps(func)
    def counted(*args, **kwargs):
        result = func(*args, **kwargs)
        if not tracer.open[name]:
            setattr(tracer, counter, getattr(tracer, counter) + amount(args, result))
        return result

    return counted


def _objective_builder(func, tracer: Tracer):
    @functools.wraps(func)
    def build(*args, **kwargs):
        return tracer.wrap(OBJECTIVE, func(*args, **kwargs))

    return build


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-function calls and self seconds, plus the three per-layer rates."""
    metrics: dict[str, float] = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = tracer.calls[name]
        metrics[f"{name}.self_s"] = tracer.self_s[name]
    synth_s = tracer.total_s["fgn.synthesize_fgn"]
    metrics["fgn.samples_per_s"] = tracer.samples_synthesized / synth_s if synth_s else 0.0
    fits = tracer.calls["whittle.minimize_whittle"]
    metrics["whittle.evals_per_fit"] = tracer.calls[OBJECTIVE] / fits if fits else 0.0
    parse_s = tracer.total_s["traces.parse_capture_csv"]
    metrics["traces.rows_per_s"] = tracer.rows_parsed / parse_s if parse_s else 0.0
    return metrics
