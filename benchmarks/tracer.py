"""Spans around ``qcog``'s public functions, recorded from outside the package.

``Tracer.install`` replaces every binding of each traced function in the
loaded ``qcog`` modules (``framefit.lueders_update`` and
``states.lueders_update`` are the same function bound twice) with a wrapper
that records a span: name, start, end, parent span and whether it raised.
Methods are patched on their class.  ``uninstall`` puts the originals back,
so untraced ops run the program exactly as shipped.  Spans stay in memory
until ``write_spans``.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (layer metric name, module, attribute path) for every traced callable.
# Validation in ``states`` and ``nosignal`` is the dataclass ``__post_init__``.
TARGETS = (
    ("cli.main", "qcog.cli", "main"),
    ("ingest.load_survey", "qcog.ingest", "load_survey"),
    ("feasibility.contraction_check", "qcog.feasibility", "contraction_check"),
    ("feasibility.chain_feasibility", "qcog.feasibility", "chain_feasibility"),
    ("feasibility.majorization_check", "qcog.feasibility", "majorization_check"),
    ("framefit.fit_chain", "qcog.framefit", "fit_chain"),
    ("framefit.fit_transition", "qcog.framefit", "fit_transition"),
    ("framefit.project_to_majorized", "qcog.framefit", "project_to_majorized"),
    ("sequential.interference_region_scan", "qcog.sequential",
     "interference_region_scan"),
    ("sequential.sequential_probability_via_states", "qcog.sequential",
     "sequential_probability_via_states"),
    ("states.ProbabilityVector.validate", "qcog.states",
     "ProbabilityVector.__post_init__"),
    ("states.DensityMatrix.validate", "qcog.states", "DensityMatrix.__post_init__"),
    ("states.lueders_update", "qcog.states", "lueders_update"),
    ("states.outcome_probabilities", "qcog.states", "outcome_probabilities"),
    ("hilbert.is_psd", "qcog.hilbert", "is_psd"),
    ("hilbert.partial_trace", "qcog.hilbert", "partial_trace"),
    ("hilbert.frame_projectors", "qcog.hilbert", "frame_projectors"),
    ("nosignal.no_signalling_check", "qcog.nosignal", "no_signalling_check"),
    ("nosignal.apply_series", "qcog.nosignal", "apply_series"),
    ("nosignal.LocalSeries.validate", "qcog.nosignal", "LocalSeries.__post_init__"),
)

OP_SPAN = "bench.op"
COMPLEX_BYTES = 16


def _count_fit(counters, args, kwargs, result) -> None:
    counters["framefit.iterations"] += sum(getattr(result, "iterations", ()))
    counters["framefit.fitted_transitions"] += len(getattr(result, "residuals", ()))
    counters["framefit.projected_transitions"] += sum(
        d > 0.0 for d in getattr(result, "projection_distances", ())[1:])


def _count_scan(counters, args, kwargs, result) -> None:
    grid_n = kwargs.get("grid_n", args[0] if args else 0)
    counters["sequential.cells"] += int(grid_n) ** 2


def _count_series(counters, args, kwargs, result) -> None:
    series = kwargs.get("series", args[1] if len(args) > 1 else None)
    steps = len(getattr(series, "steps", ()))
    side = result.matrix.shape[0]
    counters["nosignal.local_updates"] += steps
    # each local update runs two contractions that each read and write one
    # side x side complex array, plus the in-place mask (one read, one write)
    counters["nosignal.bytes_computed"] += steps * 6 * side * side * COMPLEX_BYTES


COUNTERS = {
    "framefit.fit_chain": _count_fit,
    "sequential.interference_region_scan": _count_scan,
    "nosignal.apply_series": _count_series,
}


def _resolve(module: str, path: str):
    obj = sys.modules.get(module)
    owner = None
    for part in path.split("."):
        if obj is None:
            return None, None
        owner, obj = obj, getattr(obj, part, None)
    return owner, obj


class Tracer:
    """Records spans as ``(id, name, start, end, parent_id, raised)``."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: defaultdict = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name`` and return its result."""
        span_id = len(self.spans)
        self.spans.append(None)  # reserve the id so children can name it
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        raised = True
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            raised = False
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, name, start, end, parent, raised)
        hook = COUNTERS.get(name)
        if hook is not None:
            hook(self.counters, args, kwargs, result)
        return result

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    def install(self) -> None:
        self.absent = []
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "qcog" or k.startswith("qcog."))]
        for name, module, path in TARGETS:
            owner, original = _resolve(module, path)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                bindings = [(owner, path.rsplit(".", 1)[1])]
            else:
                bindings = [(m, attr) for m in modules
                            for attr, value in list(vars(m).items())
                            if value is original]
            for holder, attr in bindings:
                self._patches.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches = []

    def layer_totals(self) -> dict:
        """Per span name: calls, busy seconds, self seconds, raised calls.
        Self time is duration minus the time covered by direct children."""
        child = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                   "failed": 0})
        for span_id, name, start, end, _, raised in self.spans:
            row = out[name]
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - child[span_id]
            row["failed"] += int(raised)
        return dict(out)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, raised in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "raised": raised}))
                fh.write("\n")
