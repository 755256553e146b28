"""Per-layer span recorder installed from the benchmark's own files.

No span is added inside ``src/``.  Instead each layer's public function
is wrapped where its callers look it up: a module-level function is
replaced in every loaded ``repro`` module that holds it (so a caller
that imports it under the same object is covered whatever the caller is
called), and a method is replaced on its class.  Each wrapper records
busy time, call count, and the time covered by wrapped calls nested in
it, so a layer's self time is its busy time minus that covered time.

Counts come from the ``repro.obs`` counters the program already emits,
read with the tracer switched on for the traced units only; they add up
over every traced unit of a run.
"""

import functools
import importlib
import sys
import time
from typing import Callable, Dict, List, Sequence, Tuple

from repro import obs

#: (layer, owning module, attribute) for every wrapped lookup site.
#: ``Class.method`` attributes are patched on the class.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("valmod", "repro.core.valmod", "Valmod.run"),
    ("compute_mp", "repro.core.compute_mp", "compute_matrix_profile"),
    ("compute_submp", "repro.core.compute_submp", "compute_submp"),
    ("entries.fill_row", "repro.core.entries", "EntryStore.fill_row"),
    ("entries.advance", "repro.core.entries", "EntryStore.advance_to"),
    ("mass", "repro.distance.mass", "mass_with_stats"),
    ("context.sliding_dot_product", "repro.kernels.context",
     "SeriesContext.sliding_dot_product"),
    ("valmp", "repro.core.valmp", "VALMP.update"),
    ("valmp", "repro.core.valmp", "VALMP.record_pairs"),
    ("engine", "repro.matrixprofile.registry", "compute_with"),
    ("discords.upper_bound", "repro.core.discords_variable", "length_upper_bound"),
    ("streaming.extend", "repro.matrixprofile.streaming_valmod",
     "StreamingValmod.extend"),
    ("streaming.motifs", "repro.matrixprofile.streaming_valmod",
     "StreamingValmod.motifs"),
    ("streaming.discords", "repro.matrixprofile.streaming_valmod",
     "StreamingValmod.discords"),
)

#: the root span the benchmark opens around each traced unit of work.
ROOT = "workload"

#: spans whose self time is orchestration rather than a named layer's
#: work; their sum is the time the trace leaves uncovered.
DRIVER_SPANS = (ROOT, "valmod")

#: obs counters whose per-call delta a layer reports.
DELTA_COUNTERS = {"engine": ("engine.cells",)}


#: the per-layer table, one group per layer: (layer, its metrics, the
#: end-to-end metrics a change to it should move, and on which workloads).
PREDICTIONS: Tuple[Tuple[str, Tuple[str, ...], str, str], ...] = (
    ("core.compute_mp (Alg. 3)",
     ("compute_mp.s", "compute_mp.calls", "compute_mp.rows", "compute_mp.rows_per_s"),
     "motifs_s; refresh_s",
     "motifs-tight mostly, stream-monitor; small share on motifs-collapse"),
    ("core.entries (listDP)",
     ("entries.fill_row.s", "entries.advance.s", "entries.advance.calls",
      "listdp.entries_advanced"),
     "motifs_s",
     "fill: motifs-tight, and motifs-collapse via recompute rows; "
     "advance is about 2% everywhere"),
    ("core.compute_submp (Alg. 4)",
     ("compute_submp.self_s", "compute_submp.calls", "compute_submp.fallbacks",
      "submp.valid_frac", "submp.recomputed_rows"),
     "motifs_s",
     "motifs-collapse; no change predicted on stream-monitor"),
    ("distance.mass + kernels.context",
     ("mass.s", "mass.calls", "context.sliding_dot_product.s",
      "context.sliding_dot_product.calls", "stats.cache.hit_frac"),
     "motifs_s",
     "motifs-collapse"),
    ("core.valmp", ("valmp.s", "valmp.calls"), "motifs_s (small)", "all"),
    ("core.valmod (driver)", ("valmod.self_s",), "motifs_s", "all"),
    ("matrixprofile.registry (engines)",
     ("engine.s", "engine.calls", "engine.cells", "engine.cells_per_s"),
     "refresh_s, refresh_s_p75",
     "stream-monitor only; no change on motifs-*, whose Alg. 3 bypasses the registry"),
    ("core.discords_variable",
     ("discords.upper_bound.s", "discords.pruned_frac"),
     "refresh_s_p75",
     "stream-monitor"),
    ("matrixprofile.streaming_valmod",
     ("streaming.extend.s", "streaming.extend.calls", "streaming.motifs.s",
      "streaming.discords.s", "streaming.entries_evicted"),
     "ingest_points_per_s; refresh_s",
     "stream-monitor"),
    ("trace", ("trace.coverage", "trace.overhead_frac"), "none", "all"),
)


class TraceError(RuntimeError):
    """The trace cannot be trusted (a layer that must run recorded nothing)."""


class Recorder:
    """Busy time, calls, nested-covered time and counter deltas per span name."""

    def __init__(self) -> None:
        self.busy: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.covered: Dict[str, float] = {}
        self.deltas: Dict[str, int] = {}
        self.fallbacks = 0
        self._stack: List[float] = []

    def _record(self, name: str, elapsed: float, covered: float) -> None:
        self.busy[name] = self.busy.get(name, 0.0) + elapsed
        self.calls[name] = self.calls.get(name, 0) + 1
        self.covered[name] = self.covered.get(name, 0.0) + covered
        if self._stack:
            self._stack[-1] += elapsed

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` as one span called ``name``; return its result."""
        counters = DELTA_COUNTERS.get(name, ())
        tracer = obs.get_tracer()
        before = [tracer.counter(c) for c in counters]
        self._stack.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._record(name, elapsed, self._stack.pop())
            for counter, value in zip(counters, before):
                self.deltas[counter] = (
                    self.deltas.get(counter, 0) + tracer.counter(counter) - value
                )

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if name == "compute_submp" and not result.found_motif:
                self.fallbacks += 1
            return result

        return wrapper

    def self_time(self, name: str) -> float:
        return self.busy.get(name, 0.0) - self.covered.get(name, 0.0)


def _lookup_sites(module: str, attribute: str) -> List[Tuple[object, str, object]]:
    """Every (holder, name, original) to patch for one layer attribute."""
    owner = importlib.import_module(module)
    if "." in attribute:
        cls_name, method = attribute.split(".")
        cls = getattr(owner, cls_name)
        return [(cls, method, cls.__dict__[method])]
    original = getattr(owner, attribute)
    sites = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                sites.append((mod, attr, original))
    return sites


class installed:
    """Context manager: wrappers on every lookup site, tracer counters on.

    The counters are not reset, so that they add up over the traced units
    of a run; reset them with ``obs.reset()`` before the first.
    """

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: List[Tuple[object, str, object]] = []

    def __enter__(self) -> Recorder:
        for layer, module, attribute in LAYERS:
            for holder, name, original in _lookup_sites(module, attribute):
                setattr(holder, name, self.recorder.wrap(layer, original))
                self._undo.append((holder, name, original))
        obs.enable()
        return self.recorder

    def __exit__(self, *exc: object) -> None:
        obs.disable()
        for holder, name, original in reversed(self._undo):
            setattr(holder, name, original)
        self._undo.clear()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    recorder: Recorder,
    counters: Dict[str, int],
    units: int,
    required: Sequence[str],
    overhead_frac: float,
) -> Dict[str, Tuple[float, str]]:
    """The per-layer table, per traced unit of work: name -> (value, unit).

    Raises :class:`TraceError` when a layer in ``required`` recorded no
    call: a renamed import or method would otherwise zero it silently.
    """
    silent = [name for name in required if not recorder.calls.get(name)]
    if silent:
        raise TraceError(f"layers recorded zero calls: {', '.join(silent)}")

    def per(value: float) -> float:
        return value / units

    busy = recorder.busy.get
    calls = recorder.calls.get
    c = counters.get
    rows = c("compute_mp.rows", 0)
    cells = recorder.deltas.get("engine.cells", 0)
    root = busy(ROOT, 0.0)
    uncovered = sum(recorder.self_time(name) for name in DRIVER_SPANS)
    return {
        "compute_mp.s": (per(busy("compute_mp", 0.0)), "s"),
        "compute_mp.calls": (per(calls("compute_mp", 0)), "count"),
        "compute_mp.rows": (per(rows), "count"),
        "compute_mp.rows_per_s": (_ratio(rows, busy("compute_mp", 0.0)), "rows/s"),
        "entries.fill_row.s": (per(busy("entries.fill_row", 0.0)), "s"),
        "entries.advance.s": (per(busy("entries.advance", 0.0)), "s"),
        "entries.advance.calls": (per(calls("entries.advance", 0)), "count"),
        "listdp.entries_advanced": (per(c("listdp.entries_advanced", 0)), "count"),
        "compute_submp.self_s": (per(recorder.self_time("compute_submp")), "s"),
        "compute_submp.calls": (per(calls("compute_submp", 0)), "count"),
        "compute_submp.fallbacks": (per(recorder.fallbacks), "count"),
        "submp.valid_frac": (
            _ratio(c("submp.profiles.valid", 0), c("submp.profiles.total", 0)),
            "fraction",
        ),
        "submp.recomputed_rows": (per(c("submp.profiles.recomputed", 0)), "count"),
        "mass.s": (per(busy("mass", 0.0)), "s"),
        "mass.calls": (per(calls("mass", 0)), "count"),
        "context.sliding_dot_product.s": (
            per(busy("context.sliding_dot_product", 0.0)), "s"),
        "context.sliding_dot_product.calls": (
            per(calls("context.sliding_dot_product", 0)), "count"),
        "stats.cache.hit_frac": (
            _ratio(c("stats.cache.hits", 0),
                   c("stats.cache.hits", 0) + c("stats.cache.misses", 0)),
            "fraction",
        ),
        "valmp.s": (per(busy("valmp", 0.0)), "s"),
        "valmp.calls": (per(calls("valmp", 0)), "count"),
        "valmod.self_s": (per(recorder.self_time("valmod")), "s"),
        "engine.s": (per(busy("engine", 0.0)), "s"),
        "engine.calls": (per(calls("engine", 0)), "count"),
        "engine.cells": (per(cells), "count"),
        "engine.cells_per_s": (_ratio(cells, busy("engine", 0.0)), "cells/s"),
        "discords.upper_bound.s": (per(busy("discords.upper_bound", 0.0)), "s"),
        "discords.pruned_frac": (
            _ratio(c("discords.profiles.pruned", 0), c("discords.lengths.swept", 0)),
            "fraction",
        ),
        "streaming.extend.s": (per(busy("streaming.extend", 0.0)), "s"),
        "streaming.extend.calls": (per(calls("streaming.extend", 0)), "count"),
        "streaming.motifs.s": (per(busy("streaming.motifs", 0.0)), "s"),
        "streaming.discords.s": (per(busy("streaming.discords", 0.0)), "s"),
        "streaming.entries_evicted": (per(c("streaming.entries.evicted", 0)), "count"),
        "trace.coverage": (1.0 - _ratio(uncovered, root), "fraction"),
        "trace.overhead_frac": (overhead_frac, "fraction"),
    }
