"""The three seeded workloads and the loops that time them.

Every workload is one process calling the program with ``n_jobs=1`` in
a closed loop: the next call is issued only after the previous one
returned.  Inputs are generated from the seed alone; the program only
ever sees the generated array.

Why these three (each layer a later change may optimise does most of
the work in one workload and little in another):

* ``motifs-tight`` — ECG-like beats, where the Eq. 1-2 lower bound
  holds: Algorithm 3 (``compute_matrix_profile``) dominates and the
  Algorithm 4 recompute barely runs.
* ``motifs-collapse`` — EMG-like burst noise, where the bound collapses
  (a few percent of profiles stay valid) and the per-row recompute of
  Algorithm 4 dominates.  A fixed motif pair is planted at seed-chosen
  offsets: on plain EMG noise the chance motif distance decides whether
  a length takes the partial recompute or the full Algorithm 3 fallback,
  so the cost of one call swung 2.3-60 s across seeds.  With the pair's
  distance the same for every seed, each length takes the recompute
  path and the cost varies with the background only.
* ``stream-monitor`` — a noisy sine with bumps planted throughout,
  streamed into a full sliding window with an exact refresh after every
  chunk.  The only workload that reaches the registry engine (the
  per-length discord profiles), the discord bounds and the eager
  append/evict layer.
"""

import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.valmod import Valmod, valmod
from repro.datasets.registry import load_dataset
from repro.matrixprofile.streaming_valmod import StreamingValmod

import checks
import env
import tracing
from hostspeed import NOMINAL_NUMPY_IMPORT_S, HostProbe

#: set-up is repeated this many times per run and its median reported;
#: each build is followed by host-probe samples, so that set-up is
#: scaled by the speed of the seconds it ran in.
SETUP_REPEATS = 9
PROBES_PER_SETUP = 3

#: motif lengths, spread over ``[l_min, l_max]``, whose distances the
#: first ``valmod()`` call is checked on against the reference engine.
CHECK_LENGTHS = 5

#: host-speed probe samples taken after each ``valmod()`` call (about 5%
#: of the call's time; one sample follows each stream refresh).
PROBES_PER_CALL = 5

#: the planted pair of ``motifs-collapse``: drawn from a fixed generator
#: so its motif distance is the same for every seed; only the offsets
#: and the background follow the seed.
PLANT_SEED = 20180610
PLANT_LENGTH = 128
PLANT_NOISE = 0.8

MOTIF_LAYERS = (
    "valmod", "compute_mp", "compute_submp", "entries.fill_row",
    "entries.advance", "mass", "context.sliding_dot_product", "valmp",
)
STREAM_LAYERS = MOTIF_LAYERS + (
    "engine", "discords.upper_bound", "streaming.extend",
    "streaming.motifs", "streaming.discords",
)


class BenchmarkError(RuntimeError):
    """The workload could not produce a measurement."""


@dataclass(frozen=True)
class MotifsWorkload:
    family: str
    n: int
    plant: bool
    probe: str
    l_min: int = 64
    l_max: int = 96
    p: int = 10


@dataclass(frozen=True)
class StreamWorkload:
    window: int
    chunk: int
    chunks: int
    l_min: int = 32
    l_max: int = 48
    p: int = 10
    k: int = 3


WORKLOADS = {
    "motifs-tight": MotifsWorkload(family="ECG", n=4000, plant=False, probe="rows"),
    "motifs-collapse": MotifsWorkload(family="EMG", n=3000, plant=True, probe="fft"),
    "stream-monitor": StreamWorkload(window=300, chunk=8, chunks=40),
}


# ----------------------------------------------------------------------
# inputs


def motif_series(w: MotifsWorkload, seed: int) -> np.ndarray:
    series = load_dataset(w.family, w.n, seed)
    if w.plant:
        fixed = np.random.default_rng(PLANT_SEED)
        pattern, noise_a, noise_b = fixed.standard_normal((3, PLANT_LENGTH))
        rng = np.random.default_rng([seed, PLANT_SEED])
        a = w.n // 5 + int(rng.integers(0, w.n // 10))
        b = (3 * w.n) // 5 + int(rng.integers(0, w.n // 10))
        scale = float(series.std())
        series[a:a + PLANT_LENGTH] = scale * (pattern + PLANT_NOISE * noise_a)
        series[b:b + PLANT_LENGTH] = scale * (pattern + PLANT_NOISE * noise_b)
    return series


def stream_feed(w: StreamWorkload, seed: int) -> np.ndarray:
    """Noisy sine (period 100) with bumps of random width and height throughout."""
    n = w.window + w.chunk * w.chunks
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 0.02 * np.pi * n, n)
    feed = np.sin(x) + 0.05 * rng.standard_normal(n)
    spacing = w.window // 4
    for base in range(spacing // 2, n - 2 * spacing // 3, spacing):
        width = int(rng.integers(12, 40))
        pos = base + int(rng.integers(-spacing // 4, spacing // 4))
        feed[pos:pos + width] += rng.uniform(2.0, 4.0) * np.hanning(width)
    return feed


# ----------------------------------------------------------------------
# accounting


class Tally:
    """Operations attempted and failed (raised, or output judged wrong)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def run(self, fn: Callable, *args):
        """Time one operation; ``(None, None)`` when it raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:  # a failed operation is a measurement, not a crash
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None, None
        return result, time.perf_counter() - start

    def judge(self, ok: bool) -> None:
        if not ok:
            self.failed += 1


@dataclass
class Outcome:
    """End-to-end values in reference-host seconds and as measured, the
    host-speed scale over the whole timed loop, and the per-layer table."""

    tally: Tally
    reported: Dict[str, float]
    raw: Dict[str, float]
    samples: int
    host_scale: float
    per_layer: Optional[Dict[str, tuple]] = None


def _summary(setup_s: float, motifs: List[float], refreshes: List[float],
             ingest_points_per_s: float) -> Dict[str, float]:
    return {
        "setup_s": setup_s,
        "motifs_s": statistics.median(motifs),
        "refresh_s": statistics.median(refreshes),
        "refresh_s_p75": statistics.quantiles(refreshes, n=4)[2],
        "ingest_points_per_s": ingest_points_per_s,
    }


_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
    "import numpy; t1 = time.perf_counter(); import repro; "
    "print(t1 - t0, time.perf_counter() - t0)"
)


def import_seconds() -> Tuple[float, float]:
    """Seconds a fresh interpreter takes to import numpy, and to import
    ``repro`` (numpy included)."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, env.SRC],
        capture_output=True, text=True, timeout=60, check=True,
    )
    numpy_s, repro_s = done.stdout.strip().splitlines()[-1].split()
    return float(numpy_s), float(repro_s)


def time_setup(build: Callable[[], object]) -> Tuple[object, float, float]:
    """Set up ``SETUP_REPEATS`` times: import ``repro`` in a fresh
    interpreter, then ``build()``.  Returns the last build and the median
    import plus the median build time, raw and in reference-host seconds.

    The import is scaled by the same interpreter's numpy import, the
    module-loading work a change to ``repro`` cannot move; the build by
    the row-loop probe sampled after each build.
    """
    probe = HostProbe("rows")
    numpy_imports, imports, builds = [], [], []
    built = None
    for _ in range(SETUP_REPEATS):
        numpy_s, repro_s = import_seconds()
        numpy_imports.append(numpy_s)
        imports.append(repro_s)
        start = time.perf_counter()
        built = build()
        builds.append(time.perf_counter() - start)
        probe.sample(PROBES_PER_SETUP)
    imported, built_s = statistics.median(imports), statistics.median(builds)
    scaled = (imported * NOMINAL_NUMPY_IMPORT_S / statistics.median(numpy_imports)
              + built_s * probe.scale())
    return built, imported + built_s, scaled


def _loop(unit: Callable[[], Optional[float]], seconds: float) -> List[float]:
    """Repeat ``unit`` until ``seconds`` have passed (at least twice);
    the durations of the repeats that did not fail."""
    samples = []
    repeats = 0
    deadline = time.perf_counter() + seconds
    while repeats < 2 or time.perf_counter() < deadline:
        repeats += 1
        elapsed = unit()
        if elapsed is not None:
            samples.append(elapsed)
    return samples


class TracedRun:
    """Traced units of work, interleaved with the untraced ones so that
    both sample the same host epochs; the per-layer metrics per unit.

    Each output is judged outside the root span and with the wrappers
    removed, so a correctness check is neither timed nor traced.
    """

    def __init__(self, work: Callable[[], object], judge: Callable[[object], None],
                 required) -> None:
        self.work = work
        self.judge = judge
        self.required = required
        self.recorder = tracing.Recorder()
        self.times: List[float] = []
        tracing.obs.reset()

    def unit(self) -> None:
        with tracing.installed(self.recorder):
            start = time.perf_counter()
            output = self.recorder.span(tracing.ROOT, self.work)
            self.times.append(time.perf_counter() - start)
        self.judge(output)

    def metrics(self, untraced: List[float]) -> Dict[str, tuple]:
        """The tracing overhead compares the median traced unit with the
        median untraced one, which covers the same work unprobed."""
        overhead = statistics.median(self.times) / statistics.median(untraced) - 1.0
        return tracing.layer_metrics(
            self.recorder, tracing.obs.get_tracer().counters(),
            self.recorder.calls[tracing.ROOT], self.required, overhead)


def _measure(unit: Callable[[], Optional[float]], seconds: float,
             traced: Optional[TracedRun]) -> List[float]:
    """``_loop`` over ``unit``, each repeat followed by a traced unit when
    ``traced`` is given; the untraced durations."""
    if traced is None:
        return _loop(unit, seconds)

    def pair() -> Optional[float]:
        elapsed = unit()
        traced.unit()
        return elapsed

    return _loop(pair, seconds)


# ----------------------------------------------------------------------
# motifs-*


def run_motifs(w: MotifsWorkload, seed: int, seconds: float, trace: bool) -> Outcome:
    def build() -> np.ndarray:
        series = motif_series(w, seed)
        Valmod(series, w.l_min, w.l_max, p=w.p, n_jobs=1)
        return series

    series, setup_raw, setup_s = time_setup(build)

    def call():
        return valmod(series, w.l_min, w.l_max, p=w.p, n_jobs=1)

    tally = Tally()
    first, _ = tally.run(call)
    if first is None:
        raise BenchmarkError("the first valmod() call raised")
    tally.judge(checks.motifs_match_reference(
        first, series, checks.spread_lengths(w.l_min, w.l_max, CHECK_LENGTHS)))
    reference = checks.motif_signature(first)

    def judge(result) -> None:
        if result is not None:  # a raise was counted by ``Tally.run``
            tally.judge(checks.motif_signature(result) == reference)

    def unit() -> Optional[float]:
        result, elapsed = tally.run(call)
        judge(result)
        return elapsed

    probe = HostProbe(w.probe)
    probed: List[Tuple[float, int]] = []

    def probed_unit() -> Optional[float]:
        elapsed = unit()
        group = probe.sample(PROBES_PER_CALL)
        if elapsed is not None:
            probed.append((elapsed, group))
        return elapsed

    traced = TracedRun(lambda: tally.run(call)[0], judge, MOTIF_LAYERS) if trace else None
    times = _measure(probed_unit, seconds, traced)
    if not times:
        raise BenchmarkError("no valmod() call succeeded")
    per_layer = traced.metrics(times) if trace else None

    scaled = probe.reported(probed)
    return Outcome(
        tally,
        _summary(setup_s, scaled, scaled, w.n / statistics.median(scaled)),
        _summary(setup_raw, times, times, w.n / statistics.median(times)),
        len(times), probe.scale(), per_layer)


# ----------------------------------------------------------------------
# stream-monitor


class StreamPass:
    """One pass: build a stream on the seeded window, then feed every chunk
    with a ``motifs()`` + ``discords()`` refresh after each.

    Every pass replays the same feed.  A timed pass samples the host
    probe after every refresh and records each chunk's end-to-end
    samples as ``(raw seconds, probe group)``; a traced pass does
    neither.
    """

    def __init__(self, w: StreamWorkload, feed: np.ndarray, tally: Tally) -> None:
        self.w = w
        self.feed = feed
        self.tally = tally
        self.probe = HostProbe("rows")
        self.probe_s = 0.0
        self.extend_s: List[Tuple[float, int]] = []
        self.refresh_s: List[Tuple[float, int]] = []
        self.motifs_s: List[Tuple[float, int]] = []

    def build(self) -> StreamingValmod:
        w = self.w
        sv = StreamingValmod(
            self.feed[:w.window], w.l_min, w.l_max, p=w.p, k_discords=w.k,
            max_points=w.window, n_jobs=1,
        )
        sv.motifs()
        sv.discords()
        return sv

    def _refresh(self, sv: StreamingValmod):
        start = time.perf_counter()
        motifs = sv.motifs()
        return motifs, sv.discords(), time.perf_counter() - start

    def run(self, keep_windows: bool = False, timed: bool = True):
        """Per chunk, the refresh's signature and whether it was complete,
        or None where the ``extend()`` or the refresh raised (a raise is
        counted by ``Tally.run``); plus the windows of the first and last
        refresh when ``keep_windows``."""
        w = self.w
        sv = self.build()
        refreshes, windows = [], {}
        for c in range(w.chunks):
            lo = w.window + c * w.chunk
            _, extend_s = self.tally.run(sv.extend, self.feed[lo:lo + w.chunk])
            if extend_s is None:
                refreshes.append(None)
                continue
            refreshed, refresh_s = self.tally.run(self._refresh, sv)
            if timed:
                start = time.perf_counter()
                group = self.probe.sample()
                self.probe_s += time.perf_counter() - start
                self.extend_s.append((extend_s, group))
            if refreshed is None:
                refreshes.append(None)
                continue
            motifs, discords, motifs_s = refreshed
            if timed:
                self.refresh_s.append((refresh_s, group))
                self.motifs_s.append((motifs_s, group))
            refreshes.append((
                checks.refresh_signature(motifs, discords),
                checks.refresh_is_complete(motifs, discords, w.l_min, w.l_max, w.k),
            ))
            if keep_windows and c in (0, w.chunks - 1):
                windows[c] = sv.series()
        return refreshes, windows


def run_stream(w: StreamWorkload, seed: int, seconds: float, trace: bool) -> Outcome:
    feed = stream_feed(w, seed)
    tally = Tally()
    stream = StreamPass(w, feed, tally)
    _, setup_raw, setup_s = time_setup(stream.build)

    #: chunk -> signature of the first refresh of that chunk that returned.
    reference: Dict[int, Tuple] = {}

    def judge(output) -> None:
        """One verdict per refresh that returned: complete, and equal to
        the reference refresh of its chunk, or, where a kept window sets
        the reference, to fresh batch runs on that window."""
        refreshes, windows = output
        for c, refresh in enumerate(refreshes):
            if refresh is None:
                continue
            signature, complete = refresh
            if c in reference:
                ok = complete and signature == reference[c]
            else:
                reference[c] = signature
                ok = complete and (c not in windows or checks.refresh_matches_batch(
                    signature, windows[c], w.l_min, w.l_max, w.p, w.k))
            tally.judge(ok)

    def unit() -> float:
        """One pass, timed without the probe samples taken inside it."""
        probed = stream.probe_s
        start = time.perf_counter()
        output = stream.run(keep_windows=not reference)
        elapsed = time.perf_counter() - start - (stream.probe_s - probed)
        judge(output)
        return elapsed

    traced = TracedRun(lambda: stream.run(timed=False), judge,
                       STREAM_LAYERS) if trace else None
    passes = _measure(unit, seconds, traced)
    if not stream.refresh_s:
        raise BenchmarkError("no refresh succeeded")
    per_layer = traced.metrics(passes) if trace else None

    points = w.chunk * len(stream.extend_s)
    probe = stream.probe
    reported = [probe.reported(s) for s in (stream.motifs_s, stream.refresh_s, stream.extend_s)]
    raw = [[t for t, _ in s] for s in (stream.motifs_s, stream.refresh_s, stream.extend_s)]
    return Outcome(
        tally,
        _summary(setup_s, reported[0], reported[1], points / sum(reported[2])),
        _summary(setup_raw, raw[0], raw[1], points / sum(raw[2])),
        len(stream.refresh_s), probe.scale(), per_layer)


def run(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    w = WORKLOADS[name]
    if isinstance(w, MotifsWorkload):
        return run_motifs(w, seed, seconds, trace)
    return run_stream(w, seed, seconds, trace)


def ok_fraction(tally: Tally) -> float:
    return 1.0 - tally.failed / tally.attempted
