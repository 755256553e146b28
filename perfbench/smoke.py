"""Smoke test of the benchmark itself, at tiny sizes (a few seconds).

    python3 perfbench/smoke.py

Checks that every metric ``BENCHMARK.json`` names is emitted with its
unit, in both modes and on every workload, that every per-layer metric
is printed under a prediction, and that a deliberately wrong result
handed to the correctness checks is counted as one failed operation.
Exits 1 on the first violated check.
"""

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (pins the environment before numpy loads)
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "motifs-tight": workloads.MotifsWorkload(
        family="ECG", n=600, plant=False, probe="rows", l_min=16, l_max=24),
    "motifs-collapse": workloads.MotifsWorkload(
        family="EMG", n=600, plant=True, probe="fft", l_min=16, l_max=24),
    "stream-monitor": workloads.StreamWorkload(
        window=200, chunk=10, chunks=4, l_min=12, l_max=20),
}


def check(ok: bool, message: str) -> None:
    if not ok:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)


def run_tiny(name: str, trace: int) -> dict:
    """One benchmark run at tiny size; the parsed last line of its output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", "3",
                         "--seconds", "0.01", "--trace", str(trace)])
    check(code == 0, f"{name} --trace {trace} exited {code}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


@contextlib.contextmanager
def patched(holder, attribute, replacement):
    original = getattr(holder, attribute)
    setattr(holder, attribute, replacement)
    try:
        yield
    finally:
        setattr(holder, attribute, original)


def every_metric_is_emitted(spec: dict) -> None:
    for name in TINY:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run_tiny(name, trace)
            check(result["correct"] and result["failed"] == 0,
                  f"{name} --trace {trace} reported failures: {result}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            check(got == want, f"{name} --trace {trace} metrics {got} != {want}")


def every_layer_metric_has_a_prediction(spec: dict) -> None:
    predicted = [name for _, names, _, _ in tracing.PREDICTIONS for name in names]
    want = [m["name"] for m in spec["per_layer"]]
    check(sorted(predicted) == sorted(want),
          f"predicted per-layer metrics {predicted} != {want}")


def wrong_motifs_are_counted() -> None:
    real = workloads.valmod
    calls = []

    def tampered(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append(1)
        if len(calls) == 2:  # a repeat call whose answer drifted
            pair = result.motif_pairs[min(result.motif_pairs)]
            result.motif_pairs[pair.length] = type(pair).build(
                pair.a, pair.b, pair.length, pair.distance + 1e-3)
        return result

    with patched(workloads, "valmod", tampered):
        result = run_tiny("motifs-tight", 0)
    check(not result["correct"] and result["failed"] == 1,
          f"a drifted repeat answer was not counted: {result}")


def wrong_first_answer_is_counted() -> None:
    real = workloads.valmod

    def off_by_some(*args, **kwargs):
        result = real(*args, **kwargs)
        pair = result.motif_pairs[max(result.motif_pairs)]
        result.motif_pairs[pair.length] = type(pair).build(
            pair.a, pair.b, pair.length, pair.distance * 1.01)
        return result

    with patched(workloads, "valmod", off_by_some):
        result = run_tiny("motifs-collapse", 0)
    check(not result["correct"] and result["failed"] >= 1,
          f"an inexact first answer was not counted: {result}")


def wrong_stream_answers_are_counted() -> None:
    cls = workloads.StreamingValmod
    real = cls.discords

    def dropped(self):
        return real(self)[:-1]  # one discord short

    # Every refresh is short, and the first pass's first and last also
    # differ from batch: still one failure per refresh, which is half of
    # the operations (one extend() and one refresh per chunk).
    with patched(cls, "discords", dropped):
        result = run_tiny("stream-monitor", 0)
    check(not result["correct"] and 2 * result["failed"] == result["attempted"],
          f"short discord answers were not counted once each: {result}")

    real_extend = cls.extend
    calls = []

    def raises_once(self, values):
        real_extend(self, values)
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("deliberate extend failure")

    with patched(cls, "extend", raises_once), \
            contextlib.redirect_stderr(io.StringIO()):
        result = run_tiny("stream-monitor", 0)
    check(not result["correct"] and result["failed"] == 1,
          f"a raising extend() was not counted exactly once: {result}")


def main() -> int:
    with open(os.path.join(run.env.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads.WORKLOADS.update(TINY)
    every_metric_is_emitted(spec)
    every_layer_metric_has_a_prediction(spec)
    wrong_motifs_are_counted()
    wrong_first_answer_is_counted()
    wrong_stream_answers_are_counted()
    print("perfbench smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
