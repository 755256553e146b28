"""VALMOD performance benchmark: one workload per run, one JSON result.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload motifs-tight --seed 0 --seconds 20 --trace 0

Workloads (see ``workloads.py`` for why each exists): ``motifs-tight``,
``motifs-collapse``, ``stream-monitor``.  Inputs are generated from
``--seed`` only; the default seed is 0 and the held-out seed, never used
while the sizes were tuned, is 7919.

``--trace 0`` reports the end-to-end metrics, untraced.  Times are in
reference-host seconds: each operation's raw time is scaled by the
host-speed probe of ``hostspeed.py``, sampled between the timed
operations next to it, so the drift of a shared host cancels; the raw
values are printed beside them.

* ``setup_s`` — importing ``repro`` in a fresh interpreter plus
  generating the input and constructing the program objects (median of
  nine of each, scaled by host probes sampled with them).  On
  ``stream-monitor`` the construction includes the cold first
  ``motifs()``/``discords()``, which a stream pays once.
* ``motifs_s`` — median wall time of one exact VALMOD run: a
  ``valmod()`` call on ``motifs-*``, the ``motifs()`` materialization of
  a refresh on ``stream-monitor``.
* ``refresh_s`` / ``refresh_s_p75`` — median and 75th percentile of one
  answer refresh: ``motifs()`` + ``discords()`` after a chunk on
  ``stream-monitor`` (40 refreshes a pass, several passes a run); on
  ``motifs-*`` a static series is refreshed by one ``valmod()`` call, so
  these are the median and 75th percentile of the calls.
* ``ingest_points_per_s`` — points fed per second of ``extend()`` time
  on ``stream-monitor``; series points analysed per second of
  ``valmod()`` time on ``motifs-*``.
* ``peak_rss_mb`` — peak resident memory of the process.
* ``ok_frac`` — operations that neither raised nor failed their
  correctness check, over operations attempted.  It is ``1 -
  failed_frac``: the failure share itself is 0 on a correct program, and
  is printed beside it.

``--trace 1`` follows each untraced unit of work with a traced one, and
reports the per-layer metrics of ``tracing.py`` per traced unit of work
(one ``valmod()`` call, or one whole stream pass), in raw seconds,
grouped by layer under the prediction of which end-to-end metric a
change to that layer should move, and on which workload.

The last line of standard output is the JSON result; the lines before
it print every metric by name with its unit, the sample counts and the
environment the result was recorded in.  Exits 2 without a result when
the workload cannot be measured.
"""

import argparse
import json
import os
import resource
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import env  # noqa: E402  (must run before numpy is imported)

env.pin()

DEFAULT_SEED = 0

UNITS = {
    "setup_s": "s",
    "motifs_s": "s",
    "refresh_s": "s",
    "refresh_s_p75": "s",
    "ingest_points_per_s": "points/s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the program from {env.SRC}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        names = ", ".join(workloads.WORKLOADS)
        print(f"error: unknown workload {args.workload!r}; choose one of: {names}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    import tracing

    try:
        outcome = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (workloads.BenchmarkError, tracing.TraceError,
            subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    tally = outcome.tally
    raw = outcome.raw
    e2e = dict(outcome.reported)
    e2e["peak_rss_mb"] = peak_rss_mb()
    e2e["ok_frac"] = workloads.ok_fraction(tally)

    meta = env.describe()
    meta.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, timed_samples=outcome.samples,
                host_scale=outcome.host_scale)
    print("# perfbench " + json.dumps(meta, sort_keys=True))
    print(f"{'metric':<24} {'reported':>14} {'raw':>14} unit")
    for name, value in e2e.items():
        print(f"{name:<24} {value:>14.6g} {raw.get(name, value):>14.6g} {UNITS[name]}")
    print(f"{'failed_frac':<24} {1.0 - e2e['ok_frac']:>14.6g} {'':>14} fraction"
          f"  ({tally.failed} of {tally.attempted} operations)")

    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in outcome.per_layer.items()}
        for layer, names, moves, on in tracing.PREDICTIONS:
            print(f"# {layer}: should move {moves}; on {on}")
            for name in names:
                value, unit = outcome.per_layer[name]
                print(f"  {name:<34} {value:>14.6g} {unit}")
    else:
        metrics = {name: {"value": value, "unit": UNITS[name]}
                   for name, value in e2e.items()}

    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
