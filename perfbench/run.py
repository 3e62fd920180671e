"""End-to-end benchmark of the POD-Diagnosis reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload paper-campaign --seed 2014 --seconds 20 --trace 0

Workloads: ``paper-campaign``, ``chaos-recovery``, ``log-replay`` (see
``workloads.py``).  ``--trace 0`` measures the end-to-end metrics with no
instrumentation; ``--trace 1`` makes a separate traced run and reports
per-layer counts and self times instead (see ``tracing.py``).  The last
line of standard output is one JSON object::

    {"correct": true, "attempted": 160, "failed": 0, "metrics": {...}}

``correct`` is false when any output check failed; the reasons go to
standard error.  Spans of a traced run are written to
``.perfbench_out/spans-<workload>-<seed>.json``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
#: Set-up is timed this many times per run (this process + fresh ones).
SETUP_SAMPLES = 3


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit (used for set-up samples)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def setup_sample(args) -> float:
    """Set-up time of the same workload in a fresh interpreter."""
    command = [sys.executable, str(pathlib.Path(__file__).resolve()), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=150,
                          check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    # Set-up is timed from the start, in laps scaled to the tuning host's
    # speed (see ``workloads.host_scale``): imports, then each set-up step.
    clock = workloads.LapClock(scaled=True)
    clock.started = _STARTED
    clock.lap()
    args = parse_args(argv, workloads.WORKLOADS)
    OUT.mkdir(exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT))
    try:
        workload = workloads.build(args.workload, args.seed, workdir, clock)
        clock.lap()
        setup_s = clock.total
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            spans = OUT / f"spans-{args.workload}-{args.seed}.json"
            result = workload.traced(args.seconds, spans)
            units = declared_units("per_layer")
        else:
            setups = [setup_s] + [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
            result = workload.measure(args.seconds)
            result["metrics"]["setup_s"] = statistics.median(setups)
            result["metrics"]["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
            units = declared_units("end_to_end")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(result["metrics"]) != set(units):
        raise RuntimeError(f"metrics {sorted(result['metrics'])} differ from {sorted(units)}")
    for failure in workload.checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in sorted(result["metrics"].items())}
    print(json.dumps({
        "correct": workload.checks.ok and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
