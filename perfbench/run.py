"""Closed-loop verdict benchmark for oklab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client sends a seeded stream of requests to oklab's public entry
points, one after another, and checks every verdict.  The stream comes in
batches; each batch runs in a fresh worker process, so module caches start
empty as they do for every `oklab` invocation.  Batches run one at a time
until S seconds are used, and at least three run.  Latency and throughput
pool every request of the run; set-up time and memory are medians over
the batches.

Times are stated at reference host speed.  A shared host runs the same
code up to twice as slowly in phases that last from seconds to minutes,
which no run length averages away.  So the worker times a fixed
calibration kernel (worker.kernel_s) before set-up, after set-up and
after every request, and each measured time t is reported as
t * REFERENCE_KERNEL_S / k, with k the mean of the kernel times taken
just before and just after it.  The report also prints the times as
measured.

With --trace 0 the last line of output is a JSON object with the
end-to-end metrics.  With --trace 1 the first batch runs alternately
untraced and traced; the traced runs wrap each public oklab function from
outside (see spans.py) and give the per-layer metrics.  Earlier lines are
a human-readable report.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from math import ceil
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("additivity", "intersection", "geometry", "queries")
MIN_BATCHES = 3
# The calibration kernel's median time on the machine the baseline was
# measured on (2 vCPUs, Python 3.11); it only fixes the unit.
REFERENCE_KERNEL_S = 0.0013
BATCH_TIMEOUT_S = 150
TAIL_BEYOND = 10  # samples above the tail percentile in the shortest run

END_TO_END_UNITS = {"verdicts_per_s": "1/s", "verdict_p50_ms": "ms",
                    "verdict_tail_ms": "ms", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s" if name.endswith("self_s") else "1/s"
    if name.endswith(("_ratio", "_x")):
        return "ratio"
    return "count"


class WorkerError(RuntimeError):
    pass


def run_worker(requests: list, tmpdir: str, traced: bool) -> dict:
    """Run one batch in a fresh process."""
    env = {k: v for k, v in os.environ.items() if k != "OKLAB_CATALOG"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--trace", str(int(traced))],
            input=json.dumps({"requests": requests, "tmpdir": tmpdir}),
            capture_output=True, text=True, cwd=ROOT, env=env,
            timeout=BATCH_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"batch exceeded {BATCH_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout)
    result["traced"] = traced
    return result


def run_batches(batches, seconds: float, traced: bool) -> list[dict]:
    """Batches until `seconds` are used; traced mode repeats the first one."""
    reps: list[dict] = []
    start = perf_counter()
    first = next(batches)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmpdir:
        while True:
            round_start = perf_counter()
            if traced:
                reps.append(run_worker(first, tmpdir, False))
                reps.append(run_worker(first, tmpdir, True))
            else:
                reps.append(run_worker(first if not reps else next(batches),
                                       tmpdir, False))
            done = traced or len(reps) >= MIN_BATCHES
            now = perf_counter()
            if done and now - start + (now - round_start) > seconds:
                return reps


def tail_fraction(batch_size: int) -> float:
    """Highest quantile with TAIL_BEYOND samples beyond it in the shortest run."""
    return 1 - TAIL_BEYOND / (MIN_BATCHES * batch_size)


def at_reference_speed(rep: dict) -> list[float]:
    k = rep["kernel_s"]
    return [t * REFERENCE_KERNEL_S * 2 / (k[i] + k[i + 1])
            for i, t in enumerate(rep["latencies_s"])]


def end_to_end(reps: list[dict], calibrated: bool = True) -> dict:
    if calibrated:
        latencies = sorted(x for r in reps for x in at_reference_speed(r))
        setups = [r["setup_s"] * REFERENCE_KERNEL_S / r["setup_kernel_s"]
                  for r in reps]
    else:
        latencies = sorted(x for r in reps for x in r["latencies_s"])
        setups = [r["setup_s"] for r in reps]
    q = tail_fraction(len(reps[0]["latencies_s"]))
    return {
        "verdicts_per_s": len(latencies) / sum(latencies),
        "verdict_p50_ms": median(latencies) * 1000,
        "verdict_tail_ms": latencies[ceil(q * len(latencies)) - 1] * 1000,
        "setup_s": median(setups),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in reps),
    }


def is_time(name: str) -> bool:
    return name.endswith(("self_s", "_ms"))


def per_layer(reps: list[dict]) -> dict:
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    speed = [REFERENCE_KERNEL_S / median(r["kernel_s"]) for r in traced]
    out = {}
    for name, value in traced[0]["layers"].items():
        # counts repeat exactly; times are medians over the traced runs
        out[name] = median(r["layers"][name] * f for r, f in zip(traced, speed)) \
            if is_time(name) else value
    plain_vps = end_to_end(plain)["verdicts_per_s"]
    traced_vps = end_to_end(traced)["verdicts_per_s"]
    out["trace.verdicts_per_s"] = traced_vps
    out["trace.untraced_verdicts_per_s"] = plain_vps
    out["trace.overhead_x"] = plain_vps / traced_vps
    return out


def print_report(args, reps, metrics) -> None:
    n = len(reps[0]["latencies_s"])
    attempted = sum(len(r["latencies_s"]) for r in reps)
    failed = sum(r["failed"] for r in reps)
    print(f"workload {args.workload}, seed {args.seed}: {len(reps)} batches "
          f"of {n} requests, each in a fresh process "
          f"({sum(r['traced'] for r in reps)} traced), one closed-loop client")
    for name, value in metrics.items():
        unit = END_TO_END_UNITS.get(name) or layer_unit(name)
        if args.trace and value == 0:
            continue
        print(f"  {name:<52} {value:>14.6g} {unit}")
    if not args.trace:
        print(f"  verdict_tail_ms is the p{100 * tail_fraction(n):.2f} latency "
              f"of the {attempted} requests of the run")
        raw = end_to_end(reps, calibrated=False)
        print("  as measured: " + ", ".join(
            f"{name} {raw[name]:.6g}" for name in raw if name != "peak_rss_mb"))
    kernel = median(k for r in reps for k in r["kernel_s"])
    print(f"  calibration kernel median {kernel * 1000:.4g} ms "
          f"(reference {REFERENCE_KERNEL_S * 1000:.4g} ms)")
    print(f"  failed_frac {failed / attempted:.6g} ({failed} of {attempted} "
          "requests failed)")
    print(f"  verdict digest of the first batch {reps[0]['digest']}")
    if args.trace:
        same = all(r["digest"] == reps[0]["digest"] for r in reps)
        print(f"  traced and untraced digests {'agree' if same else 'DIFFER'}")
        print("  heaviest spans by self time (first traced run):")
        first = next(r for r in reps if r["traced"])
        for self_s, calls, total, name, parent in first["top_spans"]:
            print(f"    {name:<40} <- {parent:<36} {calls:>8} calls "
                  f"{self_s:10.4f} s self {total:10.4f} s total")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "oklab" / "__init__.py").is_file():
        print(f"error: no oklab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    batches = workloads.batches(args.workload, args.seed)
    try:
        reps = run_batches(batches, args.seconds, bool(args.trace))
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = per_layer(reps) if args.trace else end_to_end(reps)
    print_report(args, reps, metrics)
    failed = sum(r["failed"] for r in reps)
    # in a traced run every batch is the first one, so every digest agrees
    deterministic = not args.trace or len({r["digest"] for r in reps}) == 1
    units = {name: END_TO_END_UNITS.get(name) or layer_unit(name) for name in metrics}
    print(json.dumps({
        "correct": failed == 0 and deterministic,
        "attempted": sum(len(r["latencies_s"]) for r in reps),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
