"""Wall times of the `oklab verify` suites, each call in a fresh process.

    python3 tools/bench_suites.py [--src DIR --label NAME]... [--out FILE]

Each of RUNS runs calls `oklab verify --suite S --out TMP` once per source tree for
each of the eight suites and for `all`.  One trivial request, `oklab mu
--testbed p2 --class 1,0,0 --flag cone:0,1 --out TMP`, runs under the name
`startup` in each of STARTUP_RUNS runs: the interpreter, the imports and
little else, whose change of a few ms five runs do not resolve on a shared
host.  Each call runs in a fresh interpreter with the caller's environment
(PYTHONDONTWRITEBYTECODE included) and the tree's `src` directory on
PYTHONPATH, so a time covers start-up, imports and cold caches.  Two trees (repeat `--src` and `--label`, in the
same order) alternate call by call, and the order flips every run, so the
speed phases of a shared host fall on both alike.  A call reports the
median and quartiles of its times in seconds and the sha256 of its
report, which must be the same in every run of a tree.  The results go to
FILE (default BENCH_suites.json at the repo root) under `runs[NAME]`, next
to the runs already there.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import quantiles
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
RUNS, STARTUP_RUNS = 5, 21
SUITES = ("additivity", "slices", "replay", "prop14", "cor13", "lemma61", "cor15", "lx", "all")
CALLS = {**{s: ("verify", "--suite", s) for s in SUITES},
         "startup": ("mu", "--testbed", "p2", "--class", "1,0,0", "--flag", "cone:0,1")}
CLI = "import sys; from oklab.cli import main; sys.exit(main(sys.argv[1:]))"


def time_call(src: Path, args: tuple, out: Path) -> tuple[float, str]:
    """(wall seconds, report sha256) of one `oklab ARGS --out OUT` call."""
    env = {k: v for k, v in os.environ.items() if k != "OKLAB_CATALOG"}  # builtin testbeds
    env["PYTHONPATH"] = str(src)
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-c", CLI, *args, "--out", str(out)],
                          env=env, capture_output=True, text=True)
    seconds = perf_counter() - start
    if proc.returncode not in (0, 1):  # 1: the report holds failed records
        raise SystemExit(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return seconds, hashlib.sha256(out.read_bytes()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, action="append",
                        help="directory that holds the oklab package (repeatable)")
    parser.add_argument("--label", action="append", help="name of the run of each --src")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_suites.json")
    args = parser.parse_args(argv)
    srcs = [p.resolve() for p in args.src or [ROOT / "src"]]
    labels = args.label or ["current"]
    if len(labels) != len(srcs):
        parser.error("give one --label per --src")

    times = {label: {s: [] for s in CALLS} for label in labels}
    digests = {label: {} for label in labels}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        for run in range(STARTUP_RUNS):
            trees = list(zip(labels, srcs))
            if run % 2:
                trees.reverse()
            for suite, call in CALLS.items():
                if run >= (STARTUP_RUNS if suite == "startup" else RUNS):
                    continue
                for label, src in trees:
                    seconds, digest = time_call(src, call, out)
                    if digests[label].setdefault(suite, digest) != digest:
                        raise SystemExit(f"{label}: the {suite} report changed between runs")
                    times[label][suite].append(seconds)
                    print(f"run {run} {label:24s} {suite:10s} {seconds:7.2f} s", flush=True)

    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    for label in labels:
        suites = {}
        for suite, ts in times[label].items():
            q1, q2, q3 = quantiles(ts, n=4)
            suites[suite] = {"median_s": round(q2, 3), "q1_s": round(q1, 3),
                             "q3_s": round(q3, 3), "times_s": [round(t, 3) for t in ts],
                             "sha256": digests[label][suite]}
        data.setdefault("runs", {})[label] = {
            "runs": RUNS, "startup_runs": STARTUP_RUNS,
            "alternated_with": [x for x in labels if x != label],
            "python": platform.python_version(), "machine": platform.machine(),
            "suites": suites}
    args.out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
