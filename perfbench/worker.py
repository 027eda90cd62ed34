"""One batch of requests, run in a fresh process so oklab starts cold.

Reads {"requests": [...], "tmpdir": "..."} as JSON on stdin and writes one
JSON object with the timings, the verdict digest and, when traced, the
per-layer report on stdout.  Usage: worker.py --trace 0|1

A fixed calibration kernel runs before set-up, after set-up and after
every request, so run.py can state each time at the host speed of the
moment it was taken.
"""

import gc
import hashlib
import json
import resource
import sys
from contextlib import redirect_stdout
from math import gcd
from pathlib import Path
from time import perf_counter


class _Rational:
    __slots__ = ("n", "d")

    def __init__(self, n, d):
        g = gcd(n, d)
        self.n, self.d = n // g, d // g

    def __add__(self, other):
        return _Rational(self.n * other.d + other.n * self.d, self.d * other.d)

    def __mul__(self, other):
        return _Rational(self.n * other.n, self.d * other.d)


def kernel_s() -> float:
    """Seconds taken by a fixed rational-arithmetic kernel, GC paused.

    It exercises what oklab spends its time on (small-integer arithmetic,
    object allocation, dict and tuple work) and none of oklab's code.
    """
    gc.disable()
    start = perf_counter()
    table = {}
    for i in range(1, 300):
        f = _Rational(i, i + 7) * _Rational(3, i + 1) + _Rational(i % 5, 11)
        key = (i % 17, i % 13)
        old = table.get(key)
        table[key] = f if old is None else old + f
    sorted(table, key=lambda k: table[k].n * 7 // table[k].d)
    elapsed = perf_counter() - start
    gc.enable()
    return elapsed


def main() -> None:
    traced = sys.argv[1:] == ["--trace", "1"]
    job = json.load(sys.stdin)
    out = sys.stdout
    with redirect_stdout(sys.stderr):
        result = measure(job["requests"], Path(job["tmpdir"]), traced)
    json.dump(result, out)


def measure(requests: list, tmpdir: Path, traced: bool) -> dict:
    before_setup = kernel_s()
    start = perf_counter()
    import oklab.cli  # noqa: F401  (loads every layer, as the `oklab` command does)

    tracer = None
    if traced:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        tracer.active = True
    from oklab.toric import testbed, testbed_names

    for name in testbed_names():
        testbed(name).classes  # noqa: B018  (builds the NumClassSpace)
    setup_s = perf_counter() - start
    kernels = [kernel_s()]

    import workloads

    if tracer is not None:
        tracer.enter(spans.REQUESTS)
    summaries, latencies = [], []
    for req in requests:
        t = perf_counter()
        try:
            summary = workloads.run_request(req, tmpdir)
        except Exception as exc:  # a raising request is a failed verdict
            summary = {"error": f"{type(exc).__name__}: {exc}"}
        latencies.append(perf_counter() - t)
        summaries.append(summary)
        kernels.append(kernel_s())
    if tracer is not None:
        tracer.active = False

    lines, failed = [], 0
    for req, summary in zip(requests, summaries):
        if "error" in summary:
            ok, line = False, "error " + summary["error"]
        else:
            ok, line = workloads.check(req, summary)
        failed += not ok
        lines.append(line)
    result = {
        "setup_s": setup_s,
        "setup_kernel_s": (before_setup + kernels[0]) / 2,
        "latencies_s": latencies,
        "kernel_s": kernels,
        "failed": failed,
        "digest": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = tracer.report()
        result["top_spans"] = tracer.top_spans(12)
    return result


if __name__ == "__main__":
    main()
