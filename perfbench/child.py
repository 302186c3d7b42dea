"""One workload process.

Imports gammalab from ``src/`` of the current directory, makes the
workload's inputs from the seed, prints the moment it became ready
(``time.perf_counter``, which is the system-wide monotonic clock) and
then runs the passes.  The last line of stdout is one JSON object.

    python3 perfbench/child.py --workload queries --seed 1 --seconds 10
    python3 perfbench/child.py --workload queries --seed 1 --setup-only

With ``--trace-file`` the passes run under the tracer, and the kernel
probes run first, untraced.  ``run.py`` starts this process; it is not
meant to be run by hand except to debug a workload.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import statistics
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

MODULES = ("polynomial", "expansions", "families", "oracles", "stability", "verify", "cli")


def import_program(root: str) -> SimpleNamespace:
    """Import gammalab from ``root/src`` and nowhere else."""
    src = os.path.join(root, "src")
    package = os.path.join(src, "gammalab")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise SystemExit(f"perfbench: no gammalab sources under {src}")
    sys.path.insert(0, src)
    mods = {name: importlib.import_module(f"gammalab.{name}") for name in MODULES}
    if os.path.dirname(os.path.abspath(mods["cli"].__file__)) != os.path.abspath(package):
        raise SystemExit("perfbench: gammalab was imported from outside the checkout")
    return SimpleNamespace(**mods)


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def kernel_probes(gl, seed: int) -> dict[str, float]:
    """``UniPoly`` kernels on seeded degree-40 operands, untraced."""
    rng = random.Random(seed)
    poly = gl.polynomial.UniPoly

    def ints(deg):
        return [rng.randint(-99, 99) for _ in range(deg)] + [rng.randint(1, 99)]

    def rats(deg):
        return [Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(deg)] + [Fraction(rng.randint(1, 99), rng.randint(1, 99))]

    a, b = poly(ints(40)), poly(ints(40))
    r, s, big = poly(rats(40)), poly(rats(40)), poly(rats(80))
    return {
        "polynomial.mul_int_d40_ms": 1e3 * _median_time(lambda: a * b, 15),
        "polynomial.mul_rat_d40_ms": 1e3 * _median_time(lambda: r * s, 9),
        "polynomial.divmod_rat_d40_ms": 1e3 * _median_time(lambda: divmod(big, s), 9),
        "polynomial.add_int_d40_us": 1e6 * _median_time(lambda: a + b, 201),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench-child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--passes", type=int, default=None, help="repeat passes; default: fill --seconds")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-file", default=None)
    args = parser.parse_args(argv)

    gl = import_program(os.getcwd())
    import tracer
    import workloads

    work = workloads.Workload(args.workload, args.seed, gl)
    ready = time.perf_counter()
    result: dict = {"ready": ready, "workload": args.workload}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tally = workloads.Tally()
    if args.trace_file:
        result["probes"] = kernel_probes(gl, args.seed)
        trace = tracer.Tracer()
        trace.install()
        try:
            first_s, repeats = work.run(tally, args.seconds, args.passes)
        finally:
            trace.restore()
        leftover = trace.leftover_wrappers()
        tally.check(not leftover, f"bindings left wrapped: {leftover}")
        result["layers"] = trace.metrics(first_s + sum(repeats))
        trace.write(args.trace_file)
    else:
        first_s, repeats = work.run(tally, args.seconds, args.passes)
    result.update(
        first_pass_s=first_s,
        repeat_pass_s=repeats,
        ops=tally.ops,
        attempted=tally.attempted,
        failed=tally.failed,
        failures=tally.failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
