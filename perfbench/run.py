"""gammalab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload registry --seed 1 --seconds 10 --trace 0

Run from the root of a gammalab checkout; the program is imported from
its ``src/``.  Each run starts a fresh workload process (``child.py``)
that makes the inputs from the seed and drives gammalab as a closed loop
with one client in one thread.  Set-up is measured on several extra
launches that stop once the inputs are ready.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
workload twice, untraced and then traced with the same number of passes,
and reports the per-layer metrics and the tracing overhead; spans and
counters go to ``.perfbench_out/``.  Metric names and units come from
``BENCHMARK.json``.  The last line of stdout is one JSON object; the
exit code is 0 only when every answer was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = ".perfbench_out"
SETUP_LAUNCHES = 8
RUN_LIMIT_S = 170.0
TAIL_SAMPLES_ABOVE = 10

# The workload-specific names of the end-to-end metrics, for the report.
ALIASES = {
    "registry": {"verify_cold_s": "first_pass_s", "verify_warm_s": "repeat_pass_s"},
    "queries": {"queries_per_s": "ops_per_s"},
    "search": {"search_s": "first_pass_s"},
}


class RunFailed(Exception):
    pass


def launch(args: list[str], deadline: float) -> tuple[dict, float]:
    """Start a workload process and wait for it; returns its result and
    its set-up time (launch to inputs ready)."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, *args],
            capture_output=True,
            text=True,
            timeout=max(deadline - t0, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"workload process timed out: {' '.join(args)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-5:]
        raise RunFailed(f"workload process exited {proc.returncode}: " + " | ".join(tail))
    result = json.loads(lines[-1])
    return result, result["ready"] - t0


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it."""
    ordered = sorted(values)
    i = max(len(ordered) - 1 - TAIL_SAMPLES_ABOVE, 0)
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def end_to_end(result: dict, setups: list[float]) -> tuple[dict, list[str]]:
    """The end-to-end metrics, and report lines for the latencies that
    are printed but not gated."""
    ops = result["ops"]
    repeats = result["repeat_pass_s"]
    metrics = {
        "setup_s": statistics.median(setups),
        "first_pass_s": result["first_pass_s"],
        "repeat_pass_s": statistics.median(repeats),
        "ops_per_s": len(ops) / sum(repeats),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = [f"{alias} = {name}" for alias, name in ALIASES[result["workload"]].items()]
    notes += [
        f"setup_s: median of {len(setups)} launches",
        f"first_pass_s: 1 pass; repeat_pass_s: median of {len(repeats)} passes",
        f"failed_ratio: {result['failed'] / result['attempted']:.6g} ({result['failed']} of {result['attempted']} checks)",
    ]
    prefix = "query" if result["workload"] == "queries" else "op"
    seconds = [s for _, s in ops]
    tail_s, tail_pct = tail(seconds)
    notes += [
        f"{prefix}_p50_ms: {1e3 * statistics.median(seconds):.6g} ms",
        f"{prefix}_tail_ms: {1e3 * tail_s:.6g} ms at p{tail_pct:.1f} of {len(seconds)} operations in the repeat passes",
    ]
    by_kind: dict[str, list[float]] = {}
    for kind, s in ops:
        by_kind.setdefault(kind, []).append(s)
    if len(by_kind) > 1:
        notes += [f"{kind}_p50_ms: {1e3 * statistics.median(v):.6g} ms over {len(v)} operations" for kind, v in sorted(by_kind.items())]
    return metrics, notes


def run(args: argparse.Namespace) -> tuple[dict, int, int, list[str]]:
    deadline = time.perf_counter() + RUN_LIMIT_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    timed = base + ["--seconds", str(args.seconds)]
    if not args.trace:
        # Half the set-up launches go before the timed process and half
        # after, so that the median samples more than one stretch of time.
        setups = [launch(base + ["--setup-only"], deadline)[1] for _ in range(SETUP_LAUNCHES // 2)]
        result, setup = launch(timed, deadline)
        setups += [launch(base + ["--setup-only"], deadline)[1] for _ in range(SETUP_LAUNCHES - SETUP_LAUNCHES // 2)]
        metrics, notes = end_to_end(result, setups + [setup])
        return metrics, result["attempted"], result["failed"], notes + result["failures"]
    plain, _ = launch(timed, deadline)
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_file = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    passes = str(len(plain["repeat_pass_s"]))
    traced, _ = launch(timed + ["--passes", passes, "--trace-file", trace_file], deadline)
    plain_s = plain["first_pass_s"] + sum(plain["repeat_pass_s"])
    traced_s = traced["first_pass_s"] + sum(traced["repeat_pass_s"])
    metrics = dict(traced["layers"], **traced["probes"])
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    notes = [
        f"traced {traced_s:.3f} s against untraced {plain_s:.3f} s over 1 + {passes} passes",
        f"spans and counters: {trace_file}",
        "oracles.perms_enumerated is computed: n! for each call that enumerated S_n afresh",
    ]
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    return metrics, attempted, failed, notes + plain["failures"] + traced["failures"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", required=True, choices=("registry", "queries", "search"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    try:
        values, attempted, failed, notes = run(args)
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
        return 2
    print(f"workload {args.workload}, seed {args.seed}, {'traced' if args.trace else 'untraced'}")
    for m in wanted:
        print(f"  {m['name']:<44} {values[m['name']]:>14.6g} {m['unit']}")
    for note in notes:
        print(f"  # {note}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
