"""The three workloads: their passes, per-operation timing and the
correctness check of every answer.

Each workload is a closed loop with one client in one thread: an
operation starts only after the previous one returned.  A run is one
first pass in a fresh process (caches cold) and then repeat passes over
the same inputs in the same process until the run time is used up.
Operation latencies are taken from the repeat passes, once the
program's caches have filled.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from fractions import Fraction

import inputs

WORKLOADS = ("registry", "queries", "search")

# sha256 of `gammalab verify all --json` at the default bounds.
REGISTRY_DIGEST = "cb540ad7cf2d20c083a969b323040a91342a5e4fcdc1249511164de3960d90a0"

MAX_FAILURES_KEPT = 10

clock = time.perf_counter


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class Tally:
    """Latencies of timed operations and the count of failed checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.ops: list[tuple[str, float]] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < MAX_FAILURES_KEPT:
                self.failures.append(what)


# -- registry -----------------------------------------------------------------------


def _check_reports(reports, tally: Tally, label: str) -> None:
    for r in reports:
        tally.check(r.status == "pass", f"{label}: {r.ident} reported {r.status}")
    text = canonical_json([r.to_json() for r in sorted(reports, key=lambda r: r.ident)]) + "\n"
    digest = hashlib.sha256(text.encode()).hexdigest()
    tally.check(digest == REGISTRY_DIGEST, f"{label}: report digest {digest}")


def registry_first(gl, tally: Tally) -> None:
    _check_reports(gl.verify.run_all(), tally, "cold pass")


def registry_repeat(gl, order: list[str], tally: Tally) -> None:
    reports = []
    for ident in order:
        t0 = clock()
        reports.append(gl.verify.run_identity(ident))
        tally.ops.append(("identity", clock() - t0))
    _check_reports(reports, tally, "warm pass")


# -- queries ------------------------------------------------------------------------


def call_cli(gl, argv: list[str]) -> tuple[int, str, float]:
    """``cli.main(argv)`` with stdout and stderr captured; returns the
    exit code, stdout and the wall time of the call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = clock()
        code = gl.cli.main(argv)
        dt = clock() - t0
    return code, out.getvalue(), dt


def answer_errors(request: dict, code: int, text: str, answers: dict) -> str | None:
    """Why an answer contradicts its construction, or None if it agrees."""
    if code != 0:
        return f"exit {code}"
    try:
        payload = json.loads(text)
    except ValueError:
        return "output is not JSON"
    expect = request["expect"]
    if request["kind"] == "family":
        first = answers.setdefault(expect["key"], text)
        if first != text:
            return "repeated request gave another answer"
        if expect["at_one"] is not None and sum(map(Fraction, payload), Fraction(0)) != Fraction(expect["at_one"]):
            return f"value at 1 is not {expect['at_one']}"
        return None
    wrong = sorted(k for k, v in expect.items() if payload.get(k) != v)
    return f"wrong {', '.join(wrong)}" if wrong else None


def queries_pass(gl, requests: list[dict], tally: Tally, answers: dict, timed: bool) -> None:
    for request in requests:
        try:
            code, text, dt = call_cli(gl, request["argv"])
        except Exception as exc:  # a traceback is a failed request, not a stopped run
            tally.check(False, f"{' '.join(request['argv'][:3])}: raised {exc!r}")
            continue
        if timed:
            tally.ops.append((request["kind"], dt))
        error = answer_errors(request, code, text, answers)
        tally.check(error is None, f"{' '.join(request['argv'][:3])}: {error}")


# -- search -------------------------------------------------------------------------


def verdict_errors(status: str, routh: str, expected: str) -> str | None:
    if status != expected:
        return f"hurwitz says {status}, construction says {expected}"
    if routh != "indeterminate" and (routh == "stable") != (status == "stable"):
        return f"routh says {routh}, hurwitz says {status}"
    return None


def search_item(gl, item: dict) -> str | None:
    kind = item["kind"]
    if kind == "conjecture_boros_moll":
        report = gl.verify.conjecture_boros_moll(item["max_m"])
        want = f"m <= {item['max_m']}"
    elif kind == "conjecture_des_exc":
        report = gl.verify.conjecture_des_exc(item["max_n"])
        want = f"n <= {item['max_n']}"
    else:
        if kind == "mn_combination":
            f = gl.families.mn_combination(item["n"])
        else:
            f = gl.polynomial.UniPoly.from_text(item["poly"])
        verdict = gl.stability.hurwitz_classify(f)
        return verdict_errors(verdict.status, gl.stability.routh_stable(f), item["status"])
    if report.status != "holds-to-bound" or report.range_run != want:
        return f"{report.status} over {report.range_run}"
    return None


def search_pass(gl, items: list[dict], tally: Tally, timed: bool) -> None:
    for item in items:
        t0 = clock()
        try:
            error = search_item(gl, item)
        except Exception as exc:  # a traceback is a failed item, not a stopped run
            error = f"raised {exc!r}"
        dt = clock() - t0
        if timed:
            tally.ops.append((item["kind"], dt))
        tally.check(error is None, f"{item['kind']} {item.get('n', '')}: {error}")


# -- driving a workload ------------------------------------------------------------------


class Workload:
    """Inputs of one workload and its first and repeat passes."""

    def __init__(self, name: str, seed: int, gl):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name, self.gl = name, gl
        self.answers: dict = {}
        if name == "registry":
            self.inputs = inputs.registry_order(seed, list(gl.verify.REGISTRY))
        elif name == "queries":
            self.inputs = inputs.queries(seed)
        else:
            self.inputs = inputs.search(seed)

    def run_pass(self, tally: Tally, first: bool) -> None:
        if self.name == "registry" and first:
            registry_first(self.gl, tally)
        elif self.name == "registry":
            registry_repeat(self.gl, self.inputs, tally)
        elif self.name == "queries":
            queries_pass(self.gl, self.inputs, tally, self.answers, timed=not first)
        else:
            search_pass(self.gl, self.inputs, tally, timed=not first)

    def run(self, tally: Tally, seconds: float, passes: int | None = None) -> tuple[float, list[float]]:
        """The first pass, then repeat passes: ``passes`` of them, or as
        many as start within ``seconds`` of the first pass (at least one).
        Returns the wall time of the first pass and of each repeat."""
        start = clock()
        self.run_pass(tally, first=True)
        first_s = clock() - start
        repeats: list[float] = []
        while True:
            t0 = clock()
            self.run_pass(tally, first=False)
            repeats.append(clock() - t0)
            if len(repeats) >= passes if passes is not None else clock() - start >= seconds:
                return first_s, repeats
