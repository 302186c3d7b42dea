"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q perfbench/tests

The traced registry test runs the whole registry once (about 25 s).
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import child  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

GL = child.import_program(ROOT)


def _bindings() -> dict:
    owners = tracer._package_modules() + [GL.polynomial.UniPoly]
    return {(id(owner), attr): value for owner in owners for attr, value in vars(owner).items()}


def test_same_seed_gives_identical_inputs():
    idents = list(GL.verify.REGISTRY)
    for make in (inputs.queries, inputs.search, lambda seed: inputs.registry_order(seed, idents)):
        assert json.dumps(make(11)) == json.dumps(make(11))
        assert json.dumps(make(11)) != json.dumps(make(12))


def test_inputs_are_built_without_gammalab():
    source = open(inputs.__file__, encoding="utf-8").read()
    assert "import gammalab" not in source and "from gammalab" not in source


def test_traced_registry_keeps_digest_and_bindings():
    snapshot = _bindings()
    trace = tracer.Tracer()
    tally = workloads.Tally()
    trace.install()
    try:
        assert _bindings() != snapshot
        workloads.registry_first(GL, tally)
    finally:
        trace.restore()
    assert tally.attempted == len(GL.verify.REGISTRY) + 1
    assert tally.failed == 0, tally.failures
    assert trace.leftover_wrappers() == []
    assert _bindings() == snapshot
    metrics = trace.metrics(sum(s for _, s in trace.stats.values()))
    assert metrics["verify.MFS_ORBIT_SQ.wall_s"] > 0
    assert metrics["oracles.perms_enumerated"] > 0
    assert metrics["polynomial.mul.calls"] > 0


def test_wrong_expectation_is_counted_as_failure():
    requests = inputs.queries(5)[:40]
    tally = workloads.Tally()
    workloads.queries_pass(GL, requests, tally, {}, timed=False)
    assert tally.failed == 0, tally.failures

    expand = next(r for r in requests if r["kind"] == "expand" and "coeffs" in r["expect"])
    expand["expect"]["coeffs"] = expand["expect"]["coeffs"][:-1] + ["12345"]
    stab = next(r for r in requests if r["kind"] == "stability")
    stab["expect"]["status"] = "unknown"
    tally = workloads.Tally()
    workloads.queries_pass(GL, requests, tally, {}, timed=False)
    assert tally.failed == 2
    assert tally.failed / tally.attempted > 0

    item = {"kind": "mn_combination", "n": 3, "status": "unstable"}
    tally = workloads.Tally()
    workloads.search_pass(GL, [item], tally, timed=False)
    assert tally.failed == 1
