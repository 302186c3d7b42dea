import hashlib
import json
import random
from fractions import Fraction

import pytest

from gammalab import families as fam
from gammalab import verify as v
from gammalab.polynomial import BiPoly, UniPoly

# Every identity the workbench is contracted to cover must be registered.
REQUIRED_IDS = [
    "ANXBNX",
    "FOATA",
    "MFS_ORBIT",
    "MFS_ORBIT_SQ",
    "PNQN",
    "PNQN02",
    "CUBE",
    "COKER1",
    "COKER2",
    "RIORDAN",
    "CWZ",
    "NA_ALT",
    "NB_ALT",
    "NA_SHIFT",
    "NB_SHIFT",
    "ND_ALT",
    "OPID_A",
    "OPID_A2",
    "OPID_B2",
    "OPID_NA",
    "OPID_NB",
    "OPID_MN",
    "MN_GAMMA",
    "MN_STABLE",
    "MN_FACTOR",
    "LN_RECU",
    "LN_CLOSED",
    "LN_SUM",
    "STEMBRIDGE",
    "LEFTPEAK_B",
    "THM51_I",
    "THM51_II",
    "THM51_III",
    "THM51_IV",
    "COR15",
    "ABREC",
    "SPECIALS",
    "ALPHA_ORACLE",
    "BETA_ORACLE",
    "FN_SEMI",
    "FN_CONV",
    "THM_FNX",
    "PRODUCT_LEMMA",
    "THM31_I",
    "THM31_II",
    "THM31_III",
    "THM31_IV",
    "ODD_CEX",
    "CYCLO_RED",
    "CM_COUNT",
    "CY_COUNT",
    "NARA_231",
    "NARA_B4",
    "BM_RECU",
    "BM_Q",
    "SYMDEC",
]


def test_registry_completeness():
    missing = [ident for ident in REQUIRED_IDS if ident not in v.REGISTRY]
    assert not missing, f"unregistered identities: {missing}"
    assert len(set(REQUIRED_IDS)) == len(REQUIRED_IDS)


def test_registry_entries_are_well_formed():
    for ident, check in v.REGISTRY.items():
        assert check.ident == ident
        assert check.description
        assert check.default_bound >= 0


def test_run_identity_examples():
    report = v.run_identity("ANXBNX", 6)
    assert report.status == "pass" and report.range_run == "n <= 6"
    assert v.run_identity("NA_ALT", 2).status == "pass"
    assert v.run_identity("FOATA", 1).status == "pass"
    with pytest.raises(v.UnknownIdentity):
        v.run_identity("NOT_AN_ID")


def test_run_all_low_bounds_passes():
    bounds = {ident: 1 for ident in v.REGISTRY}
    bounds["ND_ALT"] = 2
    reports = v.run_all(bounds)
    assert len(reports) == len(v.REGISTRY)
    assert v.all_pass(reports)
    assert [r.ident for r in reports] == sorted(v.REGISTRY)


def test_reports_are_byte_reproducible():
    bounds = {ident: 3 for ident in v.REGISTRY}
    first = json.dumps([r.to_json() for r in v.run_all(bounds)], sort_keys=True)
    second = json.dumps([r.to_json() for r in v.run_all(bounds)], sort_keys=True)
    assert first.encode() == second.encode()


def test_negative_control_corrupted_family(monkeypatch):
    fam.eulerian_a(10)  # warm the cache so corruption cannot leak into it
    original = fam.eulerian_a

    def corrupted(n):
        poly = original(n)
        if n == 5:
            return poly + UniPoly.monomial(2)
        return poly

    monkeypatch.setattr(fam, "eulerian_a", corrupted)
    reports = {i: v.run_identity(i, 5) for i in ("ANXBNX", "FOATA", "STEMBRIDGE", "SPECIALS", "OPID_A")}
    failing = []
    for ident, report in reports.items():
        if report.status == "fail":
            assert report.witness, ident
            assert report.witness["params"], ident
            failing.append(ident)
    assert len(failing) >= 3, failing
    # The operator identity fails exactly where A_5 enters: (xD) applied to case 4.
    assert reports["OPID_A"].status == "fail"
    assert reports["OPID_A"].witness["params"] == {"n": 5}


def test_negative_control_corrupted_operator(monkeypatch):
    # x^2/(1-x) D in place of x^2/(1-x^2) D: every identity built on it
    # fails at its first case, where the operator meets the start.
    monkeypatch.setattr(v, "_X2D", (UniPoly.monomial(2), UniPoly([1, -1])))
    for ident in ("OPID_NA", "OPID_NB", "OPID_MN"):
        report = v.run_identity(ident, 4)
        assert report.status == "fail", ident
        assert report.witness["params"] == {"n": 1}, ident


def test_random_corpus_is_pinned():
    # The symmetric, gamma-positive and alternating-positive corpora, 200
    # draws each, hashed in that order: from a fresh seeded generator, and
    # through the per-trial accessor the sampled checks read.
    sequential, per_trial = hashlib.sha256(), hashlib.sha256()
    corpora = (v._random_gamma, ()), (v._POSITIVE, ((1, 12), 0)), (v._ALTERNATING, ((0, 10), 0, -1))
    for draw, args in corpora:
        rng = random.Random(271828)
        for t in range(1, 201):
            f, n = v._random_gamma(rng, *args)
            sequential.update(f"{f.to_text()}|{n};".encode())
            f, n = v._sample(draw, t)
            per_trial.update(f"{f.to_text()}|{n};".encode())
    pinned = "1ba3e0fe41cbb4b46109abb133ab7a891c3405dbb3a46fafc572e64c3cf2759e"
    assert sequential.hexdigest() == per_trial.hexdigest() == pinned
    # SYMDEC's 100 polynomials with their centers, as its sequential loop drew them.
    symdec = hashlib.sha256()
    for t in range(1, 101):
        f, n = v._sample(v._random_poly, t)
        symdec.update(f"{f.to_text()}|{n};".encode())
    assert symdec.hexdigest() == "d2fbae9df8dd8de7cd4a5d0434893b6c689172b7725d2d1e1c8b2c258c033a90"


def test_reports_count_the_cases_they_ran(monkeypatch):
    assert v.run_identity("ODD_CEX").cases == 1
    assert v.run_identity("THM31_I").cases == 200
    empty = v.run_identity("NARA_B4", -1)
    assert empty.status == "empty" and empty.cases == 0
    monkeypatch.setenv("GAMMALAB_MAX_N", "3")
    clamped = v.run_identity("FOATA")
    assert clamped.range_run == "n <= 3" and clamped.cases == 3
    # the count stays out of the byte-stable JSON report
    assert set(clamped.to_json()) == {"id", "range", "status", "witness"}


def test_negative_control_corrupted_basis_sum(monkeypatch):
    # These checks build only their expected side with basis_sum, so a
    # wrong basis sum must make them fail with a witness.
    # The random corpora draw through the same name: keep no corrupted draw.
    original = v.basis_sum
    v._stream.cache_clear()
    monkeypatch.setattr(v, "basis_sum", lambda base, terms: original(base, terms) + UniPoly.x())
    failing = []
    try:
        for ident in ("COKER1", "RIORDAN", "STEMBRIDGE", "LEFTPEAK_B", "COR15"):
            report = v.run_identity(ident, 4)
            if report.status == "fail":
                assert report.witness["params"], ident
                failing.append(ident)
    finally:
        monkeypatch.undo()
        v._stream.cache_clear()
    assert len(failing) >= 3, failing


def test_negative_control_other_family(monkeypatch):
    # Corrupting a different family also trips registered identities.
    fam.left_peak_poly(10)
    original = fam.left_peak_poly

    def corrupted(n):
        poly = original(n)
        if n == 4:
            return poly + UniPoly.monomial(1)
        return poly

    monkeypatch.setattr(fam, "left_peak_poly", corrupted)
    failing = [
        ident
        for ident in ("LEFTPEAK_B", "COR15", "THM51_III", "PEAK_ORACLE")
        if v.run_identity(ident, 4).status == "fail"
    ]
    assert len(failing) >= 2, failing


def test_conjecture_boros_moll_golden_m4():
    report = v.conjecture_boros_moll(6)
    assert report.status == "holds-to-bound"
    from gammalab.expansions import symmetric_decomposition

    dec = symmetric_decomposition(fam.q_poly(4), 4)
    assert dec.a == 105 * UniPoly([16, 55, 79, 55, 16])
    assert dec.b == 255 * UniPoly([1, 1]) * UniPoly([7, 12, 7])
    dec1 = symmetric_decomposition(fam.q_poly(1), 1)
    assert dec1.a == UniPoly([2, 2]) and dec1.b == UniPoly.one()


def test_conjecture_boros_moll_bound_guard():
    with pytest.raises(ValueError):
        v.conjecture_boros_moll(61)


def test_conjecture_des_exc_small():
    report = v.conjecture_des_exc(5)
    assert report.status == "holds-to-bound"
    parts = v.descent_excedance_parts(5)
    s, t = BiPoly.s(), BiPoly.t()
    one = BiPoly.one()
    assert parts[2] == one + t
    assert parts[3] == one + (one + s) ** 2 * t + t * t
    assert parts[4] == (one + t) * (one + 5 * s * (one + s) * t + t * t)
    # decomposition identity: A_n = a_n + (s-1) t a_(n-1)
    for n in range(2, 6):
        assert fam.biv_des_exc(n) == parts[n] + (s - one) * t * parts[n - 1]


def test_conjecture_des_exc_s1_matches_excedance_distribution():
    parts = v.descent_excedance_parts(5)
    for n in range(2, 6):
        assert parts[n].substitute_s(1) == fam.biv_des_exc(n).substitute_s(1)


def test_conjecture_des_exc_certificate_example_n3():
    parts = v.descent_excedance_parts(3)
    gamma = v._peel(parts[3], lambda m: v._ONE_PLUS_T**m, range(2, -1, -2))
    assert gamma is not None
    # gamma_1 = s^2 + 2s - 1 = (s-1)^2 + 4(s-1) + 2
    assert gamma[1] == UniPoly([-1, 2, 1])
    shifted = gamma[1].compose(UniPoly([1, 1]))
    assert shifted == UniPoly([2, 4, 1])


@pytest.mark.parametrize(
    "extra, witness",
    [
        (BiPoly.s() * BiPoly.t(), {"params": {"n": 5}, "difference": "a_n not symmetric in t"}),
        (
            -1000 * BiPoly.t() ** 2,
            {"params": {"n": 5, "k": 2}, "difference": "gamma_2 not a nonnegative series in s-1"},
        ),
        (BiPoly.t() ** 5, {"params": {"n": 5}, "difference": "DegreeTooSmall: center 4 < degree 5"}),
    ],
    ids=["off_center", "negative_gamma", "above_center"],
)
def test_negative_control_corrupted_des_exc(monkeypatch, extra, witness):
    """Corrupt A_5(s, t): off-center in t, centered with a negative gamma_2,
    and of t-degree above the center 4."""
    original = fam.biv_des_exc
    monkeypatch.setattr(fam, "biv_des_exc", lambda n: original(n) + (extra if n == 5 else 0))
    report = v.conjecture_des_exc(6)
    assert report.status == "fail"
    assert report.witness == witness


def test_conjecture_status_separated_from_pass():
    assert v.conjecture_boros_moll(3).status != "pass"
    assert v.conjecture_des_exc(3).status != "pass"
