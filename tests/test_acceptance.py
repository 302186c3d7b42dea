"""Acceptance suite: every exit criterion, exact arithmetic, zero tolerance.

Each test prints one pass/fail line; run with ``pytest -s`` to see them
as the suite executes.
"""

import hashlib
import random
from fractions import Fraction
from itertools import permutations

from gammalab import expansions as ex
from gammalab import families as fam
from gammalab import oracles
from gammalab import stability as st
from gammalab import verify as v
from gammalab.cli import canonical_json
from gammalab.polynomial import BiPoly, UniPoly

ONE_PLUS_X = UniPoly([1, 1])
VERIFY_ALL_SHA256 = "cb540ad7cf2d20c083a969b323040a91342a5e4fcdc1249511164de3960d90a0"


def _report(name: str, problems: list) -> None:
    status = "FAIL" if problems else "PASS"
    print(f"{status} {name}")
    assert not problems, problems[:5]


def _sym_from_gamma(gamma, n):
    acc = UniPoly.zero()
    for k, c in enumerate(gamma):
        acc = acc + UniPoly.monomial(k, c) * ONE_PLUS_X ** (n - 2 * k)
    return acc


def test_criterion_1_golden_values():
    problems = []

    def expect(label, got, want):
        if got != want:
            problems.append(f"{label}: {got} != {want}")

    expect("A_6", fam.eulerian_a(6), UniPoly([1, 57, 302, 302, 57, 1]))
    expect("P_3", fam.peak_poly(3), UniPoly([4, 2]))
    expect("Phat_3", fam.left_peak_poly(3), UniPoly([1, 5]))

    for n, coeffs in {1: [1], 2: [1, 2], 3: [1, 4, 6], 4: [1, 6, 20, 24]}.items():
        expect(f"a_{n}", fam.ab_polys("a", n), UniPoly(coeffs))
    for n, coeffs in {1: [1, 2], 2: [1, 4, 8], 3: [1, 6, 32, 48]}.items():
        expect(f"b_{n}", fam.ab_polys("b", n), UniPoly(coeffs))
    for n, coeffs in {1: [1], 2: [1, 1], 3: [1, 2, 3], 4: [1, 3, 11, 9]}.items():
        expect(f"alpha_{n}", fam.ab_polys("alpha", n), UniPoly(coeffs))
    for n, coeffs in {1: [1, 1], 2: [1, 2, 5], 3: [1, 3, 23, 21]}.items():
        expect(f"beta_{n}", fam.ab_polys("beta", n), UniPoly(coeffs))

    l_values = {
        1: [1],
        2: [1, 1, 1],
        3: [1, 2, 4, 2, 1],
        4: [1, 3, 9, 9, 9, 3, 1],
        5: [1, 4, 16, 24, 36, 24, 16, 4, 1],
    }
    for n, coeffs in l_values.items():
        expect(f"L_{n}", fam.l_poly(n), UniPoly(coeffs))

    f_values = {
        1: [0, 1],
        2: [0, 1, 1, 1],
        3: [0, 1, 3, 7, 3, 1],
        4: [0, 1, 7, 29, 31, 29, 7, 1],
    }
    for n, coeffs in f_values.items():
        expect(f"F_{n}", fam.flag_ap_poly(n), UniPoly(coeffs))

    expect(
        "M_5",
        fam.boros_moll(5),
        UniPoly(
            [
                Fraction(4389, 256),
                Fraction(8589, 128),
                Fraction(7161, 64),
                Fraction(777, 8),
                Fraction(693, 16),
                Fraction(63, 8),
            ]
        ),
    )

    q_values = {
        1: [2, 3],
        2: [12, 30, 21],
        3: [120, 420, 516, 231],
        4: [1680, 7560, 13140, 10620, 3465],
        5: [30240, 166320, 372960, 429660, 257670, 65835],
    }
    # Unique symmetric decompositions of the Q_m (the a-part of Q_3 carries
    # the scalar 3, which the defining identity a + x b = Q_3 forces).
    q_decs = {
        1: (UniPoly([2, 2]), UniPoly([1])),
        2: (3 * UniPoly([4, 7, 4]), 9 * UniPoly([1, 1])),
        3: (3 * UniPoly([40, 103, 103, 40]), 3 * UniPoly([37, 69, 37])),
        4: (105 * UniPoly([16, 55, 79, 55, 16]), 255 * UniPoly([1, 1]) * UniPoly([7, 12, 7])),
        5: (
            315 * UniPoly([96, 415, 781, 781, 415, 96]),
            315 * UniPoly([113, 403, 583, 403, 113]),
        ),
    }
    for m, coeffs in q_values.items():
        expect(f"Q_{m}", fam.q_poly(m), UniPoly(coeffs))
        dec = ex.symmetric_decomposition(fam.q_poly(m), m)
        expect(f"Q_{m} a-part", dec.a, q_decs[m][0])
        expect(f"Q_{m} b-part", dec.b, q_decs[m][1])

    s, t = BiPoly.s(), BiPoly.t()
    one = BiPoly.one()
    biv_values = {
        1: one,
        2: one + s * t,
        3: one + (3 * s + s**2) * t + s * t**2,
        4: one + (6 * s + 5 * s**2) * t + (4 * s + 6 * s**2 + s**3) * t**2 + s * t**3,
        5: one
        + (10 * s + 15 * s**2 + s**3) * t
        + (10 * s + 36 * s**2 + 19 * s**3 + s**4) * t**2
        + (5 * s + 15 * s**2 + 6 * s**3) * t**3
        + s * t**4,
    }
    for n, want in biv_values.items():
        expect(f"A_{n}(s,t)", fam.biv_des_exc(n), want)
    parts = v.descent_excedance_parts(5)
    part_values = {
        2: one + t,
        3: one + (one + s) ** 2 * t + t**2,
        4: (one + t) * (one + 5 * s * (one + s) * t + t**2),
        5: one
        + (one + 9 * s + 15 * s**2 + s**3) * t
        + (one + 14 * s + 36 * s**2 + 14 * s**3 + s**4) * t**2
        + (one + 9 * s + 15 * s**2 + s**3) * t**3
        + t**4,
    }
    for n, want in part_values.items():
        expect(f"a_{n}(s,t)", parts[n], want)
        expect(
            f"A_{n}(s,t) decomposition",
            fam.biv_des_exc(n),
            parts[n] + (s - one) * t * parts[n - 1],
        )

    _report("criterion 1: golden value reproduction", problems)


def test_criterion_2_identity_suite():
    reports = v.run_all()
    problems = [
        f"{r.ident} [{r.range_run}]: {r.witness}" for r in reports if r.status != "pass"
    ]
    # the ROADMAP byte-stability gate: `gammalab verify all --json` is unchanged
    payload = (canonical_json([r.to_json() for r in reports]) + "\n").encode()
    if hashlib.sha256(payload).hexdigest() != VERIFY_ALL_SHA256:
        problems.append("verify all --json is no longer byte-identical to the baseline")
    _report(f"criterion 2: identity suite ({len(reports)} checks, default bounds)", problems)


def test_criterion_3_oracle_agreement():
    targets = {
        "EULERIAN_ORACLE": 9,
        "PEAK_ORACLE": 9,
        "FOATA": 9,
        "ALPHA_ORACLE": 9,
        "BETA_ORACLE": 9,
        "MFS_ORBIT": 8,
        "MFS_ORBIT_SQ": 8,
        "STIRLING_FAP": 7,
        "CM_COUNT": 12,
        "CY_COUNT": 12,
    }
    problems = []
    for ident, bound in targets.items():
        report = v.run_identity(ident, bound)
        if report.status != "pass":
            problems.append(f"{ident}: {report.witness}")
    _report("criterion 3: oracle agreement", problems)


def test_criterion_4_stability():
    problems = []
    square = UniPoly([1, 2, 1])
    for n in range(1, 9):
        f = fam.mn_combination(n)
        verdict = st.hurwitz_classify(f)
        if verdict.status != "stable":
            problems.append(f"n={n} classified {verdict.status}")
        try:
            f.exact_div(square)
        except Exception:
            problems.append(f"n={n} lacks the (1+x)^2 factor")
        alt = ex.alt_gamma_expand(f, 2 * n)
        if not alt.is_nonnegative():
            problems.append(f"n={n} alternating vector has a negative entry")
        if alt.coeffs[n] != 0:
            problems.append(f"n={n} top alternating entry nonzero")

    rng = random.Random(20250811)
    agreements = 0
    trial = 0
    while agreements < 200 and trial < 2000:
        trial += 1
        if trial % 2:
            deg = rng.randint(1, 8)
            f = UniPoly(
                [Fraction(rng.randint(-6, 6)) for _ in range(deg)]
                + [Fraction(rng.randint(1, 6))]
            )
        else:
            f = UniPoly.one()
            for _ in range(rng.randint(1, 4)):
                if rng.random() < 0.5:
                    f = f * UniPoly([rng.randint(1, 5), 1])
                else:
                    f = f * UniPoly([rng.randint(1, 6), rng.randint(1, 6), 1])
            if f.degree > 8:
                continue
        routh = st.routh_stable(f)
        if routh == "indeterminate":
            continue
        hurwitz = st.hurwitz_classify(f).status
        if (routh == "stable") != (hurwitz == "stable"):
            problems.append(f"disagreement on {f.to_text()}")
        agreements += 1
    if agreements < 200:
        problems.append(f"only {agreements} non-degenerate agreement samples")
    _report("criterion 4: Hurwitz stability of the Narayana combination", problems)


def test_criterion_5_counterexample_fidelity():
    problems = []
    f = UniPoly([1, 4, 1])
    if ex.classify(f, 2).gamma_positive != "yes":
        problems.append("base polynomial not classified gamma-positive")
    cube = f.substitute_power(3)
    got = ex.alt_gamma_expand(cube, 6).coeffs
    if got != (1, 6, 9, -2):
        problems.append(f"alternating vector {got}")
    if ex.classify(cube, 6).alt_gamma_positive != "no":
        problems.append("cube not classified alternatingly non-positive")
    _report("criterion 5: odd-power counterexample fidelity", problems)


def test_criterion_6_property_suites():
    problems = []
    rng = random.Random(6021023)

    for trial in range(500):
        n = rng.randint(0, 12)
        gamma = [rng.randint(-9, 9) for _ in range(n // 2 + 1)]
        f = _sym_from_gamma(gamma, n)
        for expansion in (
            ex.gamma_expand(f, n),
            ex.alt_gamma_expand(f, n),
            ex.binomial_basis_expand(f, n, "+"),
            ex.binomial_basis_expand(f, n, "-"),
        ):
            if expansion.reconstruct() != f:
                problems.append(f"round-trip failed on trial {trial}")
                break

    if v.run_identity("THM31_I", 200).status != "pass":
        problems.append("even-power substitution positivity failed")

    for trial in range(200):
        n = rng.randint(1, 10)
        gamma = [rng.randint(0, 9) for _ in range(n // 2 + 1)]
        f = _sym_from_gamma(gamma, n)
        if f.is_zero():
            continue
        dec = ex.alt_semi_gamma_decompose(f)
        if not dec.is_nonnegative() or dec.reconstruct() != f:
            problems.append(f"xi/zeta decomposition failed on trial {trial}")
    if v.run_identity("THM_FNX", 10).status != "pass":
        problems.append("named-family xi/zeta decomposition failed")

    for n in range(1, 7):
        for word in permutations(range(1, n + 1)):
            for x in range(1, n + 1):
                if oracles.mfs_phi(oracles.mfs_phi(word, x), x) != word:
                    problems.append(f"involution broken at n={n}")
    _report("criterion 6: property suites", problems)


def test_criterion_7_conjecture_checkers():
    problems = []
    report = v.conjecture_boros_moll(20)
    if report.status != "holds-to-bound":
        problems.append(f"quartic-coefficient conjecture: {report.witness}")
    report = v.conjecture_des_exc(8, (Fraction(1), Fraction(3, 2), Fraction(2)))
    if report.status != "holds-to-bound":
        problems.append(f"descent/excedance conjecture: {report.witness}")
    _report("criterion 7: conjecture checkers", problems)


def _failing_with_witness(idents, bound, problems) -> list:
    failing = []
    for ident in idents:
        report = v.run_identity(ident, bound)
        if report.status == "fail":
            if not report.witness or not report.witness.get("params"):
                problems.append(f"{ident} failed without a witness")
            failing.append(ident)
    return failing


def test_criterion_8_negative_control(monkeypatch):
    problems = []
    original = fam.eulerian_a

    def corrupted(n):
        poly = original(n)
        if n == 5:
            return poly + UniPoly.monomial(2)  # bump the middle coefficient
        return poly

    monkeypatch.setattr(fam, "eulerian_a", corrupted)
    checks = ("ANXBNX", "FOATA", "STEMBRIDGE", "SPECIALS", "OPID_A", "THM51_II")
    failing = _failing_with_witness(checks, 5, problems)
    if len(failing) < 3:
        problems.append(f"only {failing} failed with a corrupted family")
    monkeypatch.undo()

    # The oracle side: every permutation gains a descent in the one scan.
    caches = (oracles._joint_counts, oracles.mfs_orbit_partition, v._orbit_table)
    for cache in caches:
        cache.cache_clear()
    scan = oracles._scan
    monkeypatch.setattr(oracles, "_scan", lambda word: scan(word)._replace(des=scan(word).des + 1))
    try:
        checks = ("EULERIAN_ORACLE", "ALPHA_ORACLE", "MFS_ORBIT", "MFS_ORBIT_SQ", "NARA_231")
        failing = _failing_with_witness(checks, 5, problems)
    finally:
        monkeypatch.undo()
        for cache in caches:
            cache.cache_clear()
    if len(failing) < 3:
        problems.append(f"only {failing} failed with a corrupted oracle")
    _report("criterion 8: negative control (corrupted family and oracle)", problems)
