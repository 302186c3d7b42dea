import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest

from gammalab import families as fam
from gammalab import oracles
from gammalab.polynomial import BiPoly, UniPoly, binom, catalan


def test_eulerian_values():
    assert fam.eulerian_a(0) == UniPoly.one()
    assert fam.eulerian_b(0) == UniPoly.one()
    assert fam.eulerian_a(6) == UniPoly([1, 57, 302, 302, 57, 1])
    assert fam.eulerian_b(2) == UniPoly([1, 6, 1])
    assert fam.eulerian_b(2).evaluate(1) == 8


def _signed_descent_poly(n):
    """Descent enumerator of the signed permutations of rank n, descents at
    i in 0..n-1 with pi(0) = 0."""
    counts = Counter()
    for word in permutations(range(1, n + 1)):
        for mask in range(1 << n):
            signed = tuple(-v if mask >> i & 1 else v for i, v in enumerate(word))
            counts[oracles._scan((0,) + signed).des] += 1
    return UniPoly.from_counts(counts)


def test_eulerian_b_signed_permutation_oracle():
    # Independent signed-permutation descent count, ranks 2 and 3.
    for n in (2, 3):
        assert _signed_descent_poly(n) == fam.eulerian_b(n)


def test_narayana_values():
    assert fam.narayana("A", 2) == UniPoly([1, 3, 1])
    assert fam.narayana("B", 2) == UniPoly([1, 4, 1])
    assert fam.narayana("D", 2) == UniPoly([1, 2, 1])
    with pytest.raises(fam.TypeDRange):
        fam.narayana("D", 1)
    for n in range(11):
        assert fam.narayana("A", n).evaluate(1) == catalan(n + 1)
        assert fam.narayana("B", n).evaluate(1) == binom(2 * n, n)


def test_peak_values():
    assert fam.peak_poly(1) == UniPoly.one()
    assert fam.peak_poly(2) == UniPoly([2])
    assert fam.peak_poly(3) == UniPoly([4, 2])
    assert fam.left_peak_poly(2) == UniPoly([1, 1])
    assert fam.left_peak_poly(3) == UniPoly([1, 5])


def test_peak_oracle_agreement():
    for n in range(1, 6):
        assert oracles.stat_polynomial(n, "pk") == fam.peak_poly(n)
        assert oracles.stat_polynomial(n, "lpk") == fam.left_peak_poly(n)


def test_l_polynomials():
    expected = {
        1: [1],
        2: [1, 1, 1],
        3: [1, 2, 4, 2, 1],
        4: [1, 3, 9, 9, 9, 3, 1],
        5: [1, 4, 16, 24, 36, 24, 16, 4, 1],
    }
    for n, coeffs in expected.items():
        assert fam.l_poly(n) == UniPoly(coeffs)
    for n in range(1, 13):
        assert fam.l_poly(n) == UniPoly([fam.l_closed(n, k) for k in range(2 * n - 1)])
        assert fam.lhat_poly(n) == UniPoly([fam.lhat_closed(n, k) for k in range(2 * n)])
        assert fam.lhat_poly(n).evaluate(1) == binom(2 * n, n)


def test_l_recurrence_integrality_raises():
    # A wrong predecessor makes the division by n inexact; the recurrence
    # step must refuse it with an exception that survives python -O.
    with pytest.raises(ArithmeticError):
        fam.l_poly.__wrapped__(2, UniPoly([1, 1]))
    with pytest.raises(ArithmeticError):
        fam.lhat_poly.__wrapped__(3, UniPoly([1, 1]))


def test_recurrences_fill_bottom_up_without_recursing():
    # A recursion limit of 60 is far below n = 300, so any recursive
    # memoised recurrence raises RecursionError here.
    code = (
        "import sys; from gammalab import families as f; sys.setrecursionlimit(60); "
        "f.eulerian_a(300); f.q_poly(300); f.ab_polys('alpha', 300)"
    )
    src = os.path.dirname(os.path.dirname(fam.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


def test_generate_refuses_an_index_beyond_the_family_bound():
    assert fam.generate("narayana_b", fam.FAMILY_BOUND) == fam.narayana("B", fam.FAMILY_BOUND)
    with pytest.raises(ValueError, match=f"bound {fam.FAMILY_BOUND}"):
        fam.generate("narayana_b", fam.FAMILY_BOUND + 1)


def test_ab_family_values():
    assert [fam.ab_polys("a", n).to_text() for n in range(1, 5)] == [
        "1",
        "1 2",
        "1 4 6",
        "1 6 20 24",
    ]
    assert [fam.ab_polys("b", n).to_text() for n in range(1, 4)] == [
        "1 2",
        "1 4 8",
        "1 6 32 48",
    ]
    assert [fam.ab_polys("alpha", n).to_text() for n in range(1, 5)] == [
        "1",
        "1 1",
        "1 2 3",
        "1 3 11 9",
    ]
    assert [fam.ab_polys("beta", n).to_text() for n in range(1, 4)] == [
        "1 1",
        "1 2 5",
        "1 3 23 21",
    ]
    with pytest.raises(ValueError):
        fam.ab_polys("nope", 2)


def test_flag_ap_values():
    assert fam.flag_ap_poly(1) == UniPoly([0, 1])
    assert fam.flag_ap_poly(2) == UniPoly([0, 1, 1, 1])
    assert fam.flag_ap_poly(4) == UniPoly([0, 1, 7, 29, 31, 29, 7, 1])


def test_boros_moll_values():
    m5 = fam.boros_moll(5)
    assert m5 == UniPoly(
        [
            Fraction(4389, 256),
            Fraction(8589, 128),
            Fraction(7161, 64),
            Fraction(777, 8),
            Fraction(693, 16),
            Fraction(63, 8),
        ]
    )
    assert fam.q_poly(0) == UniPoly.one()
    assert fam.q_poly(1) == UniPoly([2, 3])
    assert fam.q_poly(2) == UniPoly([12, 30, 21])
    for m in range(12):
        assert fam.q_poly(m) == 2**m * math.factorial(m) * fam.boros_moll(m).reverse(m)


def test_cyclotomic_values():
    assert fam.cyclotomic(1) == UniPoly([-1, 1])
    assert fam.cyclotomic(5) == UniPoly([1, 1, 1, 1, 1])
    assert fam.cyclotomic(6) == UniPoly([1, -1, 1])
    assert fam.cyclotomic(6) == fam.cyclotomic(2).substitute_power(3).exact_div(
        fam.cyclotomic(2)
    )


def test_biv_des_exc_values():
    assert fam.biv_des_exc(1) == BiPoly.one()
    a3 = fam.biv_des_exc(3)
    s, t = BiPoly.s(), BiPoly.t()
    assert a3 == BiPoly.one() + (3 * s + s * s) * t + s * t * t
    assert fam.biv_des_exc(4).substitute_s(1).evaluate(1) == 24


def test_mn_combination_values():
    assert fam.mn_combination(2) == UniPoly([1, 3, 4, 3, 1])
    assert fam.mn_combination(3) == UniPoly([1, 4, 9, 12, 9, 4, 1])


def test_generate_dispatch_covers_every_family():
    for fid in fam.FamilyId:
        n = 2
        result = fam.generate(fid, n)
        assert isinstance(result, (UniPoly, BiPoly))
    assert fam.generate("eulerian_a", 6) == fam.eulerian_a(6)
    with pytest.raises(ValueError):
        fam.generate("not_a_family", 2)
