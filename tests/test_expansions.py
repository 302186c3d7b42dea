import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from gammalab import expansions as ex
from gammalab.polynomial import DegreeTooSmall, UniPoly

ONE_PLUS_X = UniPoly([1, 1])
ONE_MINUS_X = UniPoly([1, -1])

A4 = UniPoly([1, 11, 11, 1])
A6 = UniPoly([1, 57, 302, 302, 57, 1])
EXAMPLE2 = UniPoly([1, 7, 29, 31, 29, 7, 1])


def symmetric_from_gamma(gamma, n):
    acc = UniPoly.zero()
    for k, c in enumerate(gamma):
        acc = acc + UniPoly.monomial(k, c) * ONE_PLUS_X ** (n - 2 * k)
    return acc


def test_is_symmetric():
    assert ex.is_symmetric(A6, 5)
    assert not ex.is_symmetric(UniPoly([1, 2]), 1)
    assert ex.is_symmetric(UniPoly.zero(), 7)
    with pytest.raises(DegreeTooSmall):
        ex.is_symmetric(A6, 3)


def test_is_unimodal():
    assert ex.is_unimodal(A6, 5)
    assert ex.is_unimodal(UniPoly([0, 1, 0]), 2)
    assert not ex.is_unimodal(UniPoly([1, 0, 1]), 2)
    assert ex.is_unimodal(UniPoly([1, 0, -1]), 2)  # weakly falling throughout


def test_gamma_expand_examples():
    assert ex.gamma_expand(A4, 3).coeffs == (1, 8)
    assert ex.gamma_expand(ONE_PLUS_X**5, 5).coeffs == (1, 0, 0)
    assert ex.gamma_expand(UniPoly([1, 4, 1]), 2).coeffs == (1, 2)
    with pytest.raises(ex.NotSymmetric):
        ex.gamma_expand(UniPoly([1, 2]), 1)


def test_alt_gamma_expand_examples():
    assert ex.alt_gamma_expand(UniPoly([1, 0, 1]) ** 2, 4).coeffs == (1, 4, 4)
    cube = UniPoly([1, 4, 1]).substitute_power(3)
    assert ex.alt_gamma_expand(cube, 6).coeffs == (1, 6, 9, -2)
    assert ex.alt_gamma_expand(UniPoly([1, 0, 4, 0, 1]), 4).coeffs == (1, 4, 6)


def test_binomial_basis_examples():
    assert ex.binomial_basis_expand(UniPoly.one(), 1, "+").coeffs == (1, -1)
    assert ex.binomial_basis_expand(UniPoly.one(), 1, "-").coeffs == (1, 1)
    assert ex.binomial_basis_expand(UniPoly.monomial(3), 3, "+").coeffs == (0, 0, 0, 1)
    assert ex.binomial_basis_expand(UniPoly.monomial(3), 3, "-").coeffs == (0, 0, 0, 1)
    with pytest.raises(DegreeTooSmall):
        ex.binomial_basis_expand(UniPoly.monomial(3), 2, "+")


def test_eta_from_gamma_examples():
    g = ex.gamma_expand(UniPoly([1, 1]), 1)
    assert ex.eta_from_gamma(g) == (1, 2)  # 1 + x^2 = (1+x)^2 - 2x
    g = ex.gamma_expand(UniPoly([1, 3, 1]), 2)
    assert ex.eta_from_gamma(g) == (1, 4, 5)
    g = ex.gamma_expand(ONE_PLUS_X**4, 4)
    assert ex.eta_from_gamma(g) == (1, 8, 24, 32, 16)  # C(4,k) 2^k


def test_xi_from_gamma_examples():
    assert ex.xi_from_gamma(ex.gamma_expand(UniPoly([1, 1]), 1)) == (1, 1)
    assert ex.xi_from_gamma(ex.gamma_expand(A4, 3)) == (1, 3, 11, 9)
    assert ex.xi_from_gamma(ex.gamma_expand(UniPoly.one(), 0)) == (1,)


def test_power_substitute():
    assert UniPoly([1, 1]).substitute_power(2) == UniPoly([1, 0, 1])
    f = UniPoly([2, -1, 5])
    assert f.substitute_power(1) == f
    assert f.substitute_power(3) == UniPoly([2, 0, 0, -1, 0, 0, 5])
    assert UniPoly.zero().substitute_power(4) == UniPoly.zero()
    with pytest.raises(ValueError):
        f.substitute_power(0)


def test_broken_peeling_raises_arithmetic_error(monkeypatch):
    # A wrong basis power must surface as an exception even under python -O.
    monkeypatch.setattr(ex, "_one_plus_x_pow", lambda m: ONE_PLUS_X ** (m + 1))
    with pytest.raises(ArithmeticError):
        ex.gamma_expand(A4, 3)
    with pytest.raises(ArithmeticError):
        ex.binomial_basis_expand(UniPoly([1, 2, 3]), 2, "+")


def test_binomial_rows_equal_the_powers():
    for m in range(121):
        assert ex._one_plus_x_pow(m) == ONE_PLUS_X**m, m
        assert ex._one_minus_x_pow(m) == ONE_MINUS_X**m, m


def test_hermite_biehler_split():
    fe, fo = ex.hermite_biehler_split(UniPoly([1, 3, 4, 3, 1]))
    assert fe == UniPoly([1, 4, 1])
    assert fo == UniPoly([3, 3])
    assert ex.hermite_biehler_split(UniPoly.x()) == (UniPoly.zero(), UniPoly.one())
    even = UniPoly([1, 0, 2, 0, 7])
    fe, fo = ex.hermite_biehler_split(even)
    assert fe == UniPoly([1, 2, 7]) and fo.is_zero()


def test_semi_gamma_examples():
    dec = ex.semi_gamma_decompose(EXAMPLE2)
    assert dec.nu == 0 and dec.lam == (1, 7, 26, 17)
    assert dec.f1 == UniPoly([1, 29, 29, 1]) and dec.f2 == UniPoly([7, 31, 7])
    dec = ex.semi_gamma_decompose(A6)
    assert dec.nu == 1
    assert dec.f1 == UniPoly([1, 246, 1]) and dec.f2 == UniPoly([56, 56])
    dec = ex.semi_gamma_decompose(ONE_PLUS_X)
    assert dec.nu == 1 and dec.lam == (1,) and dec.f1 == UniPoly.one() and dec.f2.is_zero()
    with pytest.raises(ex.NotDecomposable):
        ex.semi_gamma_decompose(UniPoly.zero())
    with pytest.raises(ex.NotDecomposable):
        ex.semi_gamma_decompose(UniPoly([1, 2]))  # pieces not symmetric


def test_alt_semi_gamma_examples():
    dec = ex.alt_semi_gamma_decompose(A6)
    assert dec.xi == (1, 4, 248) and dec.zeta == (56, 112)
    assert dec.reconstruct() == A6
    dec = ex.alt_semi_gamma_decompose(EXAMPLE2)
    assert dec.xi == (1, 6, 38, 60) and dec.zeta == (7, 28, 45)
    assert dec.reconstruct() == EXAMPLE2
    dec = ex.alt_semi_gamma_decompose(ONE_PLUS_X**2)
    assert dec.nu == 0 and dec.center == 1
    assert dec.xi == (1, 2) and dec.zeta == (2,)
    assert dec.reconstruct() == ONE_PLUS_X**2
    with pytest.raises(ex.NotSemiGammaPositive):
        ex.alt_semi_gamma_decompose(UniPoly([1, 2]))


def test_symmetric_decomposition_examples():
    dec = ex.symmetric_decomposition(UniPoly([2, 3]), 1)
    assert dec.a == UniPoly([2, 2]) and dec.b == UniPoly.one()
    sym = UniPoly([1, 5, 5, 1])
    dec = ex.symmetric_decomposition(sym, 3)
    assert dec.a == sym and dec.b.is_zero()
    with pytest.raises(DegreeTooSmall):
        ex.symmetric_decomposition(sym, 2)


def test_classify_examples():
    profile = ex.classify(A6, 5)
    assert profile.gamma_positive == "yes"
    assert profile.alt_semi_gamma_positive == "yes"
    profile = ex.classify(EXAMPLE2, 6)
    assert profile.gamma_positive == "no"
    assert profile.semi_gamma_positive == "yes"
    profile = ex.classify(UniPoly([1, 0, -1]), 2)
    assert profile.symmetric == "no"
    assert profile.gamma_positive == "not_applicable"


def test_classify_zero_polynomial():
    profile = ex.classify(UniPoly.zero(), 4)
    assert profile.symmetric == "yes" and profile.gamma_positive == "not_applicable"


def test_classify_implication_lattice_random():
    rng = random.Random(97)
    for _ in range(300):
        n = rng.randint(0, 10)
        gamma = [rng.randint(-6, 6) for _ in range(n // 2 + 1)]
        f = symmetric_from_gamma(gamma, n)
        if f.is_zero():
            continue
        profile = ex.classify(f, n)
        if profile.gamma_positive == "yes":
            assert profile.symmetric == "yes"
            assert profile.unimodal == "yes"
            assert profile.semi_gamma_positive == "yes"


@settings(max_examples=80, deadline=None)
@given(
    hs.integers(0, 12),
    hs.lists(hs.integers(-9, 9), min_size=1, max_size=7),
)
def test_expansion_round_trips(n, gamma):
    gamma = gamma[: n // 2 + 1]
    f = symmetric_from_gamma(gamma, n)
    got = ex.gamma_expand(f, n)
    assert got.reconstruct() == f
    alt = ex.alt_gamma_expand(f, n)
    assert alt.reconstruct() == f
    for sign in "+-":
        b = ex.binomial_basis_expand(f, n, sign)
        assert b.reconstruct() == f


@settings(max_examples=60, deadline=None)
@given(hs.lists(hs.integers(-9, 9), min_size=1, max_size=8), hs.integers(0, 2))
def test_symmetric_decomposition_round_trip(coeffs, extra):
    f = UniPoly(coeffs)
    n = (f.degree if not f.is_zero() else 0) + extra
    dec = ex.symmetric_decomposition(f, n)
    assert dec.reconstruct() == f
    assert ex.is_symmetric(dec.a, n)
    if n >= 1:
        assert ex.is_symmetric(dec.b, n - 1)


@settings(max_examples=60, deadline=None)
@given(hs.integers(1, 10), hs.lists(hs.integers(0, 9), min_size=1, max_size=6))
def test_gamma_positive_is_alt_semi_gamma_positive(n, gamma):
    gamma = gamma[: n // 2 + 1]
    f = symmetric_from_gamma(gamma, n)
    if f.is_zero():
        return
    dec = ex.alt_semi_gamma_decompose(f)
    assert dec.is_nonnegative()
    assert dec.reconstruct() == f
