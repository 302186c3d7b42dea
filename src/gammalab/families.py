"""Exact generators for the named polynomial families.

Each generator follows its defining recurrence; closed forms, where they
exist, are produced by separate code paths so the verification suite can
cross-check the two.  Generators are memoized: they are pure and the
identity suite hits the same values over and over.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import lru_cache

from . import oracles
from .polynomial import BiPoly, UniPoly, binom, catalan


class TypeDRange(ValueError):
    """Type D Narayana polynomials start at rank 2."""


class FamilyId(enum.Enum):
    EULERIAN_A = "eulerian_a"
    EULERIAN_B = "eulerian_b"
    NARAYANA_A = "narayana_a"
    NARAYANA_B = "narayana_b"
    NARAYANA_D = "narayana_d"
    PEAK = "peak"
    LEFT_PEAK = "left_peak"
    L_POLY = "l_poly"
    LHAT_POLY = "lhat_poly"
    A_SMALL = "a_small"
    B_SMALL = "b_small"
    ALPHA = "alpha"
    BETA = "beta"
    FLAG_AP = "flag_ap"
    BOROS_MOLL = "boros_moll"
    Q_POLY = "q_poly"
    CYCLOTOMIC = "cyclotomic"
    BIV_DES_EXC = "biv_des_exc"


_X = UniPoly.x()
_ONE = UniPoly.one()


@lru_cache(maxsize=None)
def eulerian_a(n: int) -> UniPoly:
    """Type A Eulerian polynomial A_n, descent enumerator of S_n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return _ONE
    prev = eulerian_a(n - 1)
    return UniPoly([1, n - 1]) * prev + UniPoly([0, 1, -1]) * prev.derivative()


@lru_cache(maxsize=None)
def eulerian_b(n: int) -> UniPoly:
    """Type B Eulerian polynomial B_n, descent enumerator of signed permutations."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return _ONE
    prev = eulerian_b(n - 1)
    return UniPoly([1, 2 * n - 1]) * prev + 2 * UniPoly([0, 1, -1]) * prev.derivative()


@lru_cache(maxsize=None)
def narayana(kind: str, n: int) -> UniPoly:
    """Narayana polynomial of type A, B or D by its closed binomial form."""
    kind = kind.upper()
    if kind == "A":
        if n < 0:
            raise ValueError("n must be >= 0")
        return UniPoly(
            [Fraction(binom(n + 1, k + 1) * binom(n + 1, k), n + 1) for k in range(n + 1)]
        )
    if kind == "B":
        if n < 0:
            raise ValueError("n must be >= 0")
        return UniPoly([binom(n, k) ** 2 for k in range(n + 1)])
    if kind == "D":
        if n < 2:
            raise TypeDRange(f"type D needs n >= 2, got {n}")
        return narayana("B", n) - n * _X * narayana("A", n - 2)
    raise ValueError(f"unknown Narayana type {kind!r}")


@lru_cache(maxsize=None)
def peak_poly(n: int) -> UniPoly:
    """Interior peak polynomial P_n over S_n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return _ONE
    prev = peak_poly(n - 1)
    return UniPoly([2, n - 2]) * prev + 2 * UniPoly([0, 1, -1]) * prev.derivative()


@lru_cache(maxsize=None)
def left_peak_poly(n: int) -> UniPoly:
    """Left peak polynomial over S_n (boundary letter 0 on the left)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return _ONE
    prev = left_peak_poly(n - 1)
    return UniPoly([1, n - 1]) * prev + 2 * UniPoly([0, 1, -1]) * prev.derivative()


def _integral(p: UniPoly, name: str) -> UniPoly:
    if any(c.denominator != 1 for c in p.coeffs):
        raise ArithmeticError(f"{name} recurrence must stay integral")
    return p


@lru_cache(maxsize=None)
def l_poly(n: int) -> UniPoly:
    """Symmetric-Dyck-path peak polynomial L_n, by recurrence."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return _ONE
    prev = l_poly(n - 1)
    raw = UniPoly([n, 2, 3 * n - 4]) * prev + UniPoly([0, 1, 0, -1]) * prev.derivative()
    return _integral(raw * Fraction(1, n), "L_n")


@lru_cache(maxsize=None)
def lhat_poly(n: int) -> UniPoly:
    """Companion polynomial with (1+x) L-hat_n = (1+x)^2 L_n, by recurrence."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return _ONE
    prev = lhat_poly(n - 1)
    raw = UniPoly([n, 1, 3 * n - 3]) * prev + UniPoly([0, 1, 0, -1]) * prev.derivative()
    return _integral(raw * Fraction(1, n), "L-hat_n")


def l_closed(n: int, k: int) -> int:
    return binom(n - 1, -(-k // 2)) * binom(n - 1, k // 2)


def lhat_closed(n: int, k: int) -> int:
    return binom(n, -(-k // 2)) * binom(n - 1, k // 2)


@lru_cache(maxsize=None)
def ab_polys(kind: str, n: int) -> UniPoly:
    """The four companion families a, b, alpha, beta of the squared-variable
    Eulerian expansions, by their first-order recurrences."""
    kind = kind.lower()
    if kind == "a":
        if n < 1:
            raise ValueError("a_n needs n >= 1")
        if n == 1:
            return _ONE
        prev = ab_polys("a", n - 1)
        return (
            UniPoly([1, 3 - (n - 1)]) * prev
            + Fraction(1, 2) * UniPoly([0, 1, 4]) * prev.derivative()
        )
    if kind == "b":
        if n < 0:
            raise ValueError("b_n needs n >= 0")
        if n == 0:
            return _ONE
        prev = ab_polys("b", n - 1)
        return (
            UniPoly([1, 2 - 2 * (n - 1)]) * prev + UniPoly([0, 1, 4]) * prev.derivative()
        )
    if kind == "alpha":
        if n < 1:
            raise ValueError("alpha_n needs n >= 1")
        if n == 1:
            return _ONE
        m = n - 1
        prev = ab_polys("alpha", n - 1)
        factor = UniPoly([1, 1]) + Fraction(m - 1, 2) * UniPoly([0, -1, 3])
        return factor * prev + Fraction(1, 2) * UniPoly([0, 1, 2, -3]) * prev.derivative()
    if kind == "beta":
        if n < 0:
            raise ValueError("beta_n needs n >= 0")
        if n == 0:
            return _ONE
        m = n - 1
        prev = ab_polys("beta", n - 1)
        return (
            UniPoly([1, 1 - m, 3 * m]) * prev + UniPoly([0, 1, 2, -3]) * prev.derivative()
        )
    raise ValueError(f"unknown kind {kind!r}; choose a, b, alpha or beta")


@lru_cache(maxsize=None)
def flag_ap_poly(n: int) -> UniPoly:
    """Flag ascent-plateau polynomial F_n over Stirling permutations."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return _ONE
    prev = flag_ap_poly(n - 1)
    return UniPoly([0, 1, 2 * (n - 1)]) * prev + UniPoly([0, 1, 0, -1]) * prev.derivative()


def boros_moll_coefficient(m: int, i: int) -> Fraction:
    """d_i(m), the closed quartic-integral coefficient."""
    total = sum(
        2**k * binom(2 * m - 2 * k, m - k) * binom(m + k, k) * binom(k, i)
        for k in range(i, m + 1)
    )
    return Fraction(total, 4**m)


@lru_cache(maxsize=None)
def boros_moll(m: int) -> UniPoly:
    """Boros-Moll polynomial M_m from the closed coefficient formula."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return UniPoly([boros_moll_coefficient(m, i) for i in range(m + 1)])


@lru_cache(maxsize=None)
def q_poly(m: int) -> UniPoly:
    """Reversed normalization Q_m = 2^m m! x^m M_m(1/x), by its recurrence."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        return _ONE
    prev = q_poly(m - 1)
    k = m - 1
    return (2 * k + 1) * UniPoly([2, 3]) * prev - 2 * UniPoly([0, 1, 1]) * prev.derivative()


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> UniPoly:
    """n-th cyclotomic polynomial by iterated exact division of x^n - 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    poly = UniPoly([-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            poly = poly.exact_div(cyclotomic(d))
    return poly


def biv_des_exc(n: int, bound: int | None = None) -> BiPoly:
    """Joint descent/excedance enumerator of S_n as a polynomial in s and t."""
    if n < 1:
        raise ValueError("n must be >= 1")
    result = oracles.stat_polynomial(n, "des,exc", bound=bound)
    assert isinstance(result, BiPoly)
    return result


def generate(family: FamilyId | str, n: int) -> UniPoly | BiPoly:
    """Dispatch a family by id; the CLI talks to this."""
    fid = family if isinstance(family, FamilyId) else FamilyId(family)
    if fid is FamilyId.EULERIAN_A:
        return eulerian_a(n)
    if fid is FamilyId.EULERIAN_B:
        return eulerian_b(n)
    if fid is FamilyId.NARAYANA_A:
        return narayana("A", n)
    if fid is FamilyId.NARAYANA_B:
        return narayana("B", n)
    if fid is FamilyId.NARAYANA_D:
        return narayana("D", n)
    if fid is FamilyId.PEAK:
        return peak_poly(n)
    if fid is FamilyId.LEFT_PEAK:
        return left_peak_poly(n)
    if fid is FamilyId.L_POLY:
        return l_poly(n)
    if fid is FamilyId.LHAT_POLY:
        return lhat_poly(n)
    if fid is FamilyId.A_SMALL:
        return ab_polys("a", n)
    if fid is FamilyId.B_SMALL:
        return ab_polys("b", n)
    if fid is FamilyId.ALPHA:
        return ab_polys("alpha", n)
    if fid is FamilyId.BETA:
        return ab_polys("beta", n)
    if fid is FamilyId.FLAG_AP:
        return flag_ap_poly(n)
    if fid is FamilyId.BOROS_MOLL:
        return boros_moll(n)
    if fid is FamilyId.Q_POLY:
        return q_poly(n)
    if fid is FamilyId.CYCLOTOMIC:
        return cyclotomic(n)
    if fid is FamilyId.BIV_DES_EXC:
        return biv_des_exc(n)
    raise ValueError(f"unhandled family {fid}")


def mn_combination(n: int) -> UniPoly:
    """N(B_n, x^2) + (n+1) x N(A_(n-1), x^2), the stable Narayana combination."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return narayana("B", n).substitute_power(2) + (n + 1) * _X * narayana(
        "A", n - 1
    ).substitute_power(2)
