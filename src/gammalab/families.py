"""Exact generators for the named polynomial families.

Each generator follows its defining recurrence; closed forms, where they
exist, are produced by separate code paths so the verification suite can
cross-check the two.  Generators are memoized: they are pure and the
identity suite hits the same values over and over.  Every first-order
recurrence goes through ``_recurrence``, which fills its table bottom-up,
so no call recurses; ``generate`` refuses an index above ``FAMILY_BOUND``.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import lru_cache, partial, update_wrapper
from typing import Callable

from . import oracles
from .polynomial import ONE, ONE_PLUS_X, X, BiPoly, UniPoly, binom


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


def _recurrence(base: int):
    """Memoise P(n) = step(n, P(n-1)) for n > base, from P(base) = 1.

    The table fills bottom-up, so no call recurses however large n is;
    ``lru_cache`` on top keeps the statistics ``cache_info()`` reports.
    The decorated step stays reachable as ``__wrapped__``.
    """

    def decorate(step: Callable[[int, UniPoly], UniPoly]):
        table = [ONE]  # table[i] = P(base + i)

        @lru_cache(maxsize=None)
        def poly(n: int) -> UniPoly:
            if n < base:
                raise ValueError(f"{step.__name__.lstrip('_')} needs n >= {base}, got {n}")
            while len(table) <= n - base:
                table.append(step(base + len(table), table[-1]))
            return table[n - base]

        return update_wrapper(poly, step)

    return decorate


_X_MINUS_X2 = UniPoly([0, 1, -1])
_X_MINUS_X3 = UniPoly([0, 1, 0, -1])
_X_PLUS_4X2 = UniPoly([0, 1, 4])
_X_PLUS_2X2_MINUS_3X3 = UniPoly([0, 1, 2, -3])


@_recurrence(0)
def eulerian_a(n: int, prev: UniPoly) -> UniPoly:
    """Type A Eulerian polynomial A_n, descent enumerator of S_n."""
    return UniPoly([1, n - 1]) * prev + _X_MINUS_X2 * prev.derivative()


@_recurrence(0)
def eulerian_b(n: int, prev: UniPoly) -> UniPoly:
    """Type B Eulerian polynomial B_n, descent enumerator of signed permutations."""
    return UniPoly([1, 2 * n - 1]) * prev + 2 * _X_MINUS_X2 * prev.derivative()


def _type_a(n: int) -> UniPoly:
    return UniPoly([Fraction(binom(n + 1, k + 1) * binom(n + 1, k), n + 1) for k in range(n + 1)])


def _type_b(n: int) -> UniPoly:
    return UniPoly([binom(n, k) ** 2 for k in range(n + 1)])


@lru_cache(maxsize=None)
def narayana(kind: str, n: int) -> UniPoly:
    """Narayana polynomial of type A, B or D by its closed binomial form."""
    kind = kind.upper()
    if kind not in ("A", "B", "D"):
        raise ValueError(f"unknown Narayana type {kind!r}")
    if kind == "D":
        if n < 2:
            raise TypeDRange(f"type D needs n >= 2, got {n}")
        return _type_b(n) - n * X * _type_a(n - 2)
    if n < 0:
        raise ValueError("n must be >= 0")
    return _type_a(n) if kind == "A" else _type_b(n)


@_recurrence(1)
def peak_poly(n: int, prev: UniPoly) -> UniPoly:
    """Interior peak polynomial P_n over S_n."""
    return UniPoly([2, n - 2]) * prev + 2 * _X_MINUS_X2 * prev.derivative()


@_recurrence(1)
def left_peak_poly(n: int, prev: UniPoly) -> UniPoly:
    """Left peak polynomial over S_n (boundary letter 0 on the left)."""
    return UniPoly([1, n - 1]) * prev + 2 * _X_MINUS_X2 * prev.derivative()


def _integral(p: UniPoly, name: str) -> UniPoly:
    if any(c.denominator != 1 for c in p.coeffs):
        raise ArithmeticError(f"{name} recurrence must stay integral")
    return p


@_recurrence(1)
def l_poly(n: int, prev: UniPoly) -> UniPoly:
    """Symmetric-Dyck-path peak polynomial L_n, by recurrence."""
    raw = UniPoly([n, 2, 3 * n - 4]) * prev + _X_MINUS_X3 * prev.derivative()
    return _integral(raw * Fraction(1, n), "L_n")


@_recurrence(0)
def lhat_poly(n: int, prev: UniPoly) -> UniPoly:
    """Companion polynomial with (1+x) L-hat_n = (1+x)^2 L_n, by recurrence."""
    raw = UniPoly([n, 1, 3 * n - 3]) * prev + _X_MINUS_X3 * prev.derivative()
    return _integral(raw * Fraction(1, n), "L-hat_n")


def l_closed(n: int, k: int) -> int:
    return binom(n - 1, -(-k // 2)) * binom(n - 1, k // 2)


def lhat_closed(n: int, k: int) -> int:
    return binom(n, -(-k // 2)) * binom(n - 1, k // 2)


# The four companion families a, b, alpha, beta of the squared-variable
# Eulerian expansions, by their first-order recurrences.


@_recurrence(1)
def _a_small(n: int, prev: UniPoly) -> UniPoly:
    return UniPoly([1, 4 - n]) * prev + Fraction(1, 2) * _X_PLUS_4X2 * prev.derivative()


@_recurrence(0)
def _b_small(n: int, prev: UniPoly) -> UniPoly:
    return UniPoly([1, 4 - 2 * n]) * prev + _X_PLUS_4X2 * prev.derivative()


@_recurrence(1)
def _alpha(n: int, prev: UniPoly) -> UniPoly:
    factor = ONE_PLUS_X + Fraction(n - 2, 2) * UniPoly([0, -1, 3])
    return factor * prev + Fraction(1, 2) * _X_PLUS_2X2_MINUS_3X3 * prev.derivative()


@_recurrence(0)
def _beta(n: int, prev: UniPoly) -> UniPoly:
    return UniPoly([1, 2 - n, 3 * n - 3]) * prev + _X_PLUS_2X2_MINUS_3X3 * prev.derivative()


_AB_POLYS = {"a": _a_small, "b": _b_small, "alpha": _alpha, "beta": _beta}


def ab_polys(kind: str, n: int) -> UniPoly:
    """a_n, b_n, alpha_n or beta_n, chosen by ``kind``."""
    poly = _AB_POLYS.get(kind.lower())
    if poly is None:
        raise ValueError(f"unknown kind {kind!r}; choose a, b, alpha or beta")
    return poly(n)


@_recurrence(0)
def flag_ap_poly(n: int, prev: UniPoly) -> UniPoly:
    """Flag ascent-plateau polynomial F_n over Stirling permutations."""
    return UniPoly([0, 1, 2 * (n - 1)]) * prev + _X_MINUS_X3 * prev.derivative()


def boros_moll_coefficient(m: int, i: int) -> Fraction:
    """d_i(m), the closed quartic-integral coefficient."""
    total = sum(
        2**k * binom(2 * m - 2 * k, m - k) * binom(m + k, k) * binom(k, i)
        for k in range(i, m + 1)
    )
    return Fraction(total, 4**m)


@lru_cache(maxsize=None)
def boros_moll(m: int) -> UniPoly:
    """Boros-Moll polynomial M_m, the closed coefficient formula summed over
    i first: as sum_i C(k, i) x^i = (1+x)^k, 4^m M_m(x) is the sum of
    2^k C(2m-2k, m-k) C(m+k, k) (1+x)^k over 0 <= k <= m."""
    if m < 0:
        raise ValueError("m must be >= 0")
    t = UniPoly([2**k * binom(2 * m - 2 * k, m - k) * binom(m + k, k) for k in range(m + 1)])
    return t.compose(ONE_PLUS_X) * Fraction(1, 4**m)


@_recurrence(0)
def q_poly(m: int, prev: UniPoly) -> UniPoly:
    """Reversed normalization Q_m = 2^m m! x^m M_m(1/x), by its recurrence."""
    return (2 * m - 1) * UniPoly([2, 3]) * prev - 2 * UniPoly([0, 1, 1]) * prev.derivative()


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> UniPoly:
    """n-th cyclotomic polynomial by iterated exact division: for each divisor
    d of n in turn, x^d - 1 over the cyclotomic polynomials of d's divisors."""
    if n < 1:
        raise ValueError("n must be >= 1")
    phi: dict[int, UniPoly] = {}
    for d in (d for d in range(1, n + 1) if n % d == 0):
        poly = UniPoly.monomial(d) - 1
        for e, p in phi.items():
            if d % e == 0:
                poly = poly.exact_div(p)
        phi[d] = poly
    return phi[n]


def biv_des_exc(n: int) -> BiPoly:
    """Joint descent/excedance enumerator of S_n as a polynomial in s and t."""
    return oracles.stat_polynomial(n, "des,exc")


# Largest index ``generate`` accepts.  A recurrence keeps every smaller
# member, with coefficients of thousands of digits, so time and memory
# grow steeply: at 450 the costliest family takes seconds and ~80 MB.
FAMILY_BOUND = 450

_GENERATORS: dict[FamilyId, Callable[[int], UniPoly | BiPoly]] = {
    FamilyId.EULERIAN_A: eulerian_a,
    FamilyId.EULERIAN_B: eulerian_b,
    FamilyId.NARAYANA_A: partial(narayana, "A"),
    FamilyId.NARAYANA_B: partial(narayana, "B"),
    FamilyId.NARAYANA_D: partial(narayana, "D"),
    FamilyId.PEAK: peak_poly,
    FamilyId.LEFT_PEAK: left_peak_poly,
    FamilyId.L_POLY: l_poly,
    FamilyId.LHAT_POLY: lhat_poly,
    FamilyId.A_SMALL: _a_small,
    FamilyId.B_SMALL: _b_small,
    FamilyId.ALPHA: _alpha,
    FamilyId.BETA: _beta,
    FamilyId.FLAG_AP: flag_ap_poly,
    FamilyId.BOROS_MOLL: boros_moll,
    FamilyId.Q_POLY: q_poly,
    FamilyId.CYCLOTOMIC: cyclotomic,
    FamilyId.BIV_DES_EXC: biv_des_exc,
}


def generate(family: FamilyId | str, n: int) -> UniPoly | BiPoly:
    """Dispatch a family by id; the CLI talks to this."""
    fid = family if isinstance(family, FamilyId) else FamilyId(family)
    if n > FAMILY_BOUND:
        raise ValueError(f"family index {n} exceeds the bound {FAMILY_BOUND}")
    return _GENERATORS[fid](n)


def mn_combination(n: int) -> UniPoly:
    """N(B_n, x^2) + (n+1) x N(A_(n-1), x^2), the stable Narayana combination."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return narayana("B", n).substitute_power(2) + (n + 1) * X * narayana(
        "A", n - 1
    ).substitute_power(2)
