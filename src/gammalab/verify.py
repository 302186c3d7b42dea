"""Registry of executable identity checks and bounded conjecture checkers.

Every check compares exact values and reports a witness (the parameters
plus the difference polynomial) on failure.  Checks that rely on random
inputs draw from a fixed-seed generator so reports are reproducible
byte for byte.  A check whose bound admits no case reports "empty".

Conjecture checkers are segregated: they report "holds-to-bound" rather
than "pass", so a future counterexample is a finding, not a test bug.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from . import families as fam
from . import oracles
from . import stability as st
from .expansions import (
    GammaExpansion,
    alt_gamma_expand,
    alt_semi_gamma_decompose,
    binomial_basis_expand,
    classify,
    eta_from_gamma,
    gamma_expand,
    is_symmetric,
    is_unimodal,
    semi_gamma_decompose,
    symmetric_decomposition,
    xi_from_gamma,
)
from .polynomial import (
    BiPoly,
    NotDivisible,
    RatFun,
    UniPoly,
    apply_diff_operator,
    basis_sum,
    binom,
    catalan,
)

PASS = "pass"
FAIL = "fail"
EMPTY = "empty"
HOLDS = "holds-to-bound"

_SEED = 271828

_X = UniPoly.x()
_ONE = UniPoly.one()
_ONE_PLUS_X = UniPoly([1, 1])
_ONE_MINUS_X = UniPoly([1, -1])
_ONE_PLUS_2X = UniPoly([1, 2])
_ONE_MINUS_X2 = UniPoly([1, 0, -1])


class UnknownIdentity(KeyError):
    """No identity with the requested id is registered."""


@dataclass(frozen=True)
class VerificationReport:
    ident: str
    range_run: str
    status: str
    witness: dict | None

    def to_json(self) -> dict:
        return {
            "id": self.ident,
            "range": self.range_run,
            "status": self.status,
            "witness": self.witness,
        }


@dataclass(frozen=True)
class IdentityCheck:
    ident: str
    description: str
    default_bound: int
    var: str
    runner: Callable[[int], list[dict]]
    cap: Callable[[], int] | None = None
    first: int = 1


REGISTRY: dict[str, IdentityCheck] = {}


def _check(
    ident: str, description: str, bound: int, var: str = "n", cap: Callable[[], int] | None = None,
    first: int = 1,
):
    """Register a runner; ``cap`` gives the largest bound its enumeration
    allows, ``first`` the least bound at which it checks a case."""

    def deco(fn: Callable[[int], list[dict]]):
        if ident in REGISTRY:
            raise ValueError(f"duplicate identity id {ident}")
        REGISTRY[ident] = IdentityCheck(ident, description, bound, var, fn, cap, first)
        return fn

    return deco


def _w(difference: UniPoly | BiPoly | str, **params) -> dict:
    return {"params": params, "difference": str(difference)}


def _eq(lhs, rhs, fails: list[dict], **params) -> None:
    """Record a witness unless lhs == rhs: the difference of two polynomials,
    else the text "lhs != rhs"."""
    if lhs != rhs:
        poly = isinstance(lhs, (UniPoly, BiPoly))
        fails.append(_w(lhs - rhs if poly else f"{lhs} != {rhs}", **params))


def _report(ident: str, range_run: str, fails: list[dict], ok: str = PASS) -> VerificationReport:
    return VerificationReport(ident, range_run, FAIL if fails else ok, fails[0] if fails else None)


# -- random input corpora (fixed seed, reproducible) -------------------------


def _rng() -> random.Random:
    return random.Random(_SEED)


def _random_gamma(
    rng: random.Random, centers: tuple[int, int] = (0, 12), floor: int = -9, sign: int = 1
) -> tuple[UniPoly, int]:
    """sum_k g_k (sign x)^k (1+x)^(n-2k) with n drawn from ``centers`` and each
    g_k from [floor, 9]; a nonnegative vector is never all zero."""
    n = rng.randint(*centers)
    gamma = [rng.randint(floor, 9) for _ in range(n // 2 + 1)]
    if floor >= 0 and not any(gamma):
        gamma[0] = 1
    return basis_sum(_ONE_PLUS_X, ((c * sign**k, k, n - 2 * k) for k, c in enumerate(gamma))), n


# -- squared-variable splitting of the Eulerian polynomials ------------------


@_check(
    "ANXBNX", "type A/B Eulerian splitting (1+x)^(n+1) A_n = B_n(x^2) + 2^n x A_n(x^2)", 10, first=0
)
def _anxbnx(bound: int) -> list[dict]:
    fails: list[dict] = []
    for n in range(bound + 1):
        lhs = _ONE_PLUS_X ** (n + 1) * fam.eulerian_a(n)
        rhs = fam.eulerian_b(n).substitute_power(2) + 2**n * _X * fam.eulerian_a(
            n
        ).substitute_power(2)
        _eq(lhs, rhs, fails, n=n)
    return fails


@_check("CUBE", "(1+x^2)^n has alternating gamma vector C(n,k) 2^k", 10, first=0)
def _cube(bound: int) -> list[dict]:
    fails: list[dict] = []
    for n in range(bound + 1):
        f = UniPoly([1, 0, 1]) ** n
        want = tuple(Fraction(binom(n, k) * 2**k) for k in range(n + 1))
        _eq(alt_gamma_expand(f, 2 * n).coeffs, want, fails, n=n)
    return fails


@_check(
    "FOATA",
    "gamma vector of A_n counts peak-k permutations without double descents",
    9,
    cap=oracles.sn_bound,
)
def _foata(bound: int) -> list[dict]:
    fails: list[dict] = []
    for n in range(1, bound + 1):
        want = tuple(Fraction(c) for c in oracles.gamma_count_vector(n))
        _eq(gamma_expand(fam.eulerian_a(n), n - 1).coeffs, want, fails, n=n)
    return fails


@lru_cache(maxsize=None)
def _orbit_table(n: int) -> tuple[tuple[tuple[int, ...], int, UniPoly], ...]:
    """(least member, pk, descent polynomial) of every valley-hopping orbit of S_n."""
    table, polys = [], {}  # orbits share few descent polynomials: keep one copy of each
    for orbit in oracles.mfs_orbit_partition(n):
        least = min(orbit)
        poly = UniPoly.from_counts(Counter(oracles._scan(sigma).des for sigma in orbit))
        table.append((least, oracles._scan(least).pk, polys.setdefault(poly.coeffs, poly)))
    return tuple(table)


@_check(
    "MFS_ORBIT",
    "orbit descent polynomials are x^pk (1+x)^(n-1-2pk) and sum to A_n",
    8,
    cap=oracles.sn_bound,
)
def _mfs_orbit(bound: int) -> list[dict]:
    fails: list[dict] = []
    for n in range(1, bound + 1):
        total = UniPoly.zero()
        for least, pk, got in _orbit_table(n):
            want = UniPoly.monomial(pk) * _ONE_PLUS_X ** (n - 1 - 2 * pk)
            _eq(got, want, fails, n=n, orbit_of=list(least))
            total = total + want
        _eq(total, fam.eulerian_a(n), fails, n=n)
    return fails


@_check(
    "MFS_ORBIT_SQ",
    "squared-variable descent polynomial of each orbit expands alternately",
    8,
    cap=oracles.sn_bound,
)
def _mfs_orbit_sq(bound: int) -> list[dict]:
    fails: list[dict] = []
    for n in range(1, bound + 1):
        for least, pk, got in _orbit_table(n):
            free = n - 1 - 2 * pk
            terms = (
                (binom(free, i) * (-2) ** i, 2 * pk + i, 2 * free - 2 * i) for i in range(free + 1)
            )
            want = basis_sum(_ONE_PLUS_X, terms)
            _eq(got.substitute_power(2), want, fails, n=n, orbit_of=list(least))
    return fails


# -- two-variable splitting formulas ------------------------------------------


def _pq_rhs(n: int, coefficient) -> BiPoly:
    s, t = BiPoly.s(), BiPoly.t()
    st = s * t
    spt = s + t
    acc = BiPoly.zero()
    for k in range(n // 2 + 1):
        acc = acc + (Fraction(-1) ** k * coefficient(n, k)) * st**k * spt ** (n - 2 * k)
    return acc


@_check("PNQN", "power-sum splitting p^n + q^n over the basis (pq)^k (p+q)^(n-2k)", 12)
def _pnqn(bound: int) -> list[dict]:
    fails: list[dict] = []
    s, t = BiPoly.s(), BiPoly.t()
    for n in range(1, bound + 1):
        lhs = s**n + t**n
        rhs = _pq_rhs(n, lambda n, k: Fraction(n, n - k) * binom(n - k, k))
        _eq(lhs, rhs, fails, n=n)
    return fails


@_check("PNQN02", "homogeneous geometric sum splitting over (pq)^k (p+q)^(n-2k)", 12, first=0)
def _pnqn02(bound: int) -> list[dict]:
    fails: list[dict] = []
    s, t = BiPoly.s(), BiPoly.t()
    for n in range(bound + 1):
        lhs = BiPoly.zero()
        for i in range(n + 1):
            lhs = lhs + s**i * t ** (n - i)
        _eq(lhs, _pq_rhs(n, lambda n, k: Fraction(binom(n - k, k))), fails, n=n)
    return fails


# -- Narayana identities -------------------------------------------------------


def _squared_sum(coeffs: Sequence) -> UniPoly:
    """sum_k c_k x^(2k) (1+x)^(2m-2k), k = 0..m: f(x^2) in the binomial basis."""
    m = len(coeffs) - 1
    return basis_sum(_ONE_PLUS_X, ((c, 2 * k, 2 * m - 2 * k) for k, c in enumerate(coeffs)))


def _diagonal_sum(coeffs: Sequence) -> UniPoly:
    """sum_k c_k x^k (1+x)^k."""
    return basis_sum(_ONE_PLUS_X, ((c, k, k) for k, c in enumerate(coeffs)))


def _cwz_lhs(n: int) -> UniPoly:
    """sum_k C(n,k)^2 x^(2k) (1+x)^(2n-2k), built from binomials alone."""
    return _squared_sum([binom(n, k) ** 2 for k in range(n + 1)])


def _na_alt_vector(n: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(catalan(k + 1) * binom(n, k)) for k in range(n + 1))


def _nb_alt_vector(n: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(binom(n, k) * binom(2 * k, k)) for k in range(n + 1))


@_check("COKER1", "gamma expansion of type A Narayana: C_k C(n,2k)", 10, first=0)
def _coker1(bound: int) -> list[dict]:
    fails: list[dict] = []
    for n in range(bound + 1):
        terms = ((catalan(k) * binom(n, 2 * k), k, n - 2 * k) for k in range(n // 2 + 1))
        _eq(fam.narayana("A", n), basis_sum(_ONE_PLUS_X, terms), fails, n=n)
    return fails


@_check("COKER2", "type A Narayana square-variable binomial identity", 10, first=0)
def _coker2(bound: int) -> list[dict]:
    fails: list[dict] = []
    for n in range(bound + 1):
        na = fam.narayana("A", n)
        lhs = _squared_sum([na.coefficient(k) for k in range(n + 1)])
        _eq(lhs, _diagonal_sum(_na_alt_vector(n)), fails, n=n)
    return fails


@_check("RIORDAN", "gamma expansion of type B Narayana: C(n,2k) C(2k,k)", 10, first=0)
def _riordan(bound: int) -> list[dict]:
    fails: list[dict] = []
    for n in range(bound + 1):
        terms = ((binom(n, 2 * k) * binom(2 * k, k), k, n - 2 * k) for k in range(n // 2 + 1))
        _eq(fam.narayana("B", n), basis_sum(_ONE_PLUS_X, terms), fails, n=n)
    return fails


@_check("CWZ", "type B Narayana square-variable binomial identity", 10, first=0)
def _cwz(bound: int) -> list[dict]:
    fails: list[dict] = []
    for n in range(bound + 1):
        _eq(_cwz_lhs(n), _diagonal_sum(_nb_alt_vector(n)), fails, n=n)
    return fails


@_check("NA_ALT", "alternating gamma vector of N(A_n, x^2) is C_(k+1) C(n,k)", 10, first=0)
def _na_alt(bound: int) -> list[dict]:
    fails: list[dict] = []
    for n in range(bound + 1):
        got = alt_gamma_expand(fam.narayana("A", n).substitute_power(2), 2 * n).coeffs
        _eq(got, _na_alt_vector(n), fails, n=n)
    return fails


@_check("NB_ALT", "alternating gamma vector of N(B_n, x^2) is C(n,k) C(2k,k)", 10, first=0)
def _nb_alt(bound: int) -> list[dict]:
    fails: list[dict] = []
    for n in range(bound + 1):
        got = alt_gamma_expand(fam.narayana("B", n).substitute_power(2), 2 * n).coeffs
        _eq(got, _nb_alt_vector(n), fails, n=n)
    return fails


@_check(
    "NA_SHIFT", "shifted type A vector sum C_(k+1) C(n,k) x^k in the (1+2x) basis", 10, first=0
)
def _na_shift(bound: int) -> list[dict]:
    fails: list[dict] = []
    for n in range(bound + 1):
        terms = ((catalan(k) * binom(n, 2 * k), 2 * k, n - 2 * k) for k in range(n // 2 + 1))
        _eq(UniPoly(_na_alt_vector(n)), basis_sum(_ONE_PLUS_2X, terms), fails, n=n)
    return fails


@_check(
    "NB_SHIFT", "shifted type B vector sum C(n,k) C(2k,k) x^k in the (1+2x) basis", 10, first=0
)
def _nb_shift(bound: int) -> list[dict]:
    fails: list[dict] = []
    for n in range(bound + 1):
        terms = ((binom(n, 2 * k) * binom(2 * k, k), 2 * k, n - 2 * k) for k in range(n // 2 + 1))
        _eq(UniPoly(_nb_alt_vector(n)), basis_sum(_ONE_PLUS_2X, terms), fails, n=n)
    return fails


@_check("ND_ALT", "N(D_n, x^2) is alternatingly gamma-positive with explicit vector", 10, first=2)
def _nd_alt(bound: int) -> list[dict]:
    fails: list[dict] = []
    for n in range(2, bound + 1):
        f = fam.narayana("D", n).substitute_power(2)
        got = alt_gamma_expand(f, 2 * n)
        want = (Fraction(1),) + tuple(
            Fraction(binom(n, i) * binom(2 * i, i) - n * catalan(i - 1) * binom(n - 2, i - 2))
            for i in range(1, n + 1)
        )
        _eq(got.coeffs, want, fails, n=n)
        if not got.is_nonnegative():
            fails.append(_w("negative alternating gamma entry", n=n))
    return fails


# -- differential operator identities -----------------------------------------


_XD = RatFun(_X)
_X2D = RatFun(UniPoly.monomial(2), _ONE_MINUS_X2)


def _iterate(op: RatFun, start: RatFun, want: Callable[[int], RatFun], bound: int) -> list[dict]:
    """Apply op to start n times and compare with want(n), n = 1..bound."""
    fails: list[dict] = []
    got = start
    for n in range(1, bound + 1):
        got = apply_diff_operator(op, got, 1)
        _eq(got, want(n), fails, n=n)
    return fails


@_check("OPID_A", "(xD)^n 1/(1-x) = x A_n(x)/(1-x)^(n+1)", 10)
def _opid_a(bound: int) -> list[dict]:
    return _iterate(
        _XD,
        RatFun(_ONE, _ONE_MINUS_X),
        lambda n: RatFun(_X * fam.eulerian_a(n), _ONE_MINUS_X ** (n + 1)),
        bound,
    )


@_check("OPID_A2", "(xD)^n 1/(1-x^2) = 2^n x^2 A_n(x^2)/(1-x^2)^(n+1)", 10)
def _opid_a2(bound: int) -> list[dict]:
    return _iterate(
        _XD,
        RatFun(_ONE, _ONE_MINUS_X2),
        lambda n: RatFun(
            2**n * UniPoly.monomial(2) * fam.eulerian_a(n).substitute_power(2),
            _ONE_MINUS_X2 ** (n + 1),
        ),
        bound,
    )


@_check("OPID_B2", "(xD)^n x/(1-x^2) = x B_n(x^2)/(1-x^2)^(n+1)", 10)
def _opid_b2(bound: int) -> list[dict]:
    return _iterate(
        _XD,
        RatFun(_X, _ONE_MINUS_X2),
        lambda n: RatFun(_X * fam.eulerian_b(n).substitute_power(2), _ONE_MINUS_X2 ** (n + 1)),
        bound,
    )


@_check("OPID_NA", "iterated x^2/(1-x^2) D of 1/(1-x^2) gives modified type A Narayana", 8)
def _opid_na(bound: int) -> list[dict]:
    return _iterate(
        _X2D,
        RatFun(_ONE, _ONE_MINUS_X2),
        lambda n: RatFun(
            math.factorial(n + 1)
            * UniPoly.monomial(n + 2)
            * fam.narayana("A", n - 1).substitute_power(2),
            _ONE_MINUS_X2 ** (2 * n + 1),
        ),
        bound,
    )


@_check("OPID_NB", "iterated x^2/(1-x^2) D of x/(1-x^2) gives modified type B Narayana", 8)
def _opid_nb(bound: int) -> list[dict]:
    return _iterate(
        _X2D,
        RatFun(_X, _ONE_MINUS_X2),
        lambda n: RatFun(
            math.factorial(n) * UniPoly.monomial(n + 1) * fam.narayana("B", n).substitute_power(2),
            _ONE_MINUS_X2 ** (2 * n + 1),
        ),
        bound,
    )


@_check("OPID_MN", "iterated x^2/(1-x^2) D of 1/(1-x) gives the stable combination", 8)
def _opid_mn(bound: int) -> list[dict]:
    return _iterate(
        _X2D,
        RatFun(_ONE, _ONE_MINUS_X),
        lambda n: RatFun(
            math.factorial(n) * UniPoly.monomial(n + 1) * fam.mn_combination(n),
            _ONE_MINUS_X2 ** (2 * n + 1),
        ),
        bound,
    )


# -- the stable Narayana combination -------------------------------------------


def _mn_alt_vector(n: int) -> tuple[Fraction, ...]:
    return (Fraction(1),) + tuple(
        Fraction(binom(n, k) * binom(2 * k, k) - (n + 1) * catalan(k) * binom(n - 1, k - 1))
        for k in range(1, n + 1)
    )


@_check("MN_GAMMA", "alternating gamma vector of the combination is nonnegative, top entry zero", 8)
def _mn_gamma(bound: int) -> list[dict]:
    fails: list[dict] = []
    for n in range(1, bound + 1):
        got = alt_gamma_expand(fam.mn_combination(n), 2 * n)
        _eq(got.coeffs, _mn_alt_vector(n), fails, n=n)
        if not got.is_nonnegative():
            fails.append(_w("negative entry", n=n))
        if got.coeffs[n] != 0:
            fails.append(_w("top entry nonzero", n=n))
    return fails


@_check("MN_STABLE", "the combination is Hurwitz stable (Routh array agrees)", 8)
def _mn_stable(bound: int) -> list[dict]:
    fails: list[dict] = []
    for n in range(1, bound + 1):
        f = fam.mn_combination(n)
        verdict = st.hurwitz_classify(f)
        if verdict.status != st.STABLE:
            fails.append(_w(f"classified {verdict.status}: {verdict.certificate}", n=n))
        if st.routh_stable(f) != st.ROUTH_STABLE:
            fails.append(_w("Routh array disagrees", n=n))
    return fails


@_check("MN_FACTOR", "the combination is divisible by (1+x)^2", 8)
def _mn_factor(bound: int) -> list[dict]:
    fails: list[dict] = []
    sq = UniPoly([1, 2, 1])
    for n in range(1, bound + 1):
        try:
            fam.mn_combination(n).exact_div(sq)
        except NotDivisible:
            fails.append(_w("(1+x)^2 does not divide", n=n))
    return fails


@_check("LN_RECU", "(1+x)^2 L_n and (1+x) L-hat_n both equal the stable combination", 10)
def _ln_recu(bound: int) -> list[dict]:
    fails: list[dict] = []
    sq = UniPoly([1, 2, 1])
    for n in range(1, bound + 1):
        target = fam.mn_combination(n)
        _eq(sq * fam.l_poly(n), target, fails, n=n, side="L")
        _eq(_ONE_PLUS_X * fam.lhat_poly(n), target, fails, n=n, side="Lhat")
    return fails


@_check("LN_CLOSED", "recurrences for L_n and L-hat_n match the binomial closed forms", 12)
def _ln_closed(bound: int) -> list[dict]:
    fails: list[dict] = []
    for n in range(1, bound + 1):
        closed = UniPoly([fam.l_closed(n, k) for k in range(2 * n - 1)])
        _eq(fam.l_poly(n), closed, fails, n=n, side="L")
    for n in range(1, bound + 1):
        closed = UniPoly([fam.lhat_closed(n, k) for k in range(2 * n)])
        _eq(fam.lhat_poly(n), closed, fails, n=n, side="Lhat")
    return fails


@_check("LN_SUM", "2 L_n(1) = L-hat_n(1) = C(2n,n) and n L_n(1) = (4n-2) L_(n-1)(1)", 10)
def _ln_sum(bound: int) -> list[dict]:
    fails: list[dict] = []
    for n in range(1, bound + 1):
        ln1 = fam.l_poly(n).evaluate(1)
        if 2 * ln1 != binom(2 * n, n):
            fails.append(_w("2 L_n(1) != C(2n,n)", n=n))
        if fam.lhat_poly(n).evaluate(1) != binom(2 * n, n):
            fails.append(_w("Lhat_n(1) != C(2n,n)", n=n))
        if n >= 2 and n * ln1 != (4 * n - 2) * fam.l_poly(n - 1).evaluate(1):
            fails.append(_w("n L_n(1) != (4n-2) L_(n-1)(1)", n=n))
    return fails


# -- peak-polynomial identities --------------------------------------------------


def _peak_sum(peaks: UniPoly, step: int, base: UniPoly, top: int) -> UniPoly:
    """sum_k 4^k peaks_k x^(step k) base^(top-2k), k = 0..top//2."""
    terms = ((4**k * peaks.coefficient(k), step * k, top - 2 * k) for k in range(top // 2 + 1))
    return basis_sum(base, terms)


@_check("STEMBRIDGE", "2^(n-1) A_n = sum 4^k P(n,k) x^k (1+x)^(n-1-2k)", 10)
def _stembridge(bound: int) -> list[dict]:
    fails: list[dict] = []
    for n in range(1, bound + 1):
        rhs = _peak_sum(fam.peak_poly(n), 1, _ONE_PLUS_X, n - 1)
        _eq(2 ** (n - 1) * fam.eulerian_a(n), rhs, fails, n=n)
    return fails


@_check("LEFTPEAK_B", "B_n = sum 4^k Phat(n,k) x^k (1+x)^(n-2k)", 10)
def _leftpeak_b(bound: int) -> list[dict]:
    fails: list[dict] = []
    for n in range(1, bound + 1):
        _eq(fam.eulerian_b(n), _peak_sum(fam.left_peak_poly(n), 1, _ONE_PLUS_X, n), fails, n=n)
    return fails


def _a_vector(n: int) -> GammaExpansion:
    return alt_gamma_expand(fam.eulerian_a(n).substitute_power(2), 2 * (n - 1))


def _b_vector(n: int) -> GammaExpansion:
    return alt_gamma_expand(fam.eulerian_b(n).substitute_power(2), 2 * n)


@_check("THM51_I", "A_n(x^2) and B_n(x^2) are alternatingly gamma-positive", 10)
def _thm51_i(bound: int) -> list[dict]:
    fails: list[dict] = []
    for n in range(1, bound + 1):
        if not _a_vector(n).is_nonnegative():
            fails.append(_w("a(n,k) has a negative entry", n=n))
        if not _b_vector(n).is_nonnegative():
            fails.append(_w("b(n,k) has a negative entry", n=n))
    return fails


@_check("THM51_II", "Eulerian square-variable binomial identities via a(n,k), b(n,k)", 10)
def _thm51_ii(bound: int) -> list[dict]:
    fails: list[dict] = []
    for n in range(1, bound + 1):
        an, bn = fam.eulerian_a(n), fam.eulerian_b(n)
        lhs = _squared_sum([an.coefficient(k) for k in range(n)])
        _eq(lhs, _diagonal_sum(_a_vector(n).coeffs), fails, n=n, side="A")
        lhs = _squared_sum([bn.coefficient(k) for k in range(n + 1)])
        _eq(lhs, _diagonal_sum(_b_vector(n).coeffs), fails, n=n, side="B")
    return fails


@_check("THM51_III", "a_n and b_n equal the peak polynomials in the (1+2x) basis", 10)
def _thm51_iii(bound: int) -> list[dict]:
    fails: list[dict] = []
    for n in range(1, bound + 1):
        rhs = _peak_sum(fam.peak_poly(n), 2, _ONE_PLUS_2X, n - 1)
        _eq(UniPoly(_a_vector(n).coeffs), Fraction(1, 2 ** (n - 1)) * rhs, fails, n=n, side="a")
        rhs = _peak_sum(fam.left_peak_poly(n), 2, _ONE_PLUS_2X, n)
        _eq(UniPoly(_b_vector(n).coeffs), rhs, fails, n=n, side="b")
    return fails


@_check("THM51_IV", "binomial-basis vectors of a_n, b_n expand the peak gamma polynomials", 10)
def _thm51_iv(bound: int) -> list[dict]:
    fails: list[dict] = []
    for n in range(1, bound + 1):
        alpha = binomial_basis_expand(UniPoly(_a_vector(n).coeffs), n - 1, "+").coeffs
        gamma_poly = Fraction(1, 2 ** (n - 1)) * _peak_sum(fam.peak_poly(n), 2, _ONE, n - 1)
        got = binomial_basis_expand(gamma_poly, n - 1, "-").coeffs
        _eq(got, alpha, fails, n=n, side="alpha")
        beta = binomial_basis_expand(UniPoly(_b_vector(n).coeffs), n, "+").coeffs
        got = binomial_basis_expand(_peak_sum(fam.left_peak_poly(n), 2, _ONE, n), n, "-").coeffs
        _eq(got, beta, fails, n=n, side="beta")
    return fails


@_check("COR15", "alpha_n and beta_n equal the peak polynomials in the (1+x) basis", 10)
def _cor15(bound: int) -> list[dict]:
    fails: list[dict] = []
    for n in range(1, bound + 1):
        rhs = _peak_sum(fam.peak_poly(n), 2, _ONE_PLUS_X, n - 1)
        _eq(fam.ab_polys("alpha", n), Fraction(1, 2 ** (n - 1)) * rhs, fails, n=n, side="alpha")
        rhs = _peak_sum(fam.left_peak_poly(n), 2, _ONE_PLUS_X, n)
        _eq(fam.ab_polys("beta", n), rhs, fails, n=n, side="beta")
    return fails


@_check("ABREC", "the a, b, alpha, beta recurrences match their expansion definitions", 10)
def _abrec(bound: int) -> list[dict]:
    fails: list[dict] = []
    for n in range(1, bound + 1):
        _eq(fam.ab_polys("a", n), UniPoly(_a_vector(n).coeffs), fails, n=n, side="a")
        _eq(fam.ab_polys("b", n), UniPoly(_b_vector(n).coeffs), fails, n=n, side="b")
        alpha = binomial_basis_expand(UniPoly(_a_vector(n).coeffs), n - 1, "+").coeffs
        _eq(fam.ab_polys("alpha", n), UniPoly(alpha), fails, n=n, side="alpha")
        beta = binomial_basis_expand(UniPoly(_b_vector(n).coeffs), n, "+").coeffs
        _eq(fam.ab_polys("beta", n), UniPoly(beta), fails, n=n, side="beta")
    return fails


@_check("SPECIALS", "special evaluations at 1 and -1 of the Eulerian companions", 10)
def _specials(bound: int) -> list[dict]:
    fails: list[dict] = []
    for n in range(1, bound + 1):
        if fam.eulerian_a(n).evaluate(1) != math.factorial(n):
            fails.append(_w("A_n(1) != n!", n=n))
        if fam.eulerian_b(n).evaluate(1) != 2**n * math.factorial(n):
            fails.append(_w("B_n(1) != 2^n n!", n=n))
        if fam.ab_polys("alpha", n).evaluate(1) != math.factorial(n):
            fails.append(_w("alpha_n(1) != n!", n=n))
        if fam.ab_polys("beta", n).evaluate(1) != 2**n * math.factorial(n):
            fails.append(_w("beta_n(1) != 2^n n!", n=n))
        want = Fraction((-1) ** (n - 1), 2 ** (n - 1)) * fam.peak_poly(n).evaluate(4)
        if fam.ab_polys("a", n).evaluate(-1) != want:
            fails.append(_w("a_n(-1) mismatch", n=n))
        want = (-1) ** n * fam.left_peak_poly(n).evaluate(4)
        if fam.ab_polys("b", n).evaluate(-1) != want:
            fails.append(_w("b_n(-1) mismatch", n=n))
    return fails


@_check(
    "ALPHA_ORACLE",
    "alpha_n is the pk+des distribution and the n-1-dasc distribution",
    9,
    cap=oracles.sn_bound,
)
def _alpha_oracle(bound: int) -> list[dict]:
    fails: list[dict] = []
    for n in range(1, bound + 1):
        want = fam.ab_polys("alpha", n)
        _eq(oracles.stat_polynomial(n, "pk+des"), want, fails, n=n, weight="pk+des")
        _eq(oracles.stat_polynomial(n, "n-1-dasc"), want, fails, n=n, weight="n-1-dasc")
    return fails


@_check(
    "BETA_ORACLE",
    "beta_n is the left-peak (2x)^(2lpk)(1+x)^(n-2lpk) distribution",
    9,
    cap=oracles.sn_bound,
)
def _beta_oracle(bound: int) -> list[dict]:
    fails: list[dict] = []
    for n in range(1, bound + 1):
        _eq(oracles.stat_polynomial(n, "beta"), fam.ab_polys("beta", n), fails, n=n)
    return fails


@_check("EULERIAN_ORACLE", "A_n is the descent distribution over S_n", 9, cap=oracles.sn_bound)
def _eulerian_oracle(bound: int) -> list[dict]:
    fails: list[dict] = []
    for n in range(1, bound + 1):
        _eq(oracles.stat_polynomial(n, "des"), fam.eulerian_a(n), fails, n=n)
    return fails


@_check(
    "PEAK_ORACLE",
    "P_n and Phat_n are the peak and left-peak distributions",
    9,
    cap=oracles.sn_bound,
)
def _peak_oracle(bound: int) -> list[dict]:
    fails: list[dict] = []
    for n in range(1, bound + 1):
        _eq(oracles.stat_polynomial(n, "pk"), fam.peak_poly(n), fails, n=n, weight="pk")
        _eq(
            oracles.stat_polynomial(n, "lpk"),
            fam.left_peak_poly(n),
            fails,
            n=n,
            weight="lpk",
        )
    return fails


# -- flag ascent-plateau family ---------------------------------------------------


@_check("FN_SEMI", "F_n is not symmetric yet is semi-gamma-positive", 10)
def _fn_semi(bound: int) -> list[dict]:
    fails: list[dict] = []
    for n in range(1, bound + 1):
        f = fam.flag_ap_poly(n)
        if is_symmetric(f, f.degree):
            fails.append(_w("unexpectedly symmetric", n=n))
        dec = semi_gamma_decompose(f)
        if not dec.is_nonnegative():
            fails.append(_w("negative half-square coefficient", n=n))
        if dec.reconstruct() != f:
            fails.append(_w("reconstruction failed", n=n))
    return fails


@_check(
    "STIRLING_FAP",
    "F_n is the flag ascent-plateau distribution on Stirling permutations",
    7,
    cap=oracles.stirling_bound,
)
def _stirling_fap(bound: int) -> list[dict]:
    fails: list[dict] = []
    for n in range(1, bound + 1):
        _eq(oracles.stirling_fap_poly(n), fam.flag_ap_poly(n), fails, n=n)
    return fails


@_check("FN_CONV", "2x(1+x)^(n-1) A_n is the binomial convolution of the F_k", 8)
def _fn_conv(bound: int) -> list[dict]:
    fails: list[dict] = []
    for n in range(1, bound + 1):
        lhs = 2 * _X * _ONE_PLUS_X ** (n - 1) * fam.eulerian_a(n)
        rhs = UniPoly.zero()
        for k in range(n + 1):
            rhs = rhs + binom(n, k) * fam.flag_ap_poly(k) * fam.flag_ap_poly(n - k)
        _eq(lhs, rhs, fails, n=n)
    return fails


@_check("THM_FNX", "gamma-positive families decompose with nonnegative xi and zeta", 10)
def _thm_fnx(bound: int) -> list[dict]:
    fails: list[dict] = []
    for n in range(1, bound + 1):
        members = {
            "eulerian_a": fam.eulerian_a(n),
            "eulerian_b": fam.eulerian_b(n),
            "narayana_a": fam.narayana("A", n),
            "narayana_b": fam.narayana("B", n),
        }
        for name, f in members.items():
            dec = alt_semi_gamma_decompose(f)
            if not dec.is_nonnegative():
                fails.append(_w("negative xi or zeta entry", n=n, family=name))
            if dec.reconstruct() != f:
                fails.append(_w("reconstruction failed", n=n, family=name))
    return fails


@_check(
    "PRODUCT_LEMMA", "products of alternatingly gamma-positive polynomials stay so", 100, "samples"
)
def _product_lemma(samples: int) -> list[dict]:
    fails: list[dict] = []
    rng = _rng()
    for trial in range(samples):
        f, n = _random_gamma(rng, (0, 10), 0, -1)
        g, m = _random_gamma(rng, (0, 10), 0, -1)
        if not alt_gamma_expand(f * g, n + m).is_nonnegative():
            fails.append(_w("product lost alternating positivity", trial=trial))
    return fails


# -- the gamma-to-alternating transforms ------------------------------------------


@_check(
    "THM31_I", "even-power substitution of gamma-positive input stays alternating", 200, "samples"
)
def _thm31_i(samples: int) -> list[dict]:
    fails: list[dict] = []
    rng = _rng()
    for trial in range(samples):
        f, n = _random_gamma(rng, (1, 12), 0)
        for m in (1, 2, 3):
            if not alt_gamma_expand(f.substitute_power(2 * m), 2 * m * n).is_nonnegative():
                fails.append(_w("negative entry", trial=trial, m=m))
    return fails


@_check(
    "THM31_II", "alternating vector of f(x^2) equals the eta transform of gamma", 200, "samples"
)
def _thm31_ii(samples: int) -> list[dict]:
    fails: list[dict] = []
    rng = _rng()
    for trial in range(samples):
        f, n = _random_gamma(rng)
        if f.is_zero():
            continue
        eta = eta_from_gamma(gamma_expand(f, n))
        _eq(alt_gamma_expand(f.substitute_power(2), 2 * n).coeffs, eta, fails, trial=trial)
    return fails


@_check("THM31_III", "eta polynomial equals both the (1+2x) and (1+x) basis sums", 200, "samples")
def _thm31_iii(samples: int) -> list[dict]:
    fails: list[dict] = []
    rng = _rng()
    for trial in range(samples):
        f, n = _random_gamma(rng)
        if f.is_zero():
            continue
        g = gamma_expand(f, n)
        eta_poly = UniPoly(eta_from_gamma(g))
        rhs = basis_sum(_ONE_PLUS_2X, ((c, 2 * i, n - 2 * i) for i, c in enumerate(g.coeffs)))
        _eq(eta_poly, rhs, fails, trial=trial, side="1+2x")
        rhs = basis_sum(_ONE_PLUS_X, ((c, k, n - k) for k, c in enumerate(xi_from_gamma(g))))
        _eq(eta_poly, rhs, fails, trial=trial, side="1+x")
    return fails


@_check("THM31_IV", "gamma polynomial in x^2 equals the signed xi binomial sums", 200, "samples")
def _thm31_iv(samples: int) -> list[dict]:
    fails: list[dict] = []
    rng = _rng()
    for trial in range(samples):
        f, n = _random_gamma(rng)
        if f.is_zero():
            continue
        g = gamma_expand(f, n)
        gamma_poly = UniPoly(g.coeffs).substitute_power(2)
        xi = xi_from_gamma(g)
        rhs = basis_sum(_ONE_PLUS_X, ((c * (-1) ** k, k, n - k) for k, c in enumerate(xi)))
        _eq(gamma_poly, rhs, fails, trial=trial, side="(-x)(1+x)")
        rhs = basis_sum(_ONE_MINUS_X, ((c, k, n - k) for k, c in enumerate(xi)))
        _eq(gamma_poly, rhs, fails, trial=trial, side="x(1-x)")
    return fails


@_check("ODD_CEX", "cube substitution of 1+4x+x^2 is not alternatingly gamma-positive", 0, "fixed")
def _odd_cex(_bound: int) -> list[dict]:
    fails: list[dict] = []
    f = UniPoly([1, 4, 1])
    if gamma_expand(f, 2).coeffs != (Fraction(1), Fraction(2)):
        fails.append(_w("gamma vector of the base polynomial is wrong"))
    cube = f.substitute_power(3)
    want = (Fraction(1), Fraction(6), Fraction(9), Fraction(-2))
    _eq(alt_gamma_expand(cube, 6).coeffs, want, fails)
    if classify(f, 2).gamma_positive != "yes":
        fails.append(_w("base polynomial should classify gamma-positive"))
    if classify(cube, 6).alt_gamma_positive != "no":
        fails.append(_w("cube should classify not alternatingly gamma-positive"))
    return fails


# -- cyclotomic reductions -----------------------------------------------------


@_check("CYCLO_RED", "cyclotomic reduction formulas for primes 2, 3, 5", 30)
def _cyclo_red(bound: int) -> list[dict]:
    fails: list[dict] = []
    for p in (2, 3, 5):
        for n in range(1, bound + 1):
            if n % p == 0:
                continue
            lhs = fam.cyclotomic(p * n)
            rhs = fam.cyclotomic(n).substitute_power(p).exact_div(fam.cyclotomic(n))
            _eq(lhs, rhs, fails, p=p, n=n)
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29):
        if p > bound:
            continue
        _eq(fam.cyclotomic(p), UniPoly([1] * p), fails, p=p, n=p)
    return fails


# -- lattice-path and diagram oracles -------------------------------------------


@_check(
    "CM_COUNT",
    "2-Motzkin up/blue distribution matches type A Narayana",
    12,
    cap=oracles.motzkin_bound,
    first=0,
)
def _cm_count(bound: int) -> list[dict]:
    fails: list[dict] = []
    for n in range(bound + 1):
        _eq(oracles.motzkin2_ub_poly(n), fam.narayana("A", n), fails, n=n)
        if oracles.motzkin2_count(n) != catalan(n + 1):
            fails.append(_w("path count is not the Catalan number", n=n))
    return fails


@_check(
    "CY_COUNT",
    "balanced 2-colored Young diagram weights match type B Narayana",
    12,
    cap=oracles.young_bound,
    first=0,
)
def _cy_count(bound: int) -> list[dict]:
    fails: list[dict] = []
    for n in range(bound + 1):
        _eq(oracles.young2_weight_poly(n, "sqrt_split"), fam.narayana("B", n), fails, n=n)
        if oracles.young2_count(n) != binom(2 * n, n):
            fails.append(_w("diagram count is not the central binomial", n=n))
        lhs = oracles.young2_weight_poly(n, "x_and_1px")
        _eq(lhs, _cwz_lhs(n), fails, n=n, weighting="x_and_1px")
    return fails


def _pattern_cap() -> int:
    """Largest n whose pattern class in S_(n+1) the enumeration cap allows."""
    return oracles.pattern_bound() - 1


@_check(
    "NARA_231",
    "descents of 231-avoiding permutations give type A Narayana",
    6,
    cap=_pattern_cap,
    first=0,
)
def _nara_231(bound: int) -> list[dict]:
    fails: list[dict] = []
    for n in range(bound + 1):
        got = oracles.pattern_class_descent_poly(n + 1, [(2, 3, 1)])
        _eq(got, fam.narayana("A", n), fails, n=n)
    return fails


@_check(
    "NARA_B4",
    "descents of the four-pattern avoidance class give type B Narayana",
    6,
    cap=_pattern_cap,
    first=0,
)
def _nara_b4(bound: int) -> list[dict]:
    fails: list[dict] = []
    patterns = [(1, 3, 4, 2), (3, 1, 4, 2), (3, 4, 1, 2), (3, 4, 2, 1)]
    for n in range(bound + 1):
        got = oracles.pattern_class_descent_poly(n + 1, patterns)
        _eq(got, fam.narayana("B", n), fails, n=n)
    return fails


# -- Boros-Moll family -----------------------------------------------------------


@_check("BM_RECU", "the closed quartic-integral coefficients satisfy their recurrence", 30, "m")
def _bm_recu(bound: int) -> list[dict]:
    fails: list[dict] = []
    for m in range(bound):
        for i in range(m + 2):
            lhs = 2 * (m + 1) * fam.boros_moll_coefficient(m + 1, i)
            prev = fam.boros_moll_coefficient(m, i - 1) if i >= 1 else Fraction(0)
            cur = fam.boros_moll_coefficient(m, i) if i <= m else Fraction(0)
            rhs = 2 * (m + i) * prev + (4 * m + 2 * i + 3) * cur
            _eq(lhs, rhs, fails, m=m, i=i)
    return fails


@_check("BM_Q", "Q_m recurrence matches the reversal of M_m, coefficientwise", 30, "m", first=0)
def _bm_q(bound: int) -> list[dict]:
    fails: list[dict] = []
    for m in range(bound + 1):
        want = 2**m * math.factorial(m) * fam.boros_moll(m).reverse(m)
        _eq(fam.q_poly(m), want, fails, m=m)
    for m in range(bound):
        qm, qm1 = fam.q_poly(m), fam.q_poly(m + 1)
        for i in range(m + 2):
            rhs = (4 * m - 2 * i + 2) * qm.coefficient(i) + (6 * m - 2 * i + 5) * qm.coefficient(
                i - 1
            )
            _eq(qm1.coefficient(i), rhs, fails, m=m, i=i)
    return fails


@_check("SYMDEC", "symmetric decomposition reconstructs and has symmetric parts", 100, "samples")
def _symdec(samples: int) -> list[dict]:
    fails: list[dict] = []
    rng = _rng()
    for trial in range(samples):
        deg = rng.randint(0, 10)
        f = UniPoly([rng.randint(-9, 9) for _ in range(deg + 1)])
        n = (f.degree if not f.is_zero() else 0) + rng.randint(0, 1)
        dec = symmetric_decomposition(f, n)
        if dec.reconstruct() != f:
            fails.append(_w("a + x b != f", trial=trial))
        if not is_symmetric(dec.a, n):
            fails.append(_w("a not symmetric", trial=trial))
        if n >= 1 and not is_symmetric(dec.b, n - 1):
            fails.append(_w("b not symmetric", trial=trial))
    return fails


# -- runners ---------------------------------------------------------------------


def run_identity(ident: str, bound: int | None = None) -> VerificationReport:
    """Execute one registered check up to the requested bound, clamped to
    its cap; the report names the bound that was actually run, and its
    status is "empty" when that bound admits no case."""
    if ident not in REGISTRY:
        raise UnknownIdentity(ident)
    check = REGISTRY[ident]
    bound = check.default_bound if bound is None else bound
    if check.cap is not None:
        bound = min(bound, check.cap())
    range_run = "fixed" if check.var == "fixed" else f"{check.var} <= {bound}"
    if check.var != "fixed" and bound < check.first:  # no case to check: not a pass
        return _report(ident, range_run, [], EMPTY)
    return _report(ident, range_run, check.runner(bound))


def run_all(bounds: dict[str, int] | None = None) -> list[VerificationReport]:
    """Run every registered identity, reports ordered by id."""
    bounds = bounds or {}
    return [run_identity(i, bounds.get(i)) for i in sorted(REGISTRY)]


def all_pass(reports: Iterable[VerificationReport]) -> bool:
    return all(r.status != FAIL for r in reports)


# -- conjecture checkers -----------------------------------------------------------


def conjecture_boros_moll(max_m: int = 20) -> VerificationReport:
    """Bounded check: Q_m = a_m + x b_m with symmetric, unimodal and
    alternatingly gamma-positive parts, for 1 <= m <= max_m."""
    if max_m > 60:
        raise ValueError("bounded checker capped at m = 60")
    fails: list[dict] = []
    for m in range(1, max_m + 1):
        dec = symmetric_decomposition(fam.q_poly(m), m)
        a, b = dec.a, dec.b
        if not is_symmetric(a, m) or not is_unimodal(a, m):
            fails.append(_w("a_m not symmetric unimodal", m=m))
        if not (b.is_zero() or (is_symmetric(b, m - 1) and is_unimodal(b, m - 1))):
            fails.append(_w("b_m not symmetric unimodal", m=m))
        if not alt_gamma_expand(a, m).is_nonnegative():
            fails.append(_w("a_m not alternatingly gamma-positive", m=m))
        if not b.is_zero() and not alt_gamma_expand(b, m - 1).is_nonnegative():
            fails.append(_w("b_m not alternatingly gamma-positive", m=m))
    return _report("CONJ_BOROS_MOLL", f"m <= {max_m}", fails, HOLDS)


_ONE_PLUS_T = BiPoly((UniPoly.one(), UniPoly.one()))


def bipoly_symmetric_in_t(poly: BiPoly, center: int) -> bool:
    return all(
        poly.coefficient(j) == poly.coefficient(center - j) for j in range(center // 2 + 1)
    )


def bipoly_gamma_in_t(poly: BiPoly, center: int) -> list[UniPoly] | None:
    """Gamma vector of a t-symmetric BiPoly over the coefficient ring Q[s];
    None when the peeling does not terminate at zero."""
    rem = poly
    out = []
    for k in range(center // 2 + 1):
        c = rem.coefficient(k)
        out.append(c)
        if not c.is_zero():
            rem = rem - BiPoly.t_monomial(k, c) * _ONE_PLUS_T ** (center - 2 * k)
    if not rem.is_zero():
        return None
    return out


def descent_excedance_parts(max_n: int) -> dict[int, BiPoly]:
    """The recursively defined symmetric parts a_n of the joint
    descent/excedance enumerators."""
    s_minus_1 = BiPoly((UniPoly([-1, 1]),))
    t = BiPoly.t()
    parts = {1: BiPoly.one()}
    for n in range(2, max_n + 1):
        parts[n] = fam.biv_des_exc(n) - s_minus_1 * t * parts[n - 1]
    return parts


_SHIFT_ONE = UniPoly([1, 1])


def conjecture_des_exc(
    max_n: int = 8, s_values: Sequence[Fraction] = (Fraction(1), Fraction(3, 2), Fraction(2))
) -> VerificationReport:
    """Bounded check of the descent/excedance symmetric decomposition.

    For each n the part a_n must be t-symmetric; its t-gamma vector,
    rewritten in powers of (s-1), must be coefficientwise nonnegative
    (a certificate for every real s >= 1); and for each sampled s the
    specialized gamma vector is nonnegative while the full enumerator is
    unimodal.
    """
    if max_n > 9:
        raise ValueError("bounded checker capped at n = 9")
    fails: list[dict] = []
    parts = descent_excedance_parts(max_n)
    for n in range(2, max_n + 1):
        a_n = parts[n]
        if not bipoly_symmetric_in_t(a_n, n - 1):
            fails.append(_w("a_n not symmetric in t", n=n))
            continue
        gamma = bipoly_gamma_in_t(a_n, n - 1)
        if gamma is None:
            fails.append(_w("t-gamma peeling failed", n=n))
            continue
        for k, coeff in enumerate(gamma):
            shifted = coeff.compose(_SHIFT_ONE)
            if any(c < 0 for c in shifted.coeffs):
                fails.append(_w(f"gamma_{k} not a nonnegative series in s-1", n=n, k=k))
        for s0 in s_values:
            spec = a_n.substitute_s(s0)
            if not gamma_expand(spec, n - 1).is_nonnegative():
                fails.append(_w("specialized gamma vector negative", n=n, s=str(s0)))
            full = fam.biv_des_exc(n).substitute_s(s0)
            if not is_unimodal(full, n - 1):
                fails.append(_w("joint enumerator not unimodal", n=n, s=str(s0)))
    return _report("CONJ_DES_EXC", f"n <= {max_n}", fails, HOLDS)
