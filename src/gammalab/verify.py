"""Registry of executable identity checks and bounded conjecture checkers.

A registered check states one case: it takes one parameter value and
yields a witness (the parameters plus the difference polynomial) for
each way that case fails.  ``run_identity`` is the one loop over a
check's range.  It clamps the requested bound to the check's enumeration
cap, runs every value from the check's least case up to that bound, and
reports the range it ran and the first witness, or "empty" when that
range holds no case.  A ``ValueError`` or ``ArithmeticError`` raised
inside a case is that case's witness, so a bad value fails the check
instead of aborting the run.  Checks that rely on random inputs read the
t-th draw of a fixed-seed stream, so reports are reproducible byte for
byte.

Conjecture checkers state their cases the same way and run through the
same loop, but report "holds-to-bound" rather than "pass", so a future
counterexample is a finding, not a test bug.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Iterable, Iterator, Sequence

from . import families as fam
from . import oracles
from . import stability as st
from .expansions import (
    GammaExpansion,
    _peel,
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
    ONE,
    ONE_MINUS_X,
    ONE_PLUS_X,
    X,
    BiPoly,
    NotDivisible,
    UniPoly,
    basis_sum,
    binom,
    catalan,
)

PASS = "pass"
FAIL = "fail"
EMPTY = "empty"
HOLDS = "holds-to-bound"

_SEED = 271828

_ONE_PLUS_2X = UniPoly([1, 2])
_ONE_MINUS_X2 = UniPoly([1, 0, -1])

Case = Callable[[int], Iterable[dict]]


class UnknownIdentity(KeyError):
    """No identity with the requested id is registered."""


@dataclass(frozen=True)
class VerificationReport:
    ident: str
    range_run: str
    status: str
    witness: dict | None
    cases: int  # parameter values the loop ran; not part of the JSON report

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
    case: Case
    cap: Callable[[], int] | None = None
    first: int = 1


REGISTRY: dict[str, IdentityCheck] = {}


def _check(
    ident: str, description: str, bound: int, var: str = "n", cap: Callable[[], int] | None = None,
    first: int = 1,
):
    """Register a one-case check; ``cap`` gives the largest bound its
    enumeration allows, ``first`` its least parameter value."""

    def deco(fn: Case):
        if ident in REGISTRY:
            raise ValueError(f"duplicate identity id {ident}")
        REGISTRY[ident] = IdentityCheck(ident, description, bound, var, fn, cap, first)
        return fn

    return deco


def _w(difference: UniPoly | BiPoly | str, **params) -> dict:
    return {"params": params, "difference": str(difference)}


def _eq(lhs, rhs, **params) -> Iterator[dict]:
    """Yield a witness unless lhs == rhs: the difference of two polynomials,
    else the text "lhs != rhs"."""
    if lhs != rhs:
        poly = isinstance(lhs, (UniPoly, BiPoly))
        yield _w(lhs - rhs if poly else f"{lhs} != {rhs}", **params)


# -- random input corpora (fixed seed, reproducible) -------------------------


def _random_gamma(
    rng: random.Random, centers: tuple[int, int] = (0, 12), floor: int = -9, sign: int = 1
) -> tuple[UniPoly, int]:
    """sum_k g_k (sign x)^k (1+x)^(n-2k) with n drawn from ``centers`` and each
    g_k from [floor, 9]; a nonnegative vector is never all zero."""
    n = rng.randint(*centers)
    gamma = [rng.randint(floor, 9) for _ in range(n // 2 + 1)]
    if floor >= 0 and not any(gamma):
        gamma[0] = 1
    return basis_sum(ONE_PLUS_X, ((c * sign**k, k, n - 2 * k) for k, c in enumerate(gamma))), n


def _random_poly(rng: random.Random) -> tuple[UniPoly, int]:
    """A polynomial of degree <= 10 with entries in [-9, 9], and a center at
    its degree or one above."""
    deg = rng.randint(0, 10)
    f = UniPoly([rng.randint(-9, 9) for _ in range(deg + 1)])
    return f, (f.degree if not f.is_zero() else 0) + rng.randint(0, 1)


# The corpora the sampled checks read: THM31_II-IV share the symmetric one
# of ``_random_gamma``'s defaults, and SYMDEC reads ``_random_poly``'s.
_POSITIVE = partial(_random_gamma, centers=(1, 12), floor=0)
_ALTERNATING = partial(_random_gamma, centers=(0, 10), floor=0, sign=-1)


@lru_cache(maxsize=None)
def _stream(draw: Callable[[random.Random], tuple]) -> tuple[random.Random, list[tuple]]:
    """The fixed-seed generator behind ``draw`` and the draws made from it so far."""
    return random.Random(_SEED), []


def _sample(draw: Callable[[random.Random], tuple], t: int) -> tuple:
    """Draw t >= 1 of ``draw``'s corpus: what the t-th call of ``draw`` on one
    fresh fixed-seed generator returns."""
    rng, made = _stream(draw)
    while len(made) < t:
        made.append(draw(rng))
    return made[t - 1]


# -- squared-variable splitting of the Eulerian polynomials ------------------


@_check(
    "ANXBNX", "type A/B Eulerian splitting (1+x)^(n+1) A_n = B_n(x^2) + 2^n x A_n(x^2)", 10, first=0
)
def _anxbnx(n: int) -> Iterator[dict]:
    lhs = ONE_PLUS_X ** (n + 1) * fam.eulerian_a(n)
    rhs = fam.eulerian_b(n).substitute_power(2) + 2**n * X * fam.eulerian_a(n).substitute_power(2)
    yield from _eq(lhs, rhs, n=n)


@_check("CUBE", "(1+x^2)^n has alternating gamma vector C(n,k) 2^k", 10, first=0)
def _cube(n: int) -> Iterator[dict]:
    f = UniPoly([1, 0, 1]) ** n
    want = tuple(Fraction(binom(n, k) * 2**k) for k in range(n + 1))
    yield from _eq(alt_gamma_expand(f, 2 * n).coeffs, want, n=n)


@_check(
    "FOATA",
    "gamma vector of A_n counts peak-k permutations without double descents",
    9,
    cap=oracles.sn_bound,
)
def _foata(n: int) -> Iterator[dict]:
    want = tuple(Fraction(c) for c in oracles.gamma_count_vector(n))
    yield from _eq(gamma_expand(fam.eulerian_a(n), n - 1).coeffs, want, n=n)


@lru_cache(maxsize=None)
def _orbit_table(n: int) -> tuple[tuple[tuple[int, ...], int, UniPoly], ...]:
    """(least member, pk, descent polynomial) of every valley-hopping orbit of S_n."""
    table, polys = [], {}  # orbits share few descent polynomials: keep one copy of each
    for least, pk, des in oracles.mfs_orbit_classes(n).values():
        poly = UniPoly.from_counts(des)
        table.append((least, pk, polys.setdefault(poly.coeffs, poly)))
    return tuple(table)


@_check(
    "MFS_ORBIT",
    "orbit descent polynomials are x^pk (1+x)^(n-1-2pk) and sum to A_n",
    8,
    cap=oracles.sn_bound,
)
def _mfs_orbit(n: int) -> Iterator[dict]:
    wants: dict[int, UniPoly] = {}
    orbits_per_pk: Counter = Counter()
    for least, pk, got in _orbit_table(n):
        if pk not in wants:
            wants[pk] = UniPoly.monomial(pk) * ONE_PLUS_X ** (n - 1 - 2 * pk)
        yield from _eq(got, wants[pk], n=n, orbit_of=list(least))
        orbits_per_pk[pk] += 1
    total = sum((c * wants[pk] for pk, c in orbits_per_pk.items()), UniPoly.zero())
    yield from _eq(total, fam.eulerian_a(n), n=n)


@_check(
    "MFS_ORBIT_SQ",
    "squared-variable descent polynomial of each orbit expands alternately",
    8,
    cap=oracles.sn_bound,
)
def _mfs_orbit_sq(n: int) -> Iterator[dict]:
    wants: dict[int, UniPoly] = {}
    for least, pk, got in _orbit_table(n):
        if pk not in wants:
            free = n - 1 - 2 * pk
            terms = (
                (binom(free, i) * (-2) ** i, 2 * pk + i, 2 * free - 2 * i) for i in range(free + 1)
            )
            wants[pk] = basis_sum(ONE_PLUS_X, terms)
        yield from _eq(got.substitute_power(2), wants[pk], n=n, orbit_of=list(least))


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
def _pnqn(n: int) -> Iterator[dict]:
    lhs = BiPoly.s() ** n + BiPoly.t() ** n
    rhs = _pq_rhs(n, lambda n, k: Fraction(n, n - k) * binom(n - k, k))
    yield from _eq(lhs, rhs, n=n)


@_check("PNQN02", "homogeneous geometric sum splitting over (pq)^k (p+q)^(n-2k)", 12, first=0)
def _pnqn02(n: int) -> Iterator[dict]:
    s, t = BiPoly.s(), BiPoly.t()
    lhs = BiPoly.zero()
    for i in range(n + 1):
        lhs = lhs + s**i * t ** (n - i)
    yield from _eq(lhs, _pq_rhs(n, lambda n, k: Fraction(binom(n - k, k))), n=n)


# -- Narayana identities -------------------------------------------------------


def _squared_sum(coeffs: Sequence) -> UniPoly:
    """sum_k c_k x^(2k) (1+x)^(2m-2k), k = 0..m: f(x^2) in the binomial basis."""
    m = len(coeffs) - 1
    return basis_sum(ONE_PLUS_X, ((c, 2 * k, 2 * m - 2 * k) for k, c in enumerate(coeffs)))


def _diagonal_sum(coeffs: Sequence) -> UniPoly:
    """sum_k c_k x^k (1+x)^k."""
    return basis_sum(ONE_PLUS_X, ((c, k, k) for k, c in enumerate(coeffs)))


def _cwz_lhs(n: int) -> UniPoly:
    """sum_k C(n,k)^2 x^(2k) (1+x)^(2n-2k), built from binomials alone."""
    return _squared_sum([binom(n, k) ** 2 for k in range(n + 1)])


def _na_alt_vector(n: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(catalan(k + 1) * binom(n, k)) for k in range(n + 1))


def _nb_alt_vector(n: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(binom(n, k) * binom(2 * k, k)) for k in range(n + 1))


@_check("COKER1", "gamma expansion of type A Narayana: C_k C(n,2k)", 10, first=0)
def _coker1(n: int) -> Iterator[dict]:
    terms = ((catalan(k) * binom(n, 2 * k), k, n - 2 * k) for k in range(n // 2 + 1))
    yield from _eq(fam.narayana("A", n), basis_sum(ONE_PLUS_X, terms), n=n)


@_check("COKER2", "type A Narayana square-variable binomial identity", 10, first=0)
def _coker2(n: int) -> Iterator[dict]:
    na = fam.narayana("A", n)
    lhs = _squared_sum([na.coefficient(k) for k in range(n + 1)])
    yield from _eq(lhs, _diagonal_sum(_na_alt_vector(n)), n=n)


@_check("RIORDAN", "gamma expansion of type B Narayana: C(n,2k) C(2k,k)", 10, first=0)
def _riordan(n: int) -> Iterator[dict]:
    terms = ((binom(n, 2 * k) * binom(2 * k, k), k, n - 2 * k) for k in range(n // 2 + 1))
    yield from _eq(fam.narayana("B", n), basis_sum(ONE_PLUS_X, terms), n=n)


@_check("CWZ", "type B Narayana square-variable binomial identity", 10, first=0)
def _cwz(n: int) -> Iterator[dict]:
    yield from _eq(_cwz_lhs(n), _diagonal_sum(_nb_alt_vector(n)), n=n)


@_check("NA_ALT", "alternating gamma vector of N(A_n, x^2) is C_(k+1) C(n,k)", 10, first=0)
def _na_alt(n: int) -> Iterator[dict]:
    got = alt_gamma_expand(fam.narayana("A", n).substitute_power(2), 2 * n).coeffs
    yield from _eq(got, _na_alt_vector(n), n=n)


@_check("NB_ALT", "alternating gamma vector of N(B_n, x^2) is C(n,k) C(2k,k)", 10, first=0)
def _nb_alt(n: int) -> Iterator[dict]:
    got = alt_gamma_expand(fam.narayana("B", n).substitute_power(2), 2 * n).coeffs
    yield from _eq(got, _nb_alt_vector(n), n=n)


@_check(
    "NA_SHIFT", "shifted type A vector sum C_(k+1) C(n,k) x^k in the (1+2x) basis", 10, first=0
)
def _na_shift(n: int) -> Iterator[dict]:
    terms = ((catalan(k) * binom(n, 2 * k), 2 * k, n - 2 * k) for k in range(n // 2 + 1))
    yield from _eq(UniPoly(_na_alt_vector(n)), basis_sum(_ONE_PLUS_2X, terms), n=n)


@_check(
    "NB_SHIFT", "shifted type B vector sum C(n,k) C(2k,k) x^k in the (1+2x) basis", 10, first=0
)
def _nb_shift(n: int) -> Iterator[dict]:
    terms = ((binom(n, 2 * k) * binom(2 * k, k), 2 * k, n - 2 * k) for k in range(n // 2 + 1))
    yield from _eq(UniPoly(_nb_alt_vector(n)), basis_sum(_ONE_PLUS_2X, terms), n=n)


@_check("ND_ALT", "N(D_n, x^2) is alternatingly gamma-positive with explicit vector", 10, first=2)
def _nd_alt(n: int) -> Iterator[dict]:
    got = alt_gamma_expand(fam.narayana("D", n).substitute_power(2), 2 * n)
    want = (Fraction(1),) + tuple(
        Fraction(binom(n, i) * binom(2 * i, i) - n * catalan(i - 1) * binom(n - 2, i - 2))
        for i in range(1, n + 1)
    )
    yield from _eq(got.coeffs, want, n=n)
    if not got.is_nonnegative():
        yield _w("negative alternating gamma entry", n=n)


# -- differential operator identities -----------------------------------------


Ratio = tuple[UniPoly, UniPoly]  # a rational function as (numerator, denominator)

_XD = (X, ONE)
_X2D = (UniPoly.monomial(2), _ONE_MINUS_X2)


def _step(op: Ratio, start: Ratio, want: Callable[[int], Ratio], n: int) -> Iterator[dict]:
    """Case n of op^n start = want(n): op = g/h D applied to p/q, which is
    want(n-1), or start at n = 1, gives r/s = want(n).  As h, q and s are
    nonzero (1 or powers of 1-x and 1-x^2), that equation holds exactly
    when g (p'q - pq') s = r h q^2, and those two polynomials are compared.
    Every case below the first failing one holds, so its witness is the
    one applying op to start n times gives."""
    (g, h), (p, q), (r, s) = op, want(n - 1) if n > 1 else start, want(n)
    yield from _eq(g * (p.derivative() * q - p * q.derivative()) * s, r * h * q * q, n=n)


@_check("OPID_A", "(xD)^n 1/(1-x) = x A_n(x)/(1-x)^(n+1)", 10)
def _opid_a(n: int) -> Iterator[dict]:
    return _step(
        _XD,
        (ONE, ONE_MINUS_X),
        lambda n: (X * fam.eulerian_a(n), ONE_MINUS_X ** (n + 1)),
        n,
    )


@_check("OPID_A2", "(xD)^n 1/(1-x^2) = 2^n x^2 A_n(x^2)/(1-x^2)^(n+1)", 10)
def _opid_a2(n: int) -> Iterator[dict]:
    return _step(
        _XD,
        (ONE, _ONE_MINUS_X2),
        lambda n: (
            2**n * UniPoly.monomial(2) * fam.eulerian_a(n).substitute_power(2),
            _ONE_MINUS_X2 ** (n + 1),
        ),
        n,
    )


@_check("OPID_B2", "(xD)^n x/(1-x^2) = x B_n(x^2)/(1-x^2)^(n+1)", 10)
def _opid_b2(n: int) -> Iterator[dict]:
    return _step(
        _XD,
        (X, _ONE_MINUS_X2),
        lambda n: (X * fam.eulerian_b(n).substitute_power(2), _ONE_MINUS_X2 ** (n + 1)),
        n,
    )


@_check("OPID_NA", "iterated x^2/(1-x^2) D of 1/(1-x^2) gives modified type A Narayana", 8)
def _opid_na(n: int) -> Iterator[dict]:
    return _step(
        _X2D,
        (ONE, _ONE_MINUS_X2),
        lambda n: (
            math.factorial(n + 1)
            * UniPoly.monomial(n + 2)
            * fam.narayana("A", n - 1).substitute_power(2),
            _ONE_MINUS_X2 ** (2 * n + 1),
        ),
        n,
    )


@_check("OPID_NB", "iterated x^2/(1-x^2) D of x/(1-x^2) gives modified type B Narayana", 8)
def _opid_nb(n: int) -> Iterator[dict]:
    return _step(
        _X2D,
        (X, _ONE_MINUS_X2),
        lambda n: (
            math.factorial(n) * UniPoly.monomial(n + 1) * fam.narayana("B", n).substitute_power(2),
            _ONE_MINUS_X2 ** (2 * n + 1),
        ),
        n,
    )


@_check("OPID_MN", "iterated x^2/(1-x^2) D of 1/(1-x) gives the stable combination", 8)
def _opid_mn(n: int) -> Iterator[dict]:
    return _step(
        _X2D,
        (ONE, ONE_MINUS_X),
        lambda n: (
            math.factorial(n) * UniPoly.monomial(n + 1) * fam.mn_combination(n),
            _ONE_MINUS_X2 ** (2 * n + 1),
        ),
        n,
    )


# -- the stable Narayana combination -------------------------------------------


def _mn_alt_vector(n: int) -> tuple[Fraction, ...]:
    return (Fraction(1),) + tuple(
        Fraction(binom(n, k) * binom(2 * k, k) - (n + 1) * catalan(k) * binom(n - 1, k - 1))
        for k in range(1, n + 1)
    )


@_check("MN_GAMMA", "alternating gamma vector of the combination is nonnegative, top entry zero", 8)
def _mn_gamma(n: int) -> Iterator[dict]:
    got = alt_gamma_expand(fam.mn_combination(n), 2 * n)
    yield from _eq(got.coeffs, _mn_alt_vector(n), n=n)
    if not got.is_nonnegative():
        yield _w("negative entry", n=n)
    if got.coeffs[n] != 0:
        yield _w("top entry nonzero", n=n)


@_check("MN_STABLE", "the combination is Hurwitz stable (Routh array agrees)", 8)
def _mn_stable(n: int) -> Iterator[dict]:
    f = fam.mn_combination(n)
    verdict = st.hurwitz_classify(f)
    if verdict.status != st.STABLE:
        yield _w(f"classified {verdict.status}: {verdict.certificate}", n=n)
    if st.routh_stable(f) != st.ROUTH_STABLE:
        yield _w("Routh array disagrees", n=n)


@_check("MN_FACTOR", "the combination is divisible by (1+x)^2", 8)
def _mn_factor(n: int) -> Iterator[dict]:
    try:
        fam.mn_combination(n).exact_div(ONE_PLUS_X**2)
    except NotDivisible:
        yield _w("(1+x)^2 does not divide", n=n)


@_check("LN_RECU", "(1+x)^2 L_n and (1+x) L-hat_n both equal the stable combination", 10)
def _ln_recu(n: int) -> Iterator[dict]:
    target = fam.mn_combination(n)
    yield from _eq(ONE_PLUS_X**2 * fam.l_poly(n), target, n=n, side="L")
    yield from _eq(ONE_PLUS_X * fam.lhat_poly(n), target, n=n, side="Lhat")


@_check("LN_CLOSED", "recurrences for L_n and L-hat_n match the binomial closed forms", 12)
def _ln_closed(n: int) -> Iterator[dict]:
    closed = UniPoly([fam.l_closed(n, k) for k in range(2 * n - 1)])
    yield from _eq(fam.l_poly(n), closed, n=n, side="L")
    closed = UniPoly([fam.lhat_closed(n, k) for k in range(2 * n)])
    yield from _eq(fam.lhat_poly(n), closed, n=n, side="Lhat")


@_check("LN_SUM", "2 L_n(1) = L-hat_n(1) = C(2n,n) and n L_n(1) = (4n-2) L_(n-1)(1)", 10)
def _ln_sum(n: int) -> Iterator[dict]:
    ln1 = fam.l_poly(n).evaluate(1)
    if 2 * ln1 != binom(2 * n, n):
        yield _w("2 L_n(1) != C(2n,n)", n=n)
    if fam.lhat_poly(n).evaluate(1) != binom(2 * n, n):
        yield _w("Lhat_n(1) != C(2n,n)", n=n)
    if n >= 2 and n * ln1 != (4 * n - 2) * fam.l_poly(n - 1).evaluate(1):
        yield _w("n L_n(1) != (4n-2) L_(n-1)(1)", n=n)


# -- peak-polynomial identities --------------------------------------------------


def _peak_sum(peaks: UniPoly, step: int, base: UniPoly, top: int) -> UniPoly:
    """sum_k 4^k peaks_k x^(step k) base^(top-2k), k = 0..top//2."""
    terms = ((4**k * peaks.coefficient(k), step * k, top - 2 * k) for k in range(top // 2 + 1))
    return basis_sum(base, terms)


@_check("STEMBRIDGE", "2^(n-1) A_n = sum 4^k P(n,k) x^k (1+x)^(n-1-2k)", 10)
def _stembridge(n: int) -> Iterator[dict]:
    rhs = _peak_sum(fam.peak_poly(n), 1, ONE_PLUS_X, n - 1)
    yield from _eq(2 ** (n - 1) * fam.eulerian_a(n), rhs, n=n)


@_check("LEFTPEAK_B", "B_n = sum 4^k Phat(n,k) x^k (1+x)^(n-2k)", 10)
def _leftpeak_b(n: int) -> Iterator[dict]:
    yield from _eq(fam.eulerian_b(n), _peak_sum(fam.left_peak_poly(n), 1, ONE_PLUS_X, n), n=n)


def _a_vector(n: int) -> GammaExpansion:
    return alt_gamma_expand(fam.eulerian_a(n).substitute_power(2), 2 * (n - 1))


def _b_vector(n: int) -> GammaExpansion:
    return alt_gamma_expand(fam.eulerian_b(n).substitute_power(2), 2 * n)


@_check("THM51_I", "A_n(x^2) and B_n(x^2) are alternatingly gamma-positive", 10)
def _thm51_i(n: int) -> Iterator[dict]:
    if not _a_vector(n).is_nonnegative():
        yield _w("a(n,k) has a negative entry", n=n)
    if not _b_vector(n).is_nonnegative():
        yield _w("b(n,k) has a negative entry", n=n)


@_check("THM51_II", "Eulerian square-variable binomial identities via a(n,k), b(n,k)", 10)
def _thm51_ii(n: int) -> Iterator[dict]:
    an, bn = fam.eulerian_a(n), fam.eulerian_b(n)
    lhs = _squared_sum([an.coefficient(k) for k in range(n)])
    yield from _eq(lhs, _diagonal_sum(_a_vector(n).coeffs), n=n, side="A")
    lhs = _squared_sum([bn.coefficient(k) for k in range(n + 1)])
    yield from _eq(lhs, _diagonal_sum(_b_vector(n).coeffs), n=n, side="B")


@_check("THM51_III", "a_n and b_n equal the peak polynomials in the (1+2x) basis", 10)
def _thm51_iii(n: int) -> Iterator[dict]:
    rhs = _peak_sum(fam.peak_poly(n), 2, _ONE_PLUS_2X, n - 1)
    yield from _eq(UniPoly(_a_vector(n).coeffs), Fraction(1, 2 ** (n - 1)) * rhs, n=n, side="a")
    rhs = _peak_sum(fam.left_peak_poly(n), 2, _ONE_PLUS_2X, n)
    yield from _eq(UniPoly(_b_vector(n).coeffs), rhs, n=n, side="b")


@_check("THM51_IV", "binomial-basis vectors of a_n, b_n expand the peak gamma polynomials", 10)
def _thm51_iv(n: int) -> Iterator[dict]:
    alpha = binomial_basis_expand(UniPoly(_a_vector(n).coeffs), n - 1, "+").coeffs
    gamma_poly = Fraction(1, 2 ** (n - 1)) * _peak_sum(fam.peak_poly(n), 2, ONE, n - 1)
    got = binomial_basis_expand(gamma_poly, n - 1, "-").coeffs
    yield from _eq(got, alpha, n=n, side="alpha")
    beta = binomial_basis_expand(UniPoly(_b_vector(n).coeffs), n, "+").coeffs
    got = binomial_basis_expand(_peak_sum(fam.left_peak_poly(n), 2, ONE, n), n, "-").coeffs
    yield from _eq(got, beta, n=n, side="beta")


@_check("COR15", "alpha_n and beta_n equal the peak polynomials in the (1+x) basis", 10)
def _cor15(n: int) -> Iterator[dict]:
    rhs = _peak_sum(fam.peak_poly(n), 2, ONE_PLUS_X, n - 1)
    yield from _eq(fam.ab_polys("alpha", n), Fraction(1, 2 ** (n - 1)) * rhs, n=n, side="alpha")
    rhs = _peak_sum(fam.left_peak_poly(n), 2, ONE_PLUS_X, n)
    yield from _eq(fam.ab_polys("beta", n), rhs, n=n, side="beta")


@_check("ABREC", "the a, b, alpha, beta recurrences match their expansion definitions", 10)
def _abrec(n: int) -> Iterator[dict]:
    yield from _eq(fam.ab_polys("a", n), UniPoly(_a_vector(n).coeffs), n=n, side="a")
    yield from _eq(fam.ab_polys("b", n), UniPoly(_b_vector(n).coeffs), n=n, side="b")
    alpha = binomial_basis_expand(UniPoly(_a_vector(n).coeffs), n - 1, "+").coeffs
    yield from _eq(fam.ab_polys("alpha", n), UniPoly(alpha), n=n, side="alpha")
    beta = binomial_basis_expand(UniPoly(_b_vector(n).coeffs), n, "+").coeffs
    yield from _eq(fam.ab_polys("beta", n), UniPoly(beta), n=n, side="beta")


@_check("SPECIALS", "special evaluations at 1 and -1 of the Eulerian companions", 10)
def _specials(n: int) -> Iterator[dict]:
    if fam.eulerian_a(n).evaluate(1) != math.factorial(n):
        yield _w("A_n(1) != n!", n=n)
    if fam.eulerian_b(n).evaluate(1) != 2**n * math.factorial(n):
        yield _w("B_n(1) != 2^n n!", n=n)
    if fam.ab_polys("alpha", n).evaluate(1) != math.factorial(n):
        yield _w("alpha_n(1) != n!", n=n)
    if fam.ab_polys("beta", n).evaluate(1) != 2**n * math.factorial(n):
        yield _w("beta_n(1) != 2^n n!", n=n)
    want = Fraction((-1) ** (n - 1), 2 ** (n - 1)) * fam.peak_poly(n).evaluate(4)
    if fam.ab_polys("a", n).evaluate(-1) != want:
        yield _w("a_n(-1) mismatch", n=n)
    want = (-1) ** n * fam.left_peak_poly(n).evaluate(4)
    if fam.ab_polys("b", n).evaluate(-1) != want:
        yield _w("b_n(-1) mismatch", n=n)


@_check(
    "ALPHA_ORACLE",
    "alpha_n is the pk+des distribution and the n-1-dasc distribution",
    9,
    cap=oracles.sn_bound,
)
def _alpha_oracle(n: int) -> Iterator[dict]:
    want = fam.ab_polys("alpha", n)
    yield from _eq(oracles.stat_polynomial(n, "pk+des"), want, n=n, weight="pk+des")
    yield from _eq(oracles.stat_polynomial(n, "n-1-dasc"), want, n=n, weight="n-1-dasc")


@_check(
    "BETA_ORACLE",
    "beta_n is the left-peak (2x)^(2lpk)(1+x)^(n-2lpk) distribution",
    9,
    cap=oracles.sn_bound,
)
def _beta_oracle(n: int) -> Iterator[dict]:
    yield from _eq(oracles.stat_polynomial(n, "beta"), fam.ab_polys("beta", n), n=n)


@_check("EULERIAN_ORACLE", "A_n is the descent distribution over S_n", 9, cap=oracles.sn_bound)
def _eulerian_oracle(n: int) -> Iterator[dict]:
    yield from _eq(oracles.stat_polynomial(n, "des"), fam.eulerian_a(n), n=n)


@_check(
    "PEAK_ORACLE",
    "P_n and Phat_n are the peak and left-peak distributions",
    9,
    cap=oracles.sn_bound,
)
def _peak_oracle(n: int) -> Iterator[dict]:
    yield from _eq(oracles.stat_polynomial(n, "pk"), fam.peak_poly(n), n=n, weight="pk")
    yield from _eq(oracles.stat_polynomial(n, "lpk"), fam.left_peak_poly(n), n=n, weight="lpk")


# -- flag ascent-plateau family ---------------------------------------------------


@_check("FN_SEMI", "F_n is not symmetric yet is semi-gamma-positive", 10)
def _fn_semi(n: int) -> Iterator[dict]:
    f = fam.flag_ap_poly(n)
    if is_symmetric(f, f.degree):
        yield _w("unexpectedly symmetric", n=n)
    dec = semi_gamma_decompose(f)
    if not dec.is_nonnegative():
        yield _w("negative half-square coefficient", n=n)
    if dec.reconstruct() != f:
        yield _w("reconstruction failed", n=n)


@_check(
    "STIRLING_FAP",
    "F_n is the flag ascent-plateau distribution on Stirling permutations",
    7,
    cap=oracles.stirling_bound,
)
def _stirling_fap(n: int) -> Iterator[dict]:
    yield from _eq(oracles.stirling_fap_poly(n), fam.flag_ap_poly(n), n=n)


@_check("FN_CONV", "2x(1+x)^(n-1) A_n is the binomial convolution of the F_k", 8)
def _fn_conv(n: int) -> Iterator[dict]:
    lhs = 2 * X * ONE_PLUS_X ** (n - 1) * fam.eulerian_a(n)
    rhs = UniPoly.zero()
    for k in range(n + 1):
        rhs = rhs + binom(n, k) * fam.flag_ap_poly(k) * fam.flag_ap_poly(n - k)
    yield from _eq(lhs, rhs, n=n)


@_check("THM_FNX", "gamma-positive families decompose with nonnegative xi and zeta", 10)
def _thm_fnx(n: int) -> Iterator[dict]:
    members = {
        "eulerian_a": fam.eulerian_a(n),
        "eulerian_b": fam.eulerian_b(n),
        "narayana_a": fam.narayana("A", n),
        "narayana_b": fam.narayana("B", n),
    }
    for name, f in members.items():
        dec = alt_semi_gamma_decompose(f)
        if not dec.is_nonnegative():
            yield _w("negative xi or zeta entry", n=n, family=name)
        if dec.reconstruct() != f:
            yield _w("reconstruction failed", n=n, family=name)


@_check(
    "PRODUCT_LEMMA", "products of alternatingly gamma-positive polynomials stay so", 100, "samples"
)
def _product_lemma(t: int) -> Iterator[dict]:
    f, n = _sample(_ALTERNATING, 2 * t - 1)
    g, m = _sample(_ALTERNATING, 2 * t)
    if not alt_gamma_expand(f * g, n + m).is_nonnegative():
        yield _w("product lost alternating positivity", trial=t - 1)


# -- the gamma-to-alternating transforms ------------------------------------------


@_check(
    "THM31_I", "even-power substitution of gamma-positive input stays alternating", 200, "samples"
)
def _thm31_i(t: int) -> Iterator[dict]:
    f, n = _sample(_POSITIVE, t)
    for m in (1, 2, 3):
        if not alt_gamma_expand(f.substitute_power(2 * m), 2 * m * n).is_nonnegative():
            yield _w("negative entry", trial=t - 1, m=m)


@_check(
    "THM31_II", "alternating vector of f(x^2) equals the eta transform of gamma", 200, "samples"
)
def _thm31_ii(t: int) -> Iterator[dict]:
    f, n = _sample(_random_gamma, t)
    if not f.is_zero():
        eta = eta_from_gamma(gamma_expand(f, n))
        yield from _eq(alt_gamma_expand(f.substitute_power(2), 2 * n).coeffs, eta, trial=t - 1)


@_check("THM31_III", "eta polynomial equals both the (1+2x) and (1+x) basis sums", 200, "samples")
def _thm31_iii(t: int) -> Iterator[dict]:
    f, n = _sample(_random_gamma, t)
    if f.is_zero():
        return
    g = gamma_expand(f, n)
    eta_poly = UniPoly(eta_from_gamma(g))
    rhs = basis_sum(_ONE_PLUS_2X, ((c, 2 * i, n - 2 * i) for i, c in enumerate(g.coeffs)))
    yield from _eq(eta_poly, rhs, trial=t - 1, side="1+2x")
    rhs = basis_sum(ONE_PLUS_X, ((c, k, n - k) for k, c in enumerate(xi_from_gamma(g))))
    yield from _eq(eta_poly, rhs, trial=t - 1, side="1+x")


@_check("THM31_IV", "gamma polynomial in x^2 equals the signed xi binomial sums", 200, "samples")
def _thm31_iv(t: int) -> Iterator[dict]:
    f, n = _sample(_random_gamma, t)
    if f.is_zero():
        return
    g = gamma_expand(f, n)
    gamma_poly = UniPoly(g.coeffs).substitute_power(2)
    xi = xi_from_gamma(g)
    rhs = basis_sum(ONE_PLUS_X, ((c * (-1) ** k, k, n - k) for k, c in enumerate(xi)))
    yield from _eq(gamma_poly, rhs, trial=t - 1, side="(-x)(1+x)")
    rhs = basis_sum(ONE_MINUS_X, ((c, k, n - k) for k, c in enumerate(xi)))
    yield from _eq(gamma_poly, rhs, trial=t - 1, side="x(1-x)")


@_check("ODD_CEX", "cube substitution of 1+4x+x^2 is not alternatingly gamma-positive", 0, "fixed")
def _odd_cex(_: int) -> Iterator[dict]:
    f = UniPoly([1, 4, 1])
    if gamma_expand(f, 2).coeffs != (Fraction(1), Fraction(2)):
        yield _w("gamma vector of the base polynomial is wrong")
    cube = f.substitute_power(3)
    want = (Fraction(1), Fraction(6), Fraction(9), Fraction(-2))
    yield from _eq(alt_gamma_expand(cube, 6).coeffs, want)
    if classify(f, 2).gamma_positive != "yes":
        yield _w("base polynomial should classify gamma-positive")
    if classify(cube, 6).alt_gamma_positive != "no":
        yield _w("cube should classify not alternatingly gamma-positive")


# -- cyclotomic reductions -----------------------------------------------------


_CYCLO_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


@_check("CYCLO_RED", "cyclotomic reduction formulas for primes 2, 3, 5", 30)
def _cyclo_red(n: int) -> Iterator[dict]:
    for p in (2, 3, 5):
        if n % p:
            lhs = fam.cyclotomic(p * n)
            rhs = fam.cyclotomic(n).substitute_power(p).exact_div(fam.cyclotomic(n))
            yield from _eq(lhs, rhs, p=p, n=n)
    if n in _CYCLO_PRIMES:
        yield from _eq(fam.cyclotomic(n), UniPoly([1] * n), p=n, n=n)


# -- lattice-path and diagram oracles -------------------------------------------


@_check(
    "CM_COUNT",
    "2-Motzkin up/blue distribution matches type A Narayana",
    12,
    cap=oracles.motzkin_bound,
    first=0,
)
def _cm_count(n: int) -> Iterator[dict]:
    yield from _eq(oracles.motzkin2_ub_poly(n), fam.narayana("A", n), n=n)
    if oracles.motzkin2_count(n) != catalan(n + 1):
        yield _w("path count is not the Catalan number", n=n)


@_check(
    "CY_COUNT",
    "balanced 2-colored Young diagram weights match type B Narayana",
    12,
    cap=oracles.young_bound,
    first=0,
)
def _cy_count(n: int) -> Iterator[dict]:
    yield from _eq(oracles.young2_weight_poly(n, "sqrt_split"), fam.narayana("B", n), n=n)
    if oracles.young2_count(n) != binom(2 * n, n):
        yield _w("diagram count is not the central binomial", n=n)
    lhs = oracles.young2_weight_poly(n, "x_and_1px")
    yield from _eq(lhs, _cwz_lhs(n), n=n, weighting="x_and_1px")


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
def _nara_231(n: int) -> Iterator[dict]:
    got = oracles.pattern_class_descent_poly(n + 1, [(2, 3, 1)])
    yield from _eq(got, fam.narayana("A", n), n=n)


@_check(
    "NARA_B4",
    "descents of the four-pattern avoidance class give type B Narayana",
    6,
    cap=_pattern_cap,
    first=0,
)
def _nara_b4(n: int) -> Iterator[dict]:
    patterns = [(1, 3, 4, 2), (3, 1, 4, 2), (3, 4, 1, 2), (3, 4, 2, 1)]
    got = oracles.pattern_class_descent_poly(n + 1, patterns)
    yield from _eq(got, fam.narayana("B", n), n=n)


# -- Boros-Moll family -----------------------------------------------------------


@_check("BM_RECU", "the closed quartic-integral coefficients satisfy their recurrence", 30, "m")
def _bm_recu(m: int) -> Iterator[dict]:
    """Case m: the step from the coefficients of M_(m-1) to those of M_m."""
    for i in range(m + 1):
        lhs = 2 * m * fam.boros_moll_coefficient(m, i)
        prev = fam.boros_moll_coefficient(m - 1, i - 1) if i >= 1 else Fraction(0)
        cur = fam.boros_moll_coefficient(m - 1, i) if i < m else Fraction(0)
        rhs = 2 * (m - 1 + i) * prev + (4 * m + 2 * i - 1) * cur
        yield from _eq(lhs, rhs, m=m, i=i)


@_check("BM_Q", "Q_m recurrence matches the reversal of M_m, coefficientwise", 30, "m", first=0)
def _bm_q(m: int) -> Iterator[dict]:
    """Case m: Q_m against the reversal of M_m, then the step from Q_(m-1) to Q_m."""
    qm = fam.q_poly(m)
    yield from _eq(qm, 2**m * math.factorial(m) * fam.boros_moll(m).reverse(m), m=m)
    if m == 0:
        return
    prev = fam.q_poly(m - 1)
    for i in range(m + 1):
        rhs = (4 * m - 2 * i - 2) * prev.coefficient(i) + (6 * m - 2 * i - 1) * prev.coefficient(
            i - 1
        )
        yield from _eq(qm.coefficient(i), rhs, m=m, i=i)


@_check("SYMDEC", "symmetric decomposition reconstructs and has symmetric parts", 100, "samples")
def _symdec(t: int) -> Iterator[dict]:
    f, n = _sample(_random_poly, t)
    dec = symmetric_decomposition(f, n)
    if dec.reconstruct() != f:
        yield _w("a + x b != f", trial=t - 1)
    if not is_symmetric(dec.a, n):
        yield _w("a not symmetric", trial=t - 1)
    if n >= 1 and not is_symmetric(dec.b, n - 1):
        yield _w("b not symmetric", trial=t - 1)


# -- the case loop ----------------------------------------------------------------


def _run(
    ident: str, var: str, first: int, bound: int, case: Case, ok: str = PASS
) -> VerificationReport:
    """Run case(value) for value = first..bound (one case when var is
    "fixed") and report the first witness of the first failing case."""
    fixed = var == "fixed"
    range_run = "fixed" if fixed else f"{var} <= {bound}"
    witness, cases = None, 0
    for value in [0] if fixed else range(first, bound + 1):
        cases += 1
        try:
            found = next(iter(case(value)), None)
        except (ValueError, ArithmeticError) as exc:  # a bad value fails its case
            found = _w(f"{type(exc).__name__}: {exc}", **({} if fixed else {var: value}))
        witness = witness or found
    status = FAIL if witness else ok if cases else EMPTY
    return VerificationReport(ident, range_run, status, witness, cases)


def run_identity(ident: str, bound: int | None = None) -> VerificationReport:
    """Execute one registered check up to the requested bound, clamped to
    its cap; the report names the bound that was actually run, and its
    status is "empty" when that bound admits no case."""
    if ident not in REGISTRY:
        raise UnknownIdentity(ident)
    check = REGISTRY[ident]
    bound = check.default_bound if bound is None else bound
    if check.cap is not None:  # outside the cases: a malformed cap is a usage error
        bound = min(bound, check.cap())
    return _run(ident, check.var, check.first, bound, check.case)


def run_all(bounds: dict[str, int] | None = None) -> list[VerificationReport]:
    """Run every registered identity, reports ordered by id."""
    bounds = bounds or {}
    return [run_identity(i, bounds.get(i)) for i in sorted(REGISTRY)]


def all_pass(reports: Iterable[VerificationReport]) -> bool:
    return all(r.status != FAIL for r in reports)


# -- conjecture checkers -----------------------------------------------------------


def _boros_moll_case(m: int) -> Iterator[dict]:
    dec = symmetric_decomposition(fam.q_poly(m), m)
    a, b = dec.a, dec.b
    if not is_symmetric(a, m) or not is_unimodal(a, m):
        yield _w("a_m not symmetric unimodal", m=m)
    if not (b.is_zero() or (is_symmetric(b, m - 1) and is_unimodal(b, m - 1))):
        yield _w("b_m not symmetric unimodal", m=m)
    if not alt_gamma_expand(a, m).is_nonnegative():
        yield _w("a_m not alternatingly gamma-positive", m=m)
    if not b.is_zero() and not alt_gamma_expand(b, m - 1).is_nonnegative():
        yield _w("b_m not alternatingly gamma-positive", m=m)


def conjecture_boros_moll(max_m: int = 20) -> VerificationReport:
    """Bounded check: Q_m = a_m + x b_m with symmetric, unimodal and
    alternatingly gamma-positive parts, for 1 <= m <= max_m."""
    if max_m > 60:
        raise ValueError("bounded checker capped at m = 60")
    return _run("CONJ_BOROS_MOLL", "m", 1, max_m, _boros_moll_case, HOLDS)


_ONE_PLUS_T = BiPoly((1, 1))


def descent_excedance_parts(max_n: int) -> dict[int, BiPoly]:
    """The recursively defined symmetric parts a_n of the joint
    descent/excedance enumerators."""
    s_minus_1 = BiPoly((UniPoly([-1, 1]),))
    t = BiPoly.t()
    parts = {1: BiPoly.one()}
    for n in range(2, max_n + 1):
        parts[n] = fam.biv_des_exc(n) - s_minus_1 * t * parts[n - 1]
    return parts


def _des_exc_case(parts: dict[int, BiPoly], s_values: Sequence[Fraction], n: int) -> Iterator[dict]:
    a_n = parts[n]
    if not is_symmetric(a_n, n - 1):
        yield _w("a_n not symmetric in t", n=n)
        return
    gamma = _peel(a_n, lambda m: _ONE_PLUS_T**m, range(n - 1, -1, -2))
    for k, coeff in enumerate(gamma):
        if any(c < 0 for c in coeff.compose(ONE_PLUS_X).coeffs):
            yield _w(f"gamma_{k} not a nonnegative series in s-1", n=n, k=k)
    for s0 in s_values:
        if not gamma_expand(a_n.substitute_s(s0), n - 1).is_nonnegative():
            yield _w("specialized gamma vector negative", n=n, s=str(s0))
        if not is_unimodal(fam.biv_des_exc(n).substitute_s(s0), n - 1):
            yield _w("joint enumerator not unimodal", n=n, s=str(s0))


def conjecture_des_exc(
    max_n: int = 8, s_values: Sequence[Fraction] = (Fraction(1), Fraction(3, 2), Fraction(2))
) -> VerificationReport:
    """Bounded check of the descent/excedance symmetric decomposition.

    For each n the part a_n must be t-symmetric; its t-gamma vector,
    rewritten in powers of (s-1), must be coefficientwise nonnegative
    (a certificate for every real s >= 1); and for each sampled s the
    specialized gamma vector is nonnegative while the full enumerator is
    unimodal.  A sampled s below 1 is outside the conjecture and raises
    ``ValueError``.
    """
    if max_n > 9:
        raise ValueError("bounded checker capped at n = 9")
    for s0 in s_values:
        if s0 < 1:
            raise ValueError(f"sample value s = {s0} is below 1")
    case = partial(_des_exc_case, descent_excedance_parts(max_n), s_values)
    return _run("CONJ_DES_EXC", "n", 2, max_n, case, HOLDS)
