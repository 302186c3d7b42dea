"""Basis expansions and positivity structure for symmetric polynomials.

The expansions implemented here are all triangular changes of basis, so
each one is computed by greedy peeling: read the lowest unconsumed
coefficient of the running remainder, subtract that multiple of the basis
element, and repeat.  The remainder vanishes exactly when the input lies
in the span, and every expansion object can reproduce its input exactly.

Sign conventions:

* gamma basis            x^k (1+x)^(n-2k)
* alternating gamma      (-x)^k (1+x)^(n-2k)
* binomial bases         x^k (1+x)^(n-k)  and  x^k (1-x)^(n-k)
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Callable

from .polynomial import (
    ONE_MINUS_X,
    ONE_PLUS_X,
    DegreeTooSmall,
    DensePoly,
    Scalar,
    UniPoly,
    basis_sum,
    binom,
)

YES = "yes"
NO = "no"
NOT_APPLICABLE = "not_applicable"

PLUS = "+"
MINUS = "-"


class NotSymmetric(ValueError):
    """Gamma expansion was requested for a non-symmetric polynomial."""


class NotDecomposable(ValueError):
    """No canonical half-square decomposition exists for the input."""


class NotSemiGammaPositive(ValueError):
    """The semi-gamma pieces are not both gamma-positive."""


@lru_cache(maxsize=None)
def _one_plus_x_pow(m: int) -> UniPoly:
    return ONE_PLUS_X**m


@lru_cache(maxsize=None)
def _one_minus_x_pow(m: int) -> UniPoly:
    return ONE_MINUS_X**m


@dataclass(frozen=True)
class GammaExpansion:
    """Coefficients in the basis (sign*x)^k (1+x)^(n-2k), k = 0..n//2."""

    center_degree: int
    coeffs: tuple[Scalar, ...]
    sign: str

    def reconstruct(self) -> UniPoly:
        n, sign = self.center_degree, 1 if self.sign == PLUS else -1
        terms = ((c * sign**k, k, n - 2 * k) for k, c in enumerate(self.coeffs))
        return basis_sum(ONE_PLUS_X, terms)

    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def to_json(self) -> dict:
        return {
            "n": self.center_degree,
            "sign": self.sign,
            "coeffs": [str(c) for c in self.coeffs],
        }


@dataclass(frozen=True)
class BinomialExpansion:
    """Coefficients in the basis x^k (1 sign x)^(n-k), k = 0..n."""

    degree: int
    coeffs: tuple[Scalar, ...]
    sign: str

    def reconstruct(self) -> UniPoly:
        base = ONE_PLUS_X if self.sign == PLUS else ONE_MINUS_X
        return basis_sum(base, ((c, k, self.degree - k) for k, c in enumerate(self.coeffs)))

    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def to_json(self) -> dict:
        return {
            "n": self.degree,
            "sign": self.sign,
            "coeffs": [str(c) for c in self.coeffs],
        }


@dataclass(frozen=True)
class SemiGammaDecomposition:
    """f = (1+x)^nu * (f1(x^2) + x f2(x^2)) with centers n and n-1.

    ``lam`` interleaves the gamma vectors of f1 and f2 and is exactly the
    coefficient list of f/(1+x)^nu in the basis x^k (1+x^2)^(n-k).
    """

    nu: int
    center: int
    lam: tuple[Scalar, ...]
    f1: UniPoly
    f2: UniPoly

    def reconstruct(self) -> UniPoly:
        inner = self.f1.substitute_power(2) + UniPoly.x() * self.f2.substitute_power(2)
        return _one_plus_x_pow(self.nu) * inner

    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.lam)


@dataclass(frozen=True)
class AltSemiGammaDecomposition:
    """f as xi/zeta combination of two alternatingly gamma-positive parts."""

    nu: int
    center: int
    xi: tuple[Scalar, ...]
    zeta: tuple[Scalar, ...]

    def reconstruct(self) -> UniPoly:
        top = 2 * self.center + self.nu
        xi = [(c * (-1) ** k, k, top - 2 * k) for k, c in enumerate(self.xi)]
        zeta = [(c * (-1) ** k, k + 1, top - 2 - 2 * k) for k, c in enumerate(self.zeta)]
        return basis_sum(ONE_PLUS_X, xi + zeta)

    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.xi) and all(c >= 0 for c in self.zeta)


@dataclass(frozen=True)
class SymmetricDecomposition:
    """Unique f = a + x*b with a symmetric about n and b about n-1."""

    a: UniPoly
    b: UniPoly
    degree: int

    def reconstruct(self) -> UniPoly:
        return self.a + UniPoly.x() * self.b


@dataclass(frozen=True)
class PositivityProfile:
    symmetric: str
    unimodal: str
    gamma_positive: str
    alt_gamma_positive: str
    semi_gamma_positive: str
    alt_semi_gamma_positive: str
    bi_gamma_positive: str
    alt_bi_gamma_positive: str

    def to_json(self) -> dict:
        return asdict(self)


def _check_frame(f: DensePoly, n: int) -> None:
    deg = f.degree
    if deg is not None and n < deg:
        raise DegreeTooSmall(f"center {n} < degree {deg}")
    if n < 0:
        raise DegreeTooSmall(f"center {n} < 0")


def is_symmetric(f: DensePoly, n: int) -> bool:
    """True iff coefficient i equals coefficient n-i for 0 <= i <= n."""
    _check_frame(f, n)
    return all(f.coefficient(i) == f.coefficient(n - i) for i in range(n // 2 + 1))


def is_unimodal(f: UniPoly, n: int) -> bool:
    """Coefficients weakly rise then weakly fall over indices 0..n."""
    _check_frame(f, n)
    cs = [f.coefficient(i) for i in range(n + 1)]
    i = 0
    while i + 1 <= n and cs[i] <= cs[i + 1]:
        i += 1
    while i + 1 <= n and cs[i] >= cs[i + 1]:
        i += 1
    return i == n


def gamma_expand(f: UniPoly, n: int) -> GammaExpansion:
    """Unique expansion of a symmetric f in x^k (1+x)^(n-2k)."""
    if not is_symmetric(f, n):
        raise NotSymmetric(f"{f!r} is not symmetric about {n}")
    return GammaExpansion(n, _peel_center(f, n), PLUS)


def alt_gamma_expand(f: UniPoly, n: int) -> GammaExpansion:
    """Unique expansion of a symmetric f in (-x)^k (1+x)^(n-2k)."""
    if not is_symmetric(f, n):
        raise NotSymmetric(f"{f!r} is not symmetric about {n}")
    plus = _peel_center(f, n)
    return GammaExpansion(n, tuple(c * (-1) ** k for k, c in enumerate(plus)), MINUS)


def _peel(f: DensePoly, power: Callable[[int], DensePoly], exponents: range) -> tuple:
    """Coefficients of f in the triangular basis x^k power(m_k), m_k the k-th
    exponent: read the lowest coefficient of the remainder, subtract, repeat.
    Any dense polynomial type serves, a ``BiPoly`` as well as a ``UniPoly``:
    the monomials are built by the type of f, so the coefficients come from
    its coefficient ring."""
    rem = f
    out = []
    monomial = type(f).monomial
    for k, m in enumerate(exponents):
        c = rem.coefficient(k)
        out.append(c)
        if c:
            rem = rem - monomial(k, c) * power(m)
    if not rem.is_zero():
        raise ArithmeticError("peeling in a triangular basis must terminate at zero")
    return tuple(out)


def _peel_center(f: UniPoly, n: int) -> tuple[Scalar, ...]:
    return _peel(f, _one_plus_x_pow, range(n, -1, -2))


def binomial_basis_expand(f: UniPoly, n: int, sign: str = PLUS) -> BinomialExpansion:
    """Unique expansion in the triangular basis x^k (1 sign x)^(n-k)."""
    _check_frame(f, n)
    if sign not in (PLUS, MINUS):
        raise ValueError("sign must be '+' or '-'")
    power = _one_plus_x_pow if sign == PLUS else _one_minus_x_pow
    return BinomialExpansion(n, _peel(f, power, range(n, -1, -1)), sign)


def _spread(gamma: GammaExpansion, r: int, name: str) -> tuple[Scalar, ...]:
    """sum_i C(n-2i, k-2i) r^(k-2i) gamma_i for k = 0..n."""
    if gamma.sign != PLUS:
        raise ValueError(f"{name} is defined from a plus-sign gamma vector")
    n, g = gamma.center_degree, gamma.coeffs
    return tuple(
        sum(binom(n - 2 * i, k - 2 * i) * r ** (k - 2 * i) * g[i] for i in range(k // 2 + 1))
        for k in range(n + 1)
    )


def eta_from_gamma(gamma: GammaExpansion) -> tuple[Scalar, ...]:
    """eta_k = sum_i C(n-2i, k-2i) 2^(k-2i) gamma_i, the squared-variable vector."""
    return _spread(gamma, 2, "eta")


def xi_from_gamma(gamma: GammaExpansion) -> tuple[Scalar, ...]:
    """xi_k = sum_i C(n-2i, k-2i) gamma_i."""
    return _spread(gamma, 1, "xi")


def hermite_biehler_split(f: UniPoly) -> tuple[UniPoly, UniPoly]:
    """Even/odd split f = fE(x^2) + x fO(x^2)."""
    return UniPoly(f.coeffs[0::2]), UniPoly(f.coeffs[1::2])


def _forced_center(f1: UniPoly, f2: UniPoly) -> int | None:
    """The only center n that can make f1 symmetric about n and f2 about n-1.

    A nonzero polynomial is symmetric about exactly one center (lowest
    exponent plus degree), so the pair pins n down, or is inconsistent.
    """
    n1 = None if f1.is_zero() else f1.min_exponent() + f1.degree
    n2 = None if f2.is_zero() else f2.min_exponent() + f2.degree + 1
    if n1 is not None and n2 is not None:
        return n1 if n1 == n2 else None
    return n1 if n1 is not None else n2


def semi_gamma_decompose(f: UniPoly) -> SemiGammaDecomposition:
    """Canonical decomposition f = (1+x)^nu (f1(x^2) + x f2(x^2)).

    nu is tried in a fixed order: the parity of deg f first (nu = 1 needs
    (1+x) to divide f), then the other value.  The center is forced by
    the split pieces, so the result is deterministic; inputs whose pieces
    are not symmetric about the forced centers are rejected.
    """
    if f.is_zero():
        raise NotDecomposable("zero polynomial")
    divisible = f.evaluate(-1) == 0
    order = [f.degree % 2, 1 - f.degree % 2]
    for nu in order:
        if nu == 1 and not divisible:
            continue
        g = f.exact_div(ONE_PLUS_X) if nu else f
        f1, f2 = hermite_biehler_split(g)
        n = _forced_center(f1, f2)
        if n is None or n < 0:
            continue
        if not (is_symmetric(f1, n) and (n == 0 or is_symmetric(f2, n - 1))):
            continue
        if n == 0 and not f2.is_zero():
            continue
        g1 = _peel_center(f1, n)
        g2 = _peel_center(f2, n - 1) if n >= 1 else ()
        lam = [0] * (n + 1)
        for j, c in enumerate(g1):
            lam[2 * j] = c
        for j, c in enumerate(g2):
            lam[2 * j + 1] = c
        return SemiGammaDecomposition(nu, n, tuple(lam), f1, f2)
    raise NotDecomposable(f"{f!r} admits no half-square decomposition")


def alt_semi_gamma_decompose(f: UniPoly) -> AltSemiGammaDecomposition:
    """xi/zeta presentation of a semi-gamma-positive polynomial."""
    try:
        dec = semi_gamma_decompose(f)
    except NotDecomposable as exc:
        raise NotSemiGammaPositive(str(exc)) from exc
    if not dec.is_nonnegative():
        raise NotSemiGammaPositive(f"{f!r} has a negative half-square coefficient")
    n = dec.center
    xi = eta_from_gamma(gamma_expand(dec.f1, n))
    zeta = eta_from_gamma(gamma_expand(dec.f2, n - 1)) if n >= 1 else ()
    return AltSemiGammaDecomposition(dec.nu, n, xi, zeta)


def symmetric_decomposition(f: UniPoly, n: int) -> SymmetricDecomposition:
    """Unique f = a + x*b, a = (f - x^(n+1) f(1/x))/(1-x), b = (x^n f(1/x) - f)/(1-x)."""
    _check_frame(f, n)
    if f.is_zero():
        return SymmetricDecomposition(UniPoly.zero(), UniPoly.zero(), n)
    rev = f.reverse(n)
    a = (f - UniPoly.x() * rev).exact_div(ONE_MINUS_X)
    b = (rev - f).exact_div(ONE_MINUS_X)
    return SymmetricDecomposition(a, b, n)


def _flag(value: bool) -> str:
    return YES if value else NO


def classify(f: UniPoly, n: int) -> PositivityProfile:
    """Run every positivity check on f framed at center degree n."""
    _check_frame(f, n)
    if f.is_zero():
        return PositivityProfile(
            symmetric=YES,
            unimodal=YES,
            gamma_positive=NOT_APPLICABLE,
            alt_gamma_positive=NOT_APPLICABLE,
            semi_gamma_positive=NOT_APPLICABLE,
            alt_semi_gamma_positive=NOT_APPLICABLE,
            bi_gamma_positive=NOT_APPLICABLE,
            alt_bi_gamma_positive=NOT_APPLICABLE,
        )
    symmetric = is_symmetric(f, n)
    if symmetric:
        gamma_flag = _flag(gamma_expand(f, n).is_nonnegative())
        alt_flag = _flag(alt_gamma_expand(f, n).is_nonnegative())
    else:
        gamma_flag = NOT_APPLICABLE
        alt_flag = NOT_APPLICABLE
    try:
        semi_flag = _flag(semi_gamma_decompose(f).is_nonnegative())
    except NotDecomposable:
        semi_flag = NO
    try:
        alt_semi_flag = _flag(alt_semi_gamma_decompose(f).is_nonnegative())
    except NotSemiGammaPositive:
        alt_semi_flag = NO
    dec = symmetric_decomposition(f, n)
    bi = gamma_expand(dec.a, n).is_nonnegative() and (
        dec.b.is_zero() or gamma_expand(dec.b, n - 1).is_nonnegative()
    )
    alt_bi = alt_gamma_expand(dec.a, n).is_nonnegative() and (
        dec.b.is_zero() or alt_gamma_expand(dec.b, n - 1).is_nonnegative()
    )
    return PositivityProfile(
        symmetric=_flag(symmetric),
        unimodal=_flag(is_unimodal(f, n)),
        gamma_positive=gamma_flag,
        alt_gamma_positive=alt_flag,
        semi_gamma_positive=semi_flag,
        alt_semi_gamma_positive=alt_semi_flag,
        bi_gamma_positive=_flag(bi),
        alt_bi_gamma_positive=_flag(alt_bi),
    )
