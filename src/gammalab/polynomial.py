"""Exact polynomial arithmetic over arbitrary-precision rationals.

Two immutable value types live here and everything else in the package is
built on top of them.  Both are dense: coefficient ``i`` is the
coefficient of the ``i``-th power of the variable, the zero polynomial is
the empty coefficient tuple and its ``degree`` is ``None`` (never -1
arithmetic).  One set of ring operations, ``DensePoly``, serves both
coefficient rings:

* ``UniPoly``: polynomial in ``x`` over the exact rationals.
* ``BiPoly``: polynomial in ``t`` whose coefficients are ``UniPoly`` in
  ``s``; this is all the bivariate structure the package needs.

Scalars are exact rationals in one canonical form: an ``int`` when the
value is an integer, else a ``fractions.Fraction`` whose denominator is
not 1.  ``as_scalar`` enforces it and the ``UniPoly`` constructor calls
it, so integer polynomials do all their arithmetic on plain ints.
Every division goes through ``scalar_div``, because ``/`` on two ints
gives a float.  Floating point is rejected on input: every claim
checked downstream is an exact sign or coefficient statement and a
tolerance would corrupt it.

One signed remainder sequence p, q, -rem, ... serves ``poly_gcd``,
``squarefree_part`` and, in ``stability``, Yun's decomposition and the
Sturm chains.  It runs over Z by the primitive PRS of Collins (J. ACM 14,
1967) and Brown-Traub (J. ACM 18, 1971): each pseudo-remainder scales by
a positive integer, so it is a positive multiple of the remainder over Q.
Its last member is a gcd up to sign; only the final results are made monic.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Union

Scalar = Union[int, Fraction]
ScalarLike = Union[Fraction, int, str]

_SCALAR_TOKEN = re.compile(r"[+-]?\d+(?:/\d+)?", re.ASCII)


class NotDivisible(ArithmeticError):
    """Exact polynomial division left a nonzero remainder."""


class DegreeTooSmall(ValueError):
    """A framing degree ``n`` was smaller than the polynomial degree."""


def as_scalar(value: ScalarLike) -> Scalar:
    """Coerce ``value`` to the canonical exact form; floats and bools are refused."""
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(value, int):
        return int(value)
    if isinstance(value, str):
        return parse_scalar(value)
    raise TypeError(f"exact rational required, got {type(value).__name__}")


def parse_scalar(token: str) -> Scalar:
    """Parse one wire-format coefficient, ``a`` or ``a/b`` in decimal digits."""
    if _SCALAR_TOKEN.fullmatch(token) is None:
        raise ValueError(f"coefficient {token!r} is not of the form a or a/b")
    num, _, den = token.partition("/")
    if not den:
        return int(num)
    if int(den) == 0:
        raise ValueError(f"coefficient {token!r} has a zero denominator")
    return scalar_div(int(num), int(den))


def scalar_div(a: Scalar, b: Scalar) -> Scalar:
    """a / b in canonical form; two ints never make a float."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return as_scalar(a / b)


def binom(n: int, k: int) -> int:
    """Binomial coefficient, zero outside the triangle (including n < 0)."""
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


class DensePoly:
    """The ring operations of a dense polynomial, written once for both types.

    A subclass keeps its coefficients, lowest power first and with no
    trailing zero, in ``coeffs``.  It names its coefficient ring by the
    class attributes ``_ZERO`` and ``_ONE`` and by ``_coerce``, which
    turns a scalar operand into a coefficient; every operation builds its
    result with the subclass's own constructor.
    """

    coeffs: tuple

    @classmethod
    def zero(cls) -> DensePoly:
        return cls(())

    @classmethod
    def one(cls) -> DensePoly:
        return cls((cls._ONE,))

    @classmethod
    def monomial(cls, k: int, c=1) -> DensePoly:
        """c times the k-th power of the variable."""
        if k < 0:
            raise ValueError("monomial exponent must be >= 0")
        return cls((cls._ZERO,) * k + (c,))

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coefficient(self, i: int):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self._ZERO

    def leading_coefficient(self):
        return self.coeffs[-1] if self.coeffs else self._ZERO

    def __add__(self, other) -> DensePoly:
        cls = type(self)
        if not isinstance(other, cls):
            try:
                other = cls((self._coerce(other),))
            except TypeError:  # not in this ring: let Python try other's reflected operator
                return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return cls(out)

    __radd__ = __add__

    def __neg__(self) -> DensePoly:
        return type(self)(-c for c in self.coeffs)

    def __sub__(self, other) -> DensePoly:
        if not isinstance(other, type(self)):
            try:
                other = type(self)((self._coerce(other),))
            except TypeError:
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> DensePoly:
        return type(self)((self._coerce(other),)) - self

    def __mul__(self, other) -> DensePoly:
        cls = type(self)
        if not isinstance(other, cls):
            try:
                c = self._coerce(other)
            except TypeError:
                return NotImplemented
            return cls(c * a for a in self.coeffs)
        if not self.coeffs or not other.coeffs:
            return cls(())
        out = [self._ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] += a * b
        return cls(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> DensePoly:
        if n < 0:
            raise ValueError("negative polynomial power")
        result = self.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result


@dataclass(init=False, frozen=True)
class UniPoly(DensePoly):
    """Dense univariate polynomial over Q, canonical (no trailing zeros,
    canonical scalars)."""

    coeffs: tuple[Scalar, ...]

    _ZERO = 0
    _ONE = 1
    _coerce = staticmethod(as_scalar)

    def __init__(self, coeffs: Iterable[ScalarLike] = ()):
        cs = [c if type(c) is int else as_scalar(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # perfbench's tracer wraps these through vars(UniPoly), so they are bound here
    __add__ = __radd__ = DensePoly.__add__
    __sub__ = DensePoly.__sub__
    __mul__ = __rmul__ = DensePoly.__mul__
    __pow__ = DensePoly.__pow__

    @classmethod
    def x(cls) -> UniPoly:
        return cls((0, 1))

    @classmethod
    def from_counts(cls, counts: Mapping[int, ScalarLike]) -> UniPoly:
        """Sum of c * x**k over the items (k, c) of ``counts``."""
        return cls([counts.get(k, 0) for k in range(max(counts, default=-1) + 1)])

    @classmethod
    def from_text(cls, text: str) -> UniPoly:
        """Parse the wire format: whitespace-separated rationals, low to high."""
        return cls(parse_scalar(tok) for tok in text.split())

    def min_exponent(self) -> int | None:
        """Exponent of the lowest nonzero term, or None for zero."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    # -- calculus and evaluation ----------------------------------------

    def derivative(self) -> UniPoly:
        return UniPoly(i * c for i, c in enumerate(self.coeffs) if i)

    def evaluate(self, v: ScalarLike) -> Scalar:
        """Exact Horner evaluation."""
        v = as_scalar(v)
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def compose(self, inner: UniPoly) -> UniPoly:
        """self(inner(x)) by Horner."""
        acc = UniPoly.zero()
        for c in reversed(self.coeffs):
            acc = acc * inner + UniPoly((c,))
        return acc

    def substitute_power(self, m: int) -> UniPoly:
        """Return f(x**m)."""
        if m < 1:
            raise ValueError("power substitution needs m >= 1")
        if self.is_zero():
            return self
        out = [0] * (m * (len(self.coeffs) - 1) + 1)
        for i, c in enumerate(self.coeffs):
            out[m * i] = c
        return UniPoly(out)

    # -- division -------------------------------------------------------

    def __divmod__(self, other: UniPoly) -> tuple[UniPoly, UniPoly]:
        if not isinstance(other, UniPoly):
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = [0] * max(len(self.coeffs) - len(other.coeffs) + 1, 1)
        rem = list(self.coeffs)
        dlead = other.coeffs[-1]
        dlen = len(other.coeffs)
        while len(rem) >= dlen:
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) < dlen:
                break
            factor = scalar_div(rem[-1], dlead)
            shift = len(rem) - dlen
            q[shift] = factor
            for i, c in enumerate(other.coeffs):
                rem[shift + i] -= factor * c
            rem.pop()
        return UniPoly(q), UniPoly(rem)

    def exact_div(self, other: UniPoly) -> UniPoly:
        """Quotient when ``other`` divides exactly, else NotDivisible."""
        q, r = divmod(self, other)
        if not r.is_zero():
            raise NotDivisible(f"{self!r} is not divisible by {other!r}")
        return q

    def monic(self) -> UniPoly:
        if self.is_zero():
            return self
        return self * scalar_div(1, self.coeffs[-1])

    # -- reversal -------------------------------------------------------

    def reverse(self, n: int) -> UniPoly:
        """Return x**n * f(1/x): the coefficient list reversed in window n+1."""
        deg = self.degree
        if deg is not None and n < deg:
            raise DegreeTooSmall(f"reversal window {n} < degree {deg}")
        out = [0] * (n + 1)
        for i, c in enumerate(self.coeffs):
            out[n - i] = c
        return UniPoly(out)

    # -- formatting -------------------------------------------------------

    def to_text(self) -> str:
        if self.is_zero():
            return "0"
        return " ".join(map(str, self.coeffs))

    def to_json(self) -> list[str]:
        return list(map(str, self.coeffs))

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"UniPoly({self.to_text()!r})"


ONE = UniPoly.one()
X = UniPoly.x()
ONE_PLUS_X = UniPoly((1, 1))
ONE_MINUS_X = UniPoly((1, -1))


def _primitive(f: UniPoly) -> UniPoly:
    """The coprime integer coefficients of a positive rational multiple of f."""
    den = math.lcm(*[c.denominator for c in f.coeffs if type(c) is not int])
    ints = [c * den if type(c) is int else c.numerator * (den // c.denominator) for c in f.coeffs]
    g = math.gcd(*ints)
    return UniPoly([c // g for c in ints] if g > 1 else ints)


def _prem(a: UniPoly, b: UniPoly) -> UniPoly:
    """Primitive part of a pseudo-remainder of integer a by b with a positive multiplier."""
    lc, n = b.coeffs[-1], len(b.coeffs)
    rem = list(a.coeffs)
    while len(rem) >= n:
        top = rem.pop()
        if top:
            g = math.gcd(top, lc)
            m, c = abs(lc) // g, (top if lc > 0 else -top) // g
            if m != 1:
                rem = [m * r for r in rem]
            for i, x in zip(range(len(rem) + 1 - n, len(rem)), b.coeffs):
                rem[i] -= c * x
    return _primitive(UniPoly(rem))


def _signed_remainders(p: UniPoly, q: UniPoly) -> list[UniPoly]:
    """Integer p, q, -rem, ...: each member a positive multiple of the rational one;
    the last is a primitive gcd of p and q up to sign."""
    seq = [_primitive(p), _primitive(q)]
    while seq[-1]:
        seq.append(-_prem(seq[-2], seq[-1]))
    seq.pop()
    return seq


def poly_gcd(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic greatest common divisor: primitive Euclid over Z, made monic at the end."""
    if f.is_zero() and g.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    return _signed_remainders(f, g)[-1].monic()


def squarefree_part(f: UniPoly) -> UniPoly:
    """f with all root multiplicities flattened to one, made monic."""
    if f.is_zero():
        raise ValueError("zero polynomial has no squarefree part")
    if f.degree == 0:
        return UniPoly.one()
    seq = _signed_remainders(f, f.derivative())
    return seq[0].exact_div(seq[-1]).monic()


def basis_sum(base: UniPoly, terms: Iterable[tuple[ScalarLike, int, int]]) -> UniPoly:
    """Sum of c * x**i * base**j over the (c, i, j) triples; zero c are skipped."""
    acc = UniPoly.zero()
    for c, i, j in terms:
        if c:
            acc = acc + UniPoly.monomial(i, c) * base**j
    return acc


def f_to_h(f: UniPoly, n: int) -> UniPoly:
    """Change of basis sum(f_i x^i (1-x)^(n-i)), exact."""
    deg = f.degree
    if deg is not None and n < deg:
        raise DegreeTooSmall(f"framing degree {n} < degree {deg}")
    return basis_sum(ONE_MINUS_X, ((c, i, n - i) for i, c in enumerate(f.coeffs)))


@dataclass(init=False, frozen=True)
class BiPoly(DensePoly):
    """Polynomial in t with UniPoly-in-s coefficients, dense in t."""

    coeffs: tuple[UniPoly, ...]

    _ZERO = UniPoly.zero()
    _ONE = ONE

    @staticmethod
    def _coerce(c: UniPoly | ScalarLike) -> UniPoly:
        return c if isinstance(c, UniPoly) else UniPoly((as_scalar(c),))

    def __init__(self, coeffs: Iterable[UniPoly | ScalarLike] = ()):
        cs = [self._coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def s(cls) -> BiPoly:
        return cls((X,))

    @classmethod
    def t(cls) -> BiPoly:
        return cls.monomial(1)

    def substitute_s(self, value: ScalarLike) -> UniPoly:
        """Evaluate every s-coefficient at an exact rational: a UniPoly in t."""
        v = as_scalar(value)
        return UniPoly(c.evaluate(v) for c in self.coeffs)

    def to_json(self) -> dict:
        return {"t_coeffs": [c.to_json() for c in self.coeffs]}

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        return "; ".join(c.to_text() for c in self.coeffs)

    def __repr__(self) -> str:
        return f"BiPoly({[c.to_text() for c in self.coeffs]!r})"
