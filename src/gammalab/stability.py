"""Exact real-rootedness, root isolation, interlacing, and Hurwitz
classification.

Root counting uses Sturm chains with the zero-dropping sign-variation
convention, under which the variation count at a point equals its limit
from the right; the count V(lo) - V(hi) is then exactly the number of
distinct real roots in the half-open interval (lo, hi], with no endpoint
nudging required.  Multiplicities come from a Yun squarefree
decomposition.  Only ``isolate_real_roots`` bisects, at midpoints.

Chains, gcds and Yun factors read the one signed remainder sequence of
``polynomial``, over Z on primitive pseudo-remainders (Collins 1967,
Brown-Traub 1971): each member is a positive multiple of the rational
one, so no sign or count changes.
``routh_stable`` stays rational: it is the independent cross-check.  Its
array divides once per row, by the pivot: each entry is a - (p2 / p1) b
(E. J. Routh, A Treatise on the Stability of a Given State of Motion, 1877).

Interlacing locates no root (Hermite-Kakeya-Obreschkoff; N. Obreschkoff,
Verteilung und Berechnung der Nullstellen reeller Polynome, 1963).  The
signed remainder sequence p, q, -rem, ... ends in h, a multiple of
gcd(p, q), and V(-inf) - V(+inf) is the Cauchy index of q/p (Gantmacher,
The Theory of Matrices II, ch. XV; Basu-Pollack-Roy, Algorithms in Real
Algebraic Geometry, ch. 2).  For real-rooted p and q it is -deg(p/h), the
least possible, iff every pole is simple with a negative residue, that is
iff the roots alternate.  A Sturm chain is the sequence of (g, g').

Hurwitz verdicts follow the Hermite-Biehler criterion on the even/odd
split f = fE(x^2) + x fO(x^2), with an independent exact Routh-array
cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .expansions import hermite_biehler_split
from .polynomial import Scalar, UniPoly, scalar_div, squarefree_part
from .polynomial import _primitive, _signed_remainders

INTERLACES = "interlaces"
ALTERNATES_LEFT = "alternates_left"
NEITHER = "neither"

STABLE = "stable"
WEAKLY_STABLE_ONLY = "weakly_stable_only"
UNSTABLE = "unstable"

ROUTH_STABLE = "stable"
ROUTH_NOT_STABLE = "not_stable"
ROUTH_INDETERMINATE = "indeterminate"


class NotRealRooted(ValueError):
    """An interlacing relation was requested for a non-real-rooted input."""


class NotStandard(ValueError):
    """Stability inputs must be nonzero with positive leading coefficient."""


def _require_standard(f: UniPoly, name: str = "input") -> None:
    if f.is_zero() or f.leading_coefficient() <= 0:
        raise NotStandard(f"{name} must be nonzero with positive leading coefficient")


def _sign_at(p: UniPoly, point: Scalar | None, positive_end: bool) -> int:
    """Sign of integer p at -/+ infinity (point None), else at a/b: that of b^deg p(a/b)."""
    if point is None:
        v = p.coeffs[-1] if positive_end or p.degree % 2 == 0 else -p.coeffs[-1]
    else:
        v, w = 0, 1
        for c in reversed(p.coeffs):
            v, w = v * point.numerator + c * w, w * point.denominator
    return (v > 0) - (v < 0)


def _variations(chain: list[UniPoly], point: Scalar | None, positive_end: bool) -> int:
    signs = [s for p in chain if (s := _sign_at(p, point, positive_end)) != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _count(chain: list[UniPoly], lo: Scalar | None, hi: Scalar | None) -> int:
    """V(lo) - V(hi); for the Sturm chain of a squarefree g, its roots in (lo, hi]."""
    return _variations(chain, lo, False) - _variations(chain, hi, True)


def sturm_real_root_count(
    f: UniPoly, lo: Scalar | None = None, hi: Scalar | None = None
) -> int:
    """Distinct real roots of f in (lo, hi]; None endpoints mean -/+ infinity."""
    if f.is_zero():
        raise ValueError("root counting needs a nonzero polynomial")
    if lo is not None and hi is not None and not lo < hi:
        raise ValueError("need lo < hi")
    sf = squarefree_part(f)
    return _count(_signed_remainders(sf, sf.derivative()), lo, hi)


def is_real_rooted(f: UniPoly) -> bool:
    """True iff every complex zero of f is real (constants vacuously)."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    chain = _signed_remainders(f, f.derivative())  # ends in gcd(f, f'), nonzero at -/+ inf
    return _count(chain, None, None) == f.degree - chain[-1].degree


def cauchy_root_bound(f: UniPoly) -> Scalar:
    """B with every real root of f strictly inside (-B, B)."""
    lc = f.leading_coefficient()
    return 1 + max((abs(scalar_div(c, lc)) for c in f.coeffs[:-1]), default=0)


def yun_decomposition(f: UniPoly) -> tuple[tuple[UniPoly, int], ...]:
    """Squarefree factors with multiplicities: f = lc * prod g_i^i."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    if f.degree == 0:
        return ()
    # b and d carry one common scale (a sign is one), so d stays a multiple of Yun's d
    f = _primitive(f)
    a = _signed_remainders(f, f.derivative())[-1]
    b = f.exact_div(a)
    d = f.derivative().exact_div(a) - b.derivative()
    out = []
    i = 1
    while b.degree:
        a = _signed_remainders(b, d)[-1]
        if a.degree:
            out.append((a.monic(), i))
        b = b.exact_div(a)
        d = d.exact_div(a) - b.derivative()
        i += 1
    return tuple(out)


def _isolate_squarefree(g: UniPoly) -> list[tuple[Scalar, Scalar]]:
    """Disjoint half-open intervals (lo, hi], one distinct root each."""
    chain = _signed_remainders(g, g.derivative())
    bound = cauchy_root_bound(g)
    out: list[tuple[Scalar, Scalar]] = []
    stack = [(-bound, bound, _count(chain, -bound, bound))]
    while stack:
        lo, hi, count = stack.pop()
        if count == 0:
            continue
        if count == 1:
            out.append((lo, hi))
            continue
        mid = scalar_div(lo + hi, 2)
        left = _count(chain, lo, mid)
        stack.append((lo, mid, left))
        stack.append((mid, hi, count - left))
    out.sort()
    return out


@dataclass(frozen=True)
class RootIsolation:
    """Sorted disjoint intervals, each holding one distinct real root."""

    intervals: tuple[tuple[Scalar, Scalar, int], ...]

    def total_with_multiplicity(self) -> int:
        return sum(m for _, _, m in self.intervals)

    def distinct(self) -> int:
        return len(self.intervals)


def isolate_real_roots(f: UniPoly) -> RootIsolation:
    """Isolate the distinct real roots of f with their multiplicities."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    intervals = _isolate_squarefree(squarefree_part(f))
    mults = _multiplicities(f, intervals)
    return RootIsolation(tuple([(lo, hi, m) for (lo, hi), m in zip(intervals, mults)]))


def _multiplicities(p: UniPoly, intervals: list[tuple[Scalar, Scalar]]) -> list[int]:
    """Multiplicity of the root of p in each isolating interval (0 if none)."""
    chains = [(_signed_remainders(g, g.derivative()), i) for g, i in yun_decomposition(p)]
    return [sum(i for chain, i in chains if _count(chain, lo, hi) == 1) for lo, hi in intervals]


def interlacing_relation(p: UniPoly, q: UniPoly) -> str:
    """Weak-inequality alternation of root lists.

    "interlaces": deg q = deg p + 1 and theta_1 <= xi_1 <= theta_2 <= ...
    "alternates_left": equal degrees and xi_1 <= theta_1 <= xi_2 <= ...
    Common roots count as coincident pairs, satisfying the weak chain.
    Decided by the Cauchy index of the module docstring.
    """
    _require_standard(p, "p")
    _require_standard(q, "q")
    if not is_real_rooted(p):
        raise NotRealRooted("p is not real-rooted")
    if not is_real_rooted(q):
        raise NotRealRooted("q is not real-rooted")
    return _cauchy_relation(p, q)[0]


def _cauchy_relation(p: UniPoly, q: UniPoly) -> tuple[str, UniPoly]:
    """interlacing_relation for standard real-rooted p and q, and the last
    remainder h, a multiple of gcd(p, q)."""
    seq = _signed_remainders(p, q)
    h = seq[-1]
    if q.degree - p.degree not in (0, 1) or _count(seq, None, None) != h.degree - p.degree:
        return NEITHER, h
    return (INTERLACES if q.degree > p.degree else ALTERNATES_LEFT), h


@dataclass(frozen=True)
class HurwitzVerdict:
    status: str
    certificate: str

    def to_json(self) -> dict:
        return {"status": self.status, "certificate": self.certificate}


def _nonpositive_real_rooted(part: UniPoly) -> str | None:
    """None if every zero of part (lc > 0) is real and <= 0, else the failing clause."""
    if not is_real_rooted(part):
        return "not real-rooted"
    if any(c < 0 for c in part.coeffs):  # real-rooted: all zeros <= 0 iff no c < 0
        return "has a positive zero"
    return None


def hurwitz_classify(f: UniPoly) -> HurwitzVerdict:
    """Hermite-Biehler classification of a standard polynomial.

    Stable means all zeros in the open left half plane; weakly stable
    allows the imaginary axis.  A vanishing odd or even part means all
    the mass sits on the axis (or at the origin), so those inputs top
    out at weakly_stable_only unless f is constant.
    """
    _require_standard(f, "f")
    if f.degree == 0:
        return HurwitzVerdict(STABLE, "positive constant, no zeros")
    f_even, f_odd = hermite_biehler_split(f)
    parts = [(side, part) for side, part in (("even", f_even), ("odd", f_odd)) if part]
    for side, part in parts:
        if part.leading_coefficient() <= 0:
            return HurwitzVerdict(UNSTABLE, f"{side} part not standard")
    for side, part in parts:
        clause = _nonpositive_real_rooted(part)
        if clause is not None:
            return HurwitzVerdict(UNSTABLE, f"{side} part {clause}")
    if len(parts) == 1:
        return HurwitzVerdict(
            WEAKLY_STABLE_ONLY,
            f"only the {parts[0][0]} part is nonzero: every zero lies on the imaginary axis",
        )
    relation, h = _cauchy_relation(f_odd, f_even)
    if relation == NEITHER:
        return HurwitzVerdict(
            UNSTABLE, "odd part neither interlaces nor alternates left of even part"
        )
    base = f"even/odd parts real-rooted with nonpositive zeros, odd part {relation} even part"
    if f.coefficient(0) == 0:
        return HurwitzVerdict(WEAKLY_STABLE_ONLY, base + "; zero at the origin")
    if h.degree:
        return HurwitzVerdict(
            WEAKLY_STABLE_ONLY, base + "; even and odd parts share a factor"
        )
    return HurwitzVerdict(STABLE, base + "; f(0) nonzero and parts coprime")


def routh_stable(f: UniPoly) -> str:
    """Exact Routh array: all first-column entries positive means stable,
    a sign change means not stable, a zero pivot (a zero row has one) is boundary."""
    _require_standard(f, "f")
    d = f.degree
    if d == 0:
        return ROUTH_STABLE
    desc = list(reversed(f.coeffs))
    rows = [desc[0::2], desc[1::2]]
    while len(rows) < d + 1:
        prev2, prev1 = rows[-2], rows[-1]
        if prev1[0] == 0:
            return ROUTH_INDETERMINATE
        ratio = scalar_div(prev2[0], prev1[0])
        rows.append([a - ratio * b for a, b in zip(prev2[1:], prev1[1:] + [0])] or [0])
    first = [row[0] for row in rows]
    if any(c == 0 for c in first):
        return ROUTH_INDETERMINATE
    return ROUTH_STABLE if all(c > 0 for c in first) else ROUTH_NOT_STABLE
