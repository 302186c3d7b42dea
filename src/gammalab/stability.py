"""Exact real-rootedness, root isolation, interlacing, and Hurwitz
classification.

Root counting uses Sturm chains with the zero-dropping sign-variation
convention, under which the variation count at a point equals its limit
from the right; the count V(lo) - V(hi) is then exactly the number of
distinct real roots in the half-open interval (lo, hi], with no endpoint
nudging required.  Isolation is plain midpoint bisection, so refinement
is deterministic.  Multiplicities come from a Yun squarefree
decomposition.

Hurwitz verdicts follow the Hermite-Biehler criterion on the even/odd
split f = fE(x^2) + x fO(x^2), with an independent exact Routh-array
cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .expansions import hermite_biehler_split
from .polynomial import Scalar, UniPoly, poly_gcd, scalar_div, squarefree_part

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


def _sturm_chain(g: UniPoly) -> tuple[UniPoly, ...]:
    chain = [g, g.derivative()]
    while not chain[-1].is_zero():
        chain.append(-divmod(chain[-2], chain[-1])[1])
    chain.pop()
    return tuple(chain)


def _sign_at(p: UniPoly, point: Scalar | None, positive_end: bool) -> int:
    if p.is_zero():
        return 0
    if point is None:
        lc = p.leading_coefficient()
        if positive_end:
            return 1 if lc > 0 else -1
        sign = lc if p.degree % 2 == 0 else -lc
        return 1 if sign > 0 else -1
    v = p.evaluate(point)
    return 0 if v == 0 else (1 if v > 0 else -1)


def _variations(chain: tuple[UniPoly, ...], point: Scalar | None, positive_end: bool) -> int:
    signs = [s for p in chain if (s := _sign_at(p, point, positive_end)) != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_real_root_count(
    f: UniPoly, lo: Scalar | None = None, hi: Scalar | None = None
) -> int:
    """Distinct real roots of f in (lo, hi]; None endpoints mean -/+ infinity."""
    if f.is_zero():
        raise ValueError("root counting needs a nonzero polynomial")
    if lo is not None and hi is not None and not lo < hi:
        raise ValueError("need lo < hi")
    if f.degree == 0:
        return 0
    chain = _sturm_chain(squarefree_part(f))
    return _variations(chain, lo, False) - _variations(chain, hi, True)


def count_distinct_real_roots(f: UniPoly) -> int:
    return sturm_real_root_count(f, None, None)


def is_real_rooted(f: UniPoly) -> bool:
    """True iff every complex zero of f is real (constants vacuously)."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    if f.degree == 0:
        return True
    sf = squarefree_part(f)
    return count_distinct_real_roots(f) == sf.degree


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
    f = f.monic()
    a = poly_gcd(f, f.derivative())
    b = f.exact_div(a)
    c = f.derivative().exact_div(a)
    d = c - b.derivative()
    out = []
    i = 1
    while b.degree:
        a = poly_gcd(b, d) if not d.is_zero() else b.monic()
        if a.degree:
            out.append((a, i))
        b = b.exact_div(a)
        c = d.exact_div(a)
        d = c - b.derivative()
        i += 1
    return tuple(out)


def _isolate_squarefree(g: UniPoly) -> list[tuple[Scalar, Scalar]]:
    """Disjoint half-open intervals (lo, hi], one distinct root each."""
    if g.degree == 0:
        return []
    chain = _sturm_chain(g)

    def var(point: Scalar) -> int:
        return _variations(chain, point, True)

    bound = cauchy_root_bound(g)
    out: list[tuple[Scalar, Scalar]] = []
    stack = [(-bound, bound, var(-bound) - var(bound))]
    while stack:
        lo, hi, count = stack.pop()
        if count == 0:
            continue
        if count == 1:
            out.append((lo, hi))
            continue
        mid = scalar_div(lo + hi, 2)
        left = var(lo) - var(mid)
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
    if f.degree == 0:
        return RootIsolation(())
    intervals = _isolate_squarefree(squarefree_part(f))
    mults = _multiplicities(f, intervals)
    return RootIsolation(tuple((lo, hi, m) for (lo, hi), m in zip(intervals, mults)))


def _multiplicities(p: UniPoly, intervals: list[tuple[Scalar, Scalar]]) -> list[int]:
    """Multiplicity of the root of p in each isolating interval (0 if none)."""
    factors = yun_decomposition(p)
    return [
        sum(i for g, i in factors if g.degree and sturm_real_root_count(g, lo, hi) == 1)
        for lo, hi in intervals
    ]


def _root_ordinals(p: UniPoly, intervals: list[tuple[Scalar, Scalar]]) -> list[int]:
    """Roots of p with multiplicity, encoded as ordinals of the shared
    isolating intervals, ascending.  Equal ordinals mean equal roots."""
    mults = _multiplicities(p, intervals)
    return [idx for idx, m in enumerate(mults) for _ in range(m)]


def interlacing_relation(p: UniPoly, q: UniPoly) -> str:
    """Weak-inequality alternation of root lists.

    "interlaces": deg q = deg p + 1 and theta_1 <= xi_1 <= theta_2 <= ...
    "alternates_left": equal degrees and xi_1 <= theta_1 <= xi_2 <= ...
    Common roots count as coincident pairs, satisfying the weak chain.
    """
    _require_standard(p, "p")
    _require_standard(q, "q")
    if not is_real_rooted(p):
        raise NotRealRooted("p is not real-rooted")
    if not is_real_rooted(q):
        raise NotRealRooted("q is not real-rooted")
    dp, dq = p.degree, q.degree
    if dq == dp + 1:
        target = INTERLACES
    elif dq == dp:
        target = ALTERNATES_LEFT
    else:
        return NEITHER
    if dp == 0 and dq == 0:
        return ALTERNATES_LEFT
    intervals = _isolate_squarefree(squarefree_part(p * q))
    xs = _root_ordinals(p, intervals)
    ths = _root_ordinals(q, intervals)
    if target == INTERLACES:
        ok = all(ths[k] <= xs[k] <= ths[k + 1] for k in range(dp))
    else:
        ok = all(xs[k] <= ths[k] for k in range(dp)) and all(
            ths[k] <= xs[k + 1] for k in range(dp - 1)
        )
    return target if ok else NEITHER


@dataclass(frozen=True)
class HurwitzVerdict:
    status: str
    certificate: str

    def to_json(self) -> dict:
        return {"status": self.status, "certificate": self.certificate}


def _nonpositive_real_rooted(part: UniPoly) -> str | None:
    """None if every zero of part is real and <= 0, else the failing clause."""
    if not is_real_rooted(part):
        return "not real-rooted"
    if part.degree and sturm_real_root_count(part, 0, None) > 0:
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
    if f_odd.is_zero() or f_even.is_zero():
        part = f_even if f_odd.is_zero() else f_odd
        side = "even" if f_odd.is_zero() else "odd"
        if part.leading_coefficient() <= 0:
            return HurwitzVerdict(UNSTABLE, f"{side} part not standard")
        clause = _nonpositive_real_rooted(part)
        if clause is not None:
            return HurwitzVerdict(UNSTABLE, f"{side} part {clause}")
        return HurwitzVerdict(
            WEAKLY_STABLE_ONLY,
            f"only the {side} part is nonzero: every zero lies on the imaginary axis",
        )
    if f_even.leading_coefficient() <= 0:
        return HurwitzVerdict(UNSTABLE, "even part not standard")
    if f_odd.leading_coefficient() <= 0:
        return HurwitzVerdict(UNSTABLE, "odd part not standard")
    for side, part in (("even", f_even), ("odd", f_odd)):
        clause = _nonpositive_real_rooted(part)
        if clause is not None:
            return HurwitzVerdict(UNSTABLE, f"{side} part {clause}")
    relation = interlacing_relation(f_odd, f_even)
    if relation == NEITHER:
        return HurwitzVerdict(
            UNSTABLE, "odd part neither interlaces nor alternates left of even part"
        )
    base = f"even/odd parts real-rooted with nonpositive zeros, odd part {relation} even part"
    if f.coefficient(0) == 0:
        return HurwitzVerdict(WEAKLY_STABLE_ONLY, base + "; zero at the origin")
    if poly_gcd(f_even, f_odd).degree:
        return HurwitzVerdict(
            WEAKLY_STABLE_ONLY, base + "; even and odd parts share a factor"
        )
    return HurwitzVerdict(STABLE, base + "; f(0) nonzero and parts coprime")


def routh_stable(f: UniPoly) -> str:
    """Exact Routh array: all first-column entries positive means stable,
    a sign change means not stable, a zero pivot or zero row is boundary."""
    _require_standard(f, "f")
    d = f.degree
    if d == 0:
        return ROUTH_STABLE
    desc = list(reversed(f.coeffs))
    rows = [desc[0::2], desc[1::2]]
    while len(rows) < d + 1:
        prev2, prev1 = rows[-2], rows[-1]
        if all(c == 0 for c in prev1):
            return ROUTH_INDETERMINATE
        if prev1[0] == 0:
            return ROUTH_INDETERMINATE
        nxt = []
        for j in range(len(prev2) - 1):
            a = prev2[j + 1]
            b = prev1[j + 1] if j + 1 < len(prev1) else 0
            nxt.append(scalar_div(prev1[0] * a - prev2[0] * b, prev1[0]))
        if not nxt:
            nxt = [0]
        rows.append(nxt)
    first = [row[0] for row in rows]
    if any(c == 0 for c in first):
        return ROUTH_INDETERMINATE
    return ROUTH_STABLE if all(c > 0 for c in first) else ROUTH_NOT_STABLE
