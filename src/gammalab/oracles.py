"""Brute-force combinatorial ground truth.

Permutation statistics follow the boundary conventions used throughout
the package:

* descents/ascents scan i in [n] against pi(n+1) = infinity, so position
  n is never a descent and always an ascent (asc is therefore one more
  than the usual count and is never used in identity checks);
* peaks, valleys, double ascents and double descents scan i in [n] with
  pi(0) = pi(n+1) = infinity;
* left peaks scan i in [n-1] with pi(0) = 0;
* maj sums descent positions over i in [n-1]; exc counts i in [n-1] with
  pi(i) > i.

Infinity is represented by n+1, which exceeds every letter of the
permutation, so all comparisons stay in exact integer arithmetic.

Enumeration is streamed from ``itertools`` iterators and aggregated into
order-independent counters; the per-``n`` joint distributions are cached
because every identity check reuses them.
"""

from __future__ import annotations

import os
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterable, Iterator, NamedTuple, Sequence

from .polynomial import BiPoly, UniPoly

DEFAULT_SN_BOUND = 9
STIRLING_BOUND = 8
MOTZKIN_BOUND = 14
YOUNG_BOUND = 12
PATTERN_BOUND = 9

ENV_BOUND_VAR = "GAMMALAB_MAX_N"


class BoundExceeded(ValueError):
    """An enumeration was requested beyond the configured bound."""


def _env_capped(default: int) -> int:
    cap = os.environ.get(ENV_BOUND_VAR)
    if cap is None:
        return default
    if not (cap.isascii() and cap.isdigit()):
        raise ValueError(f"{ENV_BOUND_VAR} must be a decimal integer >= 0, got {cap!r}")
    return min(default, int(cap))


def sn_bound() -> int:
    """Symmetric-group enumeration bound, optionally capped by environment."""
    return _env_capped(DEFAULT_SN_BOUND)


def stirling_bound() -> int:
    return _env_capped(STIRLING_BOUND)


def motzkin_bound() -> int:
    return _env_capped(MOTZKIN_BOUND)


def young_bound() -> int:
    return _env_capped(YOUNG_BOUND)


def pattern_bound() -> int:
    return _env_capped(PATTERN_BOUND)


def _check_bound(n: int, bound: int, what: str) -> None:
    if n > bound:
        raise BoundExceeded(f"{what} enumeration capped at {bound}, got {n}")


class StatRecord(NamedTuple):
    des: int
    asc: int
    pk: int
    val: int
    ddes: int
    dasc: int
    lpk: int
    maj: int
    exc: int


def check_perm(pi: Sequence[int]) -> tuple[int, ...]:
    word = tuple(pi)
    if sorted(word) != list(range(1, len(word) + 1)):
        raise ValueError(f"{word!r} is not a permutation of 1..n")
    return word


def perm_stats(pi: Sequence[int]) -> StatRecord:
    """All statistics of one permutation under the boundary conventions above."""
    word = check_perm(pi)
    n = len(word)
    inf = n + 1
    des = asc = pk = val = ddes = dasc = lpk = maj = exc = 0
    for i in range(1, n + 1):
        cur = word[i - 1]
        prev = word[i - 2] if i >= 2 else inf
        nxt = word[i] if i < n else inf
        if cur > nxt:
            des += 1
            maj += i  # i = n impossible here: nxt is inf
        else:
            asc += 1
        if prev < cur > nxt:
            pk += 1
        if prev > cur < nxt:
            val += 1
        if prev > cur > nxt:
            ddes += 1
        if prev < cur < nxt:
            dasc += 1
        if i <= n - 1:
            prev0 = word[i - 2] if i >= 2 else 0
            if prev0 < cur > word[i]:
                lpk += 1
            if cur > i:
                exc += 1
    return StatRecord(des, asc, pk, val, ddes, dasc, lpk, maj, exc)


@lru_cache(maxsize=None)
def _joint_counts(n: int) -> Counter:
    """Counter over (des, pk, lpk, dasc, ddes, exc) for the whole of S_n."""
    counts: Counter = Counter()
    inf = n + 1
    for word in permutations(range(1, n + 1)):
        des = pk = lpk = dasc = ddes = exc = 0
        for i in range(1, n + 1):
            cur = word[i - 1]
            prev = word[i - 2] if i >= 2 else inf
            nxt = word[i] if i < n else inf
            if cur > nxt:
                des += 1
            if prev < cur < nxt:
                dasc += 1
            elif prev > cur > nxt:
                ddes += 1
            elif prev < cur > nxt:
                pk += 1
            if i <= n - 1:
                prev0 = word[i - 2] if i >= 2 else 0
                if prev0 < cur > word[i]:
                    lpk += 1
                if cur > i:
                    exc += 1
        counts[(des, pk, lpk, dasc, ddes, exc)] += 1
    return counts


STAT_WEIGHTS = (
    "des",
    "pk",
    "lpk",
    "pk+des",
    "n-1-dasc",
    "beta",
    "2des",
    "gamma",
    "des,exc",
)


def stat_polynomial(n: int, weight: str, bound: int | None = None) -> UniPoly | BiPoly:
    """Sum a monomial weight over S_n.

    Supported weights: x^des, x^pk, x^lpk, x^(pk+des), x^(n-1-dasc),
    (2x)^(2 lpk) (1+x)^(n-2 lpk) as "beta", x^(2 des), the gamma count
    #{pk = k, ddes = 0} as a polynomial in x, and the bivariate
    s^des t^exc as "des,exc".
    """
    if weight not in STAT_WEIGHTS:
        raise ValueError(f"unknown weight {weight!r}; choose one of {STAT_WEIGHTS}")
    _check_bound(n, bound if bound is not None else sn_bound(), "S_n")
    if n < 1:
        raise ValueError("statistics need n >= 1")
    counts = _joint_counts(n)
    if weight == "des,exc":
        t_rows: dict[int, dict[int, int]] = {}
        for (des, _pk, _lpk, _dasc, _ddes, exc), c in counts.items():
            t_rows.setdefault(exc, {})
            t_rows[exc][des] = t_rows[exc].get(des, 0) + c
        t_deg = max(t_rows)
        rows = []
        for j in range(t_deg + 1):
            row = t_rows.get(j, {})
            s_deg = max(row) if row else 0
            rows.append(UniPoly([row.get(i, 0) for i in range(s_deg + 1)]))
        return BiPoly(rows)
    if weight == "beta":
        acc = UniPoly.zero()
        one_plus_x = UniPoly([1, 1])
        for (_des, _pk, lpk, _dasc, _ddes, _exc), c in counts.items():
            acc = acc + c * 4**lpk * UniPoly.monomial(2 * lpk) * one_plus_x ** (n - 2 * lpk)
        return acc
    coeffs: Counter = Counter()
    for (des, pk, lpk, dasc, ddes, _exc), c in counts.items():
        if weight == "des":
            k = des
        elif weight == "pk":
            k = pk
        elif weight == "lpk":
            k = lpk
        elif weight == "pk+des":
            k = pk + des
        elif weight == "n-1-dasc":
            k = n - 1 - dasc
        elif weight == "2des":
            k = 2 * des
        else:  # gamma count
            if ddes != 0:
                continue
            k = pk
        coeffs[k] += c
    top = max(coeffs) if coeffs else 0
    return UniPoly([coeffs.get(i, 0) for i in range(top + 1)])


def gamma_count_vector(n: int, bound: int | None = None) -> tuple[int, ...]:
    """#{pi in S_n : pk = k, ddes = 0} for k = 0..(n-1)//2."""
    poly = stat_polynomial(n, "gamma", bound=bound)
    return tuple(int(poly.coefficient(k)) for k in range((n - 1) // 2 + 1))


# -- modified Foata-Strehl action -------------------------------------------


def mfs_phi(pi: Sequence[int], x: int) -> tuple[int, ...]:
    """Toggle the letter x: double descents hop right, double ascents hop
    left, peaks and valleys stay put.  An involution for every x."""
    word = check_perm(pi)
    n = len(word)
    inf = n + 1
    i = word.index(x) + 1
    prev = word[i - 2] if i >= 2 else inf
    nxt = word[i] if i < n else inf
    if prev > x > nxt:
        # double descent: smallest j > i with pi(j) < x < pi(j+1)
        for j in range(i + 1, n + 1):
            left = word[j - 1]
            right = word[j] if j < n else inf
            if left < x < right:
                rest = word[:i - 1] + word[i:]
                return rest[: j - 1] + (x,) + rest[j - 1:]
        raise AssertionError("double descent always relocates before the right boundary")
    if prev < x < nxt:
        # double ascent: largest j < i with pi(j) > x > pi(j+1)
        for j in range(i - 1, -1, -1):
            left = word[j - 1] if j >= 1 else inf
            right = word[j]
            if left > x > right:
                return word[:j] + (x,) + word[j:i - 1] + word[i:]
        raise AssertionError("double ascent always relocates after the left boundary")
    return word


def mfs_orbit(pi: Sequence[int], bound: int | None = None) -> frozenset[tuple[int, ...]]:
    """Closure of {pi} under every letter toggle."""
    word = check_perm(pi)
    n = len(word)
    _check_bound(n, bound if bound is not None else sn_bound(), "orbit")
    seen = {word}
    stack = [word]
    while stack:
        cur = stack.pop()
        for x in range(1, n + 1):
            nxt = mfs_phi(cur, x)
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return frozenset(seen)


@lru_cache(maxsize=None)
def mfs_orbit_partition(n: int) -> tuple[frozenset[tuple[int, ...]], ...]:
    """All orbits of S_n, discovered in lexicographic order of representatives."""
    _check_bound(n, sn_bound(), "orbit")
    seen: set[tuple[int, ...]] = set()
    orbits = []
    for word in permutations(range(1, n + 1)):
        if word in seen:
            continue
        orbit = mfs_orbit(word, bound=n)
        seen.update(orbit)
        orbits.append(orbit)
    return tuple(orbits)


# -- Stirling permutations ---------------------------------------------------


def stirling_permutations(n: int, bound: int | None = None) -> Iterator[tuple[int, ...]]:
    """Stream all Stirling permutations of order n.

    Built by inserting the adjacent pair (k, k) into every gap of each
    word of order k-1, which preserves the property that entries between
    the two copies of a letter exceed it.
    """
    _check_bound(n, bound if bound is not None else stirling_bound(), "Stirling")

    def gen(k: int) -> Iterator[tuple[int, ...]]:
        if k == 0:
            yield ()
            return
        for w in gen(k - 1):
            for pos in range(len(w) + 1):
                yield w[:pos] + (k, k) + w[pos:]

    return gen(n)


def is_stirling_word(w: Sequence[int]) -> bool:
    word = tuple(w)
    n = len(word) // 2
    if sorted(word) != sorted(list(range(1, n + 1)) * 2):
        return False
    for i in range(1, n + 1):
        first = word.index(i)
        second = word.index(i, first + 1)
        if any(word[j] <= i for j in range(first + 1, second)):
            return False
    return True


def stirling_stats(w: Sequence[int]) -> tuple[int, int, int]:
    """(ascent-plateaus, left ascent-plateaus, their sum) of one word."""
    word = tuple(w)
    m = len(word)
    ap = sum(
        1
        for i in range(2, m)  # positions 2..m-1, 1-indexed
        if word[i - 2] < word[i - 1] == word[i]
    )
    lap = sum(
        1
        for i in range(1, m)
        if (word[i - 2] if i >= 2 else 0) < word[i - 1] == word[i]
    )
    return ap, lap, ap + lap


@lru_cache(maxsize=None)
def stirling_fap_poly(n: int) -> UniPoly:
    """Distribution of ap + lap over all Stirling permutations of order n."""
    counts: Counter = Counter()
    for w in stirling_permutations(n):
        counts[stirling_stats(w)[2]] += 1
    top = max(counts) if counts else 0
    return UniPoly([counts.get(i, 0) for i in range(top + 1)])


# -- 2-Motzkin paths ---------------------------------------------------------


@lru_cache(maxsize=None)
def motzkin2_ub_poly(n: int, bound: int | None = None) -> UniPoly:
    """Sum of x^(up steps + blue level steps) over 2-Motzkin paths of length n.

    Dynamic program over (steps taken, height); each level step is blue
    (weight x) or red (weight 1), up steps weigh x, down steps weigh 1.
    """
    _check_bound(n, bound if bound is not None else motzkin_bound(), "2-Motzkin")
    x = UniPoly.x()
    level = UniPoly([1, 1])  # red + blue
    heights: dict[int, UniPoly] = {0: UniPoly.one()}
    for _ in range(n):
        nxt: dict[int, UniPoly] = {}
        for h, poly in heights.items():
            for dh, w in ((1, x), (0, level), (-1, UniPoly.one())):
                hh = h + dh
                if hh < 0:
                    continue
                nxt[hh] = nxt.get(hh, UniPoly.zero()) + poly * w
        heights = nxt
    return heights.get(0, UniPoly.zero())


def motzkin2_count(n: int) -> int:
    return int(motzkin2_ub_poly(n).evaluate(1))


# -- 2-colored Young diagrams ------------------------------------------------


@lru_cache(maxsize=None)
def _young2_counts(n: int) -> tuple[int, ...]:
    """Number of diagrams with k black cells per row, by enumerating the
    pairs of black-cell subsets row by row."""
    counts = [0] * (n + 1)
    cells = range(n)
    for k in range(n + 1):
        total = 0
        for _top in combinations(cells, k):
            for _bottom in combinations(cells, k):
                total += 1
        counts[k] = total
    return tuple(counts)


YOUNG_WEIGHTINGS = ("sqrt_split", "x_and_1px")


def young2_weight_poly(n: int, weighting: str, bound: int | None = None) -> UniPoly:
    """Weight enumerator of balanced 2-colored 2 x n Young diagrams.

    "sqrt_split" gives every black cell weight sqrt(x), so a diagram with
    k black cells per row weighs x^k.  "x_and_1px" weighs black cells x
    and white cells 1+x, so the same diagram weighs x^(2k) (1+x)^(2n-2k).
    """
    _check_bound(n, bound if bound is not None else young_bound(), "Young diagram")
    if weighting not in YOUNG_WEIGHTINGS:
        raise ValueError(f"unknown weighting {weighting!r}")
    counts = _young2_counts(n)
    if weighting == "sqrt_split":
        return UniPoly(counts)
    one_plus_x = UniPoly([1, 1])
    acc = UniPoly.zero()
    for k, c in enumerate(counts):
        acc = acc + c * UniPoly.monomial(2 * k) * one_plus_x ** (2 * n - 2 * k)
    return acc


def young2_count(n: int) -> int:
    return sum(_young2_counts(n))


# -- pattern avoidance -------------------------------------------------------


def _standardize(word: Sequence[int]) -> tuple[int, ...]:
    return tuple(sum(1 for v in word if v < u) + 1 for u in word)


def contains_pattern(perm: Sequence[int], pattern: Sequence[int]) -> bool:
    """Classical containment: some subsequence is order-isomorphic to pattern."""
    word = tuple(perm)
    pat = _standardize(pattern)
    m = len(pat)
    if m > len(word):
        return False
    for idx in combinations(range(len(word)), m):
        if _standardize([word[i] for i in idx]) == pat:
            return True
    return False


def pattern_class_descent_poly(
    n: int, patterns: Iterable[Sequence[int]], bound: int | None = None
) -> UniPoly:
    """Descent enumerator of the permutations in S_n avoiding every pattern."""
    _check_bound(n, bound if bound is not None else pattern_bound(), "pattern avoidance")
    pats = [check_perm(p) for p in patterns]
    if any(len(p) > 4 for p in pats):
        raise ValueError("patterns longer than 4 are not supported")
    counts: Counter = Counter()
    for word in permutations(range(1, n + 1)):
        if any(contains_pattern(word, p) for p in pats):
            continue
        des = sum(1 for i in range(n - 1) if word[i] > word[i + 1])
        counts[des] += 1
    top = max(counts) if counts else 0
    return UniPoly([counts.get(i, 0) for i in range(top + 1)])


# -- signed permutations (used only as a cross-check oracle) -----------------


def signed_descent_poly(n: int) -> UniPoly:
    """Descent enumerator of signed permutations, descents at i in 0..n-1
    with pi(0) = 0."""
    if n > 6:
        raise BoundExceeded("signed enumeration capped at 6")
    counts: Counter = Counter()
    for word in permutations(range(1, n + 1)):
        for mask in range(1 << n):
            signed = [(-v if mask >> i & 1 else v) for i, v in enumerate(word)]
            full = [0] + signed
            des = sum(1 for i in range(n) if full[i] > full[i + 1])
            counts[des] += 1
    top = max(counts) if counts else 0
    return UniPoly([counts.get(i, 0) for i in range(top + 1)])
