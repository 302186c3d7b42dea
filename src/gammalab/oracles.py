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
permutation, so all comparisons stay in exact integer arithmetic.  One
scan, ``_scan``, holds these conventions; ``perm_stats`` validates its
input and calls it.

Enumeration is streamed from ``itertools`` iterators and aggregated into
order-independent counters; the per-``n`` joint distribution of the full
``StatRecord`` is cached because every identity check reuses it.
"""

from __future__ import annotations

import os
from collections import Counter
from functools import lru_cache, partial
from itertools import combinations, permutations
from typing import Iterable, Iterator, NamedTuple, Sequence

from .polynomial import ONE, ONE_PLUS_X, X, BiPoly, UniPoly, basis_sum

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


# Enumeration bounds, each optionally capped by the environment.
sn_bound = partial(_env_capped, DEFAULT_SN_BOUND)
stirling_bound = partial(_env_capped, STIRLING_BOUND)
motzkin_bound = partial(_env_capped, MOTZKIN_BOUND)
young_bound = partial(_env_capped, YOUNG_BOUND)
pattern_bound = partial(_env_capped, PATTERN_BOUND)


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


def _scan(word: tuple[int, ...]) -> StatRecord:
    """All statistics of a word of distinct letters below len(word) + 1, one
    pass under the boundary conventions above; the caller validates."""
    n = len(word)
    inf = n + 1
    right = word[1:] + (inf,)
    des = maj = pk = val = ddes = dasc = exc = 0
    prev = inf
    for i, (cur, nxt) in enumerate(zip(word, right), 1):
        if cur > nxt:
            des += 1
            maj += i
            if prev > cur:
                ddes += 1
            else:
                pk += 1
        elif prev < cur:
            dasc += 1
        else:
            val += 1
        if cur > i:
            exc += 1
        prev = cur
    # a left peak is a peak, or a descent at position 1 (left letter 0, not inf)
    lpk = pk + (n > 0 and word[0] > right[0])
    return StatRecord(des, n - des, pk, val, ddes, dasc, lpk, maj, exc)


def perm_stats(pi: Sequence[int]) -> StatRecord:
    """All statistics of one permutation under the boundary conventions above."""
    return _scan(check_perm(pi))


@lru_cache(maxsize=None)
def _joint_counts(n: int) -> Counter:
    """Counter of the full ``StatRecord`` over the whole of S_n."""
    return Counter(map(_scan, permutations(range(1, n + 1))))


# weight -> exponent of x contributed by one permutation (None: no term);
# "beta" tallies lpk and is expanded in stat_polynomial
_EXPONENTS = {
    "des": lambda s, n: s.des,
    "pk": lambda s, n: s.pk,
    "lpk": lambda s, n: s.lpk,
    "pk+des": lambda s, n: s.pk + s.des,
    "n-1-dasc": lambda s, n: n - 1 - s.dasc,
    "beta": lambda s, n: s.lpk,
    "2des": lambda s, n: 2 * s.des,
    "gamma": lambda s, n: s.pk if s.ddes == 0 else None,
}
STAT_WEIGHTS = (*_EXPONENTS, "des,exc")


def stat_polynomial(n: int, weight: str) -> UniPoly | BiPoly:
    """Sum a monomial weight over S_n.

    Supported weights: x^des, x^pk, x^lpk, x^(pk+des), x^(n-1-dasc),
    (2x)^(2 lpk) (1+x)^(n-2 lpk) as "beta", x^(2 des), the gamma count
    #{pk = k, ddes = 0} as a polynomial in x, and the bivariate
    s^des t^exc as "des,exc".
    """
    if weight not in STAT_WEIGHTS:
        raise ValueError(f"unknown weight {weight!r}; choose one of {STAT_WEIGHTS}")
    _check_bound(n, sn_bound(), "S_n")
    if n < 1:
        raise ValueError("statistics need n >= 1")
    counts = _joint_counts(n)
    if weight == "des,exc":
        t_rows: dict[int, Counter] = {}
        for s, c in counts.items():
            t_rows.setdefault(s.exc, Counter())[s.des] += c
        return BiPoly([UniPoly.from_counts(t_rows.get(j, {})) for j in range(max(t_rows) + 1)])
    exponent = _EXPONENTS[weight]
    tally: Counter = Counter()
    for s, c in counts.items():
        k = exponent(s, n)
        if k is not None:
            tally[k] += c
    if weight == "beta":
        return basis_sum(ONE_PLUS_X, ((c * 4**k, 2 * k, n - 2 * k) for k, c in tally.items()))
    return UniPoly.from_counts(tally)


def gamma_count_vector(n: int) -> tuple[int, ...]:
    """#{pi in S_n : pk = k, ddes = 0} for k = 0..(n-1)//2."""
    poly = stat_polynomial(n, "gamma")
    return tuple([int(poly.coefficient(k)) for k in range((n - 1) // 2 + 1)])


# -- modified Foata-Strehl action -------------------------------------------


def mfs_phi(pi: Sequence[int], x: int) -> tuple[int, ...]:
    """Toggle the letter x: double descents hop right, double ascents hop
    left, peaks and valleys stay put.  An involution for every x."""
    return _hop(check_perm(pi), x)


def _hop(word: tuple[int, ...], x: int) -> tuple[int, ...]:
    """``mfs_phi`` on a validated permutation."""
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


def mfs_orbit(pi: Sequence[int]) -> frozenset[tuple[int, ...]]:
    """Closure of {pi} under every letter toggle."""
    word = check_perm(pi)
    n = len(word)
    _check_bound(n, sn_bound(), "orbit")
    seen = {word}
    stack = [word]
    while stack:
        cur = stack.pop()
        for x in range(1, n + 1):
            nxt = _hop(cur, x)
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
        orbit = mfs_orbit(word)
        seen.update(orbit)
        orbits.append(orbit)
    return tuple(orbits)


def _canonical(word: tuple[int, ...]) -> tuple[int, ...]:
    """The one member of the orbit of ``word`` without double ascents: every
    double ascent of ``word`` hops left.  Toggles of distinct letters commute
    and keep the type of every other letter, so their order does not matter."""
    inf = len(word) + 1
    for x in [b for a, b, c in zip((inf,) + word, word, word[1:] + (inf,)) if a < b < c]:
        word = _hop(word, x)
    return word


def mfs_orbit_classes(n: int) -> dict[tuple[int, ...], tuple[tuple[int, ...], int, Counter]]:
    """Every orbit of S_n as canonical member -> (least member, peaks, descent
    tally), in the order of ``mfs_orbit_partition``.  Each permutation is visited
    once and moved to its orbit's canonical member by the action itself."""
    _check_bound(n, sn_bound(), "orbit")
    classes: dict[tuple[int, ...], tuple[tuple[int, ...], int, Counter]] = {}
    for word in permutations(range(1, n + 1)):  # lexicographic: the first member met is least
        stats = _scan(word)
        rep = _canonical(word)
        if rep not in classes:
            classes[rep] = (word, stats.pk, Counter())
        classes[rep][2][stats.des] += 1
    return classes


# -- Stirling permutations ---------------------------------------------------


def stirling_permutations(n: int) -> Iterator[tuple[int, ...]]:
    """Stream all Stirling permutations of order n.

    Built by inserting the adjacent pair (k, k) into every gap of each
    word of order k-1, which preserves the property that entries between
    the two copies of a letter exceed it.
    """
    _check_bound(n, stirling_bound(), "Stirling")

    def gen(k: int) -> Iterator[tuple[int, ...]]:
        if k == 0:
            yield ()
            return
        for w in gen(k - 1):
            for pos in range(len(w) + 1):
                yield w[:pos] + (k, k) + w[pos:]

    return gen(n)


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
    return UniPoly.from_counts(Counter(stirling_stats(w)[2] for w in stirling_permutations(n)))


# -- 2-Motzkin paths ---------------------------------------------------------


@lru_cache(maxsize=None)
def motzkin2_ub_poly(n: int) -> UniPoly:
    """Sum of x^(up steps + blue level steps) over 2-Motzkin paths of length n.

    Dynamic program over (steps taken, height); each level step is blue
    (weight x) or red (weight 1), up steps weigh x, down steps weigh 1.
    """
    _check_bound(n, motzkin_bound(), "2-Motzkin")
    heights: dict[int, UniPoly] = {0: ONE}
    for _ in range(n):
        nxt: dict[int, UniPoly] = {}
        for h, poly in heights.items():
            for dh, w in ((1, X), (0, ONE_PLUS_X), (-1, ONE)):  # level: red + blue
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


def young2_weight_poly(n: int, weighting: str) -> UniPoly:
    """Weight enumerator of balanced 2-colored 2 x n Young diagrams.

    "sqrt_split" gives every black cell weight sqrt(x), so a diagram with
    k black cells per row weighs x^k.  "x_and_1px" weighs black cells x
    and white cells 1+x, so the same diagram weighs x^(2k) (1+x)^(2n-2k).
    """
    _check_bound(n, young_bound(), "Young diagram")
    if weighting not in YOUNG_WEIGHTINGS:
        raise ValueError(f"unknown weighting {weighting!r}")
    counts = _young2_counts(n)
    if weighting == "sqrt_split":
        return UniPoly(counts)
    return basis_sum(ONE_PLUS_X, ((c, 2 * k, 2 * n - 2 * k) for k, c in enumerate(counts)))


def young2_count(n: int) -> int:
    return sum(_young2_counts(n))


# -- pattern avoidance -------------------------------------------------------


def _standardize(word: Sequence[int]) -> tuple[int, ...]:
    """The permutation of 1..len(word) in the relative order of ``word``."""
    ranks = sorted(word)
    return tuple([ranks.index(u) + 1 for u in word])


def contains_pattern(perm: Sequence[int], pattern: Sequence[int]) -> bool:
    """Classical containment: some subsequence is order-isomorphic to pattern."""
    pat = _standardize(pattern)
    return any(_standardize(sub) == pat for sub in combinations(tuple(perm), len(pat)))


def _occurs_through(word: tuple[int, ...], pos: int, pattern: tuple[int, ...]) -> bool:
    """Whether some occurrence of ``pattern`` in ``word`` uses the letter at
    ``pos``, the largest of ``word``, as the pattern's largest letter."""
    j = pattern.index(len(pattern))
    rest = _standardize(pattern[:j] + pattern[j + 1:])
    return any(
        _standardize(left + right) == rest
        for left in combinations(word[:pos], j)
        for right in combinations(word[pos + 1:], len(rest) - j)
    )


@lru_cache(maxsize=None)
def _pattern_class(n: int, patterns: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """Av_n(patterns): n inserted into every gap of each member of Av_(n-1),
    which finds all of Av_n since deleting n keeps a permutation avoiding.  An
    insertion is kept when no occurrence of a pattern uses n, necessarily as
    the pattern's largest letter (J. West, Discrete Math. 157, 1996)."""
    if n == 0:
        return ((),)
    return tuple(
        [
            word
            for shorter in _pattern_class(n - 1, patterns)
            for pos in range(n)
            for word in (shorter[:pos] + (n,) + shorter[pos:],)
            if not any(_occurs_through(word, pos, p) for p in patterns)
        ]
    )


def pattern_class_descent_poly(n: int, patterns: Iterable[Sequence[int]]) -> UniPoly:
    """Descent enumerator of the permutations in S_n avoiding every pattern."""
    _check_bound(n, pattern_bound(), "pattern avoidance")
    pats = tuple(sorted({check_perm(p) for p in patterns}))
    if any(not 1 <= len(p) <= 4 for p in pats):
        raise ValueError("patterns must have 1 to 4 letters")
    return UniPoly.from_counts(Counter(_scan(word).des for word in _pattern_class(n, pats)))
