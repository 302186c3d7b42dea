import random
import tracemalloc
from fractions import Fraction

import pytest

from gammalab import families as fam
from gammalab import stability as st
from gammalab.polynomial import UniPoly, poly_gcd, scalar_div, squarefree_part

ONE = UniPoly.one()
X = UniPoly.x()


def test_sturm_examples():
    assert st.sturm_real_root_count(UniPoly([1, 1])) == 1
    assert st.sturm_real_root_count(UniPoly([1, 1, 1])) == 0
    assert st.sturm_real_root_count(fam.narayana("B", 3), None, Fraction(0)) == 3
    with pytest.raises(ValueError):
        st.sturm_real_root_count(UniPoly.zero())
    with pytest.raises(ValueError):
        st.sturm_real_root_count(ONE, Fraction(1), Fraction(0))


def test_sturm_half_open_endpoints():
    f = UniPoly([0, -1, 0, 1])  # x(x-1)(x+1)
    assert st.sturm_real_root_count(f, Fraction(-1), Fraction(0)) == 1  # {0}
    assert st.sturm_real_root_count(f, Fraction(-2), Fraction(-1)) == 1  # {-1}
    assert st.sturm_real_root_count(f, Fraction(0), Fraction(1)) == 1  # {1}
    assert st.sturm_real_root_count(f, Fraction(-1), Fraction(1)) == 2


def test_isolation_examples():
    iso = st.isolate_real_roots(UniPoly([1, 2, 1]))
    assert len(iso.intervals) == 1
    lo, hi, mult = iso.intervals[0]
    assert mult == 2 and lo < -1 <= hi
    iso = st.isolate_real_roots(UniPoly([-2, 0, 1]))
    assert iso.distinct() == 2 and iso.total_with_multiplicity() == 2
    (l1, h1, _), (l2, h2, _) = iso.intervals
    assert h1 <= l2  # disjoint and sorted
    assert st.isolate_real_roots(UniPoly([5])).intervals == ()


def test_isolation_multiplicity_sums_to_degree_when_real_rooted():
    rng = random.Random(4)
    for _ in range(50):
        roots = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rng.randint(1, 5))]
        f = ONE
        for r in roots:
            f = f * (X - UniPoly([r]))
        iso = st.isolate_real_roots(f)
        assert iso.total_with_multiplicity() == f.degree


def test_interlacing_examples():
    assert st.interlacing_relation(fam.narayana("A", 1), fam.narayana("B", 2)) == "interlaces"
    assert st.interlacing_relation(UniPoly([2, 1]), UniPoly([1, 1])) == "alternates_left"
    p = UniPoly([1, 3, 1])
    assert st.interlacing_relation(p, p) == "alternates_left"
    # wrong degree gap
    assert st.interlacing_relation(ONE, UniPoly([1, 3, 1])) == "neither"
    with pytest.raises(st.NotRealRooted):
        st.interlacing_relation(UniPoly([1, 1, 1]), UniPoly([1, 1]))
    with pytest.raises(st.NotStandard):
        st.interlacing_relation(UniPoly([1, -1]), UniPoly([1, 1]))


def test_interlacing_constant_base_case():
    assert st.interlacing_relation(ONE, UniPoly([1, 2])) == "interlaces"
    assert st.interlacing_relation(UniPoly([3]), UniPoly([7])) == "alternates_left"


def reference_interlacing(p, q):
    """Interlacing the long way: isolate the distinct roots of p*q once,
    write each root list (with multiplicity, ascending) as ordinals of
    those shared intervals, so equal ordinals mean equal roots, and
    compare the weak chains directly."""
    dp, dq = p.degree, q.degree
    if dq not in (dp, dp + 1):
        return "neither"
    intervals = st._isolate_squarefree(squarefree_part(p * q))
    xs, ths = (
        [k for k, m in enumerate(st._multiplicities(f, intervals)) for _ in range(m)]
        for f in (p, q)
    )
    if dq == dp + 1:
        ok = all(ths[k] <= xs[k] <= ths[k + 1] for k in range(dp))
        return "interlaces" if ok else "neither"
    ok = all(xs[k] <= ths[k] for k in range(dp)) and all(
        ths[k] <= xs[k + 1] for k in range(dp - 1)
    )
    return "alternates_left" if ok else "neither"


def reference_wronskian(p, q):
    """Interlacing by the Wronskian: once the common roots h = gcd(p, q) are
    paired off, a weak chain of roots is a strict chain of simple roots, so
    (p/h)(q/h) is squarefree; for such a coprime real-rooted pair the strict
    chain holds iff (q/p)' = W/p^2 >= 0 between the poles, W = q'p - qp'.
    W >= 0 on the real line iff W = 0, or lc(W) > 0 and no odd-multiplicity
    Yun factor of W has a real root."""
    dp, dq = p.degree, q.degree
    if dq == dp + 1:
        target = "interlaces"
    elif dq == dp:
        target = "alternates_left"
    else:
        return "neither"
    h = poly_gcd(p, q)  # monic, so both quotients keep a positive leading coefficient
    p, q = p.exact_div(h), q.exact_div(h)
    pq = p * q
    if poly_gcd(pq, pq.derivative()).degree:
        return "neither"
    w = q.derivative() * p - q * p.derivative()
    nonnegative = w.is_zero() or (
        w.leading_coefficient() > 0
        and not any(st.sturm_real_root_count(g) for g, i in st.yun_decomposition(w) if i % 2)
    )
    return target if nonnegative else "neither"


def _random_real_rooted_pair(rng):
    """Rational roots from a small pool, so shared and repeated roots are
    common; deg q - deg p is 0, 1 or 2."""
    pool = [Fraction(k, 2) for k in range(-6, 3)]
    dp = rng.randint(0, 4)
    dq = dp + rng.randint(0, 2)
    shared = [rng.choice(pool) for _ in range(rng.randint(0, min(dp, 2)))]

    def build(deg):
        f = UniPoly([Fraction(rng.randint(1, 4), rng.randint(1, 3))])
        for r in shared + [rng.choice(pool) for _ in range(deg - len(shared))]:
            f = f * UniPoly([-r, 1])
        return f

    return build(dp), build(dq)


def test_interlacing_matches_the_wronskian_and_root_ordering_references():
    rng = random.Random(12)
    seen = set()
    for _ in range(1000):
        p, q = _random_real_rooted_pair(rng)
        relation = st.interlacing_relation(p, q)
        assert relation == reference_wronskian(p, q) == reference_interlacing(p, q), (p, q)
        seen.add(relation)
    assert seen == {"neither", "interlaces", "alternates_left"}


def test_nonnegative_wronskian_without_squarefree_reduced_pair_is_neither():
    # W = q'p - qp' = (x^2 + 2x + 3/2)(x + 3/2)^2(x + 2)^2 >= 0 on the real
    # line, yet the roots -2, -2, -2, -1 and -3/2 (three times) do not
    # interlace: the Wronskian reference needs its squarefree test on
    # (p/h)(q/h), and the Cauchy index must see the pole of order three.
    p = UniPoly([Fraction(3, 2), 1]) ** 3
    q = UniPoly([2, 1]) ** 3 * UniPoly([1, 1])
    assert st.interlacing_relation(p, q) == "neither"
    assert reference_wronskian(p, q) == reference_interlacing(p, q) == "neither"


def test_hurwitz_examples():
    assert st.hurwitz_classify(UniPoly([1, 3, 4, 3, 1])).status == "stable"
    assert st.hurwitz_classify(UniPoly([-1, 1])).status == "unstable"  # zero at +1
    assert st.hurwitz_classify(UniPoly([1, 0, 1])).status == "weakly_stable_only"
    assert st.hurwitz_classify(UniPoly([3])).status == "stable"
    assert st.hurwitz_classify(UniPoly([0, 1])).status == "weakly_stable_only"  # zero at origin
    with pytest.raises(st.NotStandard):
        st.hurwitz_classify(UniPoly([1, -1]))
    with pytest.raises(st.NotStandard):
        st.hurwitz_classify(UniPoly.zero())


_PARTS = "even/odd parts real-rooted with nonpositive zeros, odd part "
_SHARED = "; even and odd parts share a factor"
_ORIGIN = "; zero at the origin"
_AXIS = " part is nonzero: every zero lies on the imaginary axis"


CERTIFICATES = [
    ("1", "stable", "positive constant, no zeros"),
    ("1 1", "stable", _PARTS + "alternates_left even part; f(0) nonzero and parts coprime"),
    ("1 1 1", "stable", _PARTS + "interlaces even part; f(0) nonzero and parts coprime"),
    ("-2 0 1", "unstable", "even part has a positive zero"),
    ("1 -2 -2 1 2", "unstable", "even part not real-rooted"),
    ("-2 1", "unstable", "even part not standard"),
    ("0 -2 0 1", "unstable", "odd part has a positive zero"),
    ("1 1 0 0 0 1", "unstable", "odd part not real-rooted"),
    ("1 0 0 0 1", "unstable", "even part not real-rooted"),
    ("0 1 0 0 0 1", "unstable", "odd part not real-rooted"),
    ("1 0 0 1", "unstable", "odd part neither interlaces nor alternates left of even part"),
    ("-2 -2 1", "unstable", "odd part not standard"),
    ("1 1 1 1", "weakly_stable_only", _PARTS + "alternates_left even part" + _SHARED),
    ("0 0 1 1", "weakly_stable_only", _PARTS + "alternates_left even part" + _ORIGIN),
    ("1 1 2 1 1", "weakly_stable_only", _PARTS + "interlaces even part" + _SHARED),
    ("0 1 1", "weakly_stable_only", _PARTS + "interlaces even part" + _ORIGIN),
    ("0 0 1", "weakly_stable_only", "only the even" + _AXIS),
    ("0 1", "weakly_stable_only", "only the odd" + _AXIS),
]


@pytest.mark.parametrize(
    "text, status, certificate", CERTIFICATES, ids=[row[0] for row in CERTIFICATES]
)
def test_every_hurwitz_certificate(text, status, certificate):
    verdict = st.hurwitz_classify(UniPoly.from_text(text))
    assert verdict.to_json() == {"status": status, "certificate": certificate}


def test_hurwitz_weak_cases():
    # (1+x)(1+x^2): zero on the axis via common structure
    f = UniPoly([1, 1]) * UniPoly([1, 0, 1])
    verdict = st.hurwitz_classify(f)
    assert verdict.status == "weakly_stable_only"
    # strictly stable product of left-half-plane factors
    g = UniPoly([1, 1]) * UniPoly([2, 1]) * UniPoly([1, 1, 1])
    assert st.hurwitz_classify(g).status == "stable"


def test_routh_examples():
    assert st.routh_stable(UniPoly([1, 1])) == "stable"
    assert st.routh_stable(UniPoly([1, 3, 4, 3, 1])) == "stable"
    assert st.routh_stable(UniPoly([1, 0, 1])) == "indeterminate"
    assert st.routh_stable(UniPoly([-1, 1])) == "not_stable"
    assert st.routh_stable(UniPoly([2])) == "stable"


def assert_canonical(values):
    """Every value is an int, or a Fraction whose denominator is not 1."""
    for c in values:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)


def test_division_paths_leak_no_float():
    bound = st.cauchy_root_bound(UniPoly([3, 1, 2]))
    assert bound == Fraction(5, 2)
    assert_canonical([bound, st.cauchy_root_bound(UniPoly([2, 0, 1]))])
    # Routh rows 1 8 12 5 | 4 10 6 | 11/2 21/2 5 | ...: a zero pivot appears
    # only in exact arithmetic; with float rows the verdict reads "stable".
    assert st.routh_stable(UniPoly([5, 6, 12, 10, 8, 4, 1])) == "indeterminate"
    iso = st.isolate_real_roots(UniPoly([-1, 6, -11, 6]))  # (x-1)(2x-1)(3x-1)
    assert iso.distinct() == 3
    assert_canonical([end for lo, hi, _ in iso.intervals for end in (lo, hi)])
    for (lo, hi, mult), root in zip(iso.intervals, (Fraction(1, 3), Fraction(1, 2), 1)):
        assert lo < root <= hi and mult == 1


def test_mn_combination_invariants():
    square = UniPoly([1, 2, 1])
    for n in range(1, 9):
        f = fam.mn_combination(n)
        assert st.hurwitz_classify(f).status == "stable"
        f.exact_div(square)  # raises if (1+x)^2 does not divide


def test_mn_interlacing_proof_steps():
    for n in range(1, 9):
        na = fam.narayana("A", n - 1)
        nb = fam.narayana("B", n)
        mid = nb + n * X * na
        assert st.interlacing_relation(na, mid) == "interlaces"
        assert st.interlacing_relation(na, nb) == "interlaces"


def test_mn_derivative_identities():
    for n in range(1, 11):
        na = fam.narayana("A", n)
        nb = fam.narayana("B", n)
        na_prev = fam.narayana("A", n - 1)
        assert (X * na).derivative() == nb + n * X * na_prev
        assert (nb + n * X * na_prev).derivative() == n * (n + 1) * na_prev


def _random_standard(rng):
    deg = rng.randint(1, 8)
    coeffs = [Fraction(rng.randint(-6, 6)) for _ in range(deg)] + [
        Fraction(rng.randint(1, 6))
    ]
    return UniPoly(coeffs)


def _random_stable(rng):
    # product of x + a (a > 0) and x^2 + bx + c (b, c > 0): open left half plane
    f = ONE
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.5:
            f = f * (X + UniPoly([Fraction(rng.randint(1, 5), rng.randint(1, 3))]))
        else:
            f = f * UniPoly(
                [
                    Fraction(rng.randint(1, 6)),
                    Fraction(rng.randint(1, 6), rng.randint(1, 2)),
                    1,
                ]
            )
    return f


def test_routh_hurwitz_agreement_random():
    rng = random.Random(31)
    checked = 0
    for trial in range(200):
        f = _random_stable(rng) if trial % 2 else _random_standard(rng)
        routh = st.routh_stable(f)
        if routh == "indeterminate":
            continue
        hurwitz = st.hurwitz_classify(f).status
        assert (routh == "stable") == (hurwitz == "stable"), f.to_text()
        checked += 1
    assert checked > 100


def reference_routh(f):
    """The Routh array entry by entry: each entry of a new row is
    (p1 * a - p2 * b) / p1 for the pivots p2 and p1 of the two rows above
    it, and a zero row is tested on its own.  Returns the verdict and the
    rows built up to it."""
    d = f.degree
    desc = list(reversed(f.coeffs))
    rows = [desc[0::2], desc[1::2]] if d else [desc]
    while len(rows) < d + 1:
        prev2, prev1 = rows[-2], rows[-1]
        if all(c == 0 for c in prev1):
            return "indeterminate", rows
        if prev1[0] == 0:
            return "indeterminate", rows
        nxt = []
        for j in range(len(prev2) - 1):
            a = prev2[j + 1]
            b = prev1[j + 1] if j + 1 < len(prev1) else 0
            nxt.append(scalar_div(prev1[0] * a - prev2[0] * b, prev1[0]))
        rows.append(nxt or [0])
    first = [row[0] for row in rows]
    if any(c == 0 for c in first):
        return "indeterminate", rows
    return ("stable" if all(c > 0 for c in first) else "not_stable"), rows


def _random_routh_input(rng):
    """Degree <= 12 with int and a/b coefficients and a positive leading one.
    A quarter of the inputs are products of left-half-plane factors, and a
    quarter have a factor x^2 + c, whose roots +-sqrt(-c) lie symmetric
    about the origin and so make a zero row."""

    def scalar():
        return Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))

    kind = rng.randrange(12)
    if kind % 4 == 0:
        return _random_stable(rng)
    lc = Fraction(rng.randint(1, 4), rng.choice([1, 2]))
    if kind % 3 == 0:
        g = UniPoly([scalar() for _ in range(rng.randint(0, 10))] + [lc])
        return g * UniPoly([scalar(), 0, 1])
    return UniPoly([scalar() for _ in range(rng.randint(0, 12))] + [lc])


def test_routh_matches_the_per_entry_reference():
    rng = random.Random(23)
    verdicts, zero_rows, zero_pivots = set(), 0, 0
    for _ in range(1500):
        f = _random_routh_input(rng)
        verdict, rows = reference_routh(f)
        assert st.routh_stable(f) == verdict, f.to_text()
        verdicts.add(verdict)
        last = rows[-1]
        zero_rows += not any(last)
        zero_pivots += last[0] == 0 and any(last)
    assert verdicts == {"stable", "not_stable", "indeterminate"}
    assert zero_rows >= 100 and zero_pivots >= 100, (zero_rows, zero_pivots)


# -- rational references for the integer path ----------------------------------


def reference_gcd(f, g):
    """Monic gcd by Euclid over Q."""
    a, b = f, g
    while b:
        a, b = b, divmod(a, b)[1]
    return a.monic()


def reference_squarefree(f):
    if f.degree == 0:
        return ONE
    return f.exact_div(reference_gcd(f, f.derivative())).monic()


def reference_chain(g):
    """Sturm chain over Q: g, g', then negated remainders."""
    chain = [g, g.derivative()]
    while chain[-1]:
        chain.append(-divmod(chain[-2], chain[-1])[1])
    chain.pop()
    return chain


def reference_count(f, lo, hi):
    """Distinct real roots in (lo, hi] from the rational chain, signs by evaluate."""
    chain = reference_chain(reference_squarefree(f))

    def variations(point, positive_end):
        signs = []
        for p in chain:
            if point is None:
                v = p.leading_coefficient() * (1 if positive_end or p.degree % 2 == 0 else -1)
            else:
                v = p.evaluate(point)
            if v:
                signs.append(v > 0)
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return variations(lo, False) - variations(hi, True)


def reference_yun(f):
    """Yun's squarefree decomposition over Q."""
    if f.degree == 0:
        return ()
    f = f.monic()
    a = reference_gcd(f, f.derivative())
    b = f.exact_div(a)
    d = f.derivative().exact_div(a) - b.derivative()
    out = []
    i = 1
    while b.degree:
        a = reference_gcd(b, d) if d else b.monic()
        if a.degree:
            out.append((a, i))
        b = b.exact_div(a)
        d = d.exact_div(a) - b.derivative()
        i += 1
    return tuple(out)


ROOT_POOL = [Fraction(k, d) for k in range(-4, 5) for d in (1, 2, 3)]


def _random_rational(rng):
    """A rational multiple (either sign) of real roots from ROOT_POOL with
    multiplicities up to 3, sometimes times an irreducible quadratic."""
    f = UniPoly([Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))])
    for _ in range(rng.randint(0, 4)):
        f = f * UniPoly([-rng.choice(ROOT_POOL), 1]) ** rng.randint(1, 3)
    if rng.random() < 0.4:
        b = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        f = f * UniPoly([b * b + Fraction(1, rng.randint(1, 4)), 2 * b, 1])  # (x+b)^2 + c
    return f


def typed(p):
    return [(type(c), c) for c in p.coeffs]


def test_integer_sturm_counts_match_the_rational_chain():
    rng = random.Random(13)
    for _ in range(300):
        f = _random_rational(rng)
        assert st.is_real_rooted(f) == (reference_count(f, None, None) == reference_squarefree(f).degree)
        ends = [None] + ROOT_POOL + [Fraction(rng.randint(-50, 50), rng.randint(1, 7))]
        for _ in range(4):
            lo, hi = rng.choice(ends), rng.choice(ends)
            if lo is not None and hi is not None and not lo < hi:
                continue
            assert st.sturm_real_root_count(f, lo, hi) == reference_count(f, lo, hi), (f, lo, hi)


def test_integer_chain_members_are_positive_multiples_of_the_rational_chain():
    rng = random.Random(14)
    for _ in range(200):
        g = reference_squarefree(_random_rational(rng))
        chain, reference = st._signed_remainders(g, g.derivative()), reference_chain(g)
        assert len(chain) == len(reference)
        for member, rational in zip(chain, reference):
            assert all(type(c) is int for c in member.coeffs)
            scale = Fraction(member.leading_coefficient()) / rational.leading_coefficient()
            assert scale > 0 and member == rational * scale, (g, member, rational)


def test_gcd_squarefree_and_yun_match_the_rational_reference():
    rng = random.Random(15)
    for _ in range(300):
        f, g = _random_rational(rng), _random_rational(rng)
        if rng.random() < 0.5:
            shared = _random_rational(rng)
            f, g = f * shared, g * shared
        assert typed(poly_gcd(f, g)) == typed(reference_gcd(f, g)), (f, g)
        assert typed(squarefree_part(f)) == typed(reference_squarefree(f)), f
        yun, reference = st.yun_decomposition(f), reference_yun(f)
        assert [(typed(a), i) for a, i in yun] == [(typed(a), i) for a, i in reference], f


def test_repeated_hurwitz_calls_do_not_grow_traced_memory():
    # A tuple built from a generator leaves a block on the tuple free list of
    # its final size on every call; those lists fill over repeated calls.
    f = ONE
    for k in range(1, 17):
        f = f * UniPoly([Fraction(k, k % 5 + 2), 1])
    assert st.hurwitz_classify(f).status == "stable"
    tracemalloc.start()
    try:
        st.hurwitz_classify(f)
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(50):
            st.hurwitz_classify(f)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 16 * 1024, grown
