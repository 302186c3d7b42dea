from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from gammalab.polynomial import (
    BiPoly,
    DegreeTooSmall,
    NotDivisible,
    UniPoly,
    as_scalar,
    basis_sum,
    f_to_h,
    poly_gcd,
)

ONE = UniPoly.one()
X = UniPoly.x()
ONE_PLUS_X = UniPoly([1, 1])


scalars = hs.fractions(min_value=-30, max_value=30, max_denominator=7)
polys = hs.lists(scalars, max_size=7).map(UniPoly)
small_polys = hs.lists(hs.integers(-9, 9), max_size=6).map(UniPoly)


def test_canonical_form_strips_trailing_zeros():
    assert UniPoly([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
    assert UniPoly([0, 0]).is_zero()
    assert UniPoly([]).degree is None
    assert UniPoly([5]).degree == 0


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        UniPoly([0.5])
    with pytest.raises(TypeError):
        UniPoly([1]).evaluate(0.5)
    with pytest.raises(TypeError):
        as_scalar(1.5)
    with pytest.raises(TypeError):
        UniPoly([True])


def assert_canonical(values):
    """Every value is an int, or a Fraction whose denominator is not 1."""
    for c in values:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)


def test_division_paths_keep_integer_inputs_exact():
    m = UniPoly([1, 0, 1]).monic()
    assert m.coeffs == (1, 0, 1)
    assert_canonical(m.coeffs)
    m = UniPoly([2, 4]).monic()
    assert m.coeffs == (Fraction(1, 2), 1)
    assert_canonical(m.coeffs)
    q, r = divmod(UniPoly([1, 0, 1]), UniPoly([1, 2]))
    assert q == UniPoly(["-1/4", "1/2"]) and r == UniPoly(["5/4"])
    assert_canonical(q.coeffs + r.coeffs)
    q, r = divmod(UniPoly([2, 3, 1]), UniPoly([1, 1]))
    assert q.coeffs == (2, 1) and r.is_zero()
    assert_canonical(q.coeffs)


def test_integral_fractions_become_ints():
    f = UniPoly([Fraction(4, 2), Fraction(1, 3), "6/3", 0])
    assert f.coeffs == (2, Fraction(1, 3), 2)
    assert_canonical(f.coeffs)
    assert_canonical((3 * f).coeffs)
    assert type(UniPoly([1]).coefficient(5)) is int
    assert type(UniPoly.zero().leading_coefficient()) is int


def test_ring_op_examples():
    assert ONE_PLUS_X * ONE_PLUS_X == UniPoly([1, 2, 1])
    assert ONE_PLUS_X**2 + UniPoly([0, 2]) == UniPoly([1, 4, 1])
    f = UniPoly([3, 0, 7])
    assert UniPoly.zero() + f == f
    assert f - f == UniPoly.zero()
    assert -f == UniPoly([-3, 0, -7])
    assert 2 * f == UniPoly([6, 0, 14])


def test_derivative_examples():
    assert UniPoly([1, 4, 1]).derivative() == UniPoly([4, 2])
    assert UniPoly([9]).derivative().is_zero()
    # d/dx (x + 3x^2 + x^3) = (1 + 4x + x^2) + 2x(1 + x)
    lhs = UniPoly([0, 1, 3, 1]).derivative()
    rhs = UniPoly([1, 4, 1]) + 2 * X * ONE_PLUS_X
    assert lhs == rhs == UniPoly([1, 6, 3])


def test_eval_examples():
    assert UniPoly([1, 57, 302, 302, 57, 1]).evaluate(1) == 720
    assert UniPoly([1, 1, 1]).evaluate(1) == 3  # L_2 at 1
    assert 2 * UniPoly([1, 1, 1]).evaluate(1) == 6
    f = UniPoly([7, -2, 5])
    assert f.evaluate(0) == 7
    assert f.evaluate(Fraction(1, 2)) == Fraction(7) - 1 + Fraction(5, 4)


def test_exact_division_examples():
    quartic = UniPoly([1, 3, 4, 3, 1])
    assert quartic.exact_div(ONE_PLUS_X**2) == UniPoly([1, 1, 1])
    f = UniPoly([2, 5, 1])
    assert f.exact_div(ONE) == f
    with pytest.raises(NotDivisible):
        UniPoly([1, 0, 1]).exact_div(ONE_PLUS_X)


def test_gcd_examples():
    assert poly_gcd(ONE_PLUS_X**2, ONE_PLUS_X * UniPoly([1, 2])) == ONE_PLUS_X
    f = UniPoly([2, 2])
    assert poly_gcd(f, UniPoly.zero()) == ONE_PLUS_X  # made monic
    # even/odd parts of (1+x)^2 (1+x+x^2) are coprime
    assert poly_gcd(UniPoly([1, 4, 1]), UniPoly([3, 3])) == ONE


def test_reverse_examples():
    assert UniPoly([2, 3]).reverse(1) == UniPoly([3, 2])
    sym = UniPoly([1, 4, 1])
    assert sym.reverse(2) == sym
    assert ONE.reverse(3) == UniPoly.monomial(3)
    with pytest.raises(DegreeTooSmall):
        UniPoly([1, 1, 1]).reverse(1)


def test_text_format():
    f = UniPoly([Fraction(1), Fraction(-3, 4), Fraction(2)])
    assert f.to_text() == "1 -3/4 2"
    assert UniPoly.from_text("1 -3/4 2") == f
    assert UniPoly.zero().to_text() == "0"
    assert UniPoly.from_text("0").is_zero()
    assert UniPoly.from_json(f.to_json()) == f


def test_basis_sum_examples():
    assert basis_sum(ONE_PLUS_X, [(1, 0, 2), (3, 1, 0), (0, 5, 9)]) == UniPoly([1, 5, 1])
    assert basis_sum(ONE_PLUS_X, []) == UniPoly.zero()
    assert basis_sum(UniPoly([1, -1]), [(Fraction(1, 2), 2, 1)]) == UniPoly([0, 0, "1/2", "-1/2"])
    # x (1+2x)^2 - 4 x^3 = x + 4x^2
    assert basis_sum(UniPoly([1, 2]), [(1, 1, 2), (-4, 3, 0)]) == UniPoly([0, 1, 4])


def test_f_to_h_examples():
    assert f_to_h(ONE, 0) == ONE
    assert f_to_h(UniPoly([1, 1]), 1) == ONE
    assert f_to_h(UniPoly([1, 3, 2]), 2) == UniPoly([1, 1])
    with pytest.raises(DegreeTooSmall):
        f_to_h(UniPoly([1, 1, 1]), 1)


def test_bipoly_examples():
    s, t = BiPoly.s(), BiPoly.t()
    a2 = BiPoly.one() + s * t
    assert a2.substitute_s(1) == UniPoly([1, 1])
    assert (s + t) ** 2 - 2 * s * t == s**2 + t**2
    assert a2 * BiPoly.one() == a2
    assert a2.to_json() == {"t_coeffs": [["1"], ["0", "1"]]}


def test_bipoly_substitute_rejects_float():
    with pytest.raises(TypeError):
        (BiPoly.s() * BiPoly.t()).substitute_s(0.5)


def test_zero_is_falsy_and_bipoly_rejects_float_scalar():
    assert not UniPoly.zero() and not BiPoly.zero()
    assert UniPoly.one() and BiPoly.t()
    with pytest.raises(TypeError):
        BiPoly.s() * 0.5
    with pytest.raises(TypeError):
        BiPoly.t() + 0.5


# BiPoly against a reference on {(t exponent, s exponent): coefficient} dicts.
bi_terms = hs.dictionaries(hs.tuples(hs.integers(0, 3), hs.integers(0, 3)), scalars, max_size=6)


def bi_from_terms(terms):
    rows = {}
    for (i, j), c in terms.items():
        rows.setdefault(i, {})[j] = c
    return BiPoly([UniPoly.from_counts(rows.get(i, {})) for i in range(max(rows, default=-1) + 1)])


def bi_terms_of(p):
    assert not p.coeffs or not p.coeffs[-1].is_zero()
    return {(i, j): c for i, u in enumerate(p.coeffs) for j, c in enumerate(u.coeffs) if c}


def ref_bi_add(a, b):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def ref_bi_mul(a, b):
    out = {}
    for (i, j), c in a.items():
        for (k, m), d in b.items():
            out[i + k, j + m] = out.get((i + k, j + m), 0) + c * d
    return {k: c for k, c in out.items() if c}


@settings(max_examples=100, deadline=None)
@given(bi_terms, bi_terms, scalars, hs.integers(0, 3))
def test_bipoly_matches_dict_reference(a, b, c, n):
    f, g = bi_from_terms(a), bi_from_terms(b)
    ra, rb = ref_bi_add(a, {}), ref_bi_add(b, {})
    power = {(0, 0): 1}
    for _ in range(n):
        power = ref_bi_mul(power, ra)
    pairs = [
        (f, ra),
        (f + g, ref_bi_add(ra, rb)),
        (-f, {k: -v for k, v in ra.items()}),
        (f - g, ref_bi_add(ra, {k: -v for k, v in rb.items()})),
        (f * g, ref_bi_mul(ra, rb)),
        (f**n, power),
        (f * c, ref_bi_mul(ra, {(0, 0): c})),
        (c * f, ref_bi_mul(ra, {(0, 0): c})),
    ]
    for got, want in pairs:
        terms = bi_terms_of(got)
        assert terms == want
        assert_canonical(terms.values())


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


@settings(max_examples=60, deadline=None)
@given(small_polys, hs.integers(0, 4))
def test_reverse_involution(f, extra):
    n = (f.degree if not f.is_zero() else 0) + extra
    assert f.reverse(n).reverse(n) == f


@settings(max_examples=40, deadline=None)
@given(small_polys, small_polys)
def test_divmod_invariant(f, g):
    if g.is_zero():
        return
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.is_zero() or r.degree < g.degree


@settings(max_examples=60, deadline=None)
@given(small_polys)
def test_text_round_trip(f):
    assert UniPoly.from_text(f.to_text()) == f


# -- differential test against an all-Fraction reference ----------------------
#
# Plain lists of Fraction, low degree first, no trailing zeros: the reference
# that UniPoly's int-or-Fraction coefficients must agree with.


def ref(coeffs):
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def ref_add(a, b):
    n = max(len(a), len(b))
    return ref([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def ref_sub(a, b):
    return ref_add(a, [-c for c in b])


def ref_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref(out)


def ref_divmod(a, b):
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    r = list(a)
    while len(r) >= len(b):
        factor = r[-1] / b[-1]
        shift = len(r) - len(b)
        q[shift] = factor
        for i, y in enumerate(b):
            r[shift + i] -= factor * y
        r = ref(r)
    return ref(q), r


def ref_gcd(a, b):
    while b:
        a, b = b, ref_divmod(a, b)[1]
    return [c / a[-1] for c in a]


def ref_evaluate(a, v):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * v + c
    return acc


def ref_compose(a, b):
    acc = []
    for c in reversed(a):
        acc = ref_add(ref_mul(acc, b), [c])
    return acc


int_coeffs = hs.lists(hs.integers(-40, 40), max_size=6)
rat_coeffs = hs.lists(scalars, max_size=6)
mixed_coeffs = hs.lists(hs.one_of(hs.integers(-40, 40), scalars), max_size=6)
coeff_lists = hs.one_of(int_coeffs, rat_coeffs, mixed_coeffs)


@settings(max_examples=150, deadline=None)
@given(coeff_lists, coeff_lists, scalars)
def test_matches_all_fraction_reference(a, b, v):
    f, g = UniPoly(a), UniPoly(b)
    fa, fb = ref(a), ref(b)
    pairs = [
        (f, fa),
        (f + g, ref_add(fa, fb)),
        (f - g, ref_sub(fa, fb)),
        (f * g, ref_mul(fa, fb)),
        (f.compose(g), ref_compose(fa, fb)),
    ]
    if fb:
        pairs += list(zip(divmod(f, g), ref_divmod(fa, fb)))
    if fa or fb:
        pairs.append((poly_gcd(f, g), ref_gcd(fa, fb)))
    for got, want in pairs:
        assert list(got.coeffs) == want
        assert_canonical(got.coeffs)
    value = f.evaluate(v)
    assert value == ref_evaluate(fa, v)
    assert not isinstance(value, float)
