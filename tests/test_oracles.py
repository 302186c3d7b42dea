import math
from itertools import permutations

import pytest

from gammalab import families as fam
from gammalab import oracles as o
from gammalab.polynomial import UniPoly, binom


def test_perm_stats_boundary_conventions():
    # pi(0) = pi(n+1) = infinity for pk/val/ddes/dasc, so 2 in "21" is a
    # double descent (infinity > 2 > 1) and position n is never a descent.
    s21 = o.perm_stats((2, 1))
    assert (s21.des, s21.pk, s21.ddes, s21.dasc, s21.lpk, s21.maj, s21.exc) == (
        1,
        0,
        1,
        0,
        1,
        1,
        1,
    )
    s12 = o.perm_stats((1, 2))
    assert s12.dasc == 1  # position 2, since pi(3) = infinity
    assert s12.asc == 2  # right boundary makes position n an ascent
    ident = o.perm_stats(tuple(range(1, 7)))
    assert ident.pk == 0 and ident.des == 0


def test_perm_stats_validates():
    with pytest.raises(ValueError):
        o.perm_stats((1, 3))


def _reference_stats(word):
    """The statistics straight from their definitions on a sentinel-padded
    word: pi(0) = pi(n+1) = inf, and pi(0) = 0 for left peaks."""
    n = len(word)
    inf = n + 1
    p = (inf,) + tuple(word) + (inf,)
    z = (0,) + tuple(word)
    idx = range(1, n + 1)
    return o.StatRecord(
        des=sum(p[i] > p[i + 1] for i in idx),
        asc=sum(p[i] < p[i + 1] for i in idx),
        pk=sum(p[i - 1] < p[i] > p[i + 1] for i in idx),
        val=sum(p[i - 1] > p[i] < p[i + 1] for i in idx),
        ddes=sum(p[i - 1] > p[i] > p[i + 1] for i in idx),
        dasc=sum(p[i - 1] < p[i] < p[i + 1] for i in idx),
        lpk=sum(z[i - 1] < z[i] > z[i + 1] for i in range(1, n)),
        maj=sum(i for i in range(1, n) if p[i] > p[i + 1]),
        exc=sum(p[i] > i for i in range(1, n)),
    )


def test_joint_counts_agree_with_perm_stats():
    # Both sides are checked against the definitions above, not each other.
    from collections import Counter

    for n in range(1, 7):
        reference = Counter()
        for word in permutations(range(1, n + 1)):
            stats = _reference_stats(word)
            assert o.perm_stats(word) == stats, word
            reference[stats] += 1
        assert o._joint_counts(n) == reference


def test_stat_polynomial_examples():
    assert o.stat_polynomial(3, "des") == UniPoly([1, 4, 1])
    assert o.gamma_count_vector(4) == (1, 8)
    assert o.stat_polynomial(2, "beta") == UniPoly([1, 2, 5])
    with pytest.raises(ValueError):
        o.stat_polynomial(3, "nope")
    with pytest.raises(o.BoundExceeded):
        o.stat_polynomial(50, "des")


def test_stat_polynomial_env_cap(monkeypatch):
    monkeypatch.setenv(o.ENV_BOUND_VAR, "4")
    with pytest.raises(o.BoundExceeded):
        o.stat_polynomial(5, "des")
    assert o.stat_polynomial(4, "des") == fam.eulerian_a(4)


def test_mfs_phi_examples():
    # peaks and valleys are fixed
    assert o.mfs_phi((1, 3, 2), 3) == (1, 3, 2)
    assert o.mfs_phi((1, 3, 2), 1) == (1, 3, 2)
    # double ascent hops left past the infinite boundary
    assert o.mfs_phi((1, 2), 2) == (2, 1)
    # double descent hops right
    assert o.mfs_phi((2, 1), 2) == (1, 2)


def test_mfs_involution_exhaustive():
    for n in range(1, 7):
        for word in permutations(range(1, n + 1)):
            for x in range(1, n + 1):
                assert o.mfs_phi(o.mfs_phi(word, x), x) == word


def test_mfs_orbit_of_identity():
    for n in range(1, 7):
        orbit = o.mfs_orbit(tuple(range(1, n + 1)))
        assert len(orbit) == 2 ** (n - 1)


def test_mfs_orbits_partition():
    for n in range(1, 7):
        orbits = o.mfs_orbit_partition(n)
        seen = set()
        for orbit in orbits:
            assert not (orbit & seen)
            seen |= orbit
        assert len(seen) == math.factorial(n)


def test_stirling_permutations():
    q2 = sorted(o.stirling_permutations(2))
    assert q2 == [(1, 1, 2, 2), (1, 2, 2, 1), (2, 2, 1, 1)]
    assert [o.stirling_stats(w)[2] for w in q2] == [3, 2, 1]
    assert all(o.is_stirling_word(w) for w in o.stirling_permutations(4))
    assert not o.is_stirling_word((1, 2, 1, 2))
    for n in range(1, 7):
        count = sum(1 for _ in o.stirling_permutations(n))
        double_factorial = 1
        for k in range(1, 2 * n, 2):
            double_factorial *= k
        assert count == double_factorial
    with pytest.raises(o.BoundExceeded):
        next(iter(o.stirling_permutations(9)))


def test_stirling_fap_examples():
    assert o.stirling_stats((1, 1)) == (0, 1, 1)
    assert o.stirling_fap_poly(1) == UniPoly([0, 1])
    assert o.stirling_fap_poly(2) == UniPoly([0, 1, 1, 1])


def test_motzkin_examples():
    assert o.motzkin2_ub_poly(0) == UniPoly.one()
    assert o.motzkin2_ub_poly(1) == UniPoly([1, 1])
    assert o.motzkin2_count(2) == 5
    with pytest.raises(o.BoundExceeded):
        o.motzkin2_ub_poly(20)


def test_young_examples():
    assert o.young2_weight_poly(0, "sqrt_split") == UniPoly.one()
    assert o.young2_weight_poly(2, "sqrt_split") == UniPoly([1, 4, 1])
    assert o.young2_count(3) == 20
    with pytest.raises(ValueError):
        o.young2_weight_poly(2, "nope")
    with pytest.raises(o.BoundExceeded):
        o.young2_weight_poly(13, "sqrt_split")


def test_pattern_examples():
    assert o.pattern_class_descent_poly(3, [(2, 3, 1)]) == UniPoly([1, 3, 1])
    four = [(1, 3, 4, 2), (3, 1, 4, 2), (3, 4, 1, 2), (3, 4, 2, 1)]
    assert o.pattern_class_descent_poly(3, four) == UniPoly([1, 4, 1])
    assert o.pattern_class_descent_poly(1, [(2, 1)]) == UniPoly.one()
    assert o.contains_pattern((3, 1, 2), (2, 1))
    assert not o.contains_pattern((1, 2, 3), (2, 1))
    with pytest.raises(ValueError):
        o.pattern_class_descent_poly(4, [(1, 2, 3, 4, 5)])


def test_stat_polynomial_doubled_descents():
    for n in range(1, 6):
        assert o.stat_polynomial(n, "2des") == fam.eulerian_a(n).substitute_power(2)


def test_peak_count_bound():
    for n in range(1, 8):
        for word in permutations(range(1, n + 1)):
            assert o.perm_stats(word).pk <= (n - 1) // 2


def test_pattern_avoider_count_is_catalan():
    # 231-avoiders in S_n are counted by the Catalan numbers
    for n in range(1, 7):
        total = o.pattern_class_descent_poly(n, [(2, 3, 1)]).evaluate(1)
        assert total == binom(2 * n, n) // (n + 1)
