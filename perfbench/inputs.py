"""Seeded benchmark inputs, built without gammalab.

Every polynomial here is a list of ``Fraction`` coefficients, constant
term first, produced by plain list arithmetic from a ``random.Random``
seeded by the caller.  Requests reach the program only as command-line
arguments in the text wire format, so a change to the program moves
neither the inputs nor the time spent making them.

Each request carries the answer that follows from how its input was
built; ``workloads`` compares the program's output against it.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

CENTER_MIN, CENTER_MAX = 4, 40
FAMILY_MAX_N = 60
STABILITY_MAX_DEGREE = 10
MN_MAX_N = 10

EXPAND_BASES = (
    "gamma",
    "alt-gamma",
    "binomial-plus",
    "binomial-minus",
    "semi-gamma",
    "alt-semi-gamma",
    "symmetric",
    "classify",
)

# Smallest valid index of each family the queries ask for.  The
# oracle-backed biv_des_exc is left out on purpose: queries must do no
# oracle work, and its S_n enumeration is capped far below n = 60.
FAMILY_MIN_N = {
    "eulerian_a": 0,
    "eulerian_b": 0,
    "narayana_a": 0,
    "narayana_b": 0,
    "narayana_d": 2,
    "peak": 1,
    "left_peak": 1,
    "l_poly": 1,
    "lhat_poly": 0,
    "a_small": 1,
    "b_small": 0,
    "alpha": 1,
    "beta": 0,
    "flag_ap": 0,
    "boros_moll": 0,
    "q_poly": 0,
    "cyclotomic": 1,
}


# -- list arithmetic ------------------------------------------------------------


def trim(a: list) -> list:
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def padd(a: list, b: list) -> list:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return trim(out)


def pmul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return trim(out)


def shift(a: list, k: int) -> list:
    """x^k * a."""
    return [Fraction(0)] * k + list(a) if a else []


def squares(a: list) -> list:
    """a(x^2)."""
    out = [Fraction(0)] * (2 * len(a) - 1) if a else []
    for i, c in enumerate(a):
        out[2 * i] = c
    return out


def basis_sum(vector: list, n: int, left: int, right: int, step: int) -> list:
    """sum_k vector[k] (left x)^k (1 + right x)^(n - step k), expanded
    by the binomial theorem over a common denominator; ``left`` and
    ``right`` are +1 or -1."""
    den = math.lcm(*(c.denominator for c in vector))
    out = [0] * (n + 1)
    for k, c in enumerate(vector):
        scaled = int(c * den) * left**k
        m = n - step * k
        for j in range(m + 1):
            out[k + j] += scaled * right**j * math.comb(m, j)
    return trim([Fraction(v, den) for v in out])


def wire(coeffs: list) -> str:
    """Text wire format: coefficients low to high, each ``a`` or ``a/b``."""
    return " ".join(str(c) for c in coeffs) if coeffs else "0"


# -- scalars --------------------------------------------------------------------


def scalar(rng: random.Random, rational: bool, lo: int = -9, hi: int = 9, nonzero: bool = False) -> Fraction:
    while True:
        num = rng.randint(lo, hi)
        value = Fraction(num, rng.randint(2, 7)) if rational else Fraction(num)
        if value or not nonzero:
            return value


def vector(rng: random.Random, length: int, rational: bool, positive: bool = False) -> list:
    """Random coefficients; entry 0 is nonzero so the construction is exact."""
    lo = 0 if positive else -9
    out = [scalar(rng, rational, lo, 9) for _ in range(length)]
    out[0] = scalar(rng, rational, 1 if positive else lo, 9, nonzero=True)
    return out


def strs(values: list) -> list[str]:
    return [str(v) for v in values]


def eta(gamma: list, n: int) -> list:
    """eta_k = sum_i C(n-2i, k-2i) 2^(k-2i) gamma_i, the documented
    squared-variable vector of a plus-sign gamma vector."""
    return [
        sum(
            (math.comb(n - 2 * i, k - 2 * i) * 2 ** (k - 2 * i) * gamma[i] for i in range(k // 2 + 1)),
            Fraction(0),
        )
        for k in range(n + 1)
    ]


# -- expand requests --------------------------------------------------------------


def expand_request(rng: random.Random, basis: str, n: int, rational: bool) -> dict:
    """An ``expand`` request at center ``n`` whose answer is fixed by its
    construction."""
    if basis in ("gamma", "alt-gamma", "classify"):
        gamma = vector(rng, n // 2 + 1, rational, positive=basis == "classify")
        f = basis_sum(gamma, n, -1 if basis == "alt-gamma" else 1, 1, 2)
        if basis == "classify":
            expect = {"symmetric": "yes", "unimodal": "yes", "gamma_positive": "yes"}
        else:
            expect = {"n": n, "coeffs": strs(gamma)}
    elif basis in ("binomial-plus", "binomial-minus"):
        coeffs = vector(rng, n + 1, rational)
        f = basis_sum(coeffs, n, 1, 1 if basis == "binomial-plus" else -1, 1)
        expect = {"n": n, "coeffs": strs(coeffs)}
    elif basis == "symmetric":
        a = vector(rng, n // 2 + 1, rational)
        b = vector(rng, (n - 1) // 2 + 1, rational)
        a_full = [a[min(i, n - i)] for i in range(n + 1)]
        b_full = [b[min(i, n - 1 - i)] for i in range(n)]
        f = padd(a_full, shift(b_full, 1))
        expect = {"n": n, "a": strs(a_full), "b": strs(b_full)}
    else:
        # f = (1+x)^nu (f1(x^2) + x f2(x^2)) with f1, f2 gamma-expanded about
        # m and m-1.  deg f = 2m + nu, so nu is the parity the program tries
        # first, and nonzero leading gamma entries force the center m.
        nu = rng.randint(0, 1)
        m = max(2, (n - nu) // 2)
        positive = basis == "alt-semi-gamma"
        g1 = vector(rng, m // 2 + 1, rational, positive)
        g2 = vector(rng, (m - 1) // 2 + 1, rational, positive)
        f1 = basis_sum(g1, m, 1, 1, 2)
        f2 = basis_sum(g2, m - 1, 1, 1, 2)
        f = pmul(basis_sum([Fraction(1)], nu, 1, 1, 1), padd(squares(f1), shift(squares(f2), 1)))
        n = 2 * m + nu
        if positive:
            expect = {"nu": nu, "n": m, "xi": strs(eta(g1, m)), "zeta": strs(eta(g2, m - 1))}
        else:
            lam = [g1[j // 2] if j % 2 == 0 else g2[j // 2] for j in range(m + 1)]
            expect = {"nu": nu, "n": m, "lambda": strs(lam), "f1": strs(f1), "f2": strs(f2)}
    argv = ["expand", "--basis", basis, "--poly", wire(f), "--center", str(n), "--json"]
    return {"kind": "expand", "argv": argv, "expect": expect}


# -- family requests ----------------------------------------------------------------


def _cyclotomic_at_one(n: int) -> int:
    if n == 1:
        return 0
    for p in range(2, n + 1):
        if n % p == 0:
            while n % p == 0:
                n //= p
            return p if n == 1 else 1
    raise AssertionError("unreachable")


def _boros_moll_at_one(m: int) -> Fraction:
    # P_m(1) from the quartic-integral closed form with sum_i C(k, i) = 2^k.
    total = sum(4**k * math.comb(2 * m - 2 * k, m - k) * math.comb(m + k, k) for k in range(m + 1))
    return Fraction(total, 4**m)


def family_value_at_one(name: str, n: int) -> Fraction | None:
    """Known count f(1) of a family member, or None where none is known."""
    fact = math.factorial
    if name in ("eulerian_a", "peak", "left_peak"):
        return Fraction(fact(n))
    if name == "eulerian_b":
        return Fraction(2**n * fact(n))
    if name == "narayana_a":
        return Fraction(math.comb(2 * n + 2, n + 1) // (n + 2))
    if name == "narayana_b":
        return Fraction(math.comb(2 * n, n))
    if name == "narayana_d":
        return Fraction(math.comb(2 * n, n) - math.comb(2 * n - 2, n - 1))
    if name == "l_poly":
        return Fraction(math.comb(2 * n - 1, n))
    if name == "lhat_poly":
        return Fraction(1 if n == 0 else 2 * math.comb(2 * n - 1, n))
    if name == "flag_ap":
        return Fraction(math.prod(range(1, 2 * n, 2)))
    if name == "boros_moll":
        return _boros_moll_at_one(n)
    if name == "q_poly":
        return 2**n * fact(n) * _boros_moll_at_one(n)
    if name == "cyclotomic":
        return Fraction(_cyclotomic_at_one(n))
    return None


def family_request(name: str, n: int) -> dict:
    value = family_value_at_one(name, n)
    expect = {"key": f"{name}:{n}", "at_one": None if value is None else str(value)}
    return {"kind": "family", "argv": ["family", name, "--n", str(n), "--json"], "expect": expect}


# -- polynomials with a known Hurwitz verdict -----------------------------------------


def _positive(rng: random.Random, rational: bool) -> Fraction:
    return scalar(rng, rational, 1, 9, nonzero=True)


def hurwitz_poly(rng: random.Random, degree: int, status: str, rational: bool) -> list:
    """A product of real and quadratic factors whose zeros fix the verdict.

    stable: every zero in the open left half plane (x + r, x^2 + b x + c
    with r, b, c > 0).  unstable: one factor x - r or x^2 - b x + c puts a
    zero in the right half plane.  weakly_stable_only: one simple pair of
    imaginary zeros x^2 + c next to stable factors.
    """
    factors = []
    left = degree
    if status == "unstable":
        if rng.random() < 0.5:
            factors.append([-_positive(rng, rational), Fraction(1)])
            left -= 1
        else:
            factors.append([_positive(rng, rational), -_positive(rng, rational), Fraction(1)])
            left -= 2
    elif status == "weakly_stable_only":
        factors.append([_positive(rng, rational), Fraction(0), Fraction(1)])
        left -= 2
    while left:
        if left >= 2 and rng.random() < 0.5:
            factors.append([_positive(rng, rational), _positive(rng, rational), Fraction(1)])
            left -= 2
        else:
            factors.append([_positive(rng, rational), Fraction(1)])
            left -= 1
    f = [_positive(rng, rational)]
    for factor in factors:
        f = pmul(f, factor)
    return f


STATUS_CYCLE = ("stable",) * 6 + ("unstable",) * 3 + ("weakly_stable_only",)


def stability_request(rng: random.Random, degree: int, status: str, rational: bool) -> dict:
    f = hurwitz_poly(rng, degree, status, rational)
    return {"kind": "stability", "argv": ["stability", "--poly", wire(f), "--json"], "expect": {"status": status}}


# -- workload inputs ------------------------------------------------------------------
#
# The mix of each workload is fixed; the seed picks the order and the
# values.  Seeds then differ in what they ask, not in how much work a
# pass holds, which keeps run-to-run spread low.

EXPAND_PER_BASIS = 138  # 1104 expand requests, ~60%
FAMILY_REQUESTS = 456  # ~25%
STABILITY_REQUESTS = 264  # ~15%


def spread(lo: int, hi: int, count: int) -> list[int]:
    """``count`` integers spread evenly over lo..hi."""
    return [lo + (hi - lo) * i // (count - 1) for i in range(count)]


def queries(seed: int) -> list[dict]:
    """The request stream of one pass, in the order it is sent."""
    rng = random.Random(seed)
    slots: list[tuple] = []
    for basis in EXPAND_BASES:
        for i, center in enumerate(spread(CENTER_MIN, CENTER_MAX, EXPAND_PER_BASIS)):
            slots.append(("expand", basis, center, i % 2 == 1))
    # Half the family requests ask a fixed set of (family, n): each family
    # with n spread up to 60.  The other half repeat an earlier request.
    names = sorted(FAMILY_MIN_N)
    fresh = FAMILY_REQUESTS // 2
    keys = []
    for i, name in enumerate(names):
        count = fresh // len(names) + (i < fresh % len(names))
        keys += [(name, n) for n in spread(FAMILY_MIN_N[name], FAMILY_MAX_N, count)]
    slots += [("family", key) for key in keys] + [("family", None)] * (FAMILY_REQUESTS - fresh)
    for i in range(STABILITY_REQUESTS):
        degree = 3 + i % (STABILITY_MAX_DEGREE - 2)
        slots.append(("stability", degree, STATUS_CYCLE[i % len(STATUS_CYCLE)], i // len(STATUS_CYCLE) % 2 == 1))
    rng.shuffle(slots)
    seen: list = []
    out = []
    for kind, *params in slots:
        if kind == "expand":
            out.append(expand_request(rng, *params))
        elif kind == "family":
            key = params[0] or rng.choice(seen or keys)
            seen.append(key)
            out.append(family_request(*key))
        else:
            out.append(stability_request(rng, *params))
    return out


# (degree, verdict, rational coefficients) of the seeded search
# polynomials, each three times: 60 polynomials a pass.
SEARCH_SCHEDULE = 3 * (
    [(degree, "stable", rational) for degree in range(10, 17) for rational in (False, True)]
    + [(degree, "unstable", degree % 4 == 0) for degree in (10, 12, 14, 16)]
    + [(11, "weakly_stable_only", False), (15, "weakly_stable_only", True)]
)


def search(seed: int) -> list[dict]:
    """The bounded sweep: both conjectures, the modified Narayana
    combination for n <= 10, then seeded polynomials of degree 10-16."""
    rng = random.Random(seed)
    items: list[dict] = [
        {"kind": "conjecture_boros_moll", "max_m": 60},
        {"kind": "conjecture_des_exc", "max_n": 8},
    ]
    items += [{"kind": "mn_combination", "n": n, "status": "stable"} for n in range(1, MN_MAX_N + 1)]
    schedule = list(SEARCH_SCHEDULE)
    rng.shuffle(schedule)
    for degree, status, rational in schedule:
        f = hurwitz_poly(rng, degree, status, rational)
        items.append({"kind": "hurwitz", "poly": wire(f), "status": status})
    return items


def registry_order(seed: int, idents: list[str]) -> list[str]:
    """The repeat-pass order of the registry checks."""
    order = sorted(idents)
    random.Random(seed).shuffle(order)
    return order
