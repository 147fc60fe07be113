"""Exact quadratic arithmetic: normalization, sign decisions, radical sums."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from morirays import DivisorClass, MixedRadicandError, QuadNum, RadicalSum, families, quadfield
from morirays.lattice import is_line_pencil_up_to_permutation
from morirays.quadfield import split_square

F = Fraction

# (input a, b, rad) -> normalized (a, b, rad)
NORMALIZE = [
    ((1, 2, 8), (F(1), F(4), 2)),
    ((0, 3, 9), (F(9), F(0), 1)),
    ((5, 0, 7), (F(5), F(0), 1)),
    ((F(1, 2), F(1, 3), 12), (F(1, 2), F(2, 3), 3)),
    ((0, 0, 5), (F(0), F(0), 1)),
    ((2, -1, 18), (F(2), F(-3), 2)),
]

SIGNS = [
    ((3, -2, 2), 1),
    ((0, 0, 5), 0),
    ((-6, 1, 21), -1),
    ((1, -1, 2), -1),
    ((2, -1, 2), 1),
    ((-3, 2, 2), -1),
    ((-1, 1, 2), 1),
]


@pytest.mark.parametrize("raw,expect", NORMALIZE)
def test_normalization(raw, expect):
    q = QuadNum(*raw)
    assert (q.a, q.b, q.rad) == expect


@pytest.mark.parametrize("raw,expect", SIGNS)
def test_sign(raw, expect):
    assert QuadNum(*raw).sign() == expect


def test_split_square():
    assert split_square(1) == (1, 1)
    assert split_square(8) == (2, 2)
    assert split_square(49 * 21) == (7, 21)
    assert split_square(0) == (1, 0)
    with pytest.raises(ValueError):
        split_square(-4)


def _split_square_by_sqrt_loop(n):
    """The trial division to the square root that split_square used to run."""
    if n == 0:
        return 1, 0
    f, m, d = 1, n, 2
    while d * d <= m:
        while m % (d * d) == 0:
            f *= d
            m //= d * d
        d += 1
    return f, m


def test_split_square_matches_the_square_root_loop():
    for n in range(10**5):
        assert split_square(n) == _split_square_by_sqrt_loop(n), n


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _primes_from(start, count):
    out, p = [], start
    while len(out) < count:
        if _is_prime(p):
            out.append(p)
        p += 1
    return out


def test_split_square_at_the_cube_root_boundary():
    # Loop bounds off by one step show here: a cofactor p^3, p^2*q or p*q*r
    # with all primes close together sits right at the cube-root bound.
    rng = random.Random(20260)
    for _ in range(60):
        p, q, r = _primes_from(rng.randrange(2, 1 << rng.randint(2, 16)), 3)
        k = rng.choice([1, 2, 3, 6, 7])  # squarefree, coprime to p, q, r when they exceed 7
        cases = [
            (p * p * q, (p, q)),
            (p * q * q, (q, p)),
            (p * q, (1, p * q)),
            (p * p, (p, 1)),
            (p ** 3, (p, p)),
            (p * q * r, (1, p * q * r)),
            (p * p * q * q, (p * q, 1)),
        ]
        for n, (f, m) in cases:
            if p > 7:
                n, m = n * k, m * k
            assert split_square(n) == (f, m), n
            assert split_square(4 * n) == (2 * f, m), 4 * n


def test_split_square_against_factorint():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(31)
    for _ in range(60):
        n = rng.getrandbits(rng.randint(30, 60)) | 1 << 29
        f, m = 1, 1
        for p, e in sympy.factorint(n).items():
            f *= p ** (e // 2)
            m *= p ** (e % 2)
        assert split_square(n) == (f, m), n


def test_split_square_trial_divisor_limit():
    limit = quadfield.TRIAL_DIVISOR_LIMIT
    below = next(p for p in range(limit, 2, -1) if _is_prime(p))
    above = _primes_from(limit + 1, 1)[0]
    assert (below ** 3).bit_length() <= 60
    assert split_square(below ** 3) == (below, below)  # the last divisor tried finds it
    assert split_square(above ** 2) == (above, 1)  # cofactor below the cube of the divisor
    with pytest.raises(ValueError, match="trial division"):
        split_square(above ** 3)


def test_sqrt():
    assert QuadNum.sqrt(8) == QuadNum(0, 2, 2)
    assert QuadNum.sqrt(F(9, 4)) == QuadNum(F(3, 2))
    assert QuadNum.sqrt(F(1, 2)) == QuadNum(0, F(1, 2), 2)
    assert QuadNum.sqrt(0) == QuadNum(0)
    with pytest.raises(ValueError):
        QuadNum.sqrt(-1)


def test_inverse_frozen():
    assert QuadNum(3, 2, 2).inverse() == QuadNum(3, -2, 2)
    assert QuadNum(1, 1, 2).inverse() == QuadNum(-1, 1, 2)
    with pytest.raises(ZeroDivisionError):
        QuadNum(0).inverse()


def test_rational_interop():
    q = QuadNum(F(3, 2))
    assert q.is_rational and q.to_fraction() == F(3, 2)
    assert q == F(3, 2) and hash(q) == hash(F(3, 2))
    assert QuadNum(1, 1, 2) + 1 == QuadNum(2, 1, 2)
    assert 2 * QuadNum(1, 1, 2) == QuadNum(2, 2, 2)
    assert 1 / QuadNum(3, 2, 2) == QuadNum(3, -2, 2)
    with pytest.raises(ValueError):
        QuadNum(0, 1, 2).to_fraction()


def test_mixed_radicands_rejected():
    with pytest.raises(MixedRadicandError):
        QuadNum(0, 1, 2) + QuadNum(0, 1, 3)
    with pytest.raises(MixedRadicandError):
        QuadNum(1, 1, 5) * QuadNum(1, 1, 7)


def test_pow_and_norm():
    golden = QuadNum(1, 1, 2)
    assert golden ** 2 == QuadNum(3, 2, 2)
    assert golden ** 0 == QuadNum(1)
    assert golden ** -2 == QuadNum(3, -2, 2)
    assert golden.norm() == -1
    assert golden.conjugate() == QuadNum(1, -1, 2)


def test_arithmetic_does_not_refactor_the_radicand(monkeypatch):
    calls = []

    def counting(n):
        calls.append(n)
        return split_square(n)

    monkeypatch.setattr(quadfield, "split_square", counting)
    x = families.beta(10**4)
    y = QuadNum(F(3, 7), -5, x.rad)
    assert len(calls) == 2 and calls[0].bit_length() == 33
    results = [x + y, x - y, x * y, x / y, x ** 3, y ** -2, -x, x.conjugate(), x.inverse(), abs(y),
               x + 1, 2 - x, 3 * x, 1 / x, x / F(1, 2)]
    assert y < x and x >= y and x != y and x == x + 0
    assert len(calls) == 2
    assert all(r.rad == x.rad and r.b != 0 for r in results)

    for zero_b in (x - x, x * x.conjugate()):
        assert zero_b.b == 0 and zero_b.rad == 1
    three = QuadNum(3)
    assert three + 0 * x == three and hash(three + 0 * x) == hash(three)
    with pytest.raises(MixedRadicandError):
        x + QuadNum(0, 1, 2)


def test_trivial_radicands_are_not_factored(monkeypatch):
    calls = []

    def counting(n):
        calls.append(n)
        return split_square(n)

    monkeypatch.setattr(quadfield, "split_square", counting)
    assert QuadNum(5) == QuadNum(5, 3, 0) == QuadNum(2, 3, 1) and QuadNum(F(1, 2)).a == F(1, 2)
    x = DivisorClass(1, [1, 0, 0])
    assert is_line_pencil_up_to_permutation(x) and x.degree.rad == 1
    assert calls == []
    value = RadicalSum([(3, 2), (-1, 1), (F(1, 2), 3)])
    assert len(calls) == 2
    assert value.sign() == 1 and RadicalSum([(1, 5), (-2, 1)]).sign() == 1
    assert len(calls) == 3
    with pytest.raises(ValueError):
        QuadNum(1, 1, -1)


def test_str():
    assert str(QuadNum(3, 2, 2)) == "3+2√2"
    assert str(QuadNum(3, -1, 2)) == "3-√2"
    assert str(QuadNum(0, F(1, 2), 5)) == "(1/2)√5"
    assert str(QuadNum(F(7, 3))) == "7/3"


def test_decimal_display():
    assert QuadNum(0, 1, 2).decimal(5) == "1.41421"
    assert QuadNum(3, -2, 2).decimal(10) == "0.1715728753"
    assert QuadNum(-6, 1, 21).decimal(4) == "-1.4174"
    assert QuadNum(F(1, 3)).decimal(3) == "0.333"


def test_json_round_trip():
    for raw, _ in NORMALIZE + [((F(-5, 7), F(2, 9), 13), None)]:
        q = QuadNum(*raw)
        assert QuadNum.from_json(q.to_json()) == q


def test_radical_sum_collapse():
    # sqrt(2) + sqrt(8) folds to a single term
    s = RadicalSum([(1, 2), (1, 8)])
    assert s.terms == ((2, F(3)),)
    assert (s - QuadNum(0, 3, 2)).is_zero


def test_radical_sum_signs():
    assert RadicalSum([(-3, 1), (1, 2), (1, 3)]).sign() == 1
    assert RadicalSum([(-4, 1), (1, 2), (1, 3)]).sign() == -1
    assert RadicalSum([(1, 3), (-1, 2)]).sign() == 1
    assert RadicalSum([(1, 2), (-1, 3)]).sign() == -1
    assert RadicalSum([(5, 1), (-1, 2), (-1, 3)]).sign() == 1
    assert RadicalSum([(-2772, 1), (714, 17), (-42, 21)]).sign() == -1
    assert RadicalSum([]).sign() == 0
    with pytest.raises(MixedRadicandError):
        RadicalSum([(1, 2), (1, 3), (1, 5), (-4, 1)]).sign()


def test_radical_sum_round_trip():
    s = RadicalSum([(F(-2, 3), 1), (F(7, 5), 17), (-1, 21)])
    assert RadicalSum.from_json(s.to_json()) == s
    assert RadicalSum.from_quad(QuadNum(2, -1, 5)) == RadicalSum([(2, 1), (-1, 5)])


def test_radical_sum_decimal():
    assert RadicalSum([(1, 2), (1, 3)]).decimal(6) == "3.146264"
    assert RadicalSum([]).decimal(3) == "0.000"


def test_rational_radical_sum_on_a_negative_rounding_half_rounds_once():
    # the rational part is exact, so a value sitting on a rounding half settles
    assert RadicalSum([(Fraction(-1, 2), 1)]).decimal(0) == "0"
    assert RadicalSum([(Fraction(-5, 4), 1)]).decimal(1) == "-1.2"
    assert QuadNum(Fraction(-1, 2)).decimal(0) == "0"
    assert QuadNum(Fraction(-5, 4)).decimal(1) == "-1.2"


small_fracs = st.fractions(min_value=-50, max_value=50, max_denominator=12)
rads = st.sampled_from([2, 3, 5, 6, 7, 10, 21])


@st.composite
def quads(draw, rad=None):
    r = rad if rad is not None else draw(rads)
    return QuadNum(draw(small_fracs), draw(small_fracs), r)


@st.composite
def quad_triples(draw):
    r = draw(rads)
    return tuple(draw(quads(rad=r)) for _ in range(3))


@given(quad_triples())
def test_field_axioms(xyz):
    x, y, z = xyz
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + 0 == x and x * 1 == x
    if x:
        assert x * x.inverse() == QuadNum(1)


@given(quad_triples())
def test_arithmetic_results_are_canonical(xyz):
    x, y, _ = xyz
    results = [x + y, x - y, x * y, -x, x.conjugate(), x ** 2, x + 1, 2 * y]
    if y:
        results += [x / y, y.inverse()]
    for r in results:
        again = QuadNum(r.a, r.b, r.rad)
        assert (r.a, r.b, r.rad) == (again.a, again.b, again.rad)


@given(quad_triples())
def test_order_compatible_with_field_ops(xyz):
    x, y, z = xyz
    assert (x - y).sign() == -((y - x).sign())
    if x < y:
        assert x + z < y + z
    if x < y and z.sign() > 0:
        assert x * z < y * z


@given(quads())
def test_sign_matches_float(q):
    approx = float(q.a) + float(q.b) * math.sqrt(q.rad)
    if abs(approx) > 1e-9:  # floats cannot resolve near-cancellation; exact sign can
        assert q.sign() == (1 if approx > 0 else -1)


@given(quads())
def test_abs_and_json(q):
    assert abs(q).sign() >= 0
    assert abs(q) in (q, -q)
    assert QuadNum.from_json(q.to_json()) == q


@given(st.fractions(min_value=0, max_value=1000, max_denominator=40))
def test_sqrt_squares_back(q):
    assert QuadNum.sqrt(q) ** 2 == QuadNum(q)
    assert QuadNum.sqrt(q).sign() >= 0


def test_radical_sums_factor_only_the_degree_radicands(monkeypatch):
    calls = []

    def counting(n):
        calls.append(n)
        return split_square(n)

    profiles = [families.wonderful_profile(tag, n) for tag, n in (("even", 1000), ("sq2", 100), ("odd", 10**4))]
    ray = families.wonderful_profile("sq2", 3)
    expanded = ray.expand()
    monkeypatch.setattr(quadfield, "split_square", counting)
    for p in profiles:
        value = p.defernex_value()
        assert calls[-1] == p.s - 1 and value.sign() in (-1, 1)
        str(value), value.to_json(), value.decimal(5)
        q = p.blocks[-1][0]
        assert q.rad != 1
        total = (value + value - value) * 3 + q + F(1, 3) - 2
        assert total == value * 3 + RadicalSum.from_quad(q - F(5, 3))
    assert len(calls) == len(profiles)
    assert expanded.defernex_value() == ray.defernex_value()
    assert len(calls) == len(profiles) + 2
