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
    assert q.is_rational and q == F(3, 2) and hash(q) == hash(F(3, 2))
    assert QuadNum(1, 1, 2) + 1 == QuadNum(2, 1, 2)
    assert 2 * QuadNum(1, 1, 2) == QuadNum(2, 2, 2)
    assert 1 / QuadNum(3, 2, 2) == QuadNum(3, -2, 2)
    assert not QuadNum(0, 1, 2).is_rational


@pytest.mark.parametrize("q", [QuadNum(F(3, 2), F(-5, 4), 7), QuadNum(F(-2, 3)), QuadNum(0)], ids=str)
def test_bool_operands_act_as_the_ints_they_equal(q):
    # an exact int goes straight into the builder; a bool takes the coercion
    # path and must land on the same canonical value
    for t, i in ((True, 1), (False, 0)):
        for op in (lambda p, x: p + x, lambda p, x: x + p, lambda p, x: p - x, lambda p, x: x - p,
                   lambda p, x: p * x, lambda p, x: x * p, lambda p, x: p < x, lambda p, x: p >= x):
            by_bool, by_int = op(q, t), op(q, i)
            assert by_bool == by_int and type(by_bool) is type(by_int)
            if isinstance(by_int, QuadNum):
                assert (by_bool.ints, by_bool.rad) == (by_int.ints, by_int.rad)
    assert q * True == q * 1 and q + False == q + 0


def test_int_operands_skip_the_coercion(monkeypatch):
    coerced = []
    original = QuadNum._coerce

    def counting(self, other):
        coerced.append(other)
        return original(self, other)

    monkeypatch.setattr(QuadNum, "_coerce", counting)
    q = QuadNum(F(1, 2), F(3, 2), 3)  # (1 + 3*sqrt(3))/2, about 3.098
    assert (q + 2, 2 + q, q - 2, 2 - q, q * 2, 2 * q) == (
        QuadNum(F(5, 2), F(3, 2), 3), QuadNum(F(5, 2), F(3, 2), 3), QuadNum(F(-3, 2), F(3, 2), 3),
        QuadNum(F(3, 2), F(-3, 2), 3), QuadNum(1, 3, 3), QuadNum(1, 3, 3))
    assert q > 3 and q < 4 and 4 > q and not q <= 3 and not q >= 4
    half = QuadNum(F(1, 2))
    assert half < 1 and half > 0 and not half >= 1 and half + 1 == F(3, 2) and half * 4 == 2
    assert coerced == []
    assert q + F(1, 2) == q + True - F(1, 2) and coerced == [F(1, 2), True, F(1, 2)]


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
    assert is_line_pencil_up_to_permutation(x) and QuadNum(x.degree).rad == 1
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
    assert s - QuadNum(0, 3, 2) == RadicalSum()


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
    assert RadicalSum() + QuadNum(2, -1, 5) == RadicalSum([(2, 1), (-1, 5)])


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
        assert total == value * 3 + (RadicalSum() + (q - F(5, 3)))
    assert len(calls) == len(profiles)
    assert expanded.defernex_value() == ray.defernex_value()
    assert len(calls) == len(profiles) + 2


# -- the Fraction-based QuadNum as an oracle -----------------------------------


def _fraction_decimal(terms, digits):
    """The Fraction renderer the decimals had before they moved to ints, kept
    as their oracle: the sum of c*sqrt(r) over (c, r) pairs with squarefree
    r, bracketed by integer sqrt until both ends round alike."""
    guard = digits + 6
    while True:
        scale = 10 ** guard
        lo = hi = Fraction(0)
        for c, r in terms:
            if r == 1:
                lo += c
                hi += c
                continue
            root = math.isqrt(r * scale * scale)
            ends = (c * Fraction(root, scale), c * Fraction(root + 1, scale))
            lo += min(ends)
            hi += max(ends)
        out = {_fraction_round(v, digits) for v in (lo, hi)}
        if len(out) == 1:
            return out.pop()
        guard *= 2


def _fraction_round(v, digits):
    q = 10 ** digits
    t = (v.numerator * q * 2 + v.denominator) // (2 * v.denominator)  # round half up
    sign = "-" if t < 0 else ""
    whole, frac = divmod(abs(t), q)
    return f"{sign}{whole}.{frac:0{digits}d}" if digits else f"{sign}{whole}"


class _FractionQuad:
    """a + b*sqrt(rad) on two Fractions: the storage QuadNum had before it
    moved to four ints, kept as its oracle."""

    __slots__ = ("a", "b", "rad")

    def __init__(self, a=0, b=0, rad=1):
        a, b = Fraction(a), Fraction(b)
        f, m = (1, rad) if rad in (0, 1) else split_square(rad)
        if m <= 1 or b == 0:
            a, b, m = a + b * f * m, Fraction(0), 1
        else:
            b *= f
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "rad", m)

    @staticmethod
    def _make(a, b, rad):
        return _FractionQuad(a, b, rad if b else 1)  # rad is squarefree: no folding

    def _coerce(self, other):
        return other if isinstance(other, _FractionQuad) else _FractionQuad(other)

    def _join_rad(self, o):
        if self.rad == 1:
            return o.rad
        if o.rad in (1, self.rad):
            return self.rad
        raise MixedRadicandError

    def conjugate(self):
        return self._make(self.a, -self.b, self.rad)

    def norm(self):
        return self.a * self.a - self.b * self.b * self.rad

    def __add__(self, other):
        o = self._coerce(other)
        return self._make(self.a + o.a, self.b + o.b, self._join_rad(o))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return self._make(self.a - o.a, self.b - o.b, self._join_rad(o))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return self._make(-self.a, -self.b, self.rad)

    def __mul__(self, other):
        o = self._coerce(other)
        n = self._join_rad(o)
        return self._make(self.a * o.a + self.b * o.b * n, self.a * o.b + self.b * o.a, n)

    __rmul__ = __mul__

    def inverse(self):
        nrm = self.norm()
        if nrm == 0:
            raise ZeroDivisionError
        return self._make(self.a / nrm, -self.b / nrm, self.rad)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = _FractionQuad(1)
        for _ in range(k):
            out = out * self
        return out

    def sign(self):
        if self.b == 0:
            return (self.a > 0) - (self.a < 0)
        if self.a == 0 or (self.a > 0) == (self.b > 0):
            return 1 if self.b > 0 else -1
        t = self.a * self.a - self.b * self.b * self.rad
        return (1 if t > 0 else -1) if self.a > 0 else (-1 if t > 0 else 1)

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __eq__(self, other):
        o = self._coerce(other)
        return (self.a, self.b, self.rad) == (o.a, o.b, o.rad)

    def __hash__(self):
        return hash(self.a) if self.b == 0 else hash((self.a, self.b, self.rad))

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        root = f"√{self.rad}"
        if abs(self.b) == 1:
            bs = root
        elif self.b.denominator == 1:
            bs = f"{abs(self.b)}{root}"
        else:
            bs = f"({abs(self.b)}){root}"
        head = "" if self.a == 0 else str(self.a)
        sign = "-" if self.b < 0 else ("+" if head else "")
        return f"{head}{sign}{bs}"

    def __repr__(self):
        return f"QuadNum({self.a!r}, {self.b!r}, {self.rad})"

    def decimal(self, digits=6):
        return _fraction_decimal(((self.a, 1), (self.b, self.rad)), digits)

    def to_json(self):
        return {"a": [self.a.numerator, self.a.denominator],
                "b": [self.b.numerator, self.b.denominator], "rad": self.rad}


def _view(v):
    """What a result shows: every rendering of a quadratic number, or the
    value and type of anything else."""
    if isinstance(v, (QuadNum, _FractionQuad)):
        return (v.a, v.b, v.rad, str(v), repr(v), v.to_json(), bool(v), v.sign())
    return (type(v), v)


def _outcome(f, *args):
    try:
        return _view(f(*args))
    except (ArithmeticError, ValueError) as e:
        return type(e)


rationals = st.one_of(
    st.integers(-10**6, 10**6),
    st.integers(-10**30, 10**30),
    # ints in the range of the fractions above, so an int operand can fall
    # between a QuadNum's value a/den and its numerator a
    st.integers(-1000, 1000),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=60),
    st.just(0),
    st.just(Fraction(0)),
)
# radicands with square factors, trivial ones and the shared rad squarefree parts
radicands = st.one_of(st.sampled_from([0, 1, 2, 3, 5, 6, 8, 12, 18, 20, 27, 45, 50, 72]),
                      st.integers(0, 400))


@given(rationals, rationals, radicands, rationals, rationals, radicands, rationals, st.integers(-3, 3))
def test_int_storage_matches_the_fraction_oracle(a, b, r, c, e, r2, x, k):
    new, old = QuadNum(a, b, r), _FractionQuad(a, b, r)
    assert _view(new) == _view(old)
    assert type(new.a) is Fraction and type(new.b) is Fraction
    # a second operand on the same radicand, and one on an unrelated radicand
    for rad in (r, r2):
        y, yo = QuadNum(c, e, rad), _FractionQuad(c, e, rad)
        ops = [
            lambda p, q: p + q, lambda p, q: p - q, lambda p, q: p * q, lambda p, q: p / q,
            lambda p, q: p < q, lambda p, q: p <= q, lambda p, q: p > q, lambda p, q: p >= q,
            lambda p, q: p == q, lambda p, q: p != q,
        ]
        for op in ops:
            assert _outcome(op, new, y) == _outcome(op, old, yo)
    # an int or Fraction on either side
    for op in (lambda p: p + x, lambda p: x + p, lambda p: p - x, lambda p: x - p, lambda p: p * x,
               lambda p: x * p, lambda p: p / x, lambda p: x / p, lambda p: p == x, lambda p: x == p,
               lambda p: p < x, lambda p: x < p, lambda p: p >= x, lambda p: p ** k):
        assert _outcome(op, new) == _outcome(op, old)
    for op in (lambda p: -p, abs, lambda p: p.conjugate(), lambda p: p.inverse(), lambda p: p.norm()):
        assert _outcome(op, new) == _outcome(op, old)
    # rationals that share a numerator or a denominator with a
    for q in (old.a.numerator, old.a.denominator, int(old.a), old.a,
              Fraction(old.a.numerator, old.a.denominator + 1)):
        assert (new == q) is (old == q) and (q == new) is (q == old)
        # the order against an int takes its own path, for new and for its rational part
        assert (new < q, new >= q, q < new) == (old < q, old >= q, q < old)
        assert (QuadNum(old.a) < q, q < QuadNum(old.a)) == (old.a < q, q < old.a)
    assert QuadNum.from_json(new.to_json()) == new
    assert all(new.decimal(d) == old.decimal(d) for d in (0, 1, 4, 9))
    if new.is_rational:
        assert hash(new) == hash(old) == hash(old.a) and new == old.a
    else:
        assert hash(new) == hash(QuadNum(old.a, old.b, old.rad))


# -- the Fraction-coefficient RadicalSum as an oracle ---------------------------


class _FractionRadicalSum:
    """Sum of c*sqrt(r) on Fraction coefficients: the storage RadicalSum had
    before it moved to int numerators over one denominator, kept as its
    oracle."""

    def __init__(self, terms=()):
        acc = {}
        for coef, rad in terms:
            q = _FractionQuad(0, coef, rad)
            for r, c in ((1, q.a), (q.rad, q.b)):
                acc[r] = acc.get(r, 0) + c
        self.terms = tuple(sorted((r, Fraction(c)) for r, c in acc.items() if c))

    def __add__(self, other):
        return _FractionRadicalSum([(c, r) for r, c in self.terms + other.terms])

    def __mul__(self, scalar):
        return _FractionRadicalSum([(c * scalar, r) for r, c in self.terms])

    def sign(self):
        irr = [(r, c) for r, c in self.terms if r != 1]
        rat = next((c for r, c in self.terms if r == 1), Fraction(0))
        if not irr:
            return (rat > 0) - (rat < 0)
        if len(irr) == 1:
            return _FractionQuad(rat, irr[0][1], irr[0][0]).sign()
        if len(irr) > 2:
            raise MixedRadicandError
        (n1, c1), (n2, c2) = irr
        u = _FractionQuad(rat, c1, n1)
        t = (u * u - c2 * c2 * n2).sign()
        if c2 > 0:
            return 1 if u.sign() >= 0 else -t
        return -1 if u.sign() <= 0 else t

    def __str__(self):
        parts = []
        for r, c in self.terms:
            piece = str(c) if r == 1 else str(_FractionQuad(0, c, r))
            parts.append(piece if not parts or piece.startswith("-") else "+" + piece)
        return "".join(parts) or "0"

    def decimal(self, digits):
        return _fraction_decimal([(c, r) for r, c in self.terms], digits)

    def to_json(self):
        return {"terms": [[c.numerator, c.denominator, r] for r, c in self.terms]}


def _sum_view(v):
    try:
        sign = v.sign()
    except MixedRadicandError:
        sign = None
    return v.terms, str(v), v.to_json(), sign


radical_terms = st.lists(st.tuples(rationals, radicands), max_size=5)
digit_counts = st.integers(0, 15)


@given(radical_terms, radical_terms, rationals, digit_counts)
def test_int_radical_sums_match_the_fraction_oracle(xs, ys, c, digits):
    x, y, xo, yo = RadicalSum(xs), RadicalSum(ys), _FractionRadicalSum(xs), _FractionRadicalSum(ys)
    for new, old in ((x, xo), (x + y, xo + yo), (x * c, xo * c), (x - y, xo + yo * -1)):
        assert _sum_view(new) == _sum_view(old)
        assert new.decimal(digits) == old.decimal(digits)
        assert RadicalSum.from_json(new.to_json()) == new
    assert all(type(coef) is Fraction for _, coef in x.terms)


@given(rationals, rationals, radicands, digit_counts)
def test_int_quad_decimals_match_the_fraction_renderer(a, b, r, digits):
    new, old = QuadNum(a, b, r), _FractionQuad(a, b, r)
    assert new.decimal(digits) == old.decimal(digits) == _fraction_decimal(((old.a, 1), (old.b, old.rad)), digits)
    assert (str(new), new.to_json()) == (str(old), old.to_json())
    s, so = RadicalSum() + new, _FractionRadicalSum([(old.a, 1), (old.b, old.rad)])
    assert _sum_view(s) == _sum_view(so) and s.decimal(digits) == so.decimal(digits)


@given(st.integers(-10**12, 10**12), digit_counts, st.integers(0, 3))
def test_rational_sums_on_a_rounding_half_round_up(m, digits, extra):
    # (2m+1)/2 units of the last digit sits exactly on a half, however the
    # value is split into rational terms; half up rounds it to m+1 units
    half = Fraction(2 * m + 1, 2 * 10 ** digits)
    parts = [(half / 2, 1), (half / 2, 1)] if extra else [(half, 1)]
    value = RadicalSum(parts + [(extra, 4)] if extra else parts) - extra * 2
    expect = _fraction_round(half, digits)
    assert value.decimal(digits) == expect == _FractionRadicalSum([(half, 1)]).decimal(digits)
    assert QuadNum(half).decimal(digits) == expect
    units = m + 1
    assert expect == ("-" if units < 0 else "") + (
        f"{abs(units) // 10 ** digits}.{abs(units) % 10 ** digits:0{digits}d}" if digits else str(abs(units)))


def test_radical_sums_built_by_different_routes_are_equal():
    a, b = RadicalSum([(1, 2), (1, 8)]), RadicalSum([(3, 2)])
    assert a == b and hash(a) == hash(b) and a.terms == b.terms == ((2, F(3)),)
    assert RadicalSum([(F(1, 2), 1), (F(1, 2), 1)]) == RadicalSum([(1, 1)]) == RadicalSum([(1, 9), (-2, 1)])
    assert hash(RadicalSum([(2, 3), (-2, 3)])) == hash(RadicalSum())


@given(radical_terms, radical_terms)
def test_radical_sums_are_canonical_across_routes(xs, ys):
    x, y = RadicalSum(xs), RadicalSum(ys)
    for same in ((x * F(1, 3)) * 3, x + y - y, (x - y) + y, x * F(-2, 7) * F(-7, 2), x + 0, x + RadicalSum()):
        assert same == x and hash(same) == hash(x) and same.terms == x.terms
        assert same.to_json() == x.to_json() and str(same) == str(x)
