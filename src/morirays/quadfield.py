"""Exact arithmetic in real quadratic fields Q(sqrt(N)).

A QuadNum is (a + b*sqrt(rad))/den stored as four ints over a squarefree
rad, in the manner of Sage's NumberFieldElement_quadratic: arithmetic,
sign, comparisons and equality work on those ints and build no Fraction.
`.a` and `.b` read the rational parts as Fractions.  RadicalSum, a sum of
rational multiples of square roots of several radicands, stores int
numerators over one common denominator in the same way; its `terms` read
the coefficients as Fractions.  Both render decimals through one integer
renderer, `_decimal`.  No floating point is used anywhere.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Sequence
from itertools import chain
from math import gcd, isqrt, lcm

RationalLike = "int | Fraction"
QuadLike = "int | Fraction | QuadNum"


class MixedRadicandError(ValueError):
    """Operation would mix incompatible radicands."""


# Trial divisors of split_square stop here: every radicand below 2**60 settles
# in at most 2**19 divisions (about a tenth of a second).
TRIAL_DIVISOR_LIMIT = 1 << 20
_ODD_TRIAL_DIVISORS = range(3, TRIAL_DIVISOR_LIMIT + 1, 2)


def split_square(n: int) -> tuple[int, int]:
    """Largest square factor: n = f*f*m with m squarefree; returns (f, m).

    Trial division strips each prime p while p**3 is at most the cofactor
    left.  That cofactor then has no prime factor below p and is less than
    p**3, so it has at most two prime factors: it is a prime square or
    squarefree, and one isqrt settles which.

    Trial divisors stop at TRIAL_DIVISOR_LIMIT = 2**20, which settles every
    n below 2**60.  A larger n whose cofactor still exceeds the cube of the
    limit raises ValueError instead of running for minutes.
    """
    if n < 0:
        raise ValueError(f"negative radicand {n}")
    if n == 0:
        return 1, 0
    f, m, rest = 1, 1, n
    for p in chain((2,), _ODD_TRIAL_DIVISORS):
        if p * p * p > rest:
            break
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            f *= p ** (e // 2)
            m *= p ** (e % 2)
    else:
        if (TRIAL_DIVISOR_LIMIT + 1) ** 3 <= rest:
            raise ValueError(
                f"radicand {n} ({n.bit_length()} bits) has a cofactor too large to factor "
                f"by trial division up to {TRIAL_DIVISOR_LIMIT}"
            )
    r = isqrt(rest)
    if r * r == rest:
        return f * r, m
    return f, m * rest


def _ratio(x: object) -> tuple[int, int] | None:
    """(numerator, denominator) of an int or a Fraction, None otherwise.  No
    Fraction exists before its module is loaded, so none is imported here."""
    fractions = sys.modules.get("fractions")
    if isinstance(x, int) or fractions is not None and isinstance(x, fractions.Fraction):
        return x.numerator, x.denominator
    return None


def _fraction(*args) -> Fraction:
    """Fraction(*args), importing `fractions` on the first call, not at start-up."""
    from fractions import Fraction

    return Fraction(*args)


def _ratio_str(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0."""
    g = gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


def _sign(a: int, b: int, rad: int) -> int:
    """Sign of a + b*sqrt(rad), rad squarefree (or b == 0)."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return 1 if b > 0 else -1
    if (a > 0) == (b > 0):
        return 1 if a > 0 else -1
    # opposite signs: |a| vs |b|*sqrt(rad), squared comparison is exact
    t = a * a - b * b * rad
    assert t != 0  # a^2 = b^2*rad would make sqrt(rad) rational
    return (1 if t > 0 else -1) if a > 0 else (-1 if t > 0 else 1)


class _Frozen:
    """Base of the immutable value classes: constructors set the slots through
    object.__setattr__, and any later assignment raises."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")


class QuadNum(_Frozen):
    """Element (a + b*sqrt(rad))/den of a real quadratic field, stored as the
    four ints `_a`, `_b`, `_den` and `rad`.

    Canonical form: den > 0 and gcd(a, b, den) == 1; rad squarefree >= 2
    with b != 0, or rad == 1 with b == 0.  The public constructor takes
    rational a, b and any rad >= 0 and normalizes into this form; it is the
    only place a radicand is factored, and it passes the trivial radicands 0
    and 1 through without factoring.  Every other result comes from `_build`
    on the operands' radicand, which is already squarefree, so building only
    divides out the content.  `-` adds the negated operand and the
    comparisons take the sign of the difference, so the sum is written once.
    An operand of exact type int goes straight into `_build` in `+` and `*`;
    any other operand that is not a QuadNum, bool included, is coerced to one
    first, and only once.  `.a` and `.b` read the rational parts as Fractions.
    """

    __slots__ = ("_a", "_b", "_den", "rad")

    def __new__(cls, a: RationalLike = 0, b: RationalLike = 0, rad: int = 1) -> "QuadNum":
        pa, pb = _ratio(a), _ratio(b)
        if pa is None or pb is None:
            raise TypeError(f"expected rational, got {type(b if pa else a).__name__}")
        if not isinstance(rad, int):
            raise TypeError(f"radicand must be int, got {type(rad).__name__}")
        (an, ad), (bn, bd) = pa, pb
        f, m = (1, rad) if rad in (0, 1) else split_square(rad)
        if m <= 1 or bn == 0:
            # sqrt(rad) is rational (or irrelevant): fold it into a
            return _build(an * bd + bn * f * m * ad, 0, ad * bd, 1)
        return _build(an * bd, bn * f * ad, ad * bd, m)

    @classmethod
    def sqrt(cls, n: RationalLike) -> "QuadNum":
        """Exact square root of a non-negative rational."""
        p = _ratio(n)
        if p is None:
            raise TypeError(f"expected rational, got {type(n).__name__}")
        num, den = p
        if num < 0:
            raise ValueError(f"sqrt of negative rational {n}")
        # sqrt(p/q) = sqrt(p*q)/q
        root = cls(0, 1, num * den)
        return _build(root._a, root._b, root._den * den, root.rad)

    @property
    def a(self) -> Fraction:
        return _fraction(self._a, self._den)

    @property
    def b(self) -> Fraction:
        return _fraction(self._b, self._den)

    @property
    def ints(self) -> tuple[int, int, int]:
        """(a, b, den) of the canonical form (a + b*sqrt(rad))/den."""
        return self._a, self._b, self._den

    @property
    def is_rational(self) -> bool:
        return self._b == 0

    @property
    def is_integer(self) -> bool:
        return self._b == 0 and self._den == 1

    def to_int(self) -> int:
        if self._b or self._den != 1:
            raise ValueError(f"{self} is not an integer")
        return self._a

    def conjugate(self) -> "QuadNum":
        return _build(self._a, -self._b, self._den, self.rad)

    def norm(self) -> Fraction:
        return _fraction(self._a * self._a - self._b * self._b * self.rad, self._den * self._den)

    def _coerce(self, other: QuadLike) -> "QuadNum | None":
        if isinstance(other, QuadNum):
            return other
        p = _ratio(other)
        return None if p is None else _build(p[0], 0, p[1], 1)

    def _join_rad(self, other: "QuadNum") -> int:
        if self.rad == 1:
            return other.rad
        if other.rad in (1, self.rad):
            return self.rad
        raise MixedRadicandError(f"radicands {self.rad} and {other.rad} are incompatible")

    def __add__(self, other: QuadLike) -> "QuadNum":
        if type(other) is int:
            return _build(self._a + other * self._den, self._b, self._den, self.rad)
        o = other if isinstance(other, QuadNum) else self._coerce(other)
        if o is None:
            return NotImplemented
        n, d, e = self._join_rad(o), self._den, o._den
        if d == e:
            return _build(self._a + o._a, self._b + o._b, d, n)
        return _build(self._a * e + o._a * d, self._b * e + o._b * d, d * e, n)

    __radd__ = __add__

    def __sub__(self, other: QuadLike) -> "QuadNum":
        o = other if type(other) is int else self._coerce(other)
        return NotImplemented if o is None else self + (-o)

    def __rsub__(self, other: QuadLike) -> "QuadNum":
        return (-self) + other

    def __neg__(self) -> "QuadNum":
        return _build(-self._a, -self._b, self._den, self.rad)

    def __mul__(self, other: QuadLike) -> "QuadNum":
        if type(other) is int:
            return _build(self._a * other, self._b * other, self._den, self.rad)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = self._join_rad(o)
        a, b, x, y = self._a, self._b, o._a, o._b
        return _build(a * x + b * y * n, a * y + b * x, self._den * o._den, n)

    __rmul__ = __mul__

    def inverse(self) -> "QuadNum":
        a, b = self._a, self._b
        nrm = a * a - b * b * self.rad
        if nrm == 0:
            # norm vanishes only at zero: rad squarefree >= 2 makes sqrt(rad) irrational
            raise ZeroDivisionError("inverse of zero")
        return _build(a * self._den, -b * self._den, nrm, self.rad)

    def __truediv__(self, other: QuadLike) -> "QuadNum":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: QuadLike) -> "QuadNum":
        return self.inverse() * other

    def __pow__(self, k: int) -> "QuadNum":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = _build(1, 0, 1, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def sign(self) -> int:
        return _sign(self._a, self._b, self.rad)

    def __abs__(self) -> "QuadNum":
        return -self if _sign(self._a, self._b, self.rad) < 0 else self

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QuadNum):
            return (self._a == other._a and self._b == other._b
                    and self._den == other._den and self.rad == other.rad)
        p = _ratio(other)
        if p is None:
            return NotImplemented
        return self._b == 0 and self._a == p[0] and self._den == p[1]

    def __hash__(self) -> int:
        if self._b:
            return hash((self._a, self._b, self._den, self.rad))
        # equal to the hash of the int or Fraction of the same value
        return hash(self._a) if self._den == 1 else hash(_fraction(self._a, self._den))

    def _cmp(self, other: QuadLike) -> int:
        diff = self.__sub__(other)
        if diff is NotImplemented:
            raise TypeError(f"cannot compare QuadNum with {type(other).__name__}")
        return diff.sign()

    def __lt__(self, other: QuadLike) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: QuadLike) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: QuadLike) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: QuadLike) -> bool:
        return self._cmp(other) >= 0

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    def __str__(self) -> str:
        a, b, den = self._a, self._b, self._den
        if b == 0:
            return _ratio_str(a, den)
        root = f"√{self.rad}"
        coef = _ratio_str(abs(b), den)
        if coef == "1":
            bs = root
        elif "/" in coef:
            bs = f"({coef}){root}"
        else:
            bs = f"{coef}{root}"
        head = "" if a == 0 else _ratio_str(a, den)
        sign = "-" if b < 0 else ("+" if head else "")
        return f"{head}{sign}{bs}"

    def __repr__(self) -> str:
        return f"QuadNum({self.a!r}, {self.b!r}, {self.rad})"

    def decimal(self, digits: int = 6) -> str:
        """Decimal rendering, display only; exact digits via integer sqrt."""
        return _decimal(((1, self._a), (self.rad, self._b)), self._den, digits)

    def to_json(self) -> dict:
        a, b, den = self._a, self._b, self._den
        g, h = gcd(a, den), gcd(b, den)
        return {"a": [a // g, den // g], "b": [b // h, den // h], "rad": self.rad}

    @classmethod
    def from_json(cls, data: dict) -> "QuadNum":
        return cls(_fraction(*data["a"]), _fraction(*data["b"]), data["rad"])


_NEW = object.__new__
_SET_A, _SET_B, _SET_DEN, _SET_RAD = (
    vars(QuadNum)[name].__set__ for name in ("_a", "_b", "_den", "rad")
)


def _build(a: int, b: int, den: int, rad: int) -> QuadNum:
    """(a + b*sqrt(rad))/den for ints with den != 0 and a squarefree rad (any
    rad when b == 0): divides out the content and makes den positive."""
    g = gcd(a, b, den)
    if den < 0:
        g = -g
    if g != 1:
        a, b, den = a // g, b // g, den // g
    q = _NEW(QuadNum)
    _SET_A(q, a)
    _SET_B(q, b)
    _SET_DEN(q, den)
    _SET_RAD(q, rad if b else 1)
    return q


def _decimal(nums: Sequence[tuple[int, int]], den: int, digits: int) -> str:
    """Decimal rendering of the sum of c*sqrt(r)/den over (r, c) pairs of
    ints with squarefree r and den > 0, display only.  A term with r == 1 is
    exact; every other sqrt(r) is irrational and is bracketed by integer
    sqrt, and the bracket tightens until both ends round alike.  A rational
    sum is a single point, so it rounds once even when it sits exactly on a
    rounding half."""
    guard = digits + 6
    while True:
        scale = 10 ** guard
        lo = hi = 0
        for r, c in nums:
            if r == 1:
                lo += c * scale
                hi += c * scale
                continue
            # sqrt(r) in [root, root+1]/scale, so c*sqrt(r) lies between
            # c*root and c*root + c
            base = c * isqrt(r * scale * scale)
            lo += base + min(c, 0)
            hi += base + max(c, 0)
        out = _round_str(lo, den * scale, digits)
        if lo == hi or out == _round_str(hi, den * scale, digits):
            return out
        guard *= 2  # rounding boundary: tighten the bracket


def _round_str(n: int, d: int, digits: int) -> str:
    """n/d for d > 0, rounded half up at the last of `digits` decimals."""
    q = 10 ** digits
    t = (n * q * 2 + d) // (2 * d)
    sign = "-" if t < 0 else ""
    whole, frac = divmod(abs(t), q)
    return f"{sign}{whole}.{frac:0{digits}d}" if digits else f"{sign}{whole}"


# A piece (r, c, d) is the term c*sqrt(r)/d, with r squarefree (1 for a
# rational term) and d > 0.
Piece = tuple[int, int, int]


def _root_pieces(num: int, rad: int, den: int) -> tuple[Piece, Piece]:
    """num*sqrt(rad)/den for a nonzero int num and any rad >= 0, as a
    rational and an irrational piece; the QuadNum constructor factors rad."""
    q = QuadNum(0, num, rad)
    return (1, q._a, den), (q.rad, q._b, den)


def _pieces(x: object) -> "Iterable[Piece] | None":
    """The pieces of a RadicalSum, QuadNum, int or Fraction; None otherwise."""
    if isinstance(x, RadicalSum):
        return ((r, c, x._den) for r, c in x._nums)
    if isinstance(x, QuadNum):
        return (1, x._a, x._den), (x.rad, x._b, x._den)
    p = _ratio(x)
    return None if p is None else ((1, p[0], p[1]),)


class RadicalSum(_Frozen):
    """Finite sum q0 + q1*sqrt(N1) + q2*sqrt(N2) + ... with rational qi.

    Stored as ints: `_nums` holds the (radicand, numerator) pairs with a
    nonzero numerator in increasing radicand order, radicand 1 for the
    rational part, all over the one common denominator `_den` > 0.  The
    numerators and `_den` have no common factor, so equal sums have equal
    storage.  Supports addition and rational scaling only; the exact sign is
    decidable for at most two distinct irrational radicands.  Used for
    pairings whose value leaves a single quadratic field.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, terms: Iterable[tuple[RationalLike, int]] = ()):
        """Sum of coef*sqrt(rad) over (coef, rad) pairs; each radicand with a
        nonzero coefficient is factored by the QuadNum constructor."""
        pieces: list[Piece] = []
        for coef, rad in terms:
            p = _ratio(coef)
            if p is None:
                raise TypeError(f"expected rational, got {type(coef).__name__}")
            if p[0]:
                pieces += _root_pieces(p[0], rad, p[1])
            elif not isinstance(rad, int) or rad < 0:
                raise ValueError(f"bad radicand {rad!r}")
        out = RadicalSum._from_pieces(pieces)
        object.__setattr__(self, "_nums", out._nums)
        object.__setattr__(self, "_den", out._den)

    @classmethod
    def _from_pieces(cls, pieces: Iterable[Piece]) -> "RadicalSum":
        """Sum of c*sqrt(r)/d over (r, c, d) pieces whose radicands are
        already squarefree: like terms merge over the lcm of the
        denominators, the content is divided out, nothing is factored."""
        pieces = [p for p in pieces if p[1]]
        den = lcm(*(d for _, _, d in pieces))
        acc: dict[int, int] = {}
        for r, c, d in pieces:
            acc[r] = acc.get(r, 0) + c * (den // d)
        nums = sorted((r, c) for r, c in acc.items() if c)
        g = gcd(den, *(c for _, c in nums))
        out = object.__new__(cls)
        object.__setattr__(out, "_nums", tuple((r, c // g) for r, c in nums))
        object.__setattr__(out, "_den", den // g)
        return out

    @property
    def terms(self) -> tuple[tuple[int, Fraction], ...]:
        """The (radicand, coefficient) pairs, coefficients as Fractions."""
        return tuple((r, _fraction(c, self._den)) for r, c in self._nums)

    def __add__(self, other: "RadicalSum | QuadNum | int | Fraction") -> "RadicalSum":
        pieces = _pieces(other)
        if pieces is None:
            return NotImplemented
        return RadicalSum._from_pieces(chain(_pieces(self), pieces))

    __radd__ = __add__

    def __sub__(self, other: "RadicalSum | QuadNum | int | Fraction") -> "RadicalSum":
        pieces = _pieces(other)
        if pieces is None:
            return NotImplemented
        return RadicalSum._from_pieces(chain(_pieces(self), ((r, -c, d) for r, c, d in pieces)))

    def __mul__(self, scalar: RationalLike) -> "RadicalSum":
        p = _ratio(scalar)
        if p is None:
            return NotImplemented
        n, d = p
        return RadicalSum._from_pieces((r, c * n, self._den * d) for r, c in self._nums)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RadicalSum) and self._nums == other._nums and self._den == other._den

    def __hash__(self) -> int:
        return hash((self._nums, self._den))

    def sign(self) -> int:
        # _den > 0, so the numerators alone carry the sign
        irr = self._nums
        rat = 0
        if irr and irr[0][0] == 1:
            rat, irr = irr[0][1], irr[1:]
        if not irr:
            return (rat > 0) - (rat < 0)
        if len(irr) == 1:
            return _sign(rat, irr[0][1], irr[0][0])
        if len(irr) > 2:
            raise MixedRadicandError(f"sign undecided for {len(irr)} distinct radicands")
        (n1, c1), (n2, c2) = irr
        u = _sign(rat, c1, n1)
        # compare u = rat + c1*sqrt(n1) against -c2*sqrt(n2); the sign of
        # u^2 - c2^2*n2 settles it within Q(sqrt(n1))
        t = _sign(rat * rat + c1 * c1 * n1 - c2 * c2 * n2, 2 * rat * c1, n1)
        assert t != 0  # equality would force sqrt(n1*n2) rational
        if c2 > 0:
            return 1 if u >= 0 else -t
        return -1 if u <= 0 else t

    def __str__(self) -> str:
        if not self._nums:
            return "0"
        parts = []
        for r, c in self._nums:
            piece = _ratio_str(c, self._den) if r == 1 else str(_build(0, c, self._den, r))
            if parts and not piece.startswith("-"):
                parts.append("+" + piece)
            else:
                parts.append(piece)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"RadicalSum({[(c, r) for r, c in self.terms]!r})"

    def decimal(self, digits: int = 6) -> str:
        """Decimal rendering, display only."""
        return _decimal(self._nums, self._den, digits)

    def to_json(self) -> dict:
        out = []
        for r, c in self._nums:
            g = gcd(c, self._den)
            out.append([c // g, self._den // g, r])
        return {"terms": out}

    @classmethod
    def from_json(cls, data: dict) -> "RadicalSum":
        return cls([(_fraction(num, den), rad) for num, den, rad in data["terms"]])
