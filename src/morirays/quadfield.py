"""Exact arithmetic in real quadratic fields Q(sqrt(N)).

Numbers are a + b*sqrt(rad) with rational a, b and squarefree rad.  All
predicates (sign, comparisons, equality) are decided by integer arithmetic;
no floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import isqrt
from typing import Iterable, Sequence, Union

Rational = Fraction

RationalLike = Union[int, Fraction]
QuadLike = Union[int, Fraction, "QuadNum"]


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


def _frac(x: RationalLike) -> Fraction:
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise TypeError(f"expected rational, got {type(x).__name__}")


class QuadNum:
    """Element a + b*sqrt(rad) of a real quadratic field.

    Canonical form: rad squarefree >= 2 with b != 0, or rad == 1 with b == 0.
    The constructor normalizes any (a, b, rad) with rad >= 0 into this form;
    it is the only place a radicand is factored, and it passes the trivial
    radicands 0 and 1 through without factoring.  Arithmetic results are
    built by `_from_squarefree` on the operands' radicand, which is already
    squarefree.
    """

    __slots__ = ("a", "b", "rad")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0, rad: int = 1):
        a = _frac(a)
        b = _frac(b)
        if not isinstance(rad, int):
            raise TypeError(f"radicand must be int, got {type(rad).__name__}")
        f, m = (1, rad) if rad in (0, 1) else split_square(rad)
        if m <= 1 or b == 0:
            # sqrt(rad) is rational (or irrelevant): fold it into a
            a, b, m = a + b * f * m, Fraction(0), 1
        else:
            b *= f
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "rad", m)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QuadNum is immutable")

    @classmethod
    def sqrt(cls, n: RationalLike) -> "QuadNum":
        """Exact square root of a non-negative rational."""
        n = _frac(n)
        if n < 0:
            raise ValueError(f"sqrt of negative rational {n}")
        # sqrt(p/q) = sqrt(p*q)/q
        return cls(0, Fraction(1, n.denominator), n.numerator * n.denominator)

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def to_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValueError(f"{self} is irrational")
        return self.a

    def conjugate(self) -> "QuadNum":
        return _from_squarefree(self.a, -self.b, self.rad)

    def norm(self) -> Fraction:
        return self.a * self.a - self.b * self.b * self.rad

    def _coerce(self, other: QuadLike) -> "QuadNum | None":
        if isinstance(other, QuadNum):
            return other
        if isinstance(other, (int, Fraction)):
            return _from_squarefree(Fraction(other), _ZERO, 1)
        return None

    def _join_rad(self, other: "QuadNum") -> int:
        if self.rad == 1:
            return other.rad
        if other.rad in (1, self.rad):
            return self.rad
        raise MixedRadicandError(f"radicands {self.rad} and {other.rad} are incompatible")

    def __add__(self, other: QuadLike) -> "QuadNum":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _from_squarefree(self.a + o.a, self.b + o.b, self._join_rad(o))

    __radd__ = __add__

    def __sub__(self, other: QuadLike) -> "QuadNum":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _from_squarefree(self.a - o.a, self.b - o.b, self._join_rad(o))

    def __rsub__(self, other: QuadLike) -> "QuadNum":
        return (-self) + other

    def __neg__(self) -> "QuadNum":
        return _from_squarefree(-self.a, -self.b, self.rad)

    def __mul__(self, other: QuadLike) -> "QuadNum":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = self._join_rad(o)
        return _from_squarefree(self.a * o.a + self.b * o.b * n, self.a * o.b + self.b * o.a, n)

    __rmul__ = __mul__

    def inverse(self) -> "QuadNum":
        nrm = self.norm()
        if nrm == 0:
            # norm vanishes only at zero: rad squarefree >= 2 makes sqrt(rad) irrational
            raise ZeroDivisionError("inverse of zero")
        return _from_squarefree(self.a / nrm, -self.b / nrm, self.rad)

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
        out = _from_squarefree(Fraction(1), _ZERO, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def sign(self) -> int:
        if self.b == 0:
            return (self.a > 0) - (self.a < 0)
        if self.a == 0:
            return 1 if self.b > 0 else -1
        if self.a > 0 and self.b > 0:
            return 1
        if self.a < 0 and self.b < 0:
            return -1
        # opposite signs: |a| vs |b|*sqrt(rad), squared comparison is exact
        t = self.a * self.a - self.b * self.b * self.rad
        assert t != 0  # a^2 = b^2*rad would make sqrt(rad) rational
        if self.a > 0:
            return 1 if t > 0 else -1
        return -1 if t > 0 else 1

    def __abs__(self) -> "QuadNum":
        return -self if self.sign() < 0 else self

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other) if isinstance(other, (int, Fraction, QuadNum)) else None
        if o is None:
            return NotImplemented
        return (self.a, self.b, self.rad) == (o.a, o.b, o.rad)

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.rad))

    def _cmp(self, other: QuadLike) -> int:
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot compare QuadNum with {type(other).__name__}")
        return (self - o).sign()

    def __lt__(self, other: QuadLike) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: QuadLike) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: QuadLike) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: QuadLike) -> bool:
        return self._cmp(other) >= 0

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __str__(self) -> str:
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

    def __repr__(self) -> str:
        return f"QuadNum({self.a!r}, {self.b!r}, {self.rad})"

    def decimal(self, digits: int = 6) -> str:
        """Decimal rendering, display only; exact digits via integer sqrt."""
        return _decimal(((self.a, 1), (self.b, self.rad)), digits)

    def to_json(self) -> dict:
        return {
            "a": [self.a.numerator, self.a.denominator],
            "b": [self.b.numerator, self.b.denominator],
            "rad": self.rad,
        }

    @classmethod
    def from_json(cls, data: dict) -> "QuadNum":
        return cls(Fraction(*data["a"]), Fraction(*data["b"]), data["rad"])


_ZERO = Fraction(0)


def _from_squarefree(a: Fraction, b: Fraction, rad: int) -> QuadNum:
    """a + b*sqrt(rad) for a squarefree rad, as arithmetic produces it: only
    a vanished b needs folding into the canonical rad == 1."""
    q = object.__new__(QuadNum)
    object.__setattr__(q, "a", a)
    object.__setattr__(q, "b", b)
    object.__setattr__(q, "rad", rad if b else 1)
    return q


def _decimal(terms: Sequence[tuple[Fraction, int]], digits: int) -> str:
    """Decimal rendering of the sum of c*sqrt(r) over (c, r) pairs with
    squarefree r, display only.  A term with r == 1 is exact; every other
    sqrt(r) is irrational and is bracketed by integer sqrt, and the bracket
    tightens until both ends round alike.  A rational sum is a single point,
    so it rounds once even when it sits exactly on a rounding half."""
    guard = digits + 6
    while True:
        scale = 10 ** guard
        lo = hi = Fraction(0)
        for c, r in terms:
            if r == 1:
                lo += c
                hi += c
                continue
            root = isqrt(r * scale * scale)
            # sqrt(r) in [root, root+1]/scale
            ends = (c * Fraction(root, scale), c * Fraction(root + 1, scale))
            lo += min(ends)
            hi += max(ends)
        out = {_round_str(v, digits) for v in (lo, hi)}
        if len(out) == 1:
            return out.pop()
        guard *= 2  # rounding boundary: tighten the bracket


def _round_str(v: Fraction, digits: int) -> str:
    q = 10 ** digits
    n = v.numerator * q * 2 + v.denominator  # round half up at the last digit
    t = n // (2 * v.denominator)
    sign = "-" if t < 0 else ""
    t = abs(t)
    whole, frac = divmod(t, q)
    return f"{sign}{whole}.{frac:0{digits}d}" if digits else f"{sign}{whole}"


class RadicalSum:
    """Finite sum q0 + q1*sqrt(N1) + q2*sqrt(N2) + ... with rational qi.

    Supports addition and rational scaling only; the exact sign is decidable
    for at most two distinct irrational radicands.  Used for pairings whose
    value leaves a single quadratic field.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple[RationalLike, int]] = ()):
        """Sum of coef*sqrt(rad) over (coef, rad) pairs; each radicand with a
        nonzero coefficient is factored by the QuadNum constructor."""
        pairs: list[tuple[int, Fraction]] = []
        for coef, rad in terms:
            coef = _frac(coef)
            if coef:
                q = QuadNum(0, coef, rad)
                pairs += ((1, q.a), (q.rad, q.b))
            elif not isinstance(rad, int) or rad < 0:
                raise ValueError(f"bad radicand {rad!r}")
        object.__setattr__(self, "terms", RadicalSum._squarefree(pairs).terms)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("RadicalSum is immutable")

    @classmethod
    def _squarefree(cls, pairs: Iterable[tuple[int, Fraction]]) -> "RadicalSum":
        """Sum of c*sqrt(r) over (r, c) pairs whose radicands are already
        squarefree (1 for a rational term): like terms merge, nothing is
        factored."""
        acc: dict[int, Fraction] = {}
        for r, c in pairs:
            if c:
                acc[r] = acc.get(r, _ZERO) + c
        out = object.__new__(cls)
        object.__setattr__(out, "terms", tuple(sorted((r, c) for r, c in acc.items() if c)))
        return out

    @classmethod
    def from_quad(cls, q: QuadNum) -> "RadicalSum":
        return cls._squarefree(((1, q.a), (q.rad, q.b)))

    def __add__(self, other: "RadicalSum | QuadNum | int | Fraction") -> "RadicalSum":
        if isinstance(other, RadicalSum):
            pairs = other.terms
        elif isinstance(other, QuadNum):
            pairs = ((1, other.a), (other.rad, other.b))
        elif isinstance(other, (int, Fraction)):
            pairs = ((1, Fraction(other)),)
        else:
            return NotImplemented
        return RadicalSum._squarefree(chain(self.terms, pairs))

    __radd__ = __add__

    def __sub__(self, other: "RadicalSum | QuadNum | int | Fraction") -> "RadicalSum":
        if isinstance(other, (QuadNum, int, Fraction, RadicalSum)):
            return self + (other * -1 if isinstance(other, RadicalSum) else -other)
        return NotImplemented

    def __mul__(self, scalar: RationalLike) -> "RadicalSum":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return RadicalSum._squarefree((r, c * scalar) for r, c in self.terms)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RadicalSum) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def sign(self) -> int:
        irr = [(r, c) for r, c in self.terms if r != 1]
        rat = next((c for r, c in self.terms if r == 1), Fraction(0))
        if not irr:
            return (rat > 0) - (rat < 0)
        # the constructor left every radicand in `terms` squarefree
        if len(irr) == 1:
            return _from_squarefree(rat, irr[0][1], irr[0][0]).sign()
        if len(irr) > 2:
            raise MixedRadicandError(f"sign undecided for {len(irr)} distinct radicands")
        (n1, c1), (n2, c2) = irr
        u = _from_squarefree(rat, c1, n1)
        # compare u against -c2*sqrt(n2); squares settle it within Q(sqrt(n1))
        t = (u * u - c2 * c2 * n2).sign()
        assert t != 0  # equality would force sqrt(n1*n2) rational
        if c2 > 0:
            return 1 if u.sign() >= 0 else -t
        return -1 if u.sign() <= 0 else t

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for r, c in self.terms:
            piece = str(c) if r == 1 else str(_from_squarefree(_ZERO, c, r))
            if parts and not piece.startswith("-"):
                parts.append("+" + piece)
            else:
                parts.append(piece)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"RadicalSum({[(c, r) for r, c in self.terms]!r})"

    def decimal(self, digits: int = 6) -> str:
        """Decimal rendering, display only."""
        return _decimal([(c, r) for r, c in self.terms], digits)

    def to_json(self) -> dict:
        return {"terms": [[c.numerator, c.denominator, r] for r, c in self.terms]}

    @classmethod
    def from_json(cls, data: dict) -> "RadicalSum":
        return cls([(Fraction(num, den), rad) for num, den, rad in data["terms"]])
