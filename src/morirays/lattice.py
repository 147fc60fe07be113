"""Divisor classes on blowups of the plane at s points.

A class d*H - m_1*E_1 - ... - m_s*E_s is stored as (degree d, multiplicities
m_i).  Each coordinate is a plain int when it is an integer and a QuadNum
otherwise, so integral classes run on ints end to end; the pairings still
return a QuadNum.  The intersection form is diag(1, -1, ..., -1)
in the basis (H, E_1, ..., E_s).  Point indices are 1-based throughout, matching
the E_1..E_s labels.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from .quadfield import QuadNum, RadicalSum, _build, _root_pieces

Coord = "int | QuadNum"


class ShapeError(ValueError):
    """Multiplicity layout does not admit the requested operation."""


def _coord(x) -> Coord:
    """The stored form of a coordinate: an int for an integer value, a
    QuadNum for any other."""
    if type(x) is int:
        return x
    if isinstance(x, QuadNum):
        return x.to_int() if x.is_integer else x
    if isinstance(x, (int, Fraction)):
        n, d = x.numerator, x.denominator  # ints, for a bool too
        return n if d == 1 else _build(n, 0, d, 1)
    raise TypeError(f"expected coordinate, got {type(x).__name__}")


def _quad(x: Coord) -> QuadNum:
    """A coordinate or an int pairing as a QuadNum."""
    return _build(x, 0, 1, 1) if type(x) is int else x


def _is_rational(x: Coord) -> bool:
    return type(x) is int or x.is_rational


def _ints(x: Coord) -> tuple[int, int, int]:
    """(a, b, den) of a coordinate (a + b*sqrt(rad))/den."""
    return (x, 0, 1) if type(x) is int else x.ints


def _div(x: Coord, r: int) -> Coord:
    """x / r exactly: an int when r divides an int x, else a QuadNum."""
    if type(x) is not int:
        return x / r
    q, rem = divmod(x, r)
    return _build(x, 0, r, 1) if rem else q


_BARE = re.compile(r"\d+$")  # bare nonnegative integer rendering needs no parens


def _block_str(value: Coord, count: int) -> str:
    vs = str(value)
    if count == 1:
        return vs
    if not _BARE.match(vs):
        vs = f"({vs})"
    return f"{vs}^{count}"


def _coord_json(q: Coord):
    if type(q) is int:
        return q
    a, b, den = q.ints
    return q.to_json() if b else [a, den]


def _coord_from_json(data) -> Coord:
    if isinstance(data, int):
        return data
    if isinstance(data, list):
        return QuadNum(Fraction(data[0], data[1]))
    return QuadNum.from_json(data)


def _defernex_value(degree: Coord, s: int, pieces: list) -> RadicalSum:
    """degree*sqrt(s-1) plus the multiplicity side, given as RadicalSum
    pieces (rad, num, den) on squarefree radicands: only s-1 and
    degree.rad*(s-1) are factored."""
    a, b, den = _ints(degree)
    for num, rad in ((a, s - 1), (b, b and degree.rad * (s - 1))):
        if num:
            pieces += _root_pieces(num, rad, den)
    return RadicalSum._from_pieces(pieces)


class DivisorClass:
    """Exact divisor class (degree; m_1, ..., m_s)."""

    __slots__ = ("degree", "mults")

    def __init__(self, degree, mults: Iterable):
        object.__setattr__(self, "degree", _coord(degree))
        object.__setattr__(self, "mults", tuple(map(_coord, mults)))

    def __setattr__(self, name, value):
        raise AttributeError("DivisorClass is immutable")

    @property
    def s(self) -> int:
        return len(self.mults)

    def coordinates(self) -> tuple[Coord, ...]:
        return (self.degree,) + self.mults

    @property
    def is_rational(self) -> bool:
        return all(map(_is_rational, self.coordinates()))

    @property
    def is_integral(self) -> bool:
        return all(type(c) is int for c in self.coordinates())

    # -- intersection theory ------------------------------------------------

    def intersect(self, other: "DivisorClass") -> QuadNum:
        if self.s != other.s:
            raise ValueError(f"point counts differ: {self.s} vs {other.s}")
        return _quad(self.degree * other.degree - sum(map(mul, self.mults, other.mults)))

    def self_intersection(self) -> QuadNum:
        return self.intersect(self)

    def canonical_pairing(self) -> QuadNum:
        """Pairing with K_s = -3H + sum E_i, i.e. sum(m_i) - 3d."""
        return _quad(sum(self.mults) - 3 * self.degree)

    def defernex_value(self) -> RadicalSum:
        """Pairing with F_s = sqrt(s-1)H - sum E_i, as an exact radical sum."""
        pieces = []
        for m in self.mults:
            a, b, den = _ints(m)
            pieces += ((1, -a, den), (b and m.rad, -b, den))
        return _defernex_value(self.degree, self.s, pieces)

    def defernex_sign(self) -> int:
        return self.defernex_value().sign()

    # -- vector space structure ----------------------------------------------

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if not isinstance(other, DivisorClass):
            return NotImplemented
        if self.s != other.s:
            raise ValueError(f"point counts differ: {self.s} vs {other.s}")
        return DivisorClass(
            self.degree + other.degree, [m + m2 for m, m2 in zip(self.mults, other.mults)]
        )

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        if not isinstance(other, DivisorClass):
            return NotImplemented
        return self + (-1) * other

    def __mul__(self, scalar) -> "DivisorClass":
        c = _coord(scalar)
        return DivisorClass(self.degree * c, [m * c for m in self.mults])

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DivisorClass):
            return NotImplemented
        return self.degree == other.degree and self.mults == other.mults

    def __hash__(self) -> int:
        return hash((self.degree, self.mults))

    # -- collision calculus ---------------------------------------------------

    def uncollide(self, point: int, r: int) -> "DivisorClass":
        """Replace point (1-based) of multiplicity m by r^2 points of m/r.

        Preserves degree and self-intersection; the canonical pairing grows by
        (r^2 - r) * (m/r).
        """
        if not 1 <= point <= self.s:
            raise IndexError(f"point {point} out of range 1..{self.s}")
        if r < 1:
            raise ValueError(f"uncollision order r={r} must be >= 1")
        m = _div(self.mults[point - 1], r)
        return DivisorClass(
            self.degree,
            self.mults[: point - 1] + (m,) * (r * r) + self.mults[point:],
        )

    def collide(self, point: int, r: int) -> "DivisorClass":
        """Inverse of uncollide: r^2 equal points starting at point become one."""
        if r < 1:
            raise ValueError(f"collision order r={r} must be >= 1")
        if not 1 <= point <= self.s - r * r + 1:
            raise IndexError(f"points {point}..{point + r * r - 1} out of range 1..{self.s}")
        window = self.mults[point - 1 : point - 1 + r * r]
        if any(m != window[0] for m in window[1:]):
            raise ShapeError(f"multiplicities {window} are not all equal")
        return DivisorClass(
            self.degree,
            self.mults[: point - 1] + (window[0] * r,) + self.mults[point - 1 + r * r :],
        )

    def permuted(self, order: Sequence[int]) -> "DivisorClass":
        """Reorder points; order lists 1-based source indices."""
        if sorted(order) != list(range(1, self.s + 1)):
            raise ValueError(f"not a permutation of 1..{self.s}: {order}")
        return DivisorClass(self.degree, [self.mults[i - 1] for i in order])

    # -- presentation -----------------------------------------------------------

    def pretty(self) -> str:
        return self.to_profile().pretty()

    def to_profile(self) -> "MultiplicityProfile":
        return MultiplicityProfile.group(self)

    def __str__(self) -> str:
        return self.pretty()

    def __repr__(self) -> str:
        return f"DivisorClass({self.degree!r}, {list(self.mults)!r})"

    def to_json(self) -> dict:
        """One JSON object per run of the same coordinate object, so an
        expanded profile shares one object per block."""
        mults = []
        prev = data = None
        for m in self.mults:
            if m is not prev:
                prev, data = m, _coord_json(m)
            mults.append(data)
        return {"degree": _coord_json(self.degree), "mults": mults}

    @classmethod
    def from_json(cls, data: dict) -> "DivisorClass":
        return cls(_coord_from_json(data["degree"]), [_coord_from_json(m) for m in data["mults"]])


class MultiplicityProfile:
    """Divisor class with run-length encoded multiplicities: L_d(v1^c1, v2^c2, ...)."""

    __slots__ = ("degree", "blocks")

    def __init__(self, degree, blocks: Iterable[tuple]):
        blocks = tuple((_coord(v), int(c)) for v, c in blocks)
        if any(c < 1 for _, c in blocks):
            raise ValueError(f"block counts must be positive: {blocks}")
        object.__setattr__(self, "degree", _coord(degree))
        object.__setattr__(self, "blocks", blocks)

    def __setattr__(self, name, value):
        raise AttributeError("MultiplicityProfile is immutable")

    @property
    def s(self) -> int:
        return sum(c for _, c in self.blocks)

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(c for _, c in self.blocks)

    @property
    def values(self) -> tuple[Coord, ...]:
        return tuple(v for v, _ in self.blocks)

    def expand(self) -> DivisorClass:
        """The class on every point; the stored coordinates pass through
        without being normalized again."""
        mults: list[Coord] = []
        for v, c in self.blocks:
            mults += [v] * c
        x = object.__new__(DivisorClass)
        object.__setattr__(x, "degree", self.degree)
        object.__setattr__(x, "mults", tuple(mults))
        return x

    @classmethod
    def compress(cls, divisor: DivisorClass, counts: Sequence[int]) -> "MultiplicityProfile":
        """Group multiplicities into the given consecutive blocks; exact check."""
        if sum(counts) != divisor.s:
            raise ShapeError(f"counts {tuple(counts)} sum to {sum(counts)}, class has s={divisor.s}")
        blocks = []
        pos = 0
        for c in counts:
            window = divisor.mults[pos : pos + c]
            if any(m != window[0] for m in window[1:]):
                raise ShapeError(f"block of size {c} at point {pos + 1} is not constant: {window}")
            blocks.append((window[0], c))
            pos += c
        return cls(divisor.degree, blocks)

    @classmethod
    def group(cls, divisor: DivisorClass) -> "MultiplicityProfile":
        """Run-length encode consecutive equal multiplicities."""
        return cls(divisor.degree, [(m, 1) for m in divisor.mults]).canonical()

    def canonical(self) -> "MultiplicityProfile":
        """Merge adjacent equal-valued blocks: the one run-length encoding of
        the expanded class."""
        blocks: list[tuple[Coord, int]] = []
        for v, c in self.blocks:
            if blocks and blocks[-1][0] == v:
                blocks[-1] = (v, blocks[-1][1] + c)
            else:
                blocks.append((v, c))
        return MultiplicityProfile(self.degree, blocks)

    def _locate(self, point: int) -> tuple[int, int]:
        if point < 1:
            raise IndexError(f"point {point} out of range 1..{self.s}")
        pos = 1
        for i, (_, c) in enumerate(self.blocks):
            if point < pos + c:
                return i, point - pos
            pos += c
        raise IndexError(f"point {point} out of range 1..{self.s}")

    def uncollide(self, point: int, r: int) -> "MultiplicityProfile":
        if r < 1:
            raise ValueError(f"uncollision order r={r} must be >= 1")
        i, off = self._locate(point)
        v, c = self.blocks[i]
        mid: list[tuple[Coord, int]] = []
        if off:
            mid.append((v, off))
        mid.append((_div(v, r), r * r))
        if off + 1 < c:
            mid.append((v, c - off - 1))
        return MultiplicityProfile(self.degree, self.blocks[:i] + tuple(mid) + self.blocks[i + 1 :])

    def collide(self, point: int, r: int) -> "MultiplicityProfile":
        if r < 1:
            raise ValueError(f"collision order r={r} must be >= 1")
        need = r * r
        if not 1 <= point <= self.s - need + 1:
            raise IndexError(f"points {point}..{point + need - 1} out of range 1..{self.s}")
        i, off = self._locate(point)
        out = list(self.blocks[:i])
        if off:
            out.append((self.blocks[i][0], off))
        value = self.blocks[i][0]
        remaining = need
        j = i
        take = self.blocks[i][1] - off
        while True:
            v, _ = self.blocks[j]
            if v != value:
                raise ShapeError(f"multiplicities {value} and {v} differ inside collision window")
            if take >= remaining:
                out.append((value * r, 1))
                if take > remaining:
                    out.append((value, take - remaining))
                out.extend(self.blocks[j + 1 :])
                return MultiplicityProfile(self.degree, out)
            remaining -= take
            j += 1
            take = self.blocks[j][1]

    def scale(self, scalar) -> "MultiplicityProfile":
        c = _coord(scalar)
        return MultiplicityProfile(self.degree * c, [(v * c, k) for v, k in self.blocks])

    __mul__ = scale
    __rmul__ = scale

    # block-wise pairings avoid expanding wide profiles
    def intersect(self, other: "MultiplicityProfile") -> QuadNum:
        if self.s != other.s or self.counts != other.counts:
            return self.expand().intersect(other.expand())
        rest = sum(c * (v * w) for (v, c), (w, _) in zip(self.blocks, other.blocks))
        return _quad(self.degree * other.degree - rest)

    def self_intersection(self) -> QuadNum:
        return _quad(self.degree * self.degree - sum(c * (v * v) for v, c in self.blocks))

    def canonical_pairing(self) -> QuadNum:
        return _quad(sum(c * v for v, c in self.blocks) - 3 * self.degree)

    def defernex_value(self) -> RadicalSum:
        pieces = []
        for v, c in self.blocks:
            a, b, den = _ints(v)
            pieces += ((1, -c * a, den), (b and v.rad, -c * b, den))
        return _defernex_value(self.degree, self.s, pieces)

    def defernex_sign(self) -> int:
        return self.defernex_value().sign()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiplicityProfile):
            return NotImplemented
        return self.degree == other.degree and self.blocks == other.blocks

    def __hash__(self) -> int:
        return hash((self.degree, self.blocks))

    def pretty(self) -> str:
        inner = ", ".join(_block_str(v, c) for v, c in self.blocks)
        deg = str(self.degree)
        if not _BARE.match(deg):
            deg = f"({deg})"
        return f"L_{deg}({inner})"

    def __str__(self) -> str:
        return self.pretty()

    def __repr__(self) -> str:
        return f"MultiplicityProfile({self.degree!r}, {list(self.blocks)!r})"

    def to_json(self) -> dict:
        return {
            "degree": _coord_json(self.degree),
            "blocks": [[_coord_json(v), c] for v, c in self.blocks],
        }

    @classmethod
    def from_json(cls, data: dict) -> "MultiplicityProfile":
        return cls(
            _coord_from_json(data["degree"]),
            [(_coord_from_json(v), c) for v, c in data["blocks"]],
        )


# -- named classes ------------------------------------------------------------


def line_class(s: int) -> DivisorClass:
    return DivisorClass(1, [0] * s)


def line_pencil_class(s: int) -> DivisorClass:
    """Pencil of lines through the first point: L_1(1, 0^(s-1))."""
    if s < 1:
        raise ValueError("need at least one point")
    return DivisorClass(1, [1] + [0] * (s - 1))


def exceptional_class(i: int, s: int) -> DivisorClass:
    if not 1 <= i <= s:
        raise IndexError(f"point {i} out of range 1..{s}")
    return DivisorClass(0, [0] * (i - 1) + [-1] + [0] * (s - i))


def canonical_class(s: int) -> DivisorClass:
    """K_s = -3H + E_1 + ... + E_s, i.e. degree -3 with all m_i = -1."""
    return DivisorClass(-3, [-1] * s)


def defernex_class(s: int) -> DivisorClass:
    """F_s = sqrt(s-1)H - E_1 - ... - E_s."""
    if s < 1:
        raise ValueError("need at least one point")
    return DivisorClass(QuadNum.sqrt(s - 1), [1] * s)


def nagata_class(s: int) -> DivisorClass:
    """sqrt(s)H - E_1 - ... - E_s."""
    if s < 1:
        raise ValueError("need at least one point")
    return DivisorClass(QuadNum.sqrt(s), [1] * s)


def is_line_pencil_up_to_permutation(x: DivisorClass) -> bool:
    """True when x = L_1(1, 0^(s-1)) after some reordering of the points."""
    if x.degree != 1:
        return False
    ones = sum(1 for m in x.mults if m == 1)
    zeros = sum(1 for m in x.mults if m == 0)
    return ones == 1 and zeros == x.s - 1
