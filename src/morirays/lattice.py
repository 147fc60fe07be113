"""Divisor classes on blowups of the plane at s points.

A class d*H - m_1*E_1 - ... - m_s*E_s is stored as (degree d, multiplicities
m_i).  Each coordinate is a plain int when it is an integer and a QuadNum
otherwise, so integral classes run on ints end to end; the pairings still
return a QuadNum.  The intersection form is diag(1, -1, ..., -1)
in the basis (H, E_1, ..., E_s).  Point indices are 1-based throughout, matching
the E_1..E_s labels.

Pairings and collisions are written once, on MultiplicityProfile's blocks;
DivisorClass, the point-by-point view, runs them on one-point blocks.
"""

from __future__ import annotations

from collections.abc import Iterable
from operator import mul

from .quadfield import QuadNum, RadicalSum, _build, _fraction, _Frozen, _ratio, _root_pieces

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
    p = _ratio(x)  # ints, for a bool too
    if p is not None:
        return p[0] if p[1] == 1 else _build(p[0], 0, p[1], 1)
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


def _block_str(value: Coord, count: int) -> str:
    vs = str(value)
    if count == 1:
        return vs
    if not vs.isdecimal():  # a bare nonnegative integer needs no parens
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
        return QuadNum(_fraction(data[0], data[1]))
    return QuadNum.from_json(data)


def _stored(cls: type, degree: Coord, rest: tuple):
    """A DivisorClass or MultiplicityProfile whose `rest` (mults, or blocks
    with positive counts) is already in stored form: nothing is normalized."""
    x = object.__new__(cls)
    object.__setattr__(x, "degree", degree)
    object.__setattr__(x, cls.__slots__[1], rest)
    return x


class DivisorClass(_Frozen):
    """Exact divisor class (degree; m_1, ..., m_s)."""

    __slots__ = ("degree", "mults")

    def __init__(self, degree, mults: Iterable):
        object.__setattr__(self, "degree", _coord(degree))
        object.__setattr__(self, "mults", tuple(map(_coord, mults)))

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

    def _profile(self) -> "MultiplicityProfile":
        """This class as one-point blocks."""
        return _stored(MultiplicityProfile, self.degree, tuple((m, 1) for m in self.mults))

    # -- intersection theory: the block formulas of MultiplicityProfile -------

    def intersect(self, other: "DivisorClass") -> QuadNum:
        return self._profile().intersect(other._profile())

    def self_intersection(self) -> QuadNum:
        return self._profile().self_intersection()

    def canonical_pairing(self) -> QuadNum:
        """Pairing with K_s = -3H + sum E_i, i.e. sum(m_i) - 3d."""
        return self._profile().canonical_pairing()

    def defernex_value(self) -> RadicalSum:
        """Pairing with F_s = sqrt(s-1)H - sum E_i, as an exact radical sum."""
        return self._profile().defernex_value()

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
        return self._profile().uncollide(point, r).expand()

    def collide(self, point: int, r: int) -> "DivisorClass":
        """Inverse of uncollide: r^2 equal points starting at point become one."""
        return self._profile().collide(point, r).expand()

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


class MultiplicityProfile(_Frozen):
    """Divisor class with run-length encoded multiplicities: L_d(v1^c1, v2^c2, ...)."""

    __slots__ = ("degree", "blocks")

    def __init__(self, degree, blocks: Iterable[tuple]):
        blocks = tuple((_coord(v), int(c)) for v, c in blocks)
        if any(c < 1 for _, c in blocks):
            raise ValueError(f"block counts must be positive: {blocks}")
        object.__setattr__(self, "degree", _coord(degree))
        object.__setattr__(self, "blocks", blocks)

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
        """The class on every point."""
        mults: list[Coord] = []
        for v, c in self.blocks:
            mults += [v] * c
        return _stored(DivisorClass, self.degree, tuple(mults))

    @classmethod
    def group(cls, divisor: DivisorClass) -> "MultiplicityProfile":
        """Run-length encode consecutive equal multiplicities."""
        return divisor._profile().canonical()

    def canonical(self) -> "MultiplicityProfile":
        """Merge adjacent equal-valued blocks: the one run-length encoding of
        the expanded class."""
        blocks: list[tuple[Coord, int]] = []
        for v, c in self.blocks:
            if blocks and blocks[-1][0] == v:
                blocks[-1] = (v, blocks[-1][1] + c)
            else:
                blocks.append((v, c))
        return _stored(MultiplicityProfile, self.degree, tuple(blocks))

    def _locate(self, point: int) -> tuple[int, int]:
        pos = 1
        for i, (_, c) in enumerate(self.blocks):
            if 1 <= point < pos + c:
                return i, point - pos
            pos += c
        raise IndexError(f"point {point} out of range 1..{self.s}")

    def _splice(self, i: int, off: int, block: tuple, j: int, last: int) -> "MultiplicityProfile":
        """Replace the points from offset `off` of block i to offset `last` of
        block j by one block, whose value is in stored form."""
        (v, _), (w, c) = self.blocks[i], self.blocks[j]
        head = [(v, off)] if off else []
        tail = [(w, c - last - 1)] if last + 1 < c else []
        return _stored(MultiplicityProfile, self.degree, (*self.blocks[:i], *head, block, *tail, *self.blocks[j + 1 :]))

    def uncollide(self, point: int, r: int) -> "MultiplicityProfile":
        if r < 1:
            raise ValueError(f"uncollision order r={r} must be >= 1")
        i, off = self._locate(point)
        return self._splice(i, off, (_div(self.blocks[i][0], r), r * r), i, off)

    def collide(self, point: int, r: int) -> "MultiplicityProfile":
        if r < 1:
            raise ValueError(f"collision order r={r} must be >= 1")
        need = r * r
        if not 1 <= point <= self.s - need + 1:
            raise IndexError(f"points {point}..{point + need - 1} out of range 1..{self.s}")
        i, off = self._locate(point)
        j, last = self._locate(point + need - 1)
        value = self.blocks[i][0]
        for v, _ in self.blocks[i + 1 : j + 1]:
            if v != value:
                raise ShapeError(f"multiplicities {value} and {v} differ inside collision window")
        return self._splice(i, off, (_coord(value * r), 1), j, last)

    def scale(self, scalar) -> "MultiplicityProfile":
        c = _coord(scalar)
        return MultiplicityProfile(self.degree * c, [(v * c, k) for v, k in self.blocks])

    __mul__ = scale
    __rmul__ = scale

    # block-wise pairings avoid expanding wide profiles
    def intersect(self, other: "MultiplicityProfile") -> QuadNum:
        if self.counts == other.counts:
            rest = sum(c * (v * w) for (v, c), (w, _) in zip(self.blocks, other.blocks))
        elif self.s != other.s:
            raise ValueError(f"point counts differ: {self.s} vs {other.s}")
        else:  # two layouts of the same points: pair point by point
            rest = sum(map(mul, self.expand().mults, other.expand().mults))
        return _quad(self.degree * other.degree - rest)

    def self_intersection(self) -> QuadNum:
        return _quad(self.degree * self.degree - sum(c * (v * v) for v, c in self.blocks))

    def canonical_pairing(self) -> QuadNum:
        return _quad(sum(c * v for v, c in self.blocks) - 3 * self.degree)

    def defernex_value(self) -> RadicalSum:
        """degree*sqrt(s-1) minus the multiplicities, from RadicalSum pieces
        (rad, num, den) on squarefree radicands: only s-1 and
        degree.rad*(s-1) are factored."""
        pieces = []
        for v, c in self.blocks:
            a, b, den = _ints(v)
            pieces += ((1, -c * a, den), (b and v.rad, -c * b, den))
        s = self.s
        a, b, den = _ints(self.degree)
        for num, rad in ((a, s - 1), (b, b and self.degree.rad * (s - 1))):
            if num:
                pieces += _root_pieces(num, rad, den)
        return RadicalSum._from_pieces(pieces)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiplicityProfile):
            return NotImplemented
        return self.degree == other.degree and self.blocks == other.blocks

    def __hash__(self) -> int:
        return hash((self.degree, self.blocks))

    def pretty(self) -> str:
        inner = ", ".join(_block_str(v, c) for v, c in self.blocks)
        deg = str(self.degree)
        if not deg.isdecimal():
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
