"""Divisor classes on blowups: intersection form, named classes, collision calculus."""

from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from morirays import (
    DivisorClass,
    MultiplicityProfile,
    QuadNum,
    RadicalSum,
    ShapeError,
    canonical_class,
    defernex_class,
    exceptional_class,
    is_line_pencil_up_to_permutation,
    line_class,
    line_pencil_class,
    nagata_class,
)


def test_basis_form():
    # signature (1, -1, ..., -1): H^2 = 1, E_i^2 = -1, mixed products 0
    s = 6
    h = line_class(s)
    assert h.self_intersection() == 1
    for i in range(1, s + 1):
        e = exceptional_class(i, s)
        assert e.self_intersection() == -1
        assert h.intersect(e) == 0
        for j in range(i + 1, s + 1):
            assert e.intersect(exceptional_class(j, s)) == 0


def test_coordinates_vector():
    # the (d, m_1, ..., m_s) vector the characteristic matrices act on
    x = DivisorClass(4, [2, 1, 1])
    assert x.coordinates() == (QuadNum(4), QuadNum(2), QuadNum(1), QuadNum(1))


@pytest.mark.parametrize("s", range(3, 16))
def test_canonical_class(s):
    k = canonical_class(s)
    assert k.self_intersection() == 9 - s
    assert k.canonical_pairing() == k.self_intersection()
    assert k.intersect(line_class(s)) == -3


@pytest.mark.parametrize("s", range(3, 16))
def test_defernex_class(s):
    f = defernex_class(s)
    assert f.self_intersection() == -1
    assert f.degree == QuadNum.sqrt(s - 1)
    # K.F = s - 3*sqrt(s-1) changes sign between s=7 and s=8
    assert f.canonical_pairing().sign() == (-1 if s <= 7 else 1)


@pytest.mark.parametrize("s,expect", [(7, -1), (9, 0), (10, 1), (11, 1), (14, 1)])
def test_nagata_class(s, expect):
    w = nagata_class(s)
    assert w.self_intersection() == 0
    assert w.canonical_pairing().sign() == expect  # s - 3*sqrt(s), zero exactly at s=9
    assert w.defernex_sign() == -1


def test_line_pencil():
    p = line_pencil_class(5)
    assert p.self_intersection() == 0
    assert p.canonical_pairing() == -2
    assert is_line_pencil_up_to_permutation(p)
    assert is_line_pencil_up_to_permutation(p.permuted([3, 1, 2, 5, 4]))
    assert not is_line_pencil_up_to_permutation(line_class(5))
    assert not is_line_pencil_up_to_permutation(DivisorClass(1, [1, 1, 0]))
    assert not is_line_pencil_up_to_permutation(DivisorClass(2, [1, 0, 0]))


def test_vector_ops():
    x = DivisorClass(3, [2, 1, 0])
    y = DivisorClass(1, [1, 1, 1])
    assert x + y == DivisorClass(4, [3, 2, 1])
    assert x - y == DivisorClass(2, [1, 0, -1])
    assert 2 * x == DivisorClass(6, [4, 2, 0])
    assert x * Fraction(1, 2) == DivisorClass(Fraction(3, 2), [1, Fraction(1, 2), 0])
    with pytest.raises(ValueError):
        x + DivisorClass(1, [0, 0])


def test_integrality():
    assert DivisorClass(3, [2, 1]).is_integral
    assert not DivisorClass(Fraction(1, 2), [0]).is_integral
    assert not DivisorClass(1, [QuadNum(0, 1, 2)]).is_integral


def test_uncollide_frozen():
    x = DivisorClass(6, [4, 3, 1])
    y = x.uncollide(1, 2)
    assert y == DivisorClass(6, [2] * 4 + [3, 1])
    assert y.self_intersection() == x.self_intersection()
    # canonical pairing grows by (r^2 - r) * new multiplicity
    assert y.canonical_pairing() == x.canonical_pairing() + 2 * 2
    assert y.collide(1, 2) == x


def test_uncollide_interior_point():
    x = DivisorClass(9, [5, 3, 1])
    y = x.uncollide(2, 3)
    assert y == DivisorClass(9, [5] + [1] * 9 + [1])
    assert y.s == 11
    assert y.self_intersection() == x.self_intersection()
    assert y.collide(2, 3) == x


def test_collide_errors():
    with pytest.raises(ShapeError):
        DivisorClass(6, [2, 2, 2, 1], ).collide(1, 2)
    with pytest.raises(IndexError):
        DivisorClass(6, [2, 2, 2]).collide(1, 2)
    with pytest.raises(IndexError):
        DivisorClass(6, [2, 2, 2]).uncollide(4, 2)
    with pytest.raises(ValueError):
        DivisorClass(6, [2, 2, 2]).uncollide(1, 0)


def test_profile_round_trip():
    x = DivisorClass(13, [9, 4, 4, 4, 4, 2, 2, 2, 2, 2, 2])
    p = MultiplicityProfile.compress(x, (1, 4, 6))
    assert p.degree == 13 and p.blocks == ((QuadNum(9), 1), (QuadNum(4), 4), (QuadNum(2), 6))
    assert p.expand() == x
    assert MultiplicityProfile.group(x) == p
    assert str(p) == "L_13(9, 4^4, 2^6)"
    with pytest.raises(ShapeError):
        MultiplicityProfile.compress(x, (2, 3, 6))
    with pytest.raises(ShapeError):
        MultiplicityProfile.compress(x, (1, 4, 4))


def test_profile_collision_calculus():
    p = MultiplicityProfile(14, [(6, 1), (4, 2)])
    q = p.uncollide(1, 2)
    assert q.blocks == ((QuadNum(3), 4), (QuadNum(4), 2))
    assert q.collide(1, 2).canonical() == p
    # collision window may span several equal-valued blocks
    r = MultiplicityProfile(10, [(2, 3), (2, 1), (5, 1)])
    assert r.collide(1, 2).canonical() == MultiplicityProfile(10, [(4, 1), (5, 1)])
    with pytest.raises(ShapeError):
        MultiplicityProfile(10, [(2, 3), (3, 2)]).collide(1, 2)


def test_profile_pairings_match_expansion():
    p = MultiplicityProfile(QuadNum(0, 14, 2), [(QuadNum(6, 2, 2), 1), (QuadNum(3, 1, 2), 4)])
    x = p.expand()
    assert p.self_intersection() == x.self_intersection()
    assert p.canonical_pairing() == x.canonical_pairing()
    assert p.defernex_value() == x.defernex_value()
    assert p.scale(2).expand() == 2 * x


def test_json_round_trip():
    x = DivisorClass(QuadNum(0, 1, 5), [QuadNum(1, -1, 5), Fraction(2, 3)])
    assert DivisorClass.from_json(x.to_json()) == x
    p = MultiplicityProfile(28, [(QuadNum(12, 4, 2), 1), (QuadNum(6, 2, 2), 4)])
    assert MultiplicityProfile.from_json(p.to_json()) == p


small_ints = st.integers(min_value=-9, max_value=9)


@st.composite
def classes(draw, s=None):
    n = s if s is not None else draw(st.integers(min_value=2, max_value=10))
    return DivisorClass(draw(small_ints), [draw(small_ints) for _ in range(n)])


@st.composite
def class_triples(draw):
    s = draw(st.integers(min_value=2, max_value=10))
    return tuple(draw(classes(s=s)) for _ in range(3))


@given(class_triples())
def test_intersection_bilinear_symmetric(xyz):
    x, y, z = xyz
    assert x.intersect(y) == y.intersect(x)
    assert (x + y).intersect(z) == x.intersect(z) + y.intersect(z)
    assert (3 * x).intersect(y) == 3 * x.intersect(y)


@given(classes(), st.randoms())
def test_permutation_preserves_pairings(x, rng):
    order = list(range(1, x.s + 1))
    rng.shuffle(order)
    y = x.permuted(order)
    assert y.self_intersection() == x.self_intersection()
    assert y.canonical_pairing() == x.canonical_pairing()
    assert y.defernex_value() == x.defernex_value()


@given(classes(), st.integers(min_value=1, max_value=4), st.data())
def test_uncollision_conservation(x, r, data):
    point = data.draw(st.integers(min_value=1, max_value=x.s))
    y = x.uncollide(point, r)
    assert y.s == x.s + r * r - 1
    assert y.degree == x.degree
    assert y.self_intersection() == x.self_intersection()
    grown = y.canonical_pairing() - x.canonical_pairing()
    assert grown == (r * r - r) * (Fraction(x.mults[point - 1]) / r)
    assert y.collide(point, r) == x


def test_line_pencil_needs_multiplicity_exactly_one():
    assert is_line_pencil_up_to_permutation(DivisorClass(Fraction(3, 3), [0, 0, 1]))
    for mults in ([0, 2, 0], [0, Fraction(1, 2), 0], [-1, 0, 0], [0, QuadNum(1, 1, 2), 0]):
        assert not is_line_pencil_up_to_permutation(DivisorClass(1, mults)), mults


small_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=9)


@given(small_rationals, small_rationals, st.sampled_from([1, 2, 3, 5, 12]),
       st.lists(st.tuples(small_rationals, small_rationals, st.integers(1, 4)), min_size=1, max_size=4))
def test_defernex_value_with_denominators_matches_the_term_by_term_sum(da, db, rad, blocks):
    """Degrees and multiplicities with denominators: the pairing with F_s
    equals degree*sqrt(s-1) minus each multiplicity, summed one by one."""
    degree = QuadNum(da, db, rad)
    profile = MultiplicityProfile(degree, [(QuadNum(a, b, rad), c) for a, b, c in blocks])
    s = profile.s
    expect = RadicalSum([(degree.a, s - 1), (degree.b, degree.rad * (s - 1))])
    for v, c in profile.blocks:
        for _ in range(c):
            expect = expect - v
    assert profile.defernex_value() == expect
    assert profile.expand().defernex_value() == expect


def test_integral_coordinates_are_stored_as_int():
    x = DivisorClass(QuadNum(3), [QuadNum(Fraction(4, 2)), Fraction(6, 3), QuadNum(5, 0, 7), True, -1])
    y = DivisorClass(3, [2, 2, 5, 1, -1])
    assert all(type(c) is int for c in x.coordinates())
    assert x == y and hash(x) == hash(y) and hash(QuadNum(3)) == hash(3)
    p = MultiplicityProfile(QuadNum(6, 0, 4), [(QuadNum(2), 2), (Fraction(3), 1)])
    assert [type(c) for c in (p.degree, *p.values)] == [int, int, int]
    assert p == MultiplicityProfile(6, [(2, 2), (3, 1)]) and hash(p) == hash(MultiplicityProfile(6, [(2, 2), (3, 1)]))
    # a value that is not an integer stays a QuadNum, and becomes an int again once it is one
    half = DivisorClass(1, [1, 0]).uncollide(1, 2)
    assert half.mults[0] == QuadNum(Fraction(1, 2)) and type(half.mults[0]) is QuadNum
    assert type(half.collide(1, 2).mults[0]) is int
    assert type(DivisorClass(QuadNum(1, 1, 2), [1]).degree) is QuadNum


def test_pairings_of_integral_classes_return_quadnum():
    p = MultiplicityProfile(5, [(2, 2), (1, 1), (0, 1)])
    x = p.expand()
    values = (x.intersect(x), x.self_intersection(), x.canonical_pairing(),
              p.intersect(p), p.self_intersection(), p.canonical_pairing())
    assert all(type(v) is QuadNum for v in values)
    assert values == (16, 16, -10, 16, 16, -10)


# -- point-wise oracles of the block calculus -----------------------------------


# (a, b) of a + b*sqrt(rad); built from ints, which draws faster than st.fractions
quad_parts = st.tuples(st.builds(Fraction, small_ints, st.integers(1, 4)),
                       st.sampled_from([0, 1, -2, Fraction(1, 3)]))


def _pointwise(x_degree, x_mults, y_degree, y_mults):
    """d*d' - sum(m*m'), sum(m) - 3d and the pairing with F_s, one point at
    a time."""
    s = len(x_mults)
    dot, k = x_degree * y_degree, -3 * x_degree
    f = RadicalSum([(x_degree.a, s - 1), (x_degree.b, x_degree.rad * (s - 1))])
    for m, n in zip(x_mults, y_mults):
        dot, k, f = dot - m * n, k + m, f - m
    return dot, k, f


@given(st.sampled_from([2, 3, 5, 6]), st.tuples(quad_parts, quad_parts),
       st.lists(st.tuples(st.integers(1, 3), quad_parts, quad_parts), min_size=1, max_size=5))
def test_pairings_match_the_pointwise_formulas(rad, degrees, blocks):
    """Two classes over one radicand, constant on the same blocks: the block
    formulas of both class types against the point-wise ones."""
    d, e = (QuadNum(a, b, rad) for a, b in degrees)
    ms = [QuadNum(*x, rad) for c, x, _ in blocks for _ in range(c)]
    ns = [QuadNum(*y, rad) for c, _, y in blocks for _ in range(c)]
    counts = [c for c, _, _ in blocks]
    dot, k, f = _pointwise(d, ms, e, ns)
    square = _pointwise(d, ms, d, ms)[0]
    x, y = DivisorClass(d, ms), DivisorClass(e, ns)
    for a, b in ((x, y), (MultiplicityProfile.compress(x, counts), MultiplicityProfile.compress(y, counts))):
        assert a.intersect(b) == dot
        assert a.self_intersection() == square
        assert a.canonical_pairing() == k
        assert a.defernex_value() == f
    # the canonical layout of y is in general not the drawn one
    assert MultiplicityProfile.compress(x, counts).intersect(y.to_profile()) == dot


def test_profile_intersect_pairs_two_layouts_of_the_same_points():
    x = DivisorClass(QuadNum(1, 1, 2), [3, 3, 1, 1, 1, QuadNum(0, 1, 2)])
    y = DivisorClass(5, [2, 1, 1, 1, 0, 0])
    p, q = MultiplicityProfile.compress(x, (2, 3, 1)), MultiplicityProfile.compress(y, (1, 3, 2))
    assert p.intersect(q) == q.intersect(p) == x.intersect(y) == QuadNum(-6, 5, 2)
    # a different point count is refused as such, not by recursing
    with pytest.raises(ValueError, match="point counts differ: 6 vs 5"):
        p.intersect(MultiplicityProfile(1, [(1, 5)]))
    with pytest.raises(ValueError, match="point counts differ: 6 vs 5"):
        x.intersect(DivisorClass(1, [1] * 5))


@example([(2, 3), (2, 1), (2, 2), (5, 1)], 2, 2)  # starts and ends inside blocks
@example([(1, 2), (1, 2), (0, 3)], 1, 1)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(1, 4)), min_size=1, max_size=6),
       st.integers(1, 3), st.integers(1, 12))
def test_collide_matches_the_list_splice(blocks, point, r):
    p = MultiplicityProfile(7, blocks)  # adjacent blocks may share a value
    points = [v for v, c in blocks for _ in range(c)]
    window = points[point - 1 : point - 1 + r * r]
    for x in (p, p.expand()):
        if point - 1 + r * r > len(points):
            with pytest.raises(IndexError):
                x.collide(point, r)
        elif len(set(window)) > 1:
            with pytest.raises(ShapeError):
                x.collide(point, r)
        else:
            y = x.collide(point, r)
            splice = points[: point - 1] + [window[0] * r] + points[point - 1 + r * r :]
            assert y.degree == 7 and (y.expand() if x is p else y).mults == tuple(splice)
    if point - 1 + r * r <= len(points) and len(set(window)) == 1:
        # blocks wholly outside the window are kept as they are
        ends = [sum(c for _, c in blocks[: i + 1]) for i in range(len(blocks))]
        before = sum(e < point for e in ends)
        after = sum(e - c >= point - 1 + r * r for e, (_, c) in zip(ends, blocks))
        q = p.collide(point, r)
        assert q.blocks[:before] == p.blocks[:before]
        assert q.blocks[len(q.blocks) - after :] == p.blocks[len(p.blocks) - after :]
