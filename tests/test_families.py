"""Closed forms for the pencil orbits, limit rays, and good-ray families."""

from fractions import Fraction

import pytest

from morirays import QuadNum, Ray, shape_action
from morirays.cremona import double_jonquieres_geiser, jonquieres_sturm
from morirays.families import (
    GOOD_LIMITS,
    GOOD_TAGS,
    WONDERFUL_TAGS,
    alpha,
    beta,
    cg_homaloidal,
    even_shape_matrix,
    family,
    good_family,
    good_profile,
    js_homaloidal,
    odd_shape_matrix,
    pencil_profile,
    primed_pencil_profile,
    shape_matrix,
    surface_points,
    wonderful_profile,
    wonderful_ray,
)

F = Fraction

A2_ROWS = ((15, -2, -4, -36), (10, -1, -4, -24), (5, -1, -1, -12), (2, 0, 0, -5))
B1_ROWS = ((52, -12, -133, -8), (33, -8, -84, -6), (14, -3, -36, -2), (11, -3, -28, -1))


def test_shape_matrices_frozen():
    assert odd_shape_matrix(2).rows == A2_ROWS
    assert even_shape_matrix(1).rows == B1_ROWS
    assert odd_shape_matrix(2).counts == (1, 4, 6)
    assert even_shape_matrix(1).counts == (1, 7, 2)


@pytest.mark.parametrize("n", range(1, 11))
def test_shape_matrices_compress_composites(n):
    assert shape_action(jonquieres_sturm(n), (1, 2 * n, 6)) == odd_shape_matrix(n)
    assert shape_action(double_jonquieres_geiser(n), (1, 7, 2 * n)) == even_shape_matrix(n)


@pytest.mark.parametrize("n", range(1, 11))
def test_homaloidal_invariants(n):
    for net in (js_homaloidal(n), cg_homaloidal(n)):
        assert net.self_intersection() == 1
        assert net.canonical_pairing() == -3


def test_radicals():
    assert alpha(1) == 0
    assert alpha(2) == QuadNum(0, 1, 2)
    assert alpha(3) == QuadNum(0, 1, 6)
    for n in range(1, 30):
        assert not beta(n).is_rational
        assert beta(n) * beta(n) == 49 * n * n - 28
        if n >= 2:
            assert alpha(n) * alpha(n) == n * (n - 1)


@pytest.mark.parametrize("n,row", [(1, (9, 5, 4, 2)), (2, (13, 9, 4, 2)), (3, (17, 13, 4, 2))])
def test_pencil_k1_closed_form(n, row):
    p = pencil_profile(n, 1)
    assert (p.degree, *p.values) == tuple(QuadNum(x) for x in row)
    assert row == (4 * n + 5, 4 * n + 1, 4, 2)


@pytest.mark.parametrize("n", range(1, 8))
def test_primed_k1_closed_form(n):
    p = primed_pencil_profile(n, 1)
    expect = (7 * n * n + 22 * n + 11, 7 * n * n + 15 * n + 3, 7 * n + 4, 7 * n + 1)
    assert (p.degree, *p.values) == tuple(QuadNum(x) for x in expect)


@pytest.mark.parametrize("n", range(1, 8))
def test_pencil_recurrence(n):
    # (b, c) steps by an integer affine map even though (d, a) grow with radicals
    for k in range(1, 5):
        b0, c0 = pencil_profile(n, k - 1).values[1:], None
        b0, c0 = Fraction(b0[0]), Fraction(pencil_profile(n, k - 1).values[2])
        b1 = (4 * n - 1) * b0 - 2 * c0 + 4
        c1 = 2 * n * b0 - c0 + 2
        p = pencil_profile(n, k)
        assert p.values[1] == b1 and p.values[2] == c1


def test_pencil_structure():
    p = pencil_profile(2, 3)
    assert p.counts == (1, 4, 6)
    assert (p.degree, *p.values) == (QuadNum(533), QuadNum(337), QuadNum(168), QuadNum(98))
    q = primed_pencil_profile(1, 2)
    assert q.counts == (1, 7, 2)
    assert (q.degree, *q.values) == (QuadNum(253), QuadNum(148), QuadNum(73), QuadNum(49))
    # pencil members: self-intersection 0, canonical pairing -2
    for prof in (p, q):
        assert prof.self_intersection() == 0
        assert prof.canonical_pairing() == -2


@pytest.mark.parametrize("tag", WONDERFUL_TAGS)
@pytest.mark.parametrize("n", range(1, 7))
def test_wonderful_surface_points(tag, n):
    prof = wonderful_profile(tag, n)
    assert prof.s == surface_points(tag, n)
    assert prof.self_intersection() == 0


def test_surface_point_counts():
    assert [surface_points("odd", n) for n in (1, 2, 3)] == [9, 11, 13]
    assert [surface_points("even", n) for n in (1, 2, 3)] == [10, 12, 14]
    assert [surface_points("even_plus", n) for n in (1, 2)] == [12, 14]
    assert [surface_points("odd_plus", n) for n in (1, 2)] == [13, 15]
    assert [surface_points("sq4", n) for n in (1, 2, 3)] == [13, 20, 29]
    assert [surface_points("sq2", n) for n in (1, 2, 3)] == [18, 27, 38]


@pytest.mark.parametrize("tag", WONDERFUL_TAGS)
def test_surface_points_match_the_shape_matrix(tag):
    # the block counts, read without a matrix, against the matrix's own
    f = family(tag)
    for n in range(1, 61):
        r = f.order(n)
        assert surface_points(tag, n) == sum(shape_matrix(f.parent or tag, n).counts) + r * r - 1


def test_wonderful_odd_display():
    w = wonderful_profile("odd", 2)
    assert w.degree == 28
    assert w.blocks == ((QuadNum(12, 4, 2), 1), (QuadNum(6, 2, 2), 4), (QuadNum(8, -2, 2), 6))
    assert w.canonical_pairing() == 0


def test_wonderful_even_display():
    w = wonderful_profile("even", 1)
    assert w.degree == 714
    assert w.blocks == (
        (QuadNum(315, 21, 21), 1),
        (QuadNum(231, -5, 21), 7),
        (QuadNum(105, 7, 21), 2),
    )
    assert w.canonical_pairing() == 0


@pytest.mark.parametrize("tag", ["odd", "even"])
@pytest.mark.parametrize("n", range(1, 8))
def test_wonderful_canonical_zero(tag, n):
    assert wonderful_profile(tag, n).canonical_pairing() == 0


@pytest.mark.parametrize("tag,source,r_of", [
    ("even_plus", "odd", lambda n: 2),
    ("odd_plus", "even", lambda n: 2),
    ("sq4", "even", lambda n: n + 1),
    ("sq2", "even", lambda n: n + 2),
])
@pytest.mark.parametrize("n", range(1, 6))
def test_derived_rays_are_formal_uncollisions(tag, source, r_of, n):
    r = r_of(n)
    parent = wonderful_profile(source, n)
    derived = parent.scale(r).uncollide(1, r)
    assert wonderful_ray(tag, n) == Ray.from_profile(derived)
    # canonical pairing of the derived display: (r^2 - r) * new top multiplicity
    prof = wonderful_profile(tag, n)
    top = prof.blocks[0][0]
    assert prof.canonical_pairing() == (r * r - r) * top
    assert prof.canonical_pairing().sign() == 1


@pytest.mark.parametrize("tag", GOOD_TAGS)
@pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (2, 3), (3, 2)])
def test_good_profiles_live_on_limit_surface(tag, n, k):
    g = good_profile(tag, n, k)
    assert g.s == surface_points(GOOD_LIMITS[tag], n)
    assert g.self_intersection() == 0
    row = good_family(tag)
    source, r = row.parent, row.order(n)
    base = pencil_profile(n, k) if source == "odd" else primed_pencil_profile(n, k)
    assert g.degree == r * base.degree


def test_good_even_frozen():
    g = good_profile("even", 2, 1)
    # 2 * L_13(9, 4^4, 2^6) with the 9-point split into four 9/2... scaled first: L_26(18, 8^4, 4^6)
    assert g.degree == 26
    assert g.blocks == ((QuadNum(9), 4), (QuadNum(8), 4), (QuadNum(4), 6))


def test_good_sq_frozen():
    g4 = good_profile("sq4", 1, 1)
    assert g4.degree == 2 * 40
    assert g4.blocks == ((QuadNum(25), 4), (QuadNum(22), 7), (QuadNum(16), 2))
    g2 = good_profile("sq2", 1, 1)
    assert g2.degree == 3 * 40
    assert g2.blocks == ((QuadNum(25), 9), (QuadNum(33), 7), (QuadNum(24), 2))


def test_bad_arguments():
    with pytest.raises(ValueError):
        shape_matrix("odd", 0)
    for tag in WONDERFUL_TAGS:
        with pytest.raises(ValueError):
            surface_points(tag, 0)
    with pytest.raises(ValueError):
        wonderful_profile("triangular", 1)
    with pytest.raises(ValueError):
        good_profile("even", 1, -1)
