"""Randomized invariants: intersection preservation, collision conservation."""

import random
from fractions import Fraction

from morirays import (
    DivisorClass,
    MultiplicityProfile,
    bertini_map,
    canonical_class,
    compose,
    geiser_map,
    jonquieres_map,
    permutation_map,
    quadratic_map,
    sturm_map,
)
from morirays.cli import main

SEED = 20260814


def random_word(rng, s, length):
    """Compose `length` random validated generators embedded in X_s."""
    m = permutation_map(list(range(1, s + 1)), s)
    for _ in range(length):
        kind = rng.randrange(6)
        if kind == 0:
            pts = rng.sample(range(1, s + 1), 3)
            step = quadratic_map(tuple(pts), s)
        elif kind == 1 and s >= 6:
            step = sturm_map(tuple(rng.sample(range(1, s + 1), 6)), s)
        elif kind == 2 and s >= 7:
            step = geiser_map(tuple(rng.sample(range(1, s + 1), 7)), s)
        elif kind == 3 and s >= 8:
            step = bertini_map(tuple(rng.sample(range(1, s + 1), 8)), s)
        elif kind == 4:
            n = rng.randrange(1, (s - 1) // 2 + 1)
            step = jonquieres_map(n, tuple(rng.sample(range(1, s + 1), 2 * n + 1)), s)
        else:
            order = list(range(1, s + 1))
            rng.shuffle(order)
            step = permutation_map(order, s)
        m = compose(step, m)
    return m


def random_class(rng, s):
    return DivisorClass(rng.randrange(-9, 10), [rng.randrange(-6, 7) for _ in range(s)])


def test_intersection_preserved_under_thousand_words():
    rng = random.Random(SEED)
    for trial in range(1000):
        s = rng.randrange(8, 13)
        m = random_word(rng, s, rng.randrange(1, 5))
        assert m.is_valid()
        x = random_class(rng, s)
        y = random_class(rng, s)
        assert m.apply(x).intersect(m.apply(y)) == x.intersect(y)
        assert m.apply(canonical_class(s)) == canonical_class(s)


def test_uncollision_conservation_r2_to_r6():
    rng = random.Random(SEED + 1)
    for trial in range(200):
        s = rng.randrange(3, 9)
        x = random_class(rng, s)
        for r in range(2, 7):
            point = rng.randrange(1, s + 1)
            y = x.uncollide(point, r)
            assert y.degree == x.degree
            assert y.self_intersection() == x.self_intersection()
            bump = y.canonical_pairing() - x.canonical_pairing()
            assert bump == (r * r - r) * (Fraction(x.mults[point - 1]) / r)


def test_collide_undoes_uncollide():
    rng = random.Random(SEED + 2)
    for trial in range(200):
        s = rng.randrange(2, 8)
        x = random_class(rng, s)
        r = rng.randrange(2, 6)
        point = rng.randrange(1, s + 1)
        assert x.uncollide(point, r).collide(point, r) == x
    # profile level, through the canonical merge
    for trial in range(100):
        degree = rng.randrange(1, 30)
        blocks = [(rng.randrange(1, 9), rng.randrange(1, 5)) for _ in range(rng.randrange(1, 4))]
        p = MultiplicityProfile(degree, blocks)
        r = rng.randrange(2, 5)
        point = rng.randrange(1, p.s + 1)
        q = p.uncollide(point, r).collide(point, r)
        assert q.canonical() == p.canonical()


def test_uncollision_preserves_rationality():
    rng = random.Random(SEED + 3)
    for trial in range(300):
        s = rng.randrange(2, 8)
        rational = rng.random() < 0.5
        if rational:
            x = DivisorClass(
                Fraction(rng.randrange(-20, 21), rng.randrange(1, 5)),
                [Fraction(rng.randrange(-12, 13), rng.randrange(1, 4)) for _ in range(s)],
            )
        else:
            from morirays import QuadNum

            x = DivisorClass(
                QuadNum(rng.randrange(-9, 10), rng.randrange(1, 5), 2),
                [QuadNum(rng.randrange(-6, 7), rng.randrange(-3, 4), 2) for _ in range(s)],
            )
        y = x.uncollide(rng.randrange(1, s + 1), rng.randrange(2, 6))
        assert y.is_rational == x.is_rational == rational


def test_cli_reports_byte_identical(capsys):
    # same invocation, fresh process state: identical bytes
    for args in (
        ["eigenray", "--family", "even", "--n", "1", "--format", "json"],
        ["verify", "--family", "sq2", "--n", "1", "--k", "1..2", "--format", "json"],
        ["pair", "--ray", "Wplus_odd:2", "--with", "F", "--format", "json"],
    ):
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first
