"""The CLI JSON writer: byte-identical to json.dumps(sort_keys=True, indent=2)."""

import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from morirays import Ray, families
from morirays.cli import _json_text, main


def reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


texts = st.text(alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",))) | st.sampled_from(
    ['', '"', '\\', '"q"\\', '\n\t\r\b\f', '\x00\x01\x1f\x7f', 'é√∞', '\U0001f600', '</script>'])
scalars = (st.none() | st.booleans() | texts
           | st.integers(min_value=-(10**40), max_value=10**40) | st.sampled_from([0, -1, 2**64, -(2**100)]))


def _with_repeats(children):
    """Containers of children, with the same child object repeated next to
    itself and again after another entry."""
    @st.composite
    def repeated(draw):
        x, y = draw(children), draw(children)
        run = [x] * draw(st.integers(min_value=1, max_value=4))
        return draw(st.sampled_from([run + [y] + run, run + [x, y, x], [y] + run]))

    return (st.lists(children, max_size=4)
            | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(texts, children, max_size=4)
            | repeated())


values = st.recursive(scalars, _with_repeats, max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(values)
def test_writer_matches_json_dumps(obj):
    assert _json_text(obj) == reference(obj)


ints = st.integers(min_value=-(10**40), max_value=10**40)
int_lists = st.lists(ints, min_size=1, max_size=6)


@settings(max_examples=200, deadline=None)
@given(st.one_of(int_lists, int_lists.map(tuple), st.lists(st.booleans(), min_size=1, max_size=6),
                 st.lists(int_lists, min_size=1, max_size=4), st.lists(ints | st.booleans(), min_size=1, max_size=6)))
def test_int_lists_match_json_dumps(obj):
    assert _json_text(obj) == reference(obj)
    assert _json_text({"a": obj, "b": [obj, obj]}) == reference({"a": obj, "b": [obj, obj]})


@pytest.mark.parametrize("obj", [[0], (7, -8), [1, True], [True, 1], [False], [[1, 2], [1, 2]], [[3], []], [2**64, 0]])
def test_int_list_cases(obj):
    assert _json_text(obj) == reference(obj)


def test_shared_objects_repeat_their_text():
    cell = {"b": [1, 2], "a": {"rad": 5}}
    row = [cell] * 3 + [[cell, cell]] + [cell]
    obj = {"z": row, "y": [row, row], "x": (cell, [], {}, cell)}
    assert _json_text(obj) == reference(obj)


@pytest.mark.parametrize("bad", [1.5, [0, 0.0], {"a": float("nan")}, {1: "x"}, {"a": 1, 2: "b"}, {None: 1}, b"x"])
def test_floats_non_str_keys_and_other_types_raise(bad):
    with pytest.raises(TypeError):
        _json_text(bad)


def _invocations():
    for kind in ("Q", "S", "G", "B"):
        yield ["matrix", "--kind", kind, "--check-homaloidal"]
    for kind in ("J", "C", "JS", "CG"):
        for n in (1, 3):
            yield ["matrix", "--kind", kind, "--n", str(n), "--check-homaloidal"]
    for family in ("odd", "even"):
        yield ["orbit", "--family", family, "--n", "3", "--k", "4"]
    for tag in families.WONDERFUL_TAGS:
        for n in (1, 2, 7, 40):
            yield ["eigenray", "--family", tag, "--n", str(n)]
    for family in families.GOOD_TAGS:
        yield ["verify", "--family", family, "--n", "1..3", "--k", "1..3"]
    for tag in families.WONDERFUL_TAGS:
        for with_ in ("K", "F", "self"):
            yield ["pair", "--ray", f"{tag}:7", "--with", with_]


@pytest.mark.parametrize("argv", list(_invocations()), ids=" ".join)
def test_cli_json_is_the_sorted_indent_two_rendering(capsys, argv):
    code = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    assert code in (0, 1)
    assert out == reference(json.loads(out))


@pytest.mark.parametrize("tag", families.WONDERFUL_TAGS)
def test_expanded_class_shares_one_json_object_per_block(tag):
    rep = Ray(families.wonderful_profile(tag, 5)).rep
    mults = rep.expand().to_json()["mults"]
    runs = [(key, len(list(group))) for key, group in itertools.groupby(mults, key=id)]
    assert [c for _, c in runs] == list(rep.counts)
    assert len({key for key, _ in runs}) == len(runs)
