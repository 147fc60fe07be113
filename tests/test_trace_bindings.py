"""The benchmark's tracer still finds every method and function it wraps.

`bench/tracer.py` looks each target up in its owner's own namespace, so a
traced method that moves into a base class, or a function that is renamed,
breaks only when the benchmark runs.  This checks the bindings in the fast
suite: install every span, check it sits where it was put, take it off again.
A value the program reads once and keeps would hide the spans inside it from a
traced pass; the last test checks that the replay block does not.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (bench/run.py)
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_every_trace_target_binds_and_comes_off():
    mods = run.import_morirays()
    t = tracer.Tracer(mods)
    try:
        t.install()
        sites = list(t.sites)
        for name, path, attr, _ in tracer.TARGETS:
            mod, _, cls = path.partition(".")
            owner = getattr(mods[mod], cls) if cls else mods[mod]
            bound = [wrapper for o, a, _, wrapper in sites if o is owner and a == attr]
            assert bound and vars(owner)[attr] is bound[0], f"{name}: {path}.{attr} did not bind"
        # a name imported with `from ... import` is wrapped where the importer looks it up
        names = set(t.site_names())
        for site in ("cli.iterate", "cli.eigen", "verify.quadratic_map", "verify.cremona_reduce",
                     "verify.iterate", "families.iterate"):
            assert site in names, f"{site} did not bind"
    finally:
        t.uninstall()
    for owner, attr, original, _ in sites:
        assert vars(owner)[attr] is original, tracer.site_name(owner, attr)


def test_a_traced_verify_cell_enters_the_map_builder_and_apply():
    # the replay block is read before the tracer goes on, as in a bench run
    # whose untraced passes come first; a block fixed at import, or one that
    # never looks at the builder bound now, would leave both spans empty
    mods = run.import_morirays()
    argv = ["verify", "--family", "even", "--n", "2", "--k", "1", "--format", "json"]
    _, plain = workloads.run({"argv": argv}, mods["cli"], mods["verify"])
    t = tracer.Tracer(mods)
    try:
        t.install()
        code, output = workloads.run({"argv": argv}, mods["cli"], mods["verify"])
    finally:
        t.uninstall()
    assert code == 0 and output == plain
    summary = t.summary()
    assert summary["cremona.quadratic_map.calls"] == 1
    assert summary["cremona.apply.calls"] == 4
