"""The benchmark's tracer still finds every method and function it wraps.

`bench/tracer.py` looks each target up in its owner's own namespace, so a
traced method that moves into a base class, or a function that is renamed,
breaks only when the benchmark runs.  This checks the bindings in the fast
suite: install every span, check it sits where it was put, take it off again.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (bench/run.py)
import tracer  # noqa: E402


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
