"""Spans around the calls into each layer of morirays, installed from outside.

`Tracer.install` replaces each target function or method by a wrapper at every
place the name is looked up: every module attribute (in the given modules)
bound to the same object, or the class attribute for methods.  `uninstall`
puts the original objects back and checks that they are the ones replaced.

Each call records a span: name, start and end (perf_counter_ns) and the span
that was open when it started.  Spans stay in memory in flat arrays until the
run ends.  Count hooks run at the same boundaries and add to `counters`.

Time per span name counts only spans with no enclosing span of the same name,
so recursion (RadicalSum.sign calling QuadNum.sign, a profile built from a
profile) is not counted twice.  A module's self time is the time of its spans
minus the time of their child spans; work without a span of its own, such as
QuadNum arithmetic, is self time of the innermost enclosing span.
"""

from __future__ import annotations

import functools
import gzip
import time
from array import array
from collections import defaultdict
from typing import Callable

Hook = Callable[[dict, tuple, object], None]


def _max_radicand_bits(counters: dict, args: tuple, result) -> None:
    bits = args[0].bit_length()
    if bits > counters["quadfield.radicand_bits.max"]:
        counters["quadfield.radicand_bits.max"] = bits


def _adder(counter: str, amount: Callable[[tuple, object], int]) -> Hook:
    def hook(counters: dict, args: tuple, result) -> None:
        counters[counter] += amount(args, result)
    return hook


# (span name, owner path, attribute, count hook).  The owner path is
# "module" for a function or "module.Class" for a method.
TARGETS: tuple[tuple[str, str, str, Hook | None], ...] = (
    ("quadfield.split_square", "quadfield", "split_square", _max_radicand_bits),
    ("quadfield.sign", "quadfield.QuadNum", "sign", None),
    ("quadfield.sign", "quadfield.RadicalSum", "sign", None),
    ("lattice.expand", "lattice.MultiplicityProfile", "expand",
     _adder("lattice.expand.coords", lambda args, out: out.s)),
    *(("lattice.pairing", f"lattice.{cls}", meth, None)
      for cls in ("MultiplicityProfile", "DivisorClass")
      for meth in ("intersect", "self_intersection", "canonical_pairing", "defernex_value")),
    ("lattice.uncollide", "lattice.MultiplicityProfile", "uncollide", None),
    ("lattice.uncollide", "lattice.DivisorClass", "uncollide", None),
    ("cremona.reduce", "cremona", "cremona_reduce",
     _adder("cremona.reduce.steps", lambda args, out: len(out.steps))),
    ("cremona.quadratic_map", "cremona", "quadratic_map",
     _adder("cremona.quadratic_map.entries", lambda args, out: len(out.rows) ** 2)),
    ("cremona.apply", "cremona.CharMatrix", "apply", None),
    ("dynamics.iterate", "dynamics", "iterate",
     _adder("dynamics.iterate.terms", lambda args, out: len(out.terms))),
    ("dynamics.term", "dynamics.OrbitSequence", "term", None),
    ("dynamics.eigen", "dynamics", "eigen", None),
    ("dynamics.certify_convergence", "dynamics", "certify_convergence", None),
    ("dynamics.ray", "dynamics.Ray", "__init__",
     _adder("dynamics.ray.coords", lambda args, out: args[1].s + 1)),
    *(("families.profile", "families", fn, None)
      for fn in ("wonderful_profile", "pencil_profile", "primed_pencil_profile",
                 "good_even", "good_odd", "good_sq4", "good_sq2", "good_profile")),
    ("verify.verify_good", "verify", "verify_good", None),
    ("verify.certify_pencil", "verify", "certify_pencil", None),
    ("verify.wonderful_report", "verify", "wonderful_report", None),
    ("verify.defernex_sweep", "verify", "defernex_sweep", None),
    ("cli.main", "cli", "main", None),
    ("cli.render", "cli", "_json_text", None),
    ("bench.query", "workloads", "run",
     _adder("cli.output_bytes", lambda args, out: len(out[1]))),
    ("bench.render", "workloads", "render", None),
)


class BindingError(RuntimeError):
    """A wrapper was not where it was installed, or an original did not come back."""


class Tracer:
    def __init__(self, modules: dict[str, object]):
        """`modules` maps the short names used in TARGETS to module objects;
        every one of them is searched for bindings of each target."""
        self.modules = modules
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._depth: list[int] = []
        self._stack: list[int] = []
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.outer = array("b")  # 1 if no enclosing span has the same name
        self.counters: dict[str, int] = defaultdict(int)
        self.sites: list[tuple[object, str, object, object]] = []  # owner, attr, original, wrapper

    # -- installing ----------------------------------------------------------------

    def _owner(self, path: str):
        mod, _, cls = path.partition(".")
        return getattr(self.modules[mod], cls) if cls else self.modules[mod]

    def install(self) -> None:
        for name, path, attr, hook in TARGETS:
            owner = self._owner(path)
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original, hook)
            owners = [owner] if isinstance(owner, type) else [
                m for m in self.modules.values() if any(v is original for v in vars(m).values())]
            for o in owners:
                for a, v in list(vars(o).items()):
                    if v is original:
                        setattr(o, a, wrapper)
                        self.sites.append((o, a, original, wrapper))

    def uninstall(self) -> None:
        """Restore every original and check it is the object that was replaced."""
        for owner, attr, original, wrapper in reversed(self.sites):
            if vars(owner)[attr] is not wrapper:
                raise BindingError(f"{site_name(owner, attr)} was rebound while traced")
            setattr(owner, attr, original)
            if vars(owner)[attr] is not original:
                raise BindingError(f"{site_name(owner, attr)} did not get its original back")
        self.sites.clear()

    def site_names(self) -> list[str]:
        return [site_name(owner, attr) for owner, attr, _, _ in self.sites]

    def _wrap(self, name: str, fn, hook: Hook | None):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        nid = self._ids[name]
        stack, depth, counters = self._stack, self._depth, self.counters
        name_id, parent, start, end, outer = self.name_id, self.parent, self.start, self.end, self.outer
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            outer.append(depth[nid] == 0)
            end.append(0)
            depth[nid] += 1
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                depth[nid] -= 1
            if hook is not None:
                hook(counters, args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    # -- results -------------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """`<span>.calls`, `<span>.s`, `<module>.self_s` and the counters."""
        n_names = len(self.names)
        calls = [0] * n_names
        total = [0] * n_names
        child = [0] * len(self.start)
        for nid, p, t0, t1, outer in zip(self.name_id, self.parent, self.start, self.end, self.outer):
            d = t1 - t0
            calls[nid] += 1
            if outer:
                total[nid] += d
            if p >= 0:
                child[p] += d
        self_ns: dict[str, int] = defaultdict(int)
        for i, (nid, t0, t1) in enumerate(zip(self.name_id, self.start, self.end)):
            self_ns[self.names[nid].split(".")[0]] += t1 - t0 - child[i]
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.s"] = total[nid] / 1e9
        for module, ns in self_ns.items():
            out[f"{module}.self_s"] = ns / 1e9
        out.update(self.counters)
        out["trace.spans"] = len(self.start)
        return out

    def write(self, path) -> None:
        """All spans, one per line: id, name, parent id, start ns, end ns."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tparent\tstart_ns\tend_ns\n")
            for i, (nid, p, t0, t1) in enumerate(zip(self.name_id, self.parent, self.start, self.end)):
                fh.write(f"{i}\t{self.names[nid]}\t{p}\t{t0}\t{t1}\n")


def site_name(owner, attr: str) -> str:
    if isinstance(owner, type):
        return f"{owner.__module__.rpartition('.')[2]}.{owner.__name__}.{attr}"
    return f"{owner.__name__.rpartition('.')[2]}.{attr}"
