"""Result records: immutable named tuples, copied with `_replace`; an import
path that loads no `typing`, no `dataclasses`, no `json`, no `fractions` and no
`decimal` and builds no `typing.ForwardRef`; and annotations that resolve."""

import ast
import functools
import importlib
import importlib.util
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import morirays
from morirays import DivisorClass, cli, cremona, dynamics, families, lattice, quadfield, verify

LINE = DivisorClass(1, [1, 0, 0])

# one record of each class, from a real call where one exists, and the class's fields
RECORDS = {
    "cremona.ReductionResult": (lambda: cremona.cremona_reduce(DivisorClass(5, [2, 2, 2, 1])),
                                "start reduced steps is_reduced"),
    "dynamics.Eigenvalue": (lambda: dynamics.eigen(families.shape_matrix("odd", 2)).eigenvalues[0],
                            "value algebraic geometric vectors"),
    "dynamics.EigenDecomposition": (lambda: dynamics.eigen(families.shape_matrix("odd", 2)),
                                    "matrix char_poly eigenvalues dominant_index left_vector"),
    "dynamics.OrbitSequence": (lambda: dynamics.iterate(families.shape_matrix("even", 1), families.PENCIL_SEED, 3),
                               "matrix seed terms"),
    "dynamics.ConvergenceCertificate": (
        lambda: dynamics.certify_convergence(families.shape_matrix("even", 2), families.LINE_SEED),
        "matrix seed dominant_value left_vector right_vector gamma jordan"),
    "families.Family": (lambda: families.Family("t", "T", families.wonderful_odd),
                        "tag alias closed_form parent order good counts matrix invariants scaling"),
    "verify.Check": (lambda: verify.Check("name", "statement", True), "name statement ok"),
    "verify.PencilCertificate": (lambda: verify.certify_pencil(LINE),
                                 "system reduction endpoint_is_line_pencil replay_ok nonnegative_throughout"),
    "verify.EmptinessCertificate": (lambda: verify.verify_good("odd", 2, 1).emptiness,
                                    "rule order system pencil inequalities"),
    "verify.GoodRayCertificate": (lambda: verify.verify_good("odd", 2, 1), "family n k system checks emptiness"),
    "verify.WonderfulReport": (lambda: verify.wonderful_report("even_plus", 2),
                               "family n surface_points display ray checks canonical_pairing defernex_value "
                               "defernex_sign irrationality convergence candidates"),
    "verify.SignRow": (lambda: verify.SignRow(1, -1, families.wonderful_profile("sq2", 1).defernex_value()),
                       "n sign value"),
    "verify.SignTable": (lambda: verify.defernex_sweep("sq2", 1, 2), "family rows bounds"),
}

# Family's defaults, a callable one by its value at n = 7; no other record has any
FAMILY_DEFAULTS = {"parent": None, "order": 1, "good": None, "counts": None, "matrix": None, "invariants": None,
                   "scaling": "scaled"}


def test_every_record_class_is_listed():
    modules = {"cremona": cremona, "dynamics": dynamics, "families": families, "verify": verify}
    found = {f"{name}.{attr}" for name, mod in modules.items() for attr, obj in vars(mod).items()
             if type(obj) is type and issubclass(obj, tuple) and obj.__module__ == mod.__name__}
    assert found == set(RECORDS)


@pytest.mark.parametrize("path", RECORDS)
def test_record_is_immutable_and_replace_changes_one_field(path):
    make, fields = RECORDS[path]
    record = make()
    cls = getattr(getattr(morirays, path.split(".")[0]), path.split(".")[1])
    assert type(record) is cls
    assert cls._fields == tuple(fields.split())
    defaults = {f: d(7) if callable(d) else d for f, d in cls._field_defaults.items()}
    assert defaults == (FAMILY_DEFAULTS if cls is families.Family else {})
    before = tuple(record)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert tuple(record) == before
    field, new = cls._fields[-1], object()
    copy = record._replace(**{field: new})
    assert type(copy) is cls and copy is not record and tuple(record) == before
    assert getattr(copy, field) is new
    assert all(getattr(copy, f) is getattr(record, f) for f in cls._fields if f != field)


@functools.lru_cache(maxsize=None)
def modules_added_by_a_bare_cli_import():
    """A fresh interpreter with no site imports morirays.cli and builds the
    parser; only modules this adds count.  Without -S a site .pth file may
    preload typing and contextlib, and the probe could not see them.  The
    probe prints with repr, so it imports no json itself."""
    src = str(Path(morirays.__file__).resolve().parent.parent)
    probe = ("import sys\n"
             "before = set(sys.modules)\n"
             "sys.path.insert(0, sys.argv[1])\n"
             "import morirays.cli\n"
             "morirays.cli.build_parser()\n"
             "print(repr(sorted(set(sys.modules) - before)))\n")
    done = subprocess.run([sys.executable, "-I", "-S", "-c", probe, src], capture_output=True, text=True,
                          timeout=60, check=True)
    added = frozenset(ast.literal_eval(done.stdout))
    assert "morirays.cli" in added
    return added


def test_importing_the_cli_loads_no_typing_or_contextlib():
    assert not modules_added_by_a_bare_cli_import() & {"typing", "contextlib"}


def test_importing_the_cli_loads_no_dataclasses_inspect_or_csv():
    assert not modules_added_by_a_bare_cli_import() & {"dataclasses", "inspect", "csv"}


@pytest.mark.skipif(importlib.util.find_spec("_json") is None, reason="no C JSON module; cli falls back to json.encoder")
def test_importing_the_cli_loads_no_json():
    """The JSON writer takes encode_basestring_ascii from the C module _json,
    so no json module loads where _json exists."""
    assert not modules_added_by_a_bare_cli_import() & {"json", "json.decoder", "json.encoder", "json.scanner"}


def test_importing_the_cli_builds_no_forward_ref_and_loads_no_fractions():
    """A fresh isolated interpreter counts the typing.ForwardRef objects built
    while it imports morirays.cli and builds the parser: typing-built records
    and Union aliases would build one per string annotation.  No fractions or
    decimal module is loaded either; only modules this adds count."""
    src = str(Path(morirays.__file__).resolve().parent.parent)
    probe = ("import sys, typing\n"
             "built = []\n"
             "init = typing.ForwardRef.__init__\n"
             "def counting(self, *args, **kwargs):\n"
             "    built.append(args[0] if args else kwargs)\n"
             "    init(self, *args, **kwargs)\n"
             "typing.ForwardRef.__init__ = counting\n"
             "before = set(sys.modules)\n"
             "sys.path.insert(0, sys.argv[1])\n"
             "import morirays.cli\n"
             "morirays.cli.build_parser()\n"
             "print(repr((built, sorted(set(sys.modules) - before))))\n")
    done = subprocess.run([sys.executable, "-I", "-c", probe, src], capture_output=True, text=True,
                          timeout=60, check=True)
    built, added = ast.literal_eval(done.stdout)
    assert "morirays.cli" in added
    assert built == []
    assert not set(added) & {"fractions", "decimal", "_decimal", "numbers"}


def test_fractions_imported_after_morirays_are_accepted():
    """Fraction inputs are recognised without importing fractions, so a
    Fraction built after morirays was imported still counts as rational."""
    src = str(Path(morirays.__file__).resolve().parent.parent)
    probe = ("import sys\n"
             "sys.path.insert(0, sys.argv[1])\n"
             "import morirays\n"
             "from morirays import DivisorClass, QuadNum\n"
             "assert 'fractions' not in sys.modules\n"
             "from fractions import Fraction\n"
             "half = QuadNum(Fraction(1, 2))\n"
             "assert half == Fraction(1, 2)\n"
             "assert hash(half) == hash(Fraction(1, 2))\n"
             "degree = DivisorClass(Fraction(3, 2), [1]).degree\n"
             "assert type(degree) is QuadNum and degree == QuadNum(3, 0) / 2\n"
             "assert type(half.a) is Fraction\n"
             "print('ok')\n")
    done = subprocess.run([sys.executable, "-I", "-S", "-c", probe, src], capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"


def _functions(owner, module):
    """The functions and methods that `module` defines in `owner`: the module
    itself or one of its classes, with the accessors of each property."""
    for obj in vars(owner).values():
        obj = getattr(obj, "__func__", obj)  # a classmethod or staticmethod
        if isinstance(obj, property):
            yield from (f for f in (obj.fget, obj.fset) if f is not None)
        elif getattr(obj, "__module__", None) != module.__name__:
            continue
        elif isinstance(obj, type):
            yield from _functions(obj, module)
        elif callable(obj):
            yield obj


def test_every_annotation_resolves():
    """typing.get_type_hints evaluates the annotations of every function and
    method of the package.  `Fraction` comes through localns: the modules name
    it only in annotations, and import `fractions` only when a Fraction is built."""
    import typing
    from fractions import Fraction

    names = [m.name for m in pkgutil.iter_modules(morirays.__path__) if m.name != "__main__"]
    modules = [importlib.import_module(f"morirays.{name}") for name in names]
    functions = [f for mod in modules for f in _functions(mod, mod)]
    assert {dynamics.iterate, cremona.ShapeMatrix.__init__, quadfield.RadicalSum._from_pieces.__func__,
            quadfield.QuadNum.a.fget, cli._parsers, lattice.DivisorClass.__init__} <= set(functions)
    unresolved = {}
    for f in functions:
        try:
            typing.get_type_hints(f, localns={"Fraction": Fraction})
        except NameError as e:
            unresolved[f"{f.__module__}.{f.__qualname__}"] = str(e)
    assert unresolved == {}
