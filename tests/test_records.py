"""Result records: immutable NamedTuples, copied with `_replace`, and an import
path that loads no `dataclasses` and no `json`."""

import ast
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import morirays
from morirays import DivisorClass, cremona, dynamics, families, verify

LINE = DivisorClass(1, [1, 0, 0])

# one record of each class, from a real call where one exists
RECORDS = {
    "cremona.ReductionResult": lambda: cremona.cremona_reduce(DivisorClass(5, [2, 2, 2, 1])),
    "dynamics.Eigenvalue": lambda: dynamics.eigen(families.shape_matrix("odd", 2)).eigenvalues[0],
    "dynamics.EigenDecomposition": lambda: dynamics.eigen(families.shape_matrix("odd", 2)),
    "dynamics.OrbitSequence": lambda: dynamics.iterate(families.shape_matrix("even", 1), families.PENCIL_SEED, 3),
    "dynamics.ConvergenceCertificate": lambda: dynamics.certify_convergence(
        families.shape_matrix("even", 2), families.LINE_SEED),
    "families.Family": lambda: families.Family("t", "T", families.wonderful_odd),
    "verify.Check": lambda: verify.Check("name", "statement", True),
    "verify.PencilCertificate": lambda: verify.certify_pencil(LINE),
    "verify.EmptinessCertificate": lambda: verify.verify_good("odd", 2, 1).emptiness,
    "verify.GoodRayCertificate": lambda: verify.verify_good("odd", 2, 1),
    "verify.WonderfulReport": lambda: verify.wonderful_report("even_plus", 2),
    "verify.SignRow": lambda: verify.SignRow(1, -1, families.wonderful_profile("sq2", 1).defernex_value()),
    "verify.SignTable": lambda: verify.defernex_sweep("sq2", 1, 2),
}


def test_every_record_class_is_listed():
    modules = {"cremona": cremona, "dynamics": dynamics, "families": families, "verify": verify}
    found = {f"{name}.{attr}" for name, mod in modules.items() for attr, obj in vars(mod).items()
             if type(obj) is type and issubclass(obj, tuple) and obj.__module__ == mod.__name__}
    assert found == set(RECORDS)


@pytest.mark.parametrize("path", RECORDS)
def test_record_is_immutable_and_replace_changes_one_field(path):
    record = RECORDS[path]()
    cls = getattr(getattr(morirays, path.split(".")[0]), path.split(".")[1])
    assert type(record) is cls
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


def test_importing_the_cli_loads_no_dataclasses_inspect_or_csv():
    """A fresh isolated interpreter imports morirays.cli and builds the parser;
    only modules this adds count, not ones a site .pth file preloads."""
    src = str(Path(morirays.__file__).resolve().parent.parent)
    probe = ("import json, sys\n"
             "before = set(sys.modules)\n"
             "sys.path.insert(0, sys.argv[1])\n"
             "import morirays.cli\n"
             "morirays.cli.build_parser()\n"
             "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    done = subprocess.run([sys.executable, "-I", "-c", probe, src], capture_output=True, text=True,
                          timeout=60, check=True)
    added = set(json.loads(done.stdout))
    assert "morirays.cli" in added
    assert not added & {"dataclasses", "inspect", "csv"}


@pytest.mark.skipif(importlib.util.find_spec("_json") is None, reason="no C JSON module; cli falls back to json.encoder")
def test_importing_the_cli_loads_no_json():
    """The JSON writer takes encode_basestring_ascii from the C module _json,
    so a fresh isolated interpreter that imports morirays.cli and builds the
    parser loads no json module.  The probe imports no json itself: it prints
    with repr."""
    src = str(Path(morirays.__file__).resolve().parent.parent)
    probe = ("import sys\n"
             "before = set(sys.modules)\n"
             "sys.path.insert(0, sys.argv[1])\n"
             "import morirays.cli\n"
             "morirays.cli.build_parser()\n"
             "print(repr(sorted(set(sys.modules) - before)))\n")
    done = subprocess.run([sys.executable, "-I", "-c", probe, src], capture_output=True, text=True,
                          timeout=60, check=True)
    added = set(ast.literal_eval(done.stdout))
    assert "morirays.cli" in added
    assert not added & {"json", "json.decoder", "json.encoder", "json.scanner"}
