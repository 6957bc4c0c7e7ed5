"""`import sl2swc` runs no submodule: each command runs only the modules it
uses, and the names the package re-exports still resolve."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sl2swc
from sl2swc import cli

SRC = str(Path(__file__).resolve().parent.parent / "src")
ENV = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}

MODULES = ("algebra", "groups", "characters", "cohomology", "swc", "oracle")
TABLE = ["algebra", "groups", "characters"]

# a fresh process per command: after it, whether numpy was imported and which
# submodules ran (a lazy module that has not run is not a plain ModuleType)
PROBE = ("import json, sys, types\n"
         "from sl2swc import cli\n"
         "code = cli.run(sys.argv[1:])\n"
         f"ran = [m for m in {MODULES!r}\n"
         "       if type(sys.modules['sl2swc.' + m]) is types.ModuleType]\n"
         "print(json.dumps([code, 'numpy' in sys.modules, ran]), file=sys.stderr)\n")


CASES = [
    ("dickson --rank 2", 0, False, ["cohomology"]),
    ("cohomology --group Q8 --max-degree 8", 0, False, ["cohomology"]),
    ("dickson --rank 7", 2, False, []),
    ("cohomology --group c2:7 --max-degree 4", 2, False, ["cohomology"]),
    ("table --q 5", 0, True, TABLE),
    ("swc --q 5 --rep reg", 0, True, TABLE + ["cohomology", "swc"]),
    ("verify --q 3 --suite theorem --trials 1", 0, True, list(MODULES)),
]


@pytest.mark.parametrize("argv, code, numpy, ran", CASES, ids=[c[0] for c in CASES])
def test_a_command_runs_only_its_modules(argv, code, numpy, ran):
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv.split()],
                          env=ENV, capture_output=True, text=True, timeout=60)
    assert json.loads(proc.stderr.splitlines()[-1]) == [code, numpy, ran]


def test_python_m_runs_warning_free(capsys):
    # runpy warns when sl2swc.cli is in sys.modules before it runs as __main__
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "sl2swc.cli",
                           "dickson", "--rank", "2"],
                          env=ENV, capture_output=True, text=True, timeout=60)
    assert cli.run(["dickson", "--rank", "2"]) == 0
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, capsys.readouterr().out, "")


# every name the package exported when it imported each submodule eagerly
EXPORTS = {
    "algebra": ["CompositeP", "NotRationalInteger", "field_make"],
    "characters": [
        "BadConstructionParams", "CharacterTable", "ClassFunction", "VirtualRep", "char_table",
        "cuspidal_sl", "decompose_orthogonal", "fs_indicator", "induce", "principal_series_sl",
        "regular_rep", "restrict", "symmetrize", "trivial_rep",
    ],
    "cohomology": ["GradedClass", "RestrictionMap", "Ring", "dickson", "steenrod_sq"],
    "groups": [
        "ConjugacyData", "Group", "Subgroup", "build_gl2", "build_sl2", "conjugacy",
        "find_quaternion", "gen_quaternion", "quaternion_embeddings", "standard_subgroup",
    ],
    "oracle": [
        "Mismatch", "swc_from_center", "swc_from_quaternion", "swc_from_unipotent",
        "verify_swc_formula", "wu_formula_holds",
    ],
    "swc": [
        "SwcReport", "TotalSWC", "image_exponent", "obstruction", "quaternionic_multiplicity",
        "swc_report", "top_class_nonzero", "total_swc", "total_swc_expanded",
        "unipotent_multiplicities",
    ],
}


@pytest.mark.parametrize("module, name",
                         [(m, n) for m, names in EXPORTS.items() for n in names],
                         ids=lambda a: a)
def test_an_exported_name_resolves(module, name):
    want = getattr(getattr(sl2swc, module), name)
    ns = {}
    exec(f"from sl2swc import {name}", ns)
    assert getattr(sl2swc, name) is want and ns[name] is want


def test_the_exports_are_pinned():
    assert sum(map(len, EXPORTS.values())) == 48
    ns = {}
    exec("from sl2swc import *", ns)
    assert {n for names in EXPORTS.values() for n in names} <= ns.keys()
    exec("from sl2swc import __version__", ns)
    assert ns["__version__"] == sl2swc.__version__ == "0.1.0"


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        sl2swc.no_such_name
    assert not hasattr(sl2swc, "binom_mod2")
