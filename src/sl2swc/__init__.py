"""Exact Stiefel-Whitney classes of orthogonal representations of SL(2,q).

Everything is computed with exact arithmetic: finite fields as numpy tables
built from multiplication matrices, the character value at a class of order
o as an integer vector over Z/o read through its traces (eigenvalue spectra
for the irreducible characters), cohomology classes as per-degree sets of
integer-coded monomials.  The
`oracle` module re-derives every class by brute force from restrictions to
small subgroups, independently of the closed formulas in `swc`.

`import sl2swc` runs none of the submodules, so a command pays start-up only
for what it uses: `dickson` and `cohomology` run `cohomology` alone and never
import numpy.  Each submodule is registered with `importlib.util.LazyLoader`
and runs on first attribute access, and the names re-exported here resolve
through `__getattr__` (PEP 562).  The modules sit in `sys.modules` from the
start because the benchmark's tracer (`perfbench/tracer.py`) imports only
`sl2swc.cli`, then wraps functions of every module it finds there.  Once the
package records its own spans and the tracer goes (ROADMAP.md, "Spans in the
package"), plain imports inside each command will do.
"""

import importlib.util
import sys

_EXPORTS = {
    "algebra": ("CompositeP", "NotRationalInteger", "field_make"),
    "characters": (
        "BadConstructionParams", "CharacterTable", "ClassFunction", "VirtualRep",
        "char_table", "cuspidal_sl", "decompose_orthogonal", "fs_indicator", "induce",
        "principal_series_sl", "regular_rep", "restrict", "symmetrize", "trivial_rep",
    ),
    "cohomology": ("GradedClass", "RestrictionMap", "Ring", "dickson", "steenrod_sq"),
    "groups": (
        "ConjugacyData", "Group", "Subgroup", "build_gl2", "build_sl2", "conjugacy",
        "find_quaternion", "gen_quaternion", "quaternion_embeddings", "standard_subgroup",
    ),
    "oracle": (
        "Mismatch", "swc_from_center", "swc_from_quaternion", "swc_from_unipotent",
        "verify_swc_formula", "wu_formula_holds",
    ),
    "swc": (
        "SwcReport", "TotalSWC", "image_exponent", "obstruction", "quaternionic_multiplicity",
        "swc_report", "top_class_nonzero", "total_swc", "total_swc_expanded",
        "unipotent_multiplicities",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def _lazy(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in _EXPORTS:
    globals()[_name] = _lazy(_name)
del _name


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


__version__ = "0.1.0"
