"""Exact Stiefel-Whitney classes of orthogonal representations of SL(2,q).

Everything is computed with exact arithmetic: finite fields as numpy tables
built from multiplication matrices, the character value at a class of order
o as an integer vector over Z/o read through its traces (eigenvalue spectra
for the irreducible characters), cohomology classes as per-degree sets of
integer-coded monomials.  The
`oracle` module re-derives every class by brute force from restrictions to
small subgroups, independently of the closed formulas in `swc`.
"""

from .algebra import (
    CompositeP,
    NotRationalInteger,
    field_make,
)
from .characters import (
    BadConstructionParams,
    CharacterTable,
    ClassFunction,
    VirtualRep,
    char_table,
    cuspidal_sl,
    decompose_orthogonal,
    fs_indicator,
    induce,
    principal_series_sl,
    regular_rep,
    restrict,
    symmetrize,
    trivial_rep,
)
from .cohomology import (
    GradedClass,
    RestrictionMap,
    Ring,
    dickson,
    steenrod_sq,
)
from .groups import (
    ConjugacyData,
    Group,
    Subgroup,
    build_gl2,
    build_sl2,
    conjugacy,
    find_quaternion,
    gen_quaternion,
    quaternion_embeddings,
    standard_subgroup,
)
from .oracle import (
    Mismatch,
    swc_from_center,
    swc_from_quaternion,
    swc_from_unipotent,
    verify_swc_formula,
    wu_formula_holds,
)
from .swc import (
    SwcReport,
    TotalSWC,
    image_exponent,
    obstruction,
    quaternionic_multiplicity,
    swc_report,
    top_class_nonzero,
    total_swc,
    total_swc_expanded,
    unipotent_multiplicities,
)

__version__ = "0.1.0"
