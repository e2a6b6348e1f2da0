"""Exact computation of the circle-equivariant and ordinary cohomology
presentations of two-row Springer varieties."""

from .polynomials import (
    MPoly,
    PolyParseError,
    elementary_symmetric,
    format_poly,
    parse_poly,
    variable_names,
)
from .tpoly import TPoly
# none of groebner's names is exported and no check uses it; it is loaded
# because the benchmark's tracer (perfbench/tracer.py::install) wraps its
# functions, reaching it only through tworow.cli, which loads every submodule
from . import groebner
from .tableaux import (
    Partition,
    TwoRowFilling,
    binomial_hook_identity,
    enumerate_standard_tableaux,
    filling_from_monomial,
    hook_count,
    hook_length,
    is_permissible,
    is_standard,
    monomial_from_filling,
    two_row_shape,
)
from .springer import (
    BasisMatrix,
    ConsistencyError,
    FixedPoint,
    IdealPresentation,
    SpringerContext,
    basis_combination,
    basis_image_matrix,
    build_fixed_point,
    equivariant_ideal,
    fixed_points,
    fixed_points_bruteforce,
    kernel_ideal_comparisons,
    localize,
    localize_all,
    ordinary_ideal,
    ordinary_presentation_check,
    standard_monomial_basis,
    straighten_by_rewrite,
    straighten_by_solve,
    tanisaki_ideal,
    verify_relations,
    verify_square_reduction,
)

__version__ = "0.1.0"
