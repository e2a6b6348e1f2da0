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
from .groebner import (
    GroebnerBasis,
    buchberger,
    ideal_equal,
    normal_form,
    quotient_dimension,
)
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
    square_reduction,
    standard_monomial_basis,
    straighten_by_rewrite,
    straighten_by_solve,
    tanisaki_ideal,
    verify_relations,
    verify_square_reduction,
)

__version__ = "0.1.0"
