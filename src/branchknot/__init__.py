"""Branched minimal disks in R^4: perturbation families, double points,
branch-point knots and their braid invariants."""

from .cpoly import CPoly
from .weierstrass import (
    WeierstrassData,
    branch_points,
    evaluate_F,
    gauss_maps,
    jacobian,
    load,
    symplectic_positivity,
    tangent_plane,
)
from .deformation import (
    FamilyMember,
    PerturbParams,
    build_family_member,
    check_X1,
    gauss_invariance_residual,
    sample_generic,
    transversality_determinant,
    transversality_determinant_direct,
)
from .intersect import DoublePoint, brute_force_double_points, find_double_points
from .knot import (
    BraidDiagram,
    KnotCurve,
    VerifyReport,
    algebraic_crossing_number,
    braid_from_knot,
    check_crossing_routes,
    contact_transversality_margin,
    linking_number_gauss,
    read_slice,
    select_eta,
    trace_slice,
    verify_double_point_formula,
)
from . import errors

__version__ = "0.1.0"
