"""Exact-arithmetic toolkit for components of strata of k-differentials.

Classifies primitive nonhyperelliptic components (counts plus invariant
labels), computes the supporting combinatorial invariants (rotation
numbers, Arf and spin parities, prong matching classes, degeneration
feasibility), and certifies the sporadic genus-3 cubic constructions with
rational polynomial arithmetic.
"""

from .classifier import (
    ArfLabeled,
    BreakdownRow,
    ComponentReport,
    CubicSporadic,
    Generic,
    GenusOne,
    RelativeArfLabeled,
    full_component_breakdown,
    primitive_nonhyperelliptic_components,
)
from .degeneration import (
    enumerate_zero_splits,
    genus0_has_cylinder,
    genus0_has_simple_cylinder,
    is_exceptional_stratum,
    merge_feasible_same_sign,
    merge_result,
    simple_degeneration_exists,
    split_result,
    undo_split,
)
from .errors import RotationError, SignatureError, StratumError, UnsupportedCase
from .framing import (
    Mod2QuadraticForm,
    SymplecticFramingValues,
    arf,
    boundary_framing_value,
    quadratic_eval,
    relative_arf,
    spin,
    torus_framing_value,
)
from .genus_one import (
    GenusOneComponent,
    GenusOneMerge,
    components,
    default_split_witness,
    hyperelliptic_genus_one,
    merge,
    split_to_sphere,
)
from .polynomials import Polynomial, PolynomialError, resultant
from .prong import (
    ProngHomImage,
    enumerate_local_classes,
    global_classes_genus_one_split,
    local_classes,
    prong_hom_image,
)
from .quartic import (
    SmoothnessCertificate,
    SporadicReport,
    smoothness_certificate,
    verify_sporadic,
)
from .series import AtLeast, PowerSeries, SeriesError, branch_series, tangent_contact_order, vanishing_order
from .signature import (
    StratumSignature,
    format_signature,
    gcd_orders,
    hyperelliptic_signature_pattern,
    imprimitive_divisors,
    is_connected_type,
    is_finite_area,
    is_invisible_pole,
    parse_signature,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "ArfLabeled",
    "AtLeast",
    "BreakdownRow",
    "ComponentReport",
    "CubicSporadic",
    "Generic",
    "GenusOne",
    "GenusOneComponent",
    "GenusOneMerge",
    "Mod2QuadraticForm",
    "Polynomial",
    "PolynomialError",
    "PowerSeries",
    "ProngHomImage",
    "RelativeArfLabeled",
    "RotationError",
    "SeriesError",
    "SignatureError",
    "SmoothnessCertificate",
    "SporadicReport",
    "StratumError",
    "StratumSignature",
    "SymplecticFramingValues",
    "UnsupportedCase",
    "arf",
    "boundary_framing_value",
    "branch_series",
    "components",
    "default_split_witness",
    "enumerate_local_classes",
    "enumerate_zero_splits",
    "format_signature",
    "full_component_breakdown",
    "gcd_orders",
    "genus0_has_cylinder",
    "genus0_has_simple_cylinder",
    "global_classes_genus_one_split",
    "hyperelliptic_genus_one",
    "hyperelliptic_signature_pattern",
    "imprimitive_divisors",
    "is_connected_type",
    "is_exceptional_stratum",
    "is_finite_area",
    "is_invisible_pole",
    "local_classes",
    "merge",
    "merge_feasible_same_sign",
    "merge_result",
    "parse_signature",
    "primitive_nonhyperelliptic_components",
    "prong_hom_image",
    "quadratic_eval",
    "relative_arf",
    "resultant",
    "simple_degeneration_exists",
    "smoothness_certificate",
    "spin",
    "split_result",
    "split_to_sphere",
    "tangent_contact_order",
    "torus_framing_value",
    "undo_split",
    "validate",
    "vanishing_order",
    "verify_sporadic",
]
