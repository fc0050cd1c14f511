"""Exact-arithmetic toolkit for components of strata of k-differentials.

Classifies primitive nonhyperelliptic components (counts plus invariant
labels), computes the supporting combinatorial invariants (rotation
numbers, Arf and spin parities, prong matching classes, degeneration
feasibility), and certifies the sporadic genus-3 cubic constructions with
rational polynomial arithmetic.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name and the submodule it lives in; a name's module is
# imported on first access, so ``import kstrata`` itself loads nothing
_HOMES = {
    "classifier": (
        "ArfLabeled",
        "BreakdownRow",
        "ComponentReport",
        "CubicSporadic",
        "Generic",
        "GenusOne",
        "RelativeArfLabeled",
        "full_component_breakdown",
        "primitive_nonhyperelliptic_components",
    ),
    "degeneration": (
        "enumerate_zero_splits",
        "genus0_has_cylinder",
        "genus0_has_simple_cylinder",
        "merge_feasible_same_sign",
        "merge_result",
        "split_result",
        "undo_split",
    ),
    "errors": ("RotationError", "SignatureError", "StratumError", "UnsupportedCase"),
    "framing": (
        "Mod2QuadraticForm",
        "SymplecticFramingValues",
        "arf",
        "boundary_framing_value",
        "quadratic_eval",
        "relative_arf",
        "spin",
    ),
    "genus_one": (
        "GenusOneComponent",
        "GenusOneMerge",
        "components",
        "merge",
        "split_to_sphere",
    ),
    "polynomials": ("Polynomial", "PolynomialError", "resultant"),
    "prong": (
        "ProngHomImage",
        "enumerate_local_classes",
        "global_classes_genus_one_split",
        "local_classes",
        "prong_hom_image",
    ),
    "quartic": (
        "SmoothnessCertificate",
        "SporadicReport",
        "smoothness_certificate",
        "verify_sporadic",
    ),
    "series": ("PowerSeries", "SeriesError", "branch_series", "intersection_multiplicity"),
    "signature": (
        "StratumSignature",
        "imprimitive_divisors",
        "validate",
    ),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME_OF)


def __getattr__(name: str):
    if name in _HOMES:
        return import_module(f".{name}", __name__)
    home = _HOME_OF.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
