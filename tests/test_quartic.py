import copy
from fractions import Fraction

import pytest

from kstrata import quartic
from kstrata.polynomials import Polynomial, PolynomialError
from kstrata.quartic import (
    UnknownConstructionError,
    available_constructions,
    smoothness_certificate,
    verify_sporadic,
)
from kstrata.series import branch_series, vanishing_order

XYZ = ("x", "y", "z")


def homog(text):
    return Polynomial.from_string(text, XYZ)


def test_fermat_quartic_is_smooth():
    cert = smoothness_certificate(homog("x^4 + y^4 + z^4"))
    assert cert.status == "smooth"


def test_embedded_quartics_are_smooth():
    first = homog(
        "x^4 - x*y^3 + x^3*z - y^3*z - x^2*z^2 - x*y*z^2 - y^2*z^2 + y*z^3"
    )
    assert smoothness_certificate(first).status == "smooth"


def test_double_conic_is_never_smooth():
    cert = smoothness_certificate(homog("x^4 + y^4 + z^4 + 2*x^2*y^2 + 2*x^2*z^2 + 2*y^2*z^2"))
    assert cert.status in ("singular", "not_certified")


def test_nodal_quartic_singular_point_is_found():
    cert = smoothness_certificate(homog("y^2*z^2 - x^4"))
    assert cert.status == "singular"
    assert cert.point is not None
    x, y, z = cert.point
    assert (x, y) == (Fraction(0), Fraction(0)) or (x, z) == (Fraction(0), Fraction(0))


def test_smoothness_requires_homogeneous_three_variables():
    with pytest.raises(PolynomialError, match="homogeneous"):
        smoothness_certificate(homog("x^4 + y^3"))
    with pytest.raises(PolynomialError, match="three"):
        smoothness_certificate(Polynomial.from_string("x^2 + y^2", ("x", "y")))


def test_available_constructions():
    assert available_constructions() == ("OddArf_h0_0", "OddArf_h0_1")


def test_verify_first_construction():
    report = verify_sporadic("OddArf_h0_0")
    assert report.all_passed
    names = [c.name for c in report.checks]
    assert names == [
        "smoothness",
        "affine_form_matches_quartic",
        "branch_series",
        "cubic_vanishing_order",
        "quadratic_vanishing_order",
        "tangent_contact_order",
    ]


def test_verify_second_construction():
    report = verify_sporadic("OddArf_h0_1")
    assert report.all_passed
    assert "quadratic_vanishing_order" not in [c.name for c in report.checks]


def test_unknown_construction():
    with pytest.raises(UnknownConstructionError, match="unknown"):
        verify_sporadic("nope")


def test_precision_must_cover_the_order_twelve_checks():
    with pytest.raises(ValueError, match="order-12"):
        verify_sporadic("OddArf_h0_0", precision=11)


def test_perturbed_cubic_breaks_the_contact_order():
    f = Polynomial.from_string(
        "x^4 - x*y^3 + x^3 - y^3 - x^2 - x*y - y^2 + y", ("x", "y")
    )
    g = Polynomial.from_string("2*x^3 - y^3 - x^2 - 2*x*y + y", ("x", "y"))
    phi = branch_series(f, 13)
    assert vanishing_order(g, phi, 13) == 12
    perturbed = g + Polynomial.from_string("x^3", ("x", "y"))
    assert vanishing_order(perturbed, phi, 13) != 12


def _corrupted(field, value):
    """The embedded constructions with one field of OddArf_h0_0 replaced."""
    data = copy.deepcopy(quartic._load_constructions())
    entry = data["OddArf_h0_0"]
    *path, last = field
    for key in path:
        entry = entry[key]
    entry[last] = value
    return data


AFFINE = "x^4 - x*y^3 + x^3 - y^3 - x^2 - x*y - y^2 + y"
BRANCH = "1*x^2 + 1*x^6 + 2*x^7 + 4*x^8 + 8*x^9 + 19*x^10 + 44*x^11 + {}*x^12"
# (1 + x) * AFFINE has the same branch at the origin, but is not the quartic at z = 1
SCALED = str(Polynomial.from_string(AFFINE, ("x", "y")) * Polynomial.from_string("1 + x", ("x", "y")))
CORRUPTIONS = {
    "cubic_vanishing_order": (("expected", "cubic_order"), 11, "11", "12"),
    "tangent_contact_order": (("expected", "contact_order"), 3, "3", "2"),
    "branch_series": (("branch_coefficients", "12"), 102, BRANCH.format(102), BRANCH.format(101)),
    "affine_form_matches_quartic": (("affine",), SCALED, SCALED, AFFINE),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_one_corrupted_field_fails_only_its_check(monkeypatch, name):
    field, value, expected, actual = CORRUPTIONS[name]
    data = _corrupted(field, value)
    monkeypatch.setattr(quartic, "_load_constructions", lambda: data)
    report = verify_sporadic("OddArf_h0_0")
    assert not report.all_passed
    assert [c.name for c in report.checks if not c.passed] == [name]
    (failed,) = [c for c in report.checks if c.name == name]
    assert (failed.expected, failed.actual) == (expected, actual)
