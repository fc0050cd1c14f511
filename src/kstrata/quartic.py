"""Plane-quartic certification for the sporadic genus-3 cubic components.

Verifies, in exact rational arithmetic, that the embedded quartic
constructions behave as claimed: the curve is smooth, the marked branch has
the stated expansion, the cubic meets it to order 12, and the tangency at
the marked point has the stated contact order.  The contact orders are
intersection numbers at the marked point, computed without series; the
branch expansion is computed and compared through x^12.

Smoothness is checked over the disjoint union P^2 = A^2, A^1, {pt} (Cox,
Little and O'Shea, Ideals, Varieties, and Algorithms, 8.2); for a curve in
x, y, z: the affine chart x = 1 by resultants, then the line x = 0, y = 1
by one univariate gcd and the point (0 : 0 : 1) by evaluation.  Only when
one of these is not clean are the charts y = 1 and z = 1 checked in full,
to exhibit a singular point or say why none was found.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .constructions import available_constructions, load_constructions as _load_constructions
from .polynomials import (
    Polynomial,
    PolynomialError,
    gcd_many,
    rational_roots,
    resultant,
)
from .series import branch_series, intersection_multiplicity, require_x_axis_tangent


class UnknownConstructionError(ValueError):
    """No embedded construction is registered under the requested name."""


@dataclass(frozen=True)
class SmoothnessCertificate:
    """Semi-decision for smoothness of a projective plane curve.

    For v0, v1, v2 the curve's variables, ``smooth`` (detail ``"all charts
    certified"``) means the chart v0 = 1 was certified by a constant gcd of
    resultants of the partials, and the line v0 = 0 and the point
    (0 : 0 : 1) that it misses are clean: the partials have no common zero
    in P^2.  ``singular`` exhibits an exact rational common zero of the
    partials.  Anything else is ``not_certified``.
    """

    status: str  # "smooth" | "singular" | "not_certified"
    point: tuple[Fraction, Fraction, Fraction] | None = None
    detail: str = ""


@dataclass(frozen=True)
class SporadicCheck:
    name: str
    passed: bool
    expected: str
    actual: str


@dataclass(frozen=True)
class SporadicReport:
    construction: str
    checks: tuple[SporadicCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _chart_survey(partials, chart):
    """Dehomogenized partials on one chart, deduplicated, plus a unit flag."""
    specialized = [p.substitute(chart, 1) for p in partials]
    nonzero = list(dict.fromkeys(g for g in specialized if not g.is_zero()))
    has_unit = any(g.is_constant() for g in nonzero)
    return nonzero, has_unit


def _certify_chart(gs, elim, other):
    """Try to certify that the chart has no common zero, eliminating one way.

    Returns (certified, gcd_poly): the gcd of the eliminants in the other
    variable, or None when an eliminant degenerates.
    """
    degrees = [g.degree_in(elim) for g in gs]
    if max(degrees) > 0:
        base = gs[degrees.index(max(degrees))]
        eliminants = [g for g, d in zip(gs, degrees) if d <= 0]
        for g, d in zip(gs, degrees):
            if g is base or d <= 0:
                continue
            r = resultant(base, g, elim)
            if r.is_zero():
                return False, None
            eliminants.append(r)
        if not eliminants:
            return False, None
    else:
        eliminants = list(gs)
    g = gcd_many(eliminants, other)
    if not g.is_zero() and g.is_constant():
        return True, g
    return False, g


def _search_singular_point(partials, variables, chart, gs, gcd_poly, elim, other):
    """Look for an exact rational common zero in one chart."""
    if gcd_poly is None or gcd_poly.is_zero():
        return None
    for t in rational_roots(gcd_poly, other):
        slices = [g.substitute(other, t) for g in gs]
        if any(s.is_constant() and not s.is_zero() for s in slices):
            continue
        candidates = [s for s in slices if not s.is_zero()]
        if not candidates:
            continue
        pencil = gcd_many(candidates, elim)
        if pencil.is_zero() or pencil.is_constant():
            continue
        for u in rational_roots(pencil, elim):
            point = {chart: Fraction(1), elim: u, other: t}
            if all(p.evaluate(point) == 0 for p in partials):
                return tuple(point[v] for v in variables)
    return None


def _chart_certificate(partials, variables, chart) -> SmoothnessCertificate:
    """The verdict on the affine chart ``chart = 1`` alone.

    ``smooth`` when the chart is certified, ``singular`` with an exact
    rational common zero of the partials on it, else ``not_certified``
    with the reason.
    """
    others = [v for v in variables if v != chart]
    gs, has_unit = _chart_survey(partials, chart)
    if has_unit:
        return SmoothnessCertificate("smooth")
    if not gs:
        return SmoothnessCertificate("not_certified", None, "all partials vanish identically")
    for elim, other in (others, others[::-1]):
        ok, gcd_poly = _certify_chart(gs, elim, other)
        if ok:
            return SmoothnessCertificate("smooth")
        point = _search_singular_point(partials, variables, chart, gs, gcd_poly, elim, other)
        if point is not None:
            return SmoothnessCertificate(
                "singular", point, f"common zero found on chart {chart} = 1"
            )
    return SmoothnessCertificate("not_certified", None, "no elimination order gave a constant gcd")


def _clean_at_infinity(partials, variables) -> bool:
    """True if the partials have no common zero on the line v0 = 0.

    That line is the affine line v0 = 0, v1 = 1, where the partials are
    univariate in v2, plus the point (0 : 0 : 1).  The line is clean when the
    gcd of the partials there is a nonzero constant; the point is clean when
    some partial is nonzero at it.
    """
    v0, v1, v2 = variables
    g = gcd_many([p.substitute(v0, 0).substitute(v1, 1) for p in partials], v2)
    if g.is_zero() or not g.is_constant():
        return False
    point = {v0: 0, v1: 0, v2: 1}
    return any(p.evaluate(point) for p in partials)


def smoothness_certificate(F: Polynomial) -> SmoothnessCertificate:
    """Certify smoothness of the projective curve F = 0 when possible.

    P^2 is covered as A^2, the line at infinity minus a point, and that
    point, for ``v0, v1, v2 = F.variables``: first the chart v0 = 1, where
    the partial derivatives are dehomogenized and one variable is eliminated
    by resultants, a constant gcd proving the chart free of singular points;
    then, if that chart is certified, the line v0 = 0, v1 = 1 by one
    univariate gcd and the point (0 : 0 : 1) by evaluation.  If those are
    clean too, the curve is smooth.  Otherwise the charts v1 = 1 and
    v2 = 1 are checked in full as the first one was; they cannot certify
    what the line or the point left open, but may exhibit a rational common
    zero, which proves singularity.  Everything else is reported as not
    certified, with the reason for each chart that failed.
    """
    if len(F.variables) != 3:
        raise PolynomialError("expected a polynomial in three variables")
    if not F.is_homogeneous() or F.degree() < 1:
        raise PolynomialError("expected a homogeneous polynomial of positive degree")
    partials = [F.partial_derivative(v) for v in F.variables]
    uncertified = []
    for chart in F.variables:
        verdict = _chart_certificate(partials, F.variables, chart)
        if verdict.status == "singular":
            return verdict
        if verdict.status == "not_certified":
            uncertified.append((chart, verdict.detail))
        elif chart == F.variables[0] and _clean_at_infinity(partials, F.variables):
            break
    if not uncertified:
        return SmoothnessCertificate("smooth", None, "all charts certified")
    detail = "; ".join(f"{chart}: {why}" for chart, why in uncertified)
    return SmoothnessCertificate("not_certified", None, detail)


def verify_sporadic(construction_id: str) -> SporadicReport:
    """Run every certification check for one embedded quartic construction.

    The contact orders are the intersection numbers of the affine quartic
    f with the cubic, the quadratic and the x-axis at the origin, a simple
    point of f, so they are exact.  The branch series of f is computed
    through x^12, and its 13 coefficients are compared with the data file.
    """
    constructions = _load_constructions()
    if construction_id not in constructions:
        raise UnknownConstructionError(
            f"unknown construction {construction_id!r}; "
            f"choose from {sorted(constructions)}"
        )
    data = constructions[construction_id]
    F = Polynomial.from_string(data["quartic"], ("x", "y", "z"))
    f = Polynomial.from_string(data["affine"], ("x", "y"))
    g = Polynomial.from_string(data["cubic"], ("x", "y"))
    expected = data["expected"]
    checks = []

    def check(name, want, got):
        want, got = str(want), str(got)
        checks.append(SporadicCheck(name, want == got, want, got))

    check("smoothness", "smooth", smoothness_certificate(F).status)
    affine = F.substitute("z", 1).terms
    affine2 = Polynomial(("x", "y"), {e[:2]: c for e, c in affine.items()})
    check("affine_form_matches_quartic", f, affine2)

    # raises unless the origin is a simple point of f, where the intersection
    # numbers below are orders of vanishing along its branch
    phi = branch_series(f, 12)
    wanted = [Fraction(0)] * 13
    for key, value in data["branch_coefficients"].items():
        wanted[int(key)] = Fraction(value)
    check("branch_series", _series_text(wanted), _series_text(phi.coefficients))
    check("cubic_vanishing_order", expected["cubic_order"], intersection_multiplicity(f, g))
    if "quadratic" in data:
        h = Polynomial.from_string(data["quadratic"], ("x", "y"))
        order = intersection_multiplicity(f, h)
        check("quadratic_vanishing_order", expected["quadratic_order"], order)

    require_x_axis_tangent(f)
    # the contact order of the x-axis with the branch
    y = Polynomial.variable("y", ("x", "y"))
    check("tangent_contact_order", expected["contact_order"], intersection_multiplicity(f, y))
    return SporadicReport(construction_id, tuple(checks))


def _series_text(coeffs) -> str:
    parts = [f"{c}*x^{n}" for n, c in enumerate(coeffs) if c]
    return " + ".join(parts) if parts else "0"
