"""Plane-quartic certification for the sporadic genus-3 cubic components.

Verifies, in exact rational arithmetic, that the embedded quartic
constructions behave as claimed: the curve is smooth, the marked branch has
the stated expansion, the cubic meets it to order 12, and the tangency at
the marked point has the stated contact order.  The contact orders are
intersection numbers at the marked point, computed without series; the
branch expansion is computed and compared through x^12.  The constructions
are read from ``data/sporadic_quartics.json``, which no other module reads.

Smoothness is checked over the disjoint union P^2 = {pt}, A^2, A^1 (Cox,
Little and O'Shea, Ideals, Varieties, and Algorithms, 8.2); for a curve in
x, y, z: the point (0 : 0 : 1) by one coefficient of each partial, then the
affine chart x = 1 by resultants, then the line x = 0, y = 1 by one
univariate gcd.  The point and the line are decided exactly; the chart
either proves itself clean or exhibits a rational singular point, and when
it does neither the chart origin (1 : 0 : 0) is tried the same way and
then the rank of the partials' Macaulay matrix decides (Cox, Little and
O'Shea, Using Algebraic Geometry, ch. 3), so every curve is smooth or
singular.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction

from .errors import UnsupportedCase
from .polynomials import (
    Polynomial,
    PolynomialError,
    gcd_many,
    integer_rank,
    rational_roots,
    resultant,
)
from .series import branch_series, intersection_multiplicity


# the elimination of a Macaulay matrix with R rows, C columns and rank at most
# r costs about R*C*r * (W + c)^2, W the words of Hadamard's bound on its
# r x r minors and c the fixed cost of a step in words, and the charge is
# held to this cap.  At the cap on a 2-vCPU Xeon guest: 3.4 s for a dense
# quartic with 690-bit coefficients (45 x 36, charged 0.94 of the cap), 0.8 s
# for a dense curve of degree 7 with one-digit coefficients (198 x 153, 0.39);
# degree 8 with one-digit coefficients (273 x 210) is refused, and took 3.6 s
MAX_RANK_WORK = 10**10
RANK_STEP_WORDS = 12  # c above


class UnknownConstructionError(ValueError):
    """No embedded construction is registered under the requested name."""


def _load_constructions() -> dict:
    path = os.path.join(os.path.dirname(__file__), "data", "sporadic_quartics.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


@dataclass(frozen=True)
class SmoothnessCertificate:
    """Decision on the smoothness of a projective plane curve.

    For v0, v1, v2 the curve's variables, ``smooth`` (detail ``"all charts
    certified"``) means the partials have no common zero in P^2: some
    partial is nonzero at (0 : 0 : 1), their gcd on the line v0 = 0, v1 = 1
    is a nonzero constant, and the chart v0 = 1 was certified by a constant
    gcd of resultants of the partials or, failing that, their Macaulay
    matrix has full rank.  ``singular`` proves a common zero: an exact
    rational one, with the detail ``"common zero found on chart v = 1"`` for
    the chart that contains it (v2 for (0 : 0 : 1), v0 for the chart, v1 for
    the line), or none when the line's gcd is not constant or the Macaulay
    rank is short, and no rational point was found.
    """

    status: str  # "smooth" | "singular"
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


def _chart_gcd(gs, elim, other):
    """The gcd in ``other`` of what eliminating ``elim`` from the chart leaves.

    The resultants of the partial of highest degree in ``elim`` with each
    other one that involves ``elim``, plus those free of it, all vanish at
    the projection of every common zero; one that vanishes identically says
    nothing and is left out.  A constant gcd certifies the chart; None means
    nothing was left.
    """
    degrees = [g.degree_in(elim) for g in gs]
    base = gs[degrees.index(max(degrees))]
    resultants = [resultant(base, g, elim) for g, d in zip(gs, degrees) if g is not base and d > 0]
    eliminants = [g for g, d in zip(gs, degrees) if d == 0]
    eliminants += [r for r in resultants if not r.is_zero()]
    return gcd_many(eliminants, other) if eliminants else None


def _on_line(p):
    """A nonzero multiple of the form p(0, 1, v2), in p's variables.

    p's degree fixes each term's exponent of v1 from that of v2, so setting
    v0 = 0 and v1 = 1 keeps the integer numerators free of v0 under new
    keys, and no two terms meet.  The stored denominator is dropped, which
    changes the gcd of such restrictions by a constant factor only.
    """
    return Polynomial(p.variables, {(0, 0, e[2]): c for e, c in p.cleared()[1].items() if not e[0]})


def _searched(search, *args):
    """``search(*args)``, or None past a budget: a search only names a point."""
    try:
        return search(*args)
    except UnsupportedCase:
        return None


def _search_singular_point(partials, variables, gs, gcd_poly):
    """A rational common zero (1 : u : t) on the chart v0 = 1, or None.

    t runs over the roots of ``gcd_poly``, u over those of the gcd of ``gs`` at v2 = t.
    """
    if gcd_poly is None:
        return None
    _, elim, other = variables
    for t in rational_roots(gcd_poly, other):
        slices = [g.substitute(other, t) for g in gs]
        if any(s.is_constant() and not s.is_zero() for s in slices):
            continue
        candidates = [s for s in slices if not s.is_zero()]
        if not candidates:
            continue
        pencil = gcd_many(candidates, elim)
        if pencil.is_constant():
            continue
        for u in rational_roots(pencil, elim):
            point = (Fraction(1), u, t)
            if all(p.evaluate(dict(zip(variables, point))) == 0 for p in partials):
                return point
    return None


def _monomials(degree):
    """Exponent triples of the ternary monomials of ``degree``."""
    return [(a, b, degree - a - b) for a in range(degree, -1, -1) for b in range(degree - a, -1, -1)]


def _macaulay_rank(partials, degree):
    """(rank, full rank) of the Macaulay matrix of a curve of ``degree`` >= 2.

    Its rows are the partials times each monomial of degree 2d - 4, its
    columns the monomials of degree 3d - 5: the curve is smooth exactly when
    the rank is full (partials with no common zero in P^2 are a regular
    sequence, whose quotient ring vanishes from degree 3d - 5 on, and
    evaluation at a common zero kills the image).  Scaling a partial to
    integers changes no rank.  The
    elimination is charged to MAX_RANK_WORK before it runs, and past it
    this raises UnsupportedCase.
    """
    shifts = _monomials(2 * degree - 4)
    column = {e: i for i, e in enumerate(_monomials(3 * degree - 5))}
    cols = len(column)
    matrix, norm = [], 0
    for p in partials:
        terms = p.cleared()[1]
        norm = max(norm, sum(c * c for c in terms.values()))
        for s in shifts:
            row = [0] * cols
            for (a, b, c), coeff in terms.items():
                row[column[a + s[0], b + s[1], c + s[2]]] = coeff
            matrix.append(row)
    rows, bound = len(matrix), min(len(matrix), cols)
    # Hadamard: no r x r minor exceeds the r-th power of the largest row's 2-norm
    words = bound * norm.bit_length() // 128 + 1
    if rows * cols * bound * (words + RANK_STEP_WORDS) ** 2 > MAX_RANK_WORK:
        raise UnsupportedCase(
            f"a Macaulay matrix of {rows} x {cols} with {words}-word minors exceeds "
            "the supported maximum"
        )
    return integer_rank(matrix)[0], cols


def smoothness_certificate(F: Polynomial) -> SmoothnessCertificate:
    """Decide whether the projective curve F = 0 is smooth.

    P^2 is covered as a point, A^2 and a line, for ``v0, v1, v2 =
    F.variables``.  First the point (0 : 0 : 1), where each partial, a form
    of degree d - 1, takes the value of its v2^(d-1) coefficient.  Then the
    chart v0 = 1: the partials are dehomogenized and v1 is eliminated by
    resultants; a constant gcd proves the chart free of singular points,
    and a rational root of it may lead to a rational common zero.  Then the
    line v0 = 0, v1 = 1, where the partials' gcd in v2 is exact: a
    nonconstant one makes the curve singular, at its first rational root
    if one is found.  Last, if the chart is neither certified nor singular
    at a rational point, the chart origin (1 : 0 : 0) is tried by the
    v0^(d-1) coefficients, and then the rank of the Macaulay matrix decides
    (``_macaulay_rank``).
    """
    if len(F.variables) != 3:
        raise PolynomialError("expected a polynomial in three variables")
    degree = F.degree()
    if not F.is_homogeneous() or degree < 1:
        raise PolynomialError("expected a homogeneous polynomial of positive degree")
    v0, v1, v2 = F.variables
    partials = [F.partial_derivative(v) for v in F.variables]
    top = degree - 1  # the partials' degree
    if not any(p.coefficient((0, 0, top)) for p in partials):
        point = (Fraction(0), Fraction(0), Fraction(1))
        return SmoothnessCertificate("singular", point, f"common zero found on chart {v2} = 1")

    # a nonzero form stays nonzero on a chart, so some partial is left
    gs = [g for g in (p.substitute(v0, 1) for p in partials) if not g.is_zero()]
    gcd_poly = _chart_gcd(gs, v1, v2)
    certified = gcd_poly is not None and gcd_poly.is_constant()
    if not certified:
        point = _searched(_search_singular_point, partials, F.variables, gs, gcd_poly)
        if point is not None:
            return SmoothnessCertificate("singular", point, f"common zero found on chart {v0} = 1")

    # nonzero: partials vanishing on the whole line would vanish at (0 : 0 : 1)
    line = gcd_many([_on_line(p) for p in partials], v2)
    if not line.is_constant():
        roots = _searched(rational_roots, line, v2)
        point = (Fraction(0), Fraction(1), roots[0]) if roots else None
        where = f"chart {v1} = 1" if roots else f"line {v0} = 0, no rational point found"
        return SmoothnessCertificate("singular", point, f"common zero found on {where}")
    if not certified:
        if not any(p.coefficient((top, 0, 0)) for p in partials):
            point = (Fraction(1), Fraction(0), Fraction(0))
            return SmoothnessCertificate("singular", point, f"common zero found on chart {v0} = 1")
        rank, full = _macaulay_rank(partials, degree)
        if rank < full:
            detail = f"partials share a zero; no rational point found (Macaulay rank {rank} < {full})"
            return SmoothnessCertificate("singular", None, detail)
    return SmoothnessCertificate("smooth", None, "all charts certified")


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

    # the contact order of the x-axis with the branch: at least 2 exactly
    # when the x-axis is the tangent there (Fulton, Algebraic Curves, 3.3)
    y = Polynomial.from_string("y", ("x", "y"))
    check("tangent_contact_order", expected["contact_order"], intersection_multiplicity(f, y))
    return SporadicReport(construction_id, tuple(checks))


def _series_text(coeffs) -> str:
    parts = [f"{c}*x^{n}" for n, c in enumerate(coeffs) if c]
    return " + ".join(parts) if parts else "0"
