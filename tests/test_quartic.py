import copy
import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from kstrata import cli, quartic
from kstrata.errors import UnsupportedCase
from kstrata.polynomials import Polynomial, PolynomialError, gcd_many, rational_roots, resultant
from kstrata.quartic import (
    SmoothnessCertificate,
    UnknownConstructionError,
    smoothness_certificate,
    verify_sporadic,
)
from kstrata.series import intersection_multiplicity
from macaulay_reference import FULL_RANK, macaulay_rank, monomials
from polynomial_reference import add, mul, poly_key, power, scale, sub

XYZ = ("x", "y", "z")
FERMAT = "x^4 + y^4 + z^4"
EMBEDDED = "x^4 - x*y^3 + x^3*z - y^3*z - x^2*z^2 - x*y*z^2 - y^2*z^2 + y*z^3"
DOUBLE_CONIC = "x^4 + y^4 + z^4 + 2*x^2*y^2 + 2*x^2*z^2 + 2*y^2*z^2"
NODAL = "y^2*z^2 - x^4"
# (u^2 w^2 v + u^4 + v^4 + u^3 w) for u = x, v = z - 2*y, w = y: a node at (0 : 1 : 2)
NODE_ON_THE_LINE = "x^4 + x^3*y - 2*x*y^3 + x*y^2*z + 16*y^4 - 32*y^3*z + 24*y^2*z^2 - 8*y*z^3 + z^4"
NODES_AT_THE_POINT = ["x*y*z^2 + x^4 + y^4", "x*y*z^2 + x^4 + y^4 - x^3*z + 2*y^3*z"]
HIGHLY_COMPOSITE = "720720*y^3*z - 5*x^2*y*z - 9999999999971*x^3*z + x^2*z^2"
# (z^2 - 2y^2)^2 + x^4 and a perturbation by x times a cubic vanishing on
# z^2 = 2y^2: both are singular at (0 : 1 : +-sqrt 2)
IRRATIONAL_ON_THE_LINE = [
    "z^4 - 4*y^2*z^2 + 4*y^4 + x^4",
    "z^4 - 4*y^2*z^2 + 4*y^4 + x^4 + x*y*z^2 - 2*x*y^3 + x^3*z",
]
VANISHING_RESULTANT = "3*x*y^2*z + 2*y^3*z + y^2*z^2 - 3*y*z^3"
# z times a cubic, with F_x = 1 at (0 : 0 : 1): on chart x the gcd left
# has a constant too large to search, and the three-chart rule left the
# curve open
SHORT_OF_A_RESULTANT = "720720*y^3*z - 5*x^2*y*z - 9999999999971*x^3*z + x*z^3"
# chart x = 1 open and its gcd too large to search, but singular at the
# chart origin (1 : 0 : 0), where the three-chart rule, eliminating z as
# well, found the first and third.  In the first, eliminating y, F_x and F_z
# share the factor y and the gcd left has a constant near 10^28; the second
# is y*z times a conic, also singular at (-1 : 1 : 0), which chart y found
AT_THE_CHART_ORIGIN = [
    "-100000000000007*x*y^3 + 2*x*y^2*z - 5*y^2*z^2 + 100000000000007*y*z^3",
    "-5*x^2*y*z - 3*x*y^2*z + 2*y^3*z - 9999999999971*y^2*z^2 + 100000000000007*y*z^3",
    "1090*x^2*y*z + 8346*x*y^3 + 9347*y^3*z + 1551*y^2*z^2 - 6226*y*z^3",
]
SMOOTH_DENSE = "x^4 + y^4 + z^4 + 2*x^3*y - 3*x*y^2*z + x^2*z^2 - y^3*z + 5*x*z^3 - 2*x*y*z^2"
NAMED = [
    FERMAT, EMBEDDED, DOUBLE_CONIC, NODAL, NODE_ON_THE_LINE, *NODES_AT_THE_POINT, HIGHLY_COMPOSITE,
    *IRRATIONAL_ON_THE_LINE, VANISHING_RESULTANT, SHORT_OF_A_RESULTANT, *AT_THE_CHART_ORIGIN,
    SMOOTH_DENSE,
]


def homog(text):
    return Polynomial.from_string(text, XYZ)


def test_fermat_quartic_is_smooth():
    cert = smoothness_certificate(homog(FERMAT))
    assert cert.status == "smooth"


def test_embedded_quartics_are_smooth():
    assert smoothness_certificate(homog(EMBEDDED)).status == "smooth"


def test_double_conic_is_never_smooth():
    cert = smoothness_certificate(homog(DOUBLE_CONIC))
    assert cert.status == "singular"


def test_nodal_quartic_singular_point_is_found():
    cert = smoothness_certificate(homog(NODAL))
    assert cert.status == "singular"
    assert cert.point is not None
    x, y, z = cert.point
    assert (x, y) == (Fraction(0), Fraction(0)) or (x, z) == (Fraction(0), Fraction(0))


# -- the chart x = 1, the line x = 0, y = 1 and the point (0 : 0 : 1) ---------


def three_chart_rule(F):
    """The reference rule: all three charts checked in full, a chart failing when a resultant vanishes."""

    def certify_chart(gs, elim, other):
        degrees = [g.degree_in(elim) for g in gs]
        base = gs[degrees.index(max(degrees))]
        eliminants = [g for g, d in zip(gs, degrees) if d == 0]
        for g, d in zip(gs, degrees):
            if g is not base and d > 0:
                eliminants.append(resultant(base, g, elim))
        if not eliminants or any(r.is_zero() for r in eliminants):
            return False, None
        g = gcd_many(eliminants, other)
        return not g.is_zero() and g.is_constant(), g

    partials = [F.partial_derivative(v) for v in F.variables]
    uncertified = []
    for chart in F.variables:
        others = [v for v in F.variables if v != chart]
        restricted = (p.substitute(chart, 1) for p in partials)
        gs = list({poly_key(g): g for g in restricted if not g.is_zero()}.values())
        if any(g.is_constant() for g in gs):
            continue
        for elim, other in (others, others[::-1]):
            ok, gcd_poly = certify_chart(gs, elim, other)
            if ok:
                break
            found = quartic._search_singular_point(partials, (chart, elim, other), gs, gcd_poly)
            if found is not None:
                point = dict(zip((chart, elim, other), found))
                return SmoothnessCertificate(
                    "singular", tuple(point[v] for v in XYZ), f"common zero found on chart {chart} = 1"
                )
        else:
            uncertified.append((chart, "no elimination order gave a constant gcd"))
    if not uncertified:
        return SmoothnessCertificate("smooth", None, "all charts certified")
    detail = "; ".join(f"{chart}: {why}" for chart, why in uncertified)
    return SmoothnessCertificate("not_certified", None, detail)


def chart_x_certifies(F):
    gs = [g for g in (F.partial_derivative(v).substitute("x", 1) for v in XYZ) if not g.is_zero()]
    return quartic._chart_gcd(gs, "y", "z").is_constant()


def is_singular_point(F, point):
    return all(F.partial_derivative(v).evaluate(dict(zip(XYZ, point))) == 0 for v in XYZ)


QUARTIC_EXPONENTS = [
    tuple(combo.count(i) for i in range(3)) for combo in combinations_with_replacement(range(3), 4)
]


def singular_at(rng, t):
    """A random quartic with a singular point at (0 : 1 : t), or at (0 : 0 : 1) if t is None.

    It is G(u, v, w) with every term of degree >= 2 in u, v, the coordinates
    u = x, v = z - t*y, w = y (u = x, v = y, w = z for the point).
    """
    if t is None:
        u, v, w = homog("x"), homog("y"), homog("z")
    else:
        u, v, w = homog("x"), sub(homog("z"), scale(homog("y"), t)), homog("y")
    F = Polynomial(XYZ)
    for a, b, c in QUARTIC_EXPONENTS:
        if a + b >= 2 and rng.random() < 0.7:
            F = add(F, scale(mul(power(u, a), power(v, b), power(w, c)), rng.randint(-3, 3)))
    return F


def test_a_node_on_the_line_at_infinity_keeps_its_point_and_detail():
    u, v, w = homog("x"), homog("z - 2*y"), homog("y")
    F = add(mul(w, w, u, v), power(u, 4), power(v, 4), mul(power(u, 3), w))
    assert poly_key(F) == poly_key(homog(NODE_ON_THE_LINE))
    assert chart_x_certifies(F)
    cert = smoothness_certificate(F)
    assert cert == SmoothnessCertificate(
        "singular", (Fraction(0), Fraction(1), Fraction(2)), "common zero found on chart y = 1"
    )
    assert cert == three_chart_rule(F)


@pytest.mark.parametrize("text", NODES_AT_THE_POINT)
def test_a_node_at_the_point_at_infinity_keeps_its_point_and_detail(text):
    F = homog(text)
    assert chart_x_certifies(F)
    cert = smoothness_certificate(F)
    assert cert == SmoothnessCertificate(
        "singular", (Fraction(0), Fraction(0), Fraction(1)), "common zero found on chart z = 1"
    )
    assert cert == three_chart_rule(F)


def test_a_highly_composite_leading_coefficient_is_answered_in_seconds():
    # all partials vanish at (0 : 0 : 1), so the evaluation there answers
    # before any root search; searched on chart x, the gcd left once F_x and
    # F_y share the factor z has a constant near 2*10^26, past MAX_DIVISOR_INPUT
    F = homog(HIGHLY_COMPOSITE)
    start = time.perf_counter()
    cert = smoothness_certificate(F)
    assert time.perf_counter() - start < 5
    assert (cert.status, cert.point) == ("singular", (Fraction(0), Fraction(0), Fraction(1)))


@pytest.mark.parametrize("text", IRRATIONAL_ON_THE_LINE)
def test_an_irrational_singular_point_at_infinity_is_never_smooth(text):
    # the line's gcd is exact, so a nonconstant one is singular with or
    # without a rational root; the three-chart rule left the curve open
    F = homog(text)
    assert chart_x_certifies(F)
    cert = smoothness_certificate(F)
    assert cert == SmoothnessCertificate(
        "singular", None, "common zero found on line x = 0, no rational point found"
    )
    assert macaulay_rank(F) < FULL_RANK
    assert three_chart_rule(F).status == "not_certified"


def test_a_vanishing_resultant_no_longer_fails_chart_x():
    # on chart x = 1 two partials share the factor y, so one resultant is 0;
    # the three-chart rule found this point only on chart y, as (-2/3 : 1 : 0)
    F = homog(VANISHING_RESULTANT)
    point = (Fraction(1), Fraction(-3, 2), Fraction(0))
    assert smoothness_certificate(F) == SmoothnessCertificate(
        "singular", point, "common zero found on chart x = 1"
    )
    assert is_singular_point(F, point)
    assert three_chart_rule(F) == SmoothnessCertificate(
        "singular", (Fraction(-2, 3), Fraction(1), Fraction(0)), "common zero found on chart y = 1"
    )


def rank_detail(rank):
    return f"partials share a zero; no rational point found (Macaulay rank {rank} < {FULL_RANK})"


def test_a_search_short_of_a_resultant_finds_nothing_when_too_large():
    # the chart is not certified and its search runs past its budget, so the rank decides
    F = homog(SHORT_OF_A_RESULTANT)
    rank = macaulay_rank(F)
    assert rank < FULL_RANK
    assert smoothness_certificate(F) == SmoothnessCertificate("singular", None, rank_detail(rank))
    assert three_chart_rule(F).status == "not_certified"


@pytest.mark.parametrize("text", AT_THE_CHART_ORIGIN)
def test_a_singular_chart_origin_is_named_before_the_rank(monkeypatch, text):
    F = homog(text)
    assert not chart_x_certifies(F)
    monkeypatch.setattr(quartic, "integer_rank", None)  # never reached
    assert smoothness_certificate(F) == SmoothnessCertificate(
        "singular", (Fraction(1), Fraction(0), Fraction(0)), "common zero found on chart x = 1"
    )
    assert three_chart_rule(F).status == "singular"


def test_a_singular_point_too_large_to_search_for_is_still_singular():
    # (-1 : 1 : 0) is on the chart, where the gcd is too large to search
    F = homog(AT_THE_CHART_ORIGIN[1])
    assert is_singular_point(F, (Fraction(-1), Fraction(1), Fraction(0)))
    assert smoothness_certificate(F).point == (Fraction(1), Fraction(0), Fraction(0))


def sympy_smooth(sympy, F):
    """True if the partials of F generate the unit ideal on each affine chart."""
    symbols = sympy.symbols(XYZ)
    expr = sum(
        sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(s**e for s, e in zip(symbols, exps)))
        for exps, c in F.terms.items()
    )
    partials = [sympy.diff(expr, s) for s in symbols]
    for chart in symbols:
        others = [s for s in symbols if s != chart]
        gs = [g for g in (sympy.expand(p.subs(chart, 1)) for p in partials) if g != 0]
        if not gs or list(sympy.groebner(gs, *others, order="grevlex")) != [1]:
            return False
    return True


def seeded_quartics():
    """Dense, sparse and planted-singularity quartics, many singular or reducible."""
    rng = random.Random(1515)
    out = []
    for _ in range(40):
        out.append(Polynomial(XYZ, {e: rng.randint(-5, 5) for e in QUARTIC_EXPONENTS}))
    for _ in range(80):
        support = rng.sample(QUARTIC_EXPONENTS, rng.randint(2, 8))
        out.append(Polynomial(XYZ, {e: rng.choice([-3, -2, -1, 1, 2, 3]) for e in support}))
    for _ in range(20):
        out.append(singular_at(rng, Fraction(rng.randint(-4, 4), rng.randint(1, 3))))
    for _ in range(20):
        out.append(singular_at(rng, None))
    for _ in range(10):
        line = Polynomial(XYZ, {(1, 0, 0): rng.randint(1, 3), (0, 0, 1): rng.randint(-3, 3)})
        cubic = Polynomial(XYZ, {(a, b, c - 1): rng.randint(-3, 3) for a, b, c in QUARTIC_EXPONENTS if c})
        out.append(mul(line, cubic))
    return [F for F in out if not F.is_zero()]


def test_the_line_and_point_agree_with_three_full_charts():
    sympy = pytest.importorskip("sympy")
    statuses = set()
    for F in seeded_quartics():
        new, old = smoothness_certificate(F), three_chart_rule(F)
        statuses.add(new.status)
        if new == old:
            continue
        # no smooth or singular verdict flips, and every new point is singular
        assert old.status == "not_certified" or old.status == new.status == "singular", F
        if new.status == "smooth":
            assert sympy_smooth(sympy, F), F
        elif new.status == "singular" and new.point is None:
            assert macaulay_rank(F) < FULL_RANK, F
        elif new.status == "singular":
            assert is_singular_point(F, new.point), F
    assert statuses == {"smooth", "singular"}


@pytest.mark.parametrize(
    "F", [homog(text) for text in NAMED] + seeded_quartics(), ids=lambda F: str(F)[:60]
)
def test_macaulay_rank_is_full_exactly_for_smooth_verdicts(F):
    # Macaulay's criterion is exact, and the certificate's rank is its own
    assert (smoothness_certificate(F).status == "smooth") == (macaulay_rank(F) == FULL_RANK)


OTHER_DEGREES = {
    2: ["x^2 + y^2 + z^2", "x*y - z^2", "x*y", "x^2", "y*z + 3*z^2"],
    3: ["x^3 + y^3 + z^3", "y^2*z - x^3 - x^2*z", "y^2*z - x^3", "x*y*z", "x^3 - 3*x*y^2"],
    5: ["x^5 + y^5 + z^5", "x*y*z^3 + x^5 + y^5", "x^5 + y^5", "x^4*z + y^5 + x*y*z^3 - z^5"],
}


def other_degree_curves():
    rng = random.Random(29)
    out = []
    for degree, texts in OTHER_DEGREES.items():
        out += [(degree, homog(text)) for text in texts]
        for _ in range(8):
            F = Polynomial(XYZ, {e: rng.randint(-3, 3) for e in monomials(degree) if rng.random() < 0.6})
            if F.degree() == degree:
                out.append((degree, F))
    return out


def test_the_rank_decides_smoothness_in_degrees_two_three_and_five():
    # rows of degree 2d - 4 and columns of degree 3d - 5: 3 x 3 for a conic,
    # 18 x 15 for a cubic, 84 x 66 for a quintic
    sympy = pytest.importorskip("sympy")
    sizes = {2: 3, 3: 15, 5: 66}
    verdicts = set()
    for degree, F in other_degree_curves():
        partials = [F.partial_derivative(v) for v in XYZ]
        rank, full = quartic._macaulay_rank(partials, degree)
        smooth = sympy_smooth(sympy, F)
        assert full == sizes[degree]
        assert (rank == full) == smooth, F
        cert = smoothness_certificate(F)
        assert cert.status == ("smooth" if smooth else "singular"), F
        if cert.point is not None:
            assert is_singular_point(F, cert.point), F
        verdicts.add((degree, smooth))
    assert verdicts == {(d, s) for d in sizes for s in (True, False)}


def test_the_rank_is_charged_before_it_runs(monkeypatch):
    entered = []
    monkeypatch.setattr(quartic, "integer_rank", entered.append)
    monkeypatch.setattr(quartic, "MAX_RANK_WORK", 10**6)
    # a chart certified by its resultants never reaches the rank
    assert smoothness_certificate(homog(SMOOTH_DENSE)).status == "smooth"
    with pytest.raises(UnsupportedCase, match="a Macaulay matrix of 45 x 36 "):
        smoothness_certificate(homog(SHORT_OF_A_RESULTANT))
    assert entered == []


def wide_form(rng, degree):
    """A nonzero form of ``degree`` with random support and 13- to 15-digit coefficients."""
    terms = {}
    while not terms:
        for e in monomials(degree):
            if rng.random() < 0.7:
                terms[e] = rng.choice([-1, 1]) * rng.randint(10**12, 10**15 - 1)
    return Polynomial(XYZ, terms)


def test_a_point_search_past_its_budget_names_no_point(monkeypatch):
    # line times cubic and conic times conic: reducible, so singular.  Most
    # chart gcds have a constant past MAX_DIVISOR_INPUT, where listing their
    # rational roots raises UnsupportedCase; the search then names no point,
    # and the rank decides
    refused = []

    def counting(p, name):
        try:
            return rational_roots(p, name)
        except UnsupportedCase:
            refused.append(name)
            raise

    monkeypatch.setattr(quartic, "rational_roots", counting)
    rng = random.Random(28)
    unnamed = 0
    for i in range(40):
        F = mul(wide_form(rng, 1 + i % 2), wide_form(rng, 3 - i % 2))
        cert = smoothness_certificate(F)
        assert cert.status == "singular", F
        if cert.point is not None:
            assert is_singular_point(F, cert.point), F
        else:
            unnamed += 1
    assert refused
    assert unnamed > 0


@pytest.fixture
def resultant_calls(monkeypatch):
    calls = []

    def counting(p, q, name):
        calls.append(name)
        return resultant(p, q, name)

    monkeypatch.setattr(quartic, "resultant", counting)
    return calls


def test_a_smooth_dense_quartic_costs_two_resultants(resultant_calls):
    F = homog(SMOOTH_DENSE)
    assert smoothness_certificate(F).status == "smooth"
    assert len(resultant_calls) == 2  # chart x = 1 only; three full charts took 6


def test_no_seeded_quartic_costs_more_than_two_resultants(resultant_calls):
    most = 0
    for F in seeded_quartics():
        resultant_calls.clear()
        smoothness_certificate(F)
        most = max(most, len(resultant_calls))
    assert most <= 2  # one elimination order, two pairs


@pytest.fixture
def point_calls(monkeypatch):
    """The names of the Polynomial methods ``evaluate`` and ``substitute`` as they are called."""
    calls = []
    for method in ("evaluate", "substitute"):
        original = getattr(Polynomial, method)

        def counting(self, *args, method=method, original=original):
            calls.append(method)
            return original(self, *args)

        monkeypatch.setattr(Polynomial, method, counting)
    return calls


def test_a_smooth_dense_quartic_reads_its_points_without_evaluating(point_calls):
    rng = random.Random(31)
    dense = [homog(SMOOTH_DENSE)]
    while len(dense) < 6:
        F = Polynomial(XYZ, {e: rng.choice([-1, 1]) * rng.randint(1, 9) for e in QUARTIC_EXPONENTS})
        if smoothness_certificate(F).status == "smooth":
            dense.append(F)
    for F in dense:
        point_calls.clear()
        assert smoothness_certificate(F).status == "smooth"
        # the points are coefficients, the line re-keys its terms: only the chart substitutes
        assert point_calls.count("evaluate") == 0
        assert point_calls.count("substitute") <= 3


def test_smoothness_requires_homogeneous_three_variables():
    with pytest.raises(PolynomialError, match="homogeneous"):
        smoothness_certificate(homog("x^4 + y^3"))
    with pytest.raises(PolynomialError, match="three"):
        smoothness_certificate(Polynomial.from_string("x^2 + y^2", ("x", "y")))


def test_the_parser_lists_every_construction():
    (commands,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    (choices,) = [a.choices for a in commands.choices["quartic-verify"]._actions if a.dest == "construction"]
    assert list(choices) == sorted(quartic._load_constructions())


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


def test_perturbed_cubic_breaks_the_contact_order():
    f = Polynomial.from_string(
        "x^4 - x*y^3 + x^3 - y^3 - x^2 - x*y - y^2 + y", ("x", "y")
    )
    g = Polynomial.from_string("2*x^3 - y^3 - x^2 - 2*x*y + y", ("x", "y"))
    assert intersection_multiplicity(f, g) == 12
    # x^3 vanishes to order 3 along the branch, below the cubic's 12
    perturbed = add(g, Polynomial.from_string("x^3", ("x", "y")))
    assert intersection_multiplicity(f, perturbed) == 3


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
SCALED = str(mul(*(Polynomial.from_string(f, ("x", "y")) for f in (AFFINE, "1 + x"))))
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


def test_a_tangent_off_the_x_axis_fails_its_contact_order(monkeypatch):
    # y = x is the tangent, so the x-axis meets the branch to order 1
    data = copy.deepcopy(quartic._load_constructions())
    data["OddArf_h0_0"].update(affine="y - x + x^4 + y^4", quartic="y*z^3 - x*z^3 + x^4 + y^4")
    monkeypatch.setattr(quartic, "_load_constructions", lambda: data)
    report = verify_sporadic("OddArf_h0_0")
    (check,) = [c for c in report.checks if c.name == "tangent_contact_order"]
    assert (check.passed, check.expected, check.actual) == (False, "2", "1")
