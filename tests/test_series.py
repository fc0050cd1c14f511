import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from kstrata.errors import UnsupportedCase
from kstrata.polynomials import Polynomial, PolynomialError
from kstrata.quartic import _load_constructions
from kstrata.series import (
    MAX_PRECISION,
    PowerSeries,
    SeriesError,
    branch_series,
    intersection_multiplicity,
)
from polynomial_reference import add, mul, ref_combine, ref_mul

XY = ("x", "y")
XYZ = ("x", "y", "z")


def poly(text):
    return Polynomial.from_string(text, XY)


def random_unit_curve(rng, max_degree=4):
    """Random f with f(0,0)=0 and unit df/dy(0,0)."""
    terms = {(0, 1): Fraction(1)}
    for _ in range(rng.randint(1, 6)):
        i, j = rng.randint(0, max_degree), rng.randint(0, max_degree)
        if (i, j) in ((0, 0), (0, 1)):
            continue
        terms[(i, j)] = Fraction(rng.randint(-3, 3))
    return Polynomial(XY, terms)


def on_branch(g, phi):
    """c_0..c_N of g(x, phi(x)) mod x^(N+1), by products of the reference.

    g is a polynomial in XY; phi(x) is made a polynomial in x, and each
    product is truncated past x^N.
    """
    n = len(phi.coefficients) - 1

    def truncated(terms):
        return {e: c for e, c in terms.items() if e[0] <= n}

    phi_x = {(k, 0): c for k, c in enumerate(phi.coefficients) if c}
    powers = [{(0, 0): Fraction(1)}]
    for _ in range(max((j for _, j in g.terms), default=0)):
        powers.append(truncated(ref_mul(powers[-1], phi_x)))
    total = {}
    for (i, j), c in g.terms.items():
        if i <= n:
            total = ref_combine(total, truncated(ref_mul({(i, 0): c}, powers[j])))
    return tuple(total.get((k, 0), Fraction(0)) for k in range(n + 1))


def test_parabola_branch_is_exact():
    phi = branch_series(poly("y - x^2"), 5)
    assert phi.coefficients == (0, 0, 1, 0, 0, 0)


def test_branch_precision_is_capped():
    assert branch_series(poly("y - x^2"), MAX_PRECISION).coefficients[2] == 1
    with pytest.raises(UnsupportedCase, match="exceeds"):
        branch_series(poly("y - x^2"), MAX_PRECISION + 1)


def test_branch_rejects_missing_origin():
    with pytest.raises(SeriesError, match="origin"):
        branch_series(poly("y + 1"), 4)


def test_branch_rejects_singular_point():
    with pytest.raises(SeriesError, match="singular"):
        branch_series(poly("y^2 - x"), 4)


def test_branch_needs_a_y():
    with pytest.raises(PolynomialError, match="unknown variable 'y'"):
        branch_series(Polynomial.from_string("x + z", ("x", "z")), 4)


def test_a_series_has_a_constant_and_no_precision_it_was_not_given():
    with pytest.raises(SeriesError, match="needs at least the constant coefficient"):
        PowerSeries([])
    assert PowerSeries([0, 1]).truncate(0).coefficients == (0,)
    with pytest.raises(SeriesError, match="cannot extend precision 1 to 2"):
        PowerSeries([0, 1]).truncate(2)


def test_branch_residual_identity():
    rng = random.Random(53)
    for _ in range(50):
        f = random_unit_curve(rng)
        precision = rng.randint(4, 20)
        phi = branch_series(f, precision)
        assert not any(on_branch(f, phi))


def test_branch_implicit_differentiation():
    # f_x + f_y * phi' = 0 mod x^N, on the coefficient lists
    rng = random.Random(59)
    for _ in range(50):
        f = random_unit_curve(rng)
        precision = rng.randint(4, 16)
        phi = branch_series(f, precision)
        derivative = [(n + 1) * c for n, c in enumerate(phi.coefficients[1:])]
        fx = on_branch(f.partial_derivative("x"), phi)
        fy = on_branch(f.partial_derivative("y"), phi)
        for n in range(precision):
            assert fx[n] + sum(fy[k] * derivative[n - k] for k in range(n + 1)) == 0


def reference_branch_series(f, precision):
    """Coefficient by coefficient: a_n solves a linear equation with pivot f_y(0,0)."""
    pivot = f.partial_derivative("y").evaluate({"x": 0, "y": 0})
    coeffs = [Fraction(0)] * (precision + 1)
    for n in range(1, precision + 1):
        coeffs[n] = -on_branch(f, PowerSeries(coeffs[: n + 1]))[n] / pivot
    return PowerSeries(coeffs)


def construction_curves():
    return [poly(record["affine"]) for record in _load_constructions().values()]


def test_branch_series_matches_reference_on_constructions():
    # the recurrence's first N + 1 coefficients do not depend on the target
    # precision, so one reference run serves every N up to 60
    for f in construction_curves():
        reference = reference_branch_series(f, 60)
        for precision in [*range(31), 45, 60]:
            assert branch_series(f, precision).coefficients == reference.truncate(precision).coefficients


def test_branch_series_matches_reference_with_nonunit_pivots():
    rng = random.Random(67)
    pivots = [Fraction(2), Fraction(-3), Fraction(5, 7), Fraction(-1, 4)]
    for trial in range(24):
        f = add(random_unit_curve(rng), Polynomial(XY, {(0, 1): pivots[trial % 4] - 1}))
        reference = reference_branch_series(f, 16)
        for precision in range(17):
            assert branch_series(f, precision).coefficients == reference.truncate(precision).coefficients


def test_branch_series_matches_reference_with_rational_terms_and_pivots():
    # every term rational, so clearing denominators and rescaling by the
    # pivot both change the integers the pass runs on; with and without an x term
    rng = random.Random(73)
    pivots = [Fraction(12), Fraction(-7, 3), Fraction(1, 9)]
    for trial in range(18):
        terms = {(0, 1): pivots[trial % 3]}
        for _ in range(rng.randint(2, 6)):
            i, j = rng.randint(0, 4), rng.randint(0, 4)
            if (i, j) not in ((0, 0), (0, 1)):
                terms[i, j] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(2, 12))
        if trial % 2:
            terms[1, 0] = Fraction(rng.randint(1, 5), rng.randint(2, 7))
        f = Polynomial(XY, terms)
        reference = reference_branch_series(f, 30)
        for precision in (0, 1, 2, 7, 15, 30):
            assert branch_series(f, precision).coefficients == reference.truncate(precision).coefficients


@pytest.mark.parametrize("f", construction_curves())
def test_branch_series_makes_one_fraction_per_coefficient(f, monkeypatch):
    # the pass runs over Z: a Fraction per output coefficient, and a few to
    # spare, so rational arithmetic put back in the inner loop fails here
    count = 0
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        nonlocal count
        count += 1
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    phi = branch_series(f, MAX_PRECISION)
    monkeypatch.undo()
    assert len(phi.coefficients) == MAX_PRECISION + 1
    assert 0 < count <= MAX_PRECISION + 1 + len(f.terms)


def test_branch_series_at_the_cap_has_zero_residual():
    # f(x, phi) = O(x^(N+1)) with phi(0) = 0 determines phi uniquely
    for f in construction_curves():
        phi = branch_series(f, MAX_PRECISION)
        assert len(phi.coefficients) == MAX_PRECISION + 1 and phi.coefficients[0] == 0
        assert not any(on_branch(f, phi))


def test_branch_series_skips_terms_beyond_the_precision():
    start = time.perf_counter()
    phi = branch_series(poly("y - x^2 + y^20000"), 13)
    assert time.perf_counter() - start < 1
    assert phi.coefficients == branch_series(poly("y - x^2"), 13).coefficients


def test_a_variable_at_exponent_zero_changes_nothing():
    g = poly("y - x^2 - 2*x^3")
    for text in ("y - x^2 - x^3", "y - x^4 + x*y - 2*y^3", "y - x^3 + x^2*y"):
        f, f3 = poly(text), Polynomial.from_string(text, XYZ)
        assert branch_series(f3, 12).coefficients == branch_series(f, 12).coefficients
        for other in (g, poly("y")):
            assert intersection_multiplicity(f3, other) == intersection_multiplicity(f, other)


def test_a_stray_variable_is_a_polynomial_error():
    f = Polynomial.from_string("y - x^2 + z", XYZ)
    with pytest.raises(PolynomialError, match="not a polynomial in 'x' and 'y'"):
        branch_series(f, 6)
    for pair in ((f, poly("y")), (poly("y"), f)):
        with pytest.raises(PolynomialError, match="not a polynomial in 'x' and 'y'"):
            intersection_multiplicity(*pair)


def test_vanishing_order_examples():
    # the order of y - x^2 along its own branch is infinite: a shared component
    assert intersection_multiplicity(poly("y - x^2"), poly("y")) == 2
    assert intersection_multiplicity(poly("y - x^2"), poly("y - 2*x^2")) == 2
    assert intersection_multiplicity(poly("y - x^2"), poly("y - x^2 - x^5")) == 5
    assert intersection_multiplicity(poly("y - x^2"), poly("1 + y")) == 0
    with pytest.raises(SeriesError, match="share a component"):
        intersection_multiplicity(poly("y - x^2"), poly("y - x^2"))


def random_curve(rng, degree, count):
    return Polynomial(
        XY,
        {
            (rng.randint(0, degree), rng.randint(0, degree)): Fraction(rng.randint(-3, 3))
            for _ in range(count)
        },
    )


def intersection_or_none(f, g):
    """I(f, g), or None for a shared component through the origin."""
    try:
        return intersection_multiplicity(f, g)
    except SeriesError:
        return None


def test_vanishing_order_multiplicative():
    rng = random.Random(61)
    f = poly("y - x^2 - x^3")
    for _ in range(40):
        g = random_curve(rng, 2, rng.randint(1, 4))
        h = random_curve(rng, 2, rng.randint(1, 4))
        og, oh = intersection_or_none(f, g), intersection_or_none(f, h)
        if og is None or oh is None:
            with pytest.raises(SeriesError):
                intersection_multiplicity(f, mul(g, h))
        else:
            assert intersection_multiplicity(f, mul(g, h)) == og + oh


def test_tangent_contact_order_toy_hyperflex():
    f = poly("y - x^4")
    assert intersection_multiplicity(f, poly("y")) == 4


def test_series_coefficients_are_exact():
    assert PowerSeries((1, "1/2", Fraction(2, 3))).coefficients == (1, Fraction(1, 2), Fraction(2, 3))
    with pytest.raises(SeriesError, match="inexact value"):
        PowerSeries([0.1])
    with pytest.raises(SeriesError, match="not a rational"):
        PowerSeries([1, "x"])


# -- intersection numbers against oracles that share no code with them -------


def test_intersection_multiplicity_is_the_order_along_the_branch():
    # at a simple point of f, I(f, g) is the order of g(x, phi(x)), here read
    # from branch_series composed by Polynomial products; one g in four is a
    # multiple of f, so the number is infinite and refused
    rng = random.Random(79)
    precision, finite = 24, 0
    for trial in range(120):
        f = add(random_unit_curve(rng, 3), Polynomial(XY, {(0, 1): rng.choice([0, 1, -3])}))
        g = random_curve(rng, 3, rng.randint(1, 5))
        if trial % 4 == 0:
            g = mul(g, f)
        elif trial % 4 == 1:
            g = add(mul(f, random_curve(rng, 2, 2)), Polynomial(XY, {(rng.randint(3, 9), 0): 1}))
        coefficients = on_branch(g, branch_series(f, precision))
        order = next((n for n, c in enumerate(coefficients) if c), None)
        if order is not None:
            assert intersection_multiplicity(f, g) == order
            finite += 1
        elif trial % 4 == 0:
            with pytest.raises(SeriesError, match="share a component"):
                intersection_multiplicity(f, g)
        else:
            number = intersection_or_none(f, g)
            assert number is None or number > precision
    assert finite >= 60


def test_intersection_multiplicity_axioms():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    settings = hypothesis.settings(max_examples=150, deadline=None, database=None, derandomize=True)
    # degree at most 3 in x and in y, through the origin or not
    curves = st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-4, 4), min_size=1, max_size=5
    ).map(lambda terms: Polynomial(XY, terms))

    @settings
    @hypothesis.given(curves, curves)
    def symmetric(f, g):
        assert intersection_or_none(f, g) == intersection_or_none(g, f)

    @settings
    @hypothesis.given(curves, curves, curves)
    def unchanged_by_adding_a_multiple_of_f(f, g, a):
        assert intersection_or_none(f, add(g, mul(a, f))) == intersection_or_none(f, g)

    @settings
    @hypothesis.given(curves, curves, curves)
    def additive(f, g, h):
        og, oh = intersection_or_none(f, g), intersection_or_none(f, h)
        want = None if og is None or oh is None else og + oh
        assert intersection_or_none(f, mul(g, h)) == want

    symmetric()
    unchanged_by_adding_a_multiple_of_f()
    additive()


def test_intersection_multiplicity_is_the_order_of_the_resultant():
    # with leading coefficient 1 in y and the origin the only common zero on
    # x = 0, ord_x Res_y(f, g) at x = 0 is I(f, g) at the origin
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")

    def expr(p):
        return sum(int(c) * x**i * y**j for (i, j), c in p.terms.items())

    rng = random.Random(83)
    checked = 0
    for _ in range(80):
        f, g = (
            add(random_curve(rng, 3, rng.randint(2, 5)), Polynomial(XY, {(0, rng.randint(4, 5)): 1}))
            for _ in range(2)
        )
        f, g = (Polynomial(XY, {e: c for e, c in p.terms.items() if any(e)}) for p in (f, g))
        on_axis = sympy.Poly(sympy.gcd(expr(f).subs(x, 0), expr(g).subs(x, 0)), y)
        res = sympy.Poly(sympy.resultant(expr(f), expr(g), y), x)
        if len(on_axis.monoms()) > 1 or res.is_zero:
            continue
        assert intersection_multiplicity(f, g) == min(i for (i,) in res.monoms())
        checked += 1
    assert checked >= 40


def test_a_shared_component_is_refused_quickly():
    f = poly("2*x*y^2 + 2*x^2 - 3*x*y - 2*y")
    h = poly("-3*x^3*y^3 - x^2*y^3 + x + 3*y")
    cases = [
        (mul(poly("y - x^2"), poly("1 + x")), poly("y - x^2")),
        (poly("y + x*y"), poly("2*y - y^2")),
        (mul(poly("x^3 - y^2"), poly("1 - y")), mul(poly("x^3 - y^2"), poly("y + x^2"))),
        # y divides neither restriction and no reduction leaves 0 here: the
        # count passes deg f * deg g, which no finite number does
        (f, mul(f, poly("3*x^2*y^3 - 2*x^3*y + 2*y + 3*x^2"))),
        (h, mul(h, poly("x^3*y^3 - 3*y + x"))),
    ]
    for left, right in cases:
        for pair in ((left, right), (right, left)):
            start = time.perf_counter()
            with pytest.raises(SeriesError, match="share a component"):
                intersection_multiplicity(*pair)
            assert time.perf_counter() - start < 0.1


def test_intersection_multiplicity_with_huge_exponents():
    # exponents of 10^7 cost nothing: terms are sparse, and the contact of
    # y - x^N with the x-axis, or with a transverse curve, is one step
    cases = [
        (poly("y - x^10000000"), poly("y"), 10_000_000),
        (poly("y - x^10000000"), poly("y + x - x^2"), 1),
        (poly("y - x^10000000"), poly("y - x^2"), 2),
        (poly("y - x^10000000"), poly("y^2 - x^3"), 3),
        (poly("2*y - x^2 + y^3"), poly("y^10000000 + x*y"), 3),
    ]
    tracemalloc.start()
    try:
        for f, g, want in cases:
            start = time.perf_counter()
            assert intersection_multiplicity(f, g) == want
            assert time.perf_counter() - start < 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_intersection_multiplicity_work_is_capped():
    # a reduction zeroes a restriction, so a transverse pair takes one,
    # however high the degree of the other restriction
    start = time.perf_counter()
    assert intersection_multiplicity(poly("y - x^1400"), poly("y + x - x^2")) == 1
    assert time.perf_counter() - start < 0.1
    # I(f, f + x^100) = I(f, x^100) = 100, gained one at a time by reductions
    # of a dense curve of degree 60 whose coefficients grow: refused within budget
    f = Polynomial(XY, {(i, j): 1 for i in range(61) for j in range(61 - i) if i + j})
    g = add(f, Polynomial(XY, {(100, 0): 1}))
    start = time.perf_counter()
    with pytest.raises(UnsupportedCase, match="supported maximum"):
        intersection_multiplicity(f, g)
    assert time.perf_counter() - start < 1
    # few reductions of dense curves with huge coefficients, each quadratic
    # in the coefficients' words: refused within budget too
    rng = random.Random(89)
    for degree, digits in ((3, 3000), (2, 10000), (2, 30000)):
        f = Polynomial(XY, {
            (i, j): rng.choice((-1, 1)) * rng.randint(10 ** (digits - 1), 10**digits)
            for i in range(degree + 1) for j in range(degree + 1 - i) if i + j
        })
        g = add(f, Polynomial(XY, {(50, 0): 1}))
        start = time.perf_counter()
        with pytest.raises(UnsupportedCase, match="supported maximum"):
            intersection_multiplicity(f, g)
        assert time.perf_counter() - start < 0.5
