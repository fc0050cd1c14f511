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
    AtLeast,
    PowerSeries,
    SeriesError,
    branch_series,
    polynomial_on_branch,
    tangent_contact_order,
    vanishing_order,
)

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


def test_parabola_branch_is_exact():
    phi = branch_series(poly("y - x^2"), 5)
    assert phi.coefficients == (0, 0, 1, 0, 0, 0)


def test_branch_precision_is_capped():
    assert branch_series(poly("y - x^2"), MAX_PRECISION).coefficient(2) == 1
    with pytest.raises(UnsupportedCase, match="exceeds"):
        branch_series(poly("y - x^2"), MAX_PRECISION + 1)


def test_branch_rejects_missing_origin():
    with pytest.raises(SeriesError, match="origin"):
        branch_series(poly("y + 1"), 4)


def test_branch_rejects_singular_point():
    with pytest.raises(SeriesError, match="singular"):
        branch_series(poly("y^2 - x"), 4)


def test_branch_residual_identity():
    rng = random.Random(53)
    for _ in range(50):
        f = random_unit_curve(rng)
        precision = rng.randint(4, 20)
        phi = branch_series(f, precision)
        residual = polynomial_on_branch(f, phi)
        assert all(c == 0 for c in residual.coefficients)


def test_branch_implicit_differentiation():
    # f_x + f_y * phi' = 0 mod x^N, on the coefficient lists
    rng = random.Random(59)
    for _ in range(50):
        f = random_unit_curve(rng)
        precision = rng.randint(4, 16)
        phi = branch_series(f, precision)
        derivative = [(n + 1) * c for n, c in enumerate(phi.coefficients[1:])]
        fx = polynomial_on_branch(f.partial_derivative("x"), phi).coefficients
        fy = polynomial_on_branch(f.partial_derivative("y"), phi).coefficients
        for n in range(precision):
            assert fx[n] + sum(fy[k] * derivative[n - k] for k in range(n + 1)) == 0


def reference_branch_series(f, precision):
    """Coefficient by coefficient: a_n solves a linear equation with pivot f_y(0,0)."""
    pivot = f.partial_derivative("y").evaluate({"x": 0, "y": 0})
    coeffs = [Fraction(0)] * (precision + 1)
    for n in range(1, precision + 1):
        residual = polynomial_on_branch(f, PowerSeries(coeffs[: n + 1]))
        coeffs[n] = -residual.coefficient(n) / pivot
    return PowerSeries(coeffs)


def construction_curves():
    return [poly(record["affine"]) for record in _load_constructions().values()]


def test_branch_series_matches_reference_on_constructions():
    # the recurrence's first N + 1 coefficients do not depend on the target
    # precision, so one reference run serves every N up to 60
    for f in construction_curves():
        reference = reference_branch_series(f, 60)
        for precision in [*range(31), 45, 60]:
            assert branch_series(f, precision) == reference.truncate(precision)


def test_branch_series_matches_reference_with_nonunit_pivots():
    rng = random.Random(67)
    pivots = [Fraction(2), Fraction(-3), Fraction(5, 7), Fraction(-1, 4)]
    for trial in range(24):
        f = random_unit_curve(rng) + Polynomial(XY, {(0, 1): pivots[trial % 4] - 1})
        reference = reference_branch_series(f, 16)
        for precision in range(17):
            assert branch_series(f, precision) == reference.truncate(precision)


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
            assert branch_series(f, precision) == reference.truncate(precision)


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
    assert phi.precision == MAX_PRECISION
    assert 0 < count <= MAX_PRECISION + 1 + len(f.terms)


def test_branch_series_at_the_cap_has_zero_residual():
    # f(x, phi) = O(x^(N+1)) with phi(0) = 0 determines phi uniquely
    for f in construction_curves():
        phi = branch_series(f, MAX_PRECISION)
        assert phi.precision == MAX_PRECISION and phi.coefficient(0) == 0
        assert all(c == 0 for c in polynomial_on_branch(f, phi).coefficients)


def test_branch_series_skips_terms_beyond_the_precision():
    start = time.perf_counter()
    phi = branch_series(poly("y - x^2 + y^20000"), 13)
    assert time.perf_counter() - start < 1
    assert phi == branch_series(poly("y - x^2"), 13)


def test_polynomial_on_branch_matches_polynomial_arithmetic():
    # phi as a polynomial in x, the sum of c*x^i*phi^j formed in full, then
    # truncated; phi(0) != 0 on two trials in three, y-degrees above N
    rng = random.Random(71)
    x = Polynomial.variable("x", XY)
    for trial in range(40):
        precision = rng.randint(0, 8)
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(precision + 1)]
        if trial % 3 == 0:
            coeffs[0] = Fraction(0)
        elif not coeffs[0]:
            coeffs[0] = Fraction(1, 2)
        terms = {(rng.randint(0, 2), precision + rng.randint(1, 3)): Fraction(rng.randint(1, 3))}
        for _ in range(rng.randint(0, 5)):
            terms[rng.randint(0, precision + 2), rng.randint(0, precision + 3)] = rng.randint(-3, 3)
        g = Polynomial(XY, terms)
        phi_x = Polynomial(XY, {(n, 0): c for n, c in enumerate(coeffs)})
        expected = Polynomial.zero(XY)
        for (i, j), c in g.terms.items():
            term = Polynomial.constant(c, XY)
            for factor in [x] * i + [phi_x] * j:
                term = term * factor
            expected = expected + term
        want = tuple(expected.coefficient((n, 0)) for n in range(precision + 1))
        assert polynomial_on_branch(g, PowerSeries(coeffs)).coefficients == want


def test_polynomial_on_branch_skips_terms_beyond_the_precision():
    # phi(0) = 0, so y^(10^7) cannot reach x^13: neither its degree nor a
    # power of the series' denominators to that degree is paid for
    phi = branch_series(poly("2*y - x^2 + y^3"), 13)
    g = poly("y^10000000 + x*y")
    tracemalloc.start()
    try:
        start = time.perf_counter()
        order = vanishing_order(g, phi, 13)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert order == 3
    assert elapsed < 0.5 and peak < 1_000_000


def test_a_variable_at_exponent_zero_changes_nothing():
    phi = branch_series(poly("y - x^2 - x^3"), 12)
    for text in ("y - x^2 - x^3", "y - x^4 + x*y - 2*y^3", "y - x^3 + x^2*y"):
        f, f3 = poly(text), Polynomial.from_string(text, XYZ)
        assert branch_series(f3, 12) == branch_series(f, 12)
        assert tangent_contact_order(f3) == tangent_contact_order(f)
        assert vanishing_order(f3, phi, 12) == vanishing_order(f, phi, 12)
        assert polynomial_on_branch(f3, phi) == polynomial_on_branch(f, phi)


def test_a_stray_variable_is_a_polynomial_error():
    f = Polynomial.from_string("y - x^2 + z", XYZ)
    phi = branch_series(poly("y - x^2"), 6)
    with pytest.raises(PolynomialError, match="not a polynomial in 'x' and 'y'"):
        branch_series(f, 6)
    with pytest.raises(PolynomialError, match="not a polynomial in 'x' and 'y'"):
        tangent_contact_order(f)
    with pytest.raises(PolynomialError, match="not a polynomial in 'x' and 'y'"):
        vanishing_order(f, phi, 6)


def test_vanishing_order_examples():
    phi = branch_series(poly("y - x^2"), 3)
    assert vanishing_order(poly("y"), phi, 3) == 2
    assert vanishing_order(poly("y - x^2"), phi, 3) == AtLeast(4)


def test_vanishing_order_precision_check():
    phi = branch_series(poly("y - x^2"), 3)
    with pytest.raises(SeriesError, match="precision"):
        vanishing_order(poly("y"), phi, 9)


def test_vanishing_order_multiplicative():
    rng = random.Random(61)
    f = poly("y - x^2 - x^3")
    phi = branch_series(f, 16)
    for _ in range(40):
        g = Polynomial(
            XY,
            {
                (rng.randint(0, 2), rng.randint(0, 2)): Fraction(rng.randint(-3, 3))
                for _ in range(rng.randint(1, 4))
            },
        )
        h = Polynomial(
            XY,
            {
                (rng.randint(0, 2), rng.randint(0, 2)): Fraction(rng.randint(-3, 3))
                for _ in range(rng.randint(1, 4))
            },
        )
        og = vanishing_order(g, phi, 16)
        oh = vanishing_order(h, phi, 16)
        if isinstance(og, AtLeast) or isinstance(oh, AtLeast):
            continue
        if og + oh > 16:
            continue
        assert vanishing_order(g * h, phi, 16) == og + oh


def test_tangent_contact_order_toy_hyperflex():
    assert tangent_contact_order(poly("y - x^4")) == 4


def test_tangent_contact_order_requires_horizontal_tangent():
    with pytest.raises(SeriesError, match="tangent"):
        tangent_contact_order(poly("y + x + x^2"))


def test_series_coefficients_are_exact():
    assert PowerSeries((1, "1/2", Fraction(2, 3))).coefficients == (1, Fraction(1, 2), Fraction(2, 3))
    with pytest.raises(SeriesError, match="inexact value"):
        PowerSeries([0.1])
    with pytest.raises(SeriesError, match="not a rational"):
        PowerSeries([1, "x"])


def test_series_valuation_and_display():
    assert PowerSeries((0, 0, 5)).valuation() == 2
    assert PowerSeries((0, 0, 0)).valuation() == AtLeast(3)
    assert "x^2" in str(PowerSeries((0, 0, 1)))
