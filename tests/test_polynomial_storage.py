"""Polynomial storage against a reference on {exponents: Fraction} dicts.

Polynomial stores integer numerators over one common denominator; the
reference in ``polynomial_reference`` keeps one reduced Fraction per term,
as a plain dict, and shares no code with the package.  Every operation must
give the same coefficients, and equal polynomials must store equal fields
whichever way they were built.
"""

import math
from fractions import Fraction

import pytest

from kstrata.polynomials import Polynomial
from polynomial_reference import add, mul, poly_key, ref_derivative, ref_evaluate, ref_str

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

XYZ = ("x", "y", "z")
SETTINGS = hypothesis.settings(max_examples=150, deadline=None, database=None, derandomize=True)

# denominators with shared and with coprime factors, and one beyond a machine word
coefficients = st.builds(
    Fraction, st.integers(-10**6, 10**6), st.sampled_from([1, 1, 2, 3, 4, 6, 12, 35, 2**61 - 1])
)
exponents = st.tuples(*[st.integers(0, 3)] * 3)
references = st.dictionaries(exponents, coefficients, max_size=6).map(
    lambda terms: {e: c for e, c in terms.items() if c}
)
values = st.one_of(st.integers(-7, 7), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 8)))


def agrees(poly, reference):
    """poly has reference's coefficients, as Fractions, and its stored form is canonical."""
    assert poly.terms == reference
    assert all(type(c) is Fraction for c in poly.terms.values())
    den, num = poly.cleared()
    # the least common denominator: no factor is common to it and every numerator
    assert den == math.lcm(*[c.denominator for c in reference.values()])
    assert num == {e: int(c * den) for e, c in reference.items()}
    rebuilt = Polynomial(XYZ, reference)
    assert poly_key(poly) == poly_key(rebuilt) and poly.cleared() == rebuilt.cleared()
    return True


# -- the differentials -------------------------------------------------------


@SETTINGS
@hypothesis.given(references, st.sampled_from(XYZ), st.tuples(values, values, values))
def test_calculus_and_specialization_match_the_reference(a, name, point):
    p, idx = Polynomial(XYZ, a), XYZ.index(name)
    assert agrees(p.partial_derivative(name), ref_derivative(a, idx))
    assert p.evaluate(dict(zip(XYZ, point))) == ref_evaluate(a, point)
    assert type(p.evaluate(dict(zip(XYZ, point)))) is Fraction
    for e, c in a.items():
        assert p.coefficient(e) == c and type(p.coefficient(e)) is Fraction


@SETTINGS
@hypothesis.given(references)
def test_display_and_parse_round_trip(a):
    p = Polynomial(XYZ, a)
    assert str(p) == ref_str(a, XYZ)
    assert poly_key(Polynomial.from_string(str(p), XYZ)) == poly_key(p)


@SETTINGS
@hypothesis.given(references, references, references)
def test_equal_polynomials_store_equal_fields_however_built(a, b, c):
    p, q, r = (Polynomial(XYZ, t) for t in (a, b, c))
    assert (poly_key(p) == poly_key(q)) == (a == b)
    assert agrees(-p, {e: -v for e, v in a.items()})
    # the two sides sum their terms in different orders
    left, right = mul(add(p, q), r), add(mul(p, r), mul(q, r))
    assert poly_key(left) == poly_key(right) and left.cleared() == right.cleared()
