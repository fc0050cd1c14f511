"""Polynomial arithmetic against a reference on {exponents: Fraction} dicts.

Polynomial stores integer numerators over one common denominator; the
reference here keeps one reduced Fraction per term, as a plain dict, and
shares no code with the package.  Every operation must give the same
coefficients, and equal polynomials must compare and hash equal whichever
way they were built.
"""

import math
from fractions import Fraction
from operator import add

import pytest

from kstrata.polynomials import Polynomial

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


# -- the reference -----------------------------------------------------------


def ref_combine(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def ref_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(add, ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def ref_derivative(a, idx):
    out = {}
    for e, c in a.items():
        if e[idx]:
            out[e[:idx] + (e[idx] - 1,) + e[idx + 1 :]] = c * e[idx]
    return out


def ref_substitute(a, idx, value):
    out = {}
    for e, c in a.items():
        key = e[:idx] + (0,) + e[idx + 1 :]
        out[key] = out.get(key, 0) + c * Fraction(value) ** e[idx]
    return {e: c for e, c in out.items() if c}


def ref_evaluate(a, point):
    total = Fraction(0)
    for e, c in a.items():
        for value, power in zip(point, e):
            c *= Fraction(value) ** power
        total += c
    return total


def ref_str(a):
    """Terms by descending total degree, then exponents; unit coefficients elided."""
    if not a:
        return "0"
    parts = []
    for e in sorted(a, key=lambda e: (sum(e), e), reverse=True):
        factors = [n if p == 1 else f"{n}^{p}" for n, p in zip(XYZ, e) if p]
        magnitude = abs(a[e])
        if not factors:
            body = str(magnitude)
        else:
            body = "*".join(factors if magnitude == 1 else [str(magnitude)] + factors)
        parts.append(("- " if a[e] < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def agrees(poly, reference):
    """poly has reference's coefficients, as Fractions, and its stored form is canonical."""
    assert poly.terms == reference
    assert all(type(c) is Fraction for c in poly.terms.values())
    den, num = poly.cleared()
    # the least common denominator: no factor is common to it and every numerator
    assert den == math.lcm(*[c.denominator for c in reference.values()])
    assert num == {e: int(c * den) for e, c in reference.items()}
    rebuilt = Polynomial(XYZ, reference)
    assert poly == rebuilt and hash(poly) == hash(rebuilt)
    return True


# -- the differentials -------------------------------------------------------


@SETTINGS
@hypothesis.given(references, references)
def test_ring_operations_match_the_reference(a, b):
    p, q = Polynomial(XYZ, a), Polynomial(XYZ, b)
    assert agrees(p + q, ref_combine(a, b))
    assert agrees(p - q, ref_combine(a, b, -1))
    assert agrees(p * q, ref_mul(a, b))
    assert agrees(-p, {e: -c for e, c in a.items()})
    assert agrees(p - p, {})
    assert (p == q) == (a == b)


@SETTINGS
@hypothesis.given(references, values)
def test_scalar_operations_match_the_reference(a, value):
    p = Polynomial(XYZ, a)
    constant = {(0, 0, 0): Fraction(value)} if value else {}
    assert agrees(p + value, ref_combine(a, constant))
    assert agrees(value + p, ref_combine(a, constant))
    assert agrees(p - value, ref_combine(a, constant, -1))
    assert agrees(value - p, ref_combine(constant, a, -1))
    assert agrees(p * value, ref_mul(a, constant))
    assert agrees(value * p, ref_mul(a, constant))


@SETTINGS
@hypothesis.given(references, st.sampled_from(XYZ), values, st.tuples(values, values, values))
def test_calculus_and_specialization_match_the_reference(a, name, value, point):
    p, idx = Polynomial(XYZ, a), XYZ.index(name)
    assert agrees(p.partial_derivative(name), ref_derivative(a, idx))
    assert agrees(p.substitute(name, value), ref_substitute(a, idx, value))
    assert p.evaluate(dict(zip(XYZ, point))) == ref_evaluate(a, point)
    assert type(p.evaluate(dict(zip(XYZ, point)))) is Fraction
    for e, c in a.items():
        assert p.coefficient(e) == c and type(p.coefficient(e)) is Fraction


@SETTINGS
@hypothesis.given(references)
def test_display_and_parse_round_trip(a):
    p = Polynomial(XYZ, a)
    assert str(p) == ref_str(a)
    assert Polynomial.from_string(str(p), XYZ) == p


@SETTINGS
@hypothesis.given(references, references, references)
def test_equal_polynomials_hash_equal_however_built(a, b, c):
    p, q, r = (Polynomial(XYZ, t) for t in (a, b, c))
    left, right = (p + q) * r, p * r + q * r
    assert left == right and hash(left) == hash(right)
    assert {left: 1}[right] == 1
    assert (left - right).is_zero() and left - right == Polynomial.zero(XYZ)
