import itertools
import math
import random
import re
import time
import tracemalloc
from fractions import Fraction

import pytest

from kstrata import polynomials
from kstrata.errors import UnsupportedCase
from kstrata.polynomials import (
    Polynomial,
    PolynomialError,
    gcd_terms,
    integer_rank,
    rational_roots,
    resultant,
)
from kstrata.quartic import _load_constructions
from macaulay_reference import rank as reference_rank
from polynomial_reference import (
    add,
    degree_in,
    evaluate_by_substitution,
    is_zero,
    mul,
    poly_key,
    power,
    ref_combine,
    ref_evaluate,
    ref_mul,
    scale,
    sub,
)

XY = ("x", "y")
XYZ = ("x", "y", "z")
XYZW = ("x", "y", "z", "w")
XYZWU = ("x", "y", "z", "w", "u")


def poly(text, variables=XY):
    return Polynomial.from_string(text, variables)


def univariate_terms(p, name):
    """{k: a_k} of p's ``cleared()`` numerators, for p univariate in ``name``."""
    idx = p.variables.index(name)
    terms = p.cleared()[1]
    assert all(sum(e) == e[idx] for e in terms), p
    return {e[idx]: c for e, c in terms.items()}


def gcd_of(polys, name):
    """``gcd_terms`` of the {k: a_k} read from each polynomial's ``cleared()``."""
    return gcd_terms([univariate_terms(p, name) for p in polys])


def primitive(p, name):
    """p's {k: a_k}, divided by their gcd and signed so the leading one is positive; {} for zero."""
    terms = univariate_terms(p, name)
    if not terms:
        return {}
    content = math.gcd(*terms.values()) * (1 if terms[max(terms)] > 0 else -1)
    return {k: c // content for k, c in terms.items()}


def random_poly(rng, variables=XY, max_degree=3, max_terms=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_degree) for _ in variables)
        terms[exps] = Fraction(rng.randint(-4, 4))
    return Polynomial(variables, terms)


def test_parsing_styles_agree():
    explicit = poly("2*x^3 - 1*y^3 + -1*x^2")
    implicit = poly("2x^3 - y^3 - x^2")
    spaced = poly(" 2 x ^ 3 - y^3 - x x ")
    assert poly_key(explicit) == poly_key(implicit) == poly_key(spaced)


def test_parsing_fractions_and_constants():
    p = poly("1/2*x + 3 - 5/4")
    assert p.coefficient((1, 0)) == Fraction(1, 2)
    assert p.coefficient((0, 0)) == Fraction(7, 4)


def test_parsing_errors():
    with pytest.raises(PolynomialError, match="unknown variable"):
        poly("x + w")
    with pytest.raises(PolynomialError, match="dangling"):
        poly("x + ")
    with pytest.raises(PolynomialError, match="tokenize"):
        poly("x + $")


@pytest.mark.parametrize("text", ["1/0*x", "x + 2/0", "0/0"])
def test_a_zero_denominator_is_a_polynomial_error(text):
    with pytest.raises(PolynomialError, match="zero denominator"):
        poly(text)


def test_evaluate_names_a_variable_without_a_value():
    p = poly("x*y + 1")
    with pytest.raises(PolynomialError, match=r"^no value for variable 'y'$"):
        p.evaluate({"x": 1})
    # a variable that does not occur needs no value
    assert poly("x + 1").evaluate({"x": 2}) == 3


def test_a_star_stands_only_between_factors():
    for text in ("x**2", "x*", "* x", "2*x - *y", "x*+y", "1/2**x"):
        with pytest.raises(PolynomialError, match="misplaced"):
            poly(text)
    assert poly_key(poly("2*x*y")) == poly_key(poly("2 x y")) == poly_key(poly("2*x y"))
    for record in _load_constructions().values():
        for key in ("quartic", "affine", "cubic", "quadratic"):
            if key in record:
                p = poly(record[key], XYZ)
                assert poly_key(poly(str(p), XYZ)) == poly_key(p)


def test_parsing_agrees_with_the_reference_in_every_style():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    number = st.tuples(st.integers(0, 99), st.none() | st.integers(1, 9))
    power = st.tuples(st.sampled_from(XY), st.none() | st.integers(0, 4))
    factors = st.lists(number | power, min_size=1, max_size=4)
    # (signs, factors, whether a copy with one more '-' follows and cancels it)
    term = st.tuples(st.lists(st.sampled_from("+-"), max_size=3), factors, st.booleans())

    @hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @hypothesis.given(st.lists(term, min_size=1, max_size=5), st.data())
    def any_style(terms, data):
        def space():
            return data.draw(st.sampled_from(["", " ", "  ", "\t"]))

        pieces, expected = [], {}
        for signs, factors, cancel in terms:
            for copy in [signs, signs + ["-"]] if cancel else [signs]:
                if pieces and not copy:
                    copy = ["+"]
                text = "".join(sign + space() for sign in copy)
                value = {(0, 0): Fraction((-1) ** copy.count("-"))}
                for i, (head, tail) in enumerate(factors):
                    if i:
                        # juxtaposition needs whitespace, except before a name
                        # after a number: "2x", "1/2x"
                        glued = isinstance(head, str) and isinstance(factors[i - 1][0], int)
                        joins = ["*", " * ", "* ", " ", "\n"] + [""] * glued
                        text += data.draw(st.sampled_from(joins))
                    if isinstance(head, int):
                        text += str(head) + ("" if tail is None else f"{space()}/{space()}{tail}")
                        monomial = {(0, 0): Fraction(head, tail or 1)}
                    else:
                        text += head + ("" if tail is None else f"{space()}^{space()}{tail}")
                        degree = 1 if tail is None else tail
                        monomial = {tuple(degree * (v == head) for v in XY): 1}
                    value = ref_mul(value, monomial)
                pieces.append(text)
                expected = ref_combine(expected, value)
        text = "".join(piece + space() for piece in pieces)
        assert Polynomial.from_string(text, XY).terms == expected

    any_style()


# one input per error the parser raises, each with a single fault
REJECTED = [
    ("", "empty polynomial text"),
    (" \t ", "empty polynomial text"),
    ("x + ", "dangling sign"),
    ("x - -", "dangling sign"),
    ("x + $", "cannot tokenize '$'"),
    ("x.5", "cannot tokenize '.5'"),
    ("x + w", "unknown variable 'w'"),
    ("1/0*x", "zero denominator"),
    ("x**2", "misplaced '*'"),
    ("x*", "misplaced '*'"),
    ("- *y", "misplaced '*'"),
    ("x^", "bad exponent"),
    ("x^y", "bad exponent"),
    ("1/", "bad fraction"),
    ("1/x", "bad fraction"),
    ("x^2^3", "unexpected token '^'"),
    ("2^3", "unexpected token '^'"),
    ("x - ^2", "unexpected token '^'"),
    ("x/2", "unexpected token '/'"),
    ("1/2/3", "unexpected token '/'"),
    ("1 + /2", "unexpected token '/'"),
]


@pytest.mark.parametrize("text, message", REJECTED)
def test_parsing_refuses_each_fault_by_name(text, message):
    with pytest.raises(PolynomialError, match=re.escape(message)):
        poly(text)


@pytest.mark.parametrize("text", ["1" * 5000, "x^" + "9" * 5000], ids=["coefficient", "exponent"])
def test_a_literal_past_the_digit_limit_is_a_polynomial_error(text):
    with pytest.raises(PolynomialError, match="number too long"):
        poly(text)


@pytest.mark.parametrize("text", ["1" * 40 + "$", "x " * 20000 + "^", "x" + " " * 20000 + "$"])
def test_parsing_refuses_without_backtracking(text):
    # one anchored pattern would try every split of the digits, doubling
    # its time with each added digit
    start = time.perf_counter()
    with pytest.raises(PolynomialError):
        poly(text)
    assert time.perf_counter() - start < 1.0


def test_repeated_variable_names_are_refused():
    # every lookup by name found the first slot: the Fermat quartic in
    # (x, x, z) was certified singular at (0 : 1 : 0)
    with pytest.raises(PolynomialError, match="repeated variable name"):
        Polynomial(("x", "x", "z"), {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1})
    with pytest.raises(PolynomialError, match="repeated variable name"):
        Polynomial.from_string("x^4 + z^4", ("x", "x", "z"))


@pytest.mark.parametrize(
    "terms",
    [{(1.5,): 1}, {(1.5,): 1, (1,): 1}, {("a",): 1}, {("2",): 1}, {2: 1}],
    ids=["float", "float-beside-int", "letter", "digit-string", "not-a-tuple"],
)
def test_exponents_must_be_ints(terms):
    with pytest.raises(PolynomialError, match="exponents must be a tuple of ints"):
        Polynomial(("x",), terms)


def test_str_round_trip():
    rng = random.Random(41)
    for _ in range(100):
        p = random_poly(rng)
        assert poly_key(Polynomial.from_string(str(p), XY)) == poly_key(p) or is_zero(p)


def test_partial_derivative_examples():
    assert poly_key(poly("x^4").partial_derivative("x")) == poly_key(poly("4*x^3"))
    assert poly_key(poly("x^2 - y").partial_derivative("y")) == poly_key(poly("0 - 1"))
    assert is_zero(poly("x^4 - x*y^3", XYZ).partial_derivative("z"))


def test_evaluate_matches_substitution_one_variable_at_a_time():
    rng = random.Random(31)
    values = [0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7), "-4/9"]
    for width in range(1, 5):
        variables = XYZW[:width]
        for _ in range(60):
            terms = {
                tuple(rng.randint(0, 4) for _ in variables): Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                for _ in range(rng.randint(1, 6))
            }
            p = Polynomial(variables, terms)
            point = {name: rng.choice(values) for name in variables}
            value = p.evaluate(point)
            assert value == evaluate_by_substitution(p, point), (p, point)
            assert value == ref_evaluate(p.terms, [Fraction(point[v]) for v in variables])
            assert type(value) is Fraction


def test_evaluate_of_the_zero_polynomial_is_zero():
    for variables in (("x",), XY, XYZW):
        zero = Polynomial(variables)
        value = zero.evaluate({})
        assert value == 0 and type(value) is Fraction
        assert value == evaluate_by_substitution(zero, {})


def test_evaluate_refuses_an_inexact_value_in_words():
    p = poly("x*y + 1")
    with pytest.raises(PolynomialError, match=r"^inexact value 0\.5: pass an int, a Fraction or a string$"):
        p.evaluate({"x": 1, "y": 0.5})
    with pytest.raises(PolynomialError, match=r"^not a rational number: 'one'$"):
        p.evaluate({"x": "one", "y": 1})
    # a value for a variable that does not occur is not read
    assert poly("y + 1").evaluate({"x": 0.5, "y": 2}) == 3


def test_exact_inputs_are_kept_and_floats_refused():
    third = Fraction(1, 3)
    p = Polynomial(XY, {(1, 0): third, (0, 1): 2, (0, 0): "-1/10"})
    assert p.terms[1, 0] == third and type(p.terms[1, 0]) is Fraction
    assert poly_key(p) == poly_key(poly("1/3*x + 2*y - 1/10"))
    assert poly_key(Polynomial(XY, {(0, 0): "0.1"})) == poly_key(poly("1/10"))
    assert p.evaluate({"x": "3/2", "y": 0}) == Fraction(2, 5)
    for call in (
        lambda: Polynomial(XY, {(1, 0): 0.1}),
        lambda: Polynomial(XY, {(0, 0): 0.5}),
        lambda: p.evaluate({"x": 0.5, "y": 1}),
        lambda: Polynomial(XY, {(0, 0): "one"}),
    ):
        with pytest.raises(PolynomialError, match="inexact value|not a rational"):
            call()


def test_homogeneous_check():
    assert poly("x^4 + y^4 + z^4", XYZ).is_homogeneous()
    assert not poly("x^4 + y^3", XYZ).is_homogeneous()


def test_resultant_examples():
    assert poly_key(resultant(poly("y - x"), poly("y + x"), "y")) == poly_key(poly("2*x"))
    assert poly_key(resultant(poly("y^2"), poly("y - x"), "y")) == poly_key(poly("x^2"))
    p = poly("x^2 - 2")
    assert is_zero(resultant(p, p, "x"))


def test_resultant_degree_zero_rejected():
    with pytest.raises(PolynomialError, match="positive degree"):
        resultant(poly("x"), poly("y"), "y")


MALFORMED_CALLS = {
    "short_exponents": (lambda: Polynomial(XY, {(1,): 1}), "exponent tuple (1,) does not fit variables"),
    "negative_exponent": (lambda: Polynomial(XY, {(1, -1): 1}), "negative exponent in (1, -1)"),
    "unknown_variable": (lambda: poly("x*y").partial_derivative("w"), "unknown variable 'w'"),
    "variable_mismatch": (
        lambda: resultant(poly("x*y"), Polynomial.from_string("x", ("x", "z")), "x"), "variable mismatch",
    ),
    "roots_of_zero": (lambda: rational_roots(Polynomial(XY), "x"), "the zero polynomial has every root"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_CALLS))
def test_a_malformed_call_is_a_polynomial_error(name):
    call, message = MALFORMED_CALLS[name]
    with pytest.raises(PolynomialError, match=re.escape(message)):
        call()


def test_resultant_antisymmetry():
    rng = random.Random(43)
    trials = 0
    while trials < 60:
        p, q = random_poly(rng), random_poly(rng)
        m, n = degree_in(p, "y"), degree_in(q, "y")
        if m <= 0 or n <= 0:
            continue
        left = resultant(p, q, "y")
        right = resultant(q, p, "y")
        sign = -1 if (m * n) % 2 else 1
        assert poly_key(left) == poly_key(scale(right, sign))
        trials += 1


def test_resultant_vanishes_exactly_on_shared_roots():
    # p and q share the root y = x^2; the resultant must vanish identically
    shared = poly("y - x^2")
    p = mul(shared, poly("y + 1"))
    q = mul(shared, poly("y - 3*x"))
    assert is_zero(resultant(p, q, "y"))
    # distinct linear factors: resultant vanishes exactly where roots collide
    p = poly("y - x")
    q = poly("y - 2*x")
    r = resultant(p, q, "y")
    assert r.evaluate({"x": 0}) == 0
    assert r.evaluate({"x": 1}) != 0


def test_resultant_specialization_on_numeric_roots():
    # (y - 1)(y - 2) and (y - 2)(y - 5) share the root 2 at every x
    p = poly("y^2 - 3*y + 2")
    q = poly("y^2 - 7*y + 10")
    assert is_zero(resultant(p, q, "y"))
    q = poly("y^2 - 8*y + 15")
    assert not is_zero(resultant(p, q, "y"))


# Res_y(y - a, y - b) = a - b for a and b free of y.  In each pair b is free
# of x, so the result's degree in x is the top digit that x's radix allows.
# Negative coefficients sit under nonzero ones, so the signed digits borrow,
# also across the x stride into z and w; some pairs end on a negative top
# coefficient, and in one the coefficients come within a factor two of
# 2^(B-1), the most a signed B-bit slot holds.
PLANTED_PAIRS = [
    ("x^5 - 3*x^2 + 2", "-7"),
    ("-x^4 + 0*x^2 - 1", "0"),
    ("-4*x^3 + 9*z + x*z^2", "6*z^2 - 1"),
    ("x^2 - 5*z - x^2*z + 3", "-z^2 + 2*z"),
    ("x^2*z*w - 3*w^2 + 5*x - 8", "-z^3*w + 2*z - 1"),
    ("-x^3 + w - x*z*w^2", "-2*w^2 + z^2*w + 4"),
    ("-2097151*x^2 + 2097151*z", "0"),
    ("1048575*x^3 - 1048576*x*z*w - 1", "-1048575*z"),
    ("x - 3*w^4", "w^2"),
]


@pytest.mark.parametrize("a, b", PLANTED_PAIRS)
def test_resultant_of_planted_linear_pairs(a, b):
    a, b = poly(a, XYZWU), poly(b, XYZWU)
    y = Polynomial.from_string("y", XYZWU)
    assert poly_key(resultant(sub(y, a), sub(y, b), "y")) == poly_key(sub(a, b))
    assert poly_key(resultant(sub(y, b), sub(y, a), "y")) == poly_key(sub(b, a))
    assert poly_key(resultant(sub(scale(y, 2), a), sub(scale(y, 3), b), "y")) == poly_key(sub(scale(a, 3), scale(b, 2)))


@pytest.mark.parametrize(
    "p, q",
    [("y - x^1000000", "y + 1"), ("y^300 + 2", "y^300 - x + 1")],
)
def test_resultant_budget_raises_from_the_degrees(p, q):
    start = time.perf_counter()
    with pytest.raises(UnsupportedCase, match="exceeds the supported maximum"):
        resultant(poly(p), poly(q), "y")
    assert time.perf_counter() - start < 1


def test_resultant_budget_sees_coefficient_size():
    # a dense pair of degree 12 with 100-bit coefficients passes the degree
    # check; uncapped it runs for about 4 s
    rng = random.Random(7)

    def wide(degree):
        return Polynomial(XY, {
            (i, j): rng.choice([-1, 1]) * rng.randint(2**99, 2**100)
            for i in range(degree + 1)
            for j in range(degree + 1 - i)
        })

    start = time.perf_counter()
    with pytest.raises(UnsupportedCase, match="slots of [0-9]+ bits exceeds the supported maximum"):
        resultant(wide(12), wide(12), "y")
    assert time.perf_counter() - start < 1


def test_resultant_budget_counts_each_bareiss_step():
    # univariate pairs of order 284 and 300 with 4-bit coefficients pack into
    # 46 and 48 words and pass both size estimates without the per-step
    # charge; the charge was fitted to a Sylvester determinant, which took
    # about 13 s and 17 s, and uncapped the remainder sequence takes 0.1 s
    def dense(rng, degree):
        return Polynomial(("y",), {(i,): rng.choice([-1, 1]) * rng.randint(1, 15) for i in range(degree + 1)})

    for degree in (142, 150):
        rng = random.Random(1)
        start = time.perf_counter()
        with pytest.raises(UnsupportedCase, match=f"order {2 * degree} over 1 coefficient slots of [0-9]+ bits"):
            resultant(dense(rng, degree), dense(rng, degree), "y")
        assert time.perf_counter() - start < 1


def test_resultant_budget_admits_a_sparse_pair_of_high_order():
    # order 320 packs into 8 words, so the per-step cost dominates; since
    # g - f = y + 1, Res(f, g) = (-1)^160 * f(-1) = 2
    f = Polynomial.from_string("y^160 + 1", ("y",))
    g = Polynomial.from_string("y^160 + y + 2", ("y",))
    assert poly_key(resultant(f, g, "y")) == poly_key(Polynomial(("y",), {(0,): 2}))


def test_gcd_terms_of_two():
    p = poly("x^2 - 1")
    q = poly("x^2 - 2*x + 1")
    assert gcd_of((p, q), "x") == {1: 1, 0: -1}
    assert gcd_of((p, poly("x^2 + 1")), "x") == {0: 1}


def test_rational_roots():
    p = poly("2*x^3 - 3*x^2 - 2*x")  # roots 0, 2, -1/2
    assert rational_roots(p, "x") == [Fraction(-1, 2), Fraction(0), Fraction(2)]
    assert rational_roots(poly("x^2 + 1"), "x") == []


def test_rational_roots_with_a_large_constant():
    # constant term 1048573 * 1024 * 1025, about 2^40
    p = mul(poly("x - 1048573"), poly("x + 1024"), poly("3*x - 1"), poly("x - 1025"), poly("x^2 + 1"))
    assert rational_roots(p, "x") == [
        Fraction(-1024),
        Fraction(1, 3),
        Fraction(1025),
        Fraction(1048573),
    ]


def test_rational_roots_of_repeated_factors_with_a_huge_constant():
    # the cleared constant is about 1.1e19, past MAX_DIVISOR_INPUT; the
    # squarefree part has constant 37 * 39 * 31 * 29
    p = Polynomial(XY, {(0, 0): Fraction(5, 3)})
    for lead, root in ((Fraction(5, 2), Fraction(37, 9)), (6, Fraction(-39, 7)),
                       (Fraction(4, 3), Fraction(31, 8)), (3, Fraction(-29, 5))):
        p = mul(p, power(Polynomial(XY, {(1, 0): lead, (0, 0): -lead * root}), 3))
    assert rational_roots(p, "x") == [
        Fraction(-29, 5), Fraction(-39, 7), Fraction(31, 8), Fraction(37, 9)
    ]


def test_rational_roots_find_every_planted_root():
    # leading coefficients with many divisors give candidates past Cauchy's
    # bound; every planted root must survive that filter
    rng = random.Random(89)
    for _ in range(40):
        planted = {
            Fraction(rng.randint(-30, 30), rng.randint(1, 8)) for _ in range(rng.randint(1, 3))
        }
        p = Polynomial(XY, {(0, 0): Fraction(rng.choice([1, -2, 3, 12, 60]), rng.randint(1, 5))})
        for root in planted:
            p = mul(p, Polynomial(XY, {(1, 0): root.denominator, (0, 0): -root.numerator}))
        if rng.random() < 0.5:
            p = mul(p, poly(rng.choice(["x^2 + 1", "2*x^2 - 3", "x^2 + x + 5"])))
        assert rational_roots(p, "x") == sorted(planted), p


def test_rational_roots_list_the_constant_divisors_once():
    # 720720 has 240 divisors and the constant is near 10^13; listing the
    # constant's divisors once per divisor of the leading coefficient took 82 s
    p = Polynomial.from_string("720720*t^3 - 5*t - 9999999999971", ("t",))
    start = time.perf_counter()
    assert rational_roots(p, "t") == []
    assert time.perf_counter() - start < 5


def test_a_squarefree_input_is_divided_by_nothing(monkeypatch):
    # gcd(p, p') is constant, so p is its own squarefree part: no division,
    # not even by the constant; a repeated root still divides it out
    divisions = []
    quotient = polynomials._quotient

    def recording(a, b):
        divisions.append(b)
        return quotient(a, b)

    monkeypatch.setattr(polynomials, "_quotient", recording)
    squarefree = poly("6*x^3 - 11*x^2 + 6*x - 1", ("x",))  # (x - 1)(2x - 1)(3x - 1)
    assert rational_roots(squarefree, "x") == [Fraction(1, 3), Fraction(1, 2), Fraction(1)]
    assert divisions == []
    repeated = poly("2*x^3 - 3*x^2 + 1", ("x",))  # (x - 1)^2 (2x + 1)
    assert rational_roots(repeated, "x") == [Fraction(-1, 2), Fraction(1)]
    assert [-1, 1] in divisions


# -- the one fraction-free elimination --------------------------------------


def leibniz(matrix):
    """The determinant as a signed sum over permutations."""
    n = len(matrix)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(matrix[i][perm[i]] for i in range(n))
    return total


def random_matrices():
    """Square, tall and wide, rank-deficient, and with zero rows and columns."""
    rng = random.Random(29)

    def entries(rows, cols, size):
        return [[rng.randint(-size, size) for _ in range(cols)] for _ in range(rows)]

    out = []
    for _ in range(60):
        out.append(entries(rng.randint(1, 6), rng.randint(1, 6), rng.choice([1, 9, 10**12])))
    for _ in range(30):  # rank at most r: a product through r dimensions
        rows, cols, r = rng.randint(2, 6), rng.randint(2, 6), rng.randint(0, 3)
        a, b = entries(rows, r, 5), entries(r, cols, 5)
        out.append([[sum(a[i][k] * b[k][j] for k in range(r)) for j in range(cols)] for i in range(rows)])
    for _ in range(30):
        m = entries(rng.randint(2, 6), rng.randint(2, 6), 9)
        for i in rng.sample(range(len(m)), rng.randint(0, 2)):
            m[i] = [0] * len(m[0])
        for j in rng.sample(range(len(m[0])), rng.randint(0, 2)):
            for row in m:
                row[j] = 0
        out.append(m)
    return out


def test_integer_rank_examples():
    assert integer_rank([[0, 1], [1, 0]]) == (2, -1)  # one row swap
    assert integer_rank([[0, 0], [0, 0]]) == (0, 1)
    assert integer_rank([[0, 2, 1], [0, 4, 2]]) == (1, 2)
    assert integer_rank([[2, 1], [4, 2], [1, 1]]) == (2, -1)


def test_integer_rank_matches_an_independent_elimination():
    matrices = random_matrices()
    shapes = set()
    for m in matrices:
        before = [row[:] for row in m]
        rank = integer_rank(m)[0]
        assert rank == reference_rank(m), m
        assert m == before
        rows, cols = len(m), len(m[0])
        shapes.add((rows > cols) - (rows < cols))
        shapes.add("deficient" if rank < min(rows, cols) else "full")
    assert shapes == {-1, 0, 1, "deficient", "full"}


def test_integer_rank_gives_the_determinant_at_full_rank():
    counts = {True: 0, False: 0}
    for m in random_matrices():
        if len(m) != len(m[0]):
            continue
        rank, pivot = integer_rank(m)
        det = leibniz(m)
        assert (rank == len(m)) == (det != 0), m
        if det:
            assert pivot == det, m
        counts[det != 0] += 1
    assert min(counts.values()) >= 5


def test_integer_rank_matches_sympy_determinants():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(30)
    for n in (7, 9, 12):
        m = [[rng.randint(-10**6, 10**6) for _ in range(n)] for _ in range(n)]
        m[0][0] = 0  # the first pivot needs a row swap
        assert integer_rank(m) == (n, sympy.Matrix(m).det())


# -- resultants against sympy ------------------------------------------------


def _sympy_resultant(p, q, name):
    """Res(p, q) by sympy, as a Polynomial in p's variables.

    sympy.resultant(f, g) returns Res(g, f) when f has the lower degree (it
    swaps the inputs without the sign), so the higher-degree input goes
    first and Res(p, q) = (-1)^(mn) Res(q, p) restores the Sylvester sign.
    """
    sympy = pytest.importorskip("sympy")
    m, n = degree_in(p, name), degree_in(q, name)
    if m < n:
        return scale(_sympy_resultant(q, p, name), (-1) ** (m * n))
    symbols = sympy.symbols(p.variables)

    def expr(f):
        return sum(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(s**e for s, e in zip(symbols, exps)))
            for exps, c in f.terms.items()
        )

    r = sympy.resultant(expr(p), expr(q), symbols[p.variables.index(name)])
    terms = sympy.Poly(r, *symbols).as_dict()
    return Polynomial(
        p.variables, {e: Fraction(int(c.p), int(c.q)) for e, c in terms.items()}
    )


def random_rational_poly(rng, variables, max_degree, max_terms):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_degree) for _ in variables)
        terms[exps] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return Polynomial(variables, terms)


def dense_poly(rng, degree):
    return Polynomial(
        XY,
        {
            (i, j): Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
            for i in range(degree + 1)
            for j in range(degree + 1 - i)
        },
    )


def _assert_matches_sympy(pairs, name="y", count=None):
    checked = 0
    for p, q in pairs:
        if degree_in(p, name) <= 0 or degree_in(q, name) <= 0:
            continue
        assert poly_key(resultant(p, q, name)) == poly_key(_sympy_resultant(p, q, name)), (p, q)
        checked += 1
    if count is not None:
        assert checked == count


def test_resultant_matches_sympy_rational_bivariate():
    rng = random.Random(61)
    pairs = [
        (random_rational_poly(rng, XY, 4, 6), random_rational_poly(rng, XY, 4, 6))
        for _ in range(60)
    ]
    _assert_matches_sympy(pairs)


def test_resultant_matches_sympy_three_variables():
    # two free variables (x and z) remain after eliminating y
    rng = random.Random(67)
    pairs = [
        (random_rational_poly(rng, XYZ, 2, 5), random_rational_poly(rng, XYZ, 2, 5))
        for _ in range(40)
    ]
    _assert_matches_sympy(pairs)
    _assert_matches_sympy(pairs, name="x")


def test_resultant_matches_sympy_when_the_leading_coefficient_vanishes():
    # the leading coefficients in y vanish at x = 0, 1, 2 or z = 0; the
    # formal Sylvester shape must be kept
    rng = random.Random(71)

    def below(f, degree):
        return Polynomial(f.variables, {e: c for e, c in f.terms.items() if e[1] < degree})

    pairs = []
    for _ in range(20):
        p = add(poly("x*y^2"), below(random_rational_poly(rng, XY, 3, 5), 2))
        q = add(poly("x^2*y^3 - 3*x*y^3 + 2*y^3"), below(random_rational_poly(rng, XY, 3, 5), 3))
        pairs.append((p, q))
        r = scale(poly("x*z*y^2", XYZ), rng.randint(1, 5))
        s = poly("x*z*y^2 - z^2*y^2", XYZ)
        pairs.append(
            (
                add(r, below(random_rational_poly(rng, XYZ, 2, 4), 2)),
                add(s, below(random_rational_poly(rng, XYZ, 2, 4), 2)),
            )
        )
    _assert_matches_sympy(pairs, count=len(pairs))


@pytest.mark.parametrize("variables, count", [(XYZW, 40), (XYZWU, 20)], ids=["three", "four"])
def test_resultant_matches_sympy_with_three_and_four_free_variables(variables, count):
    # sparse degree-2 pairs; each packs into one determinant, whatever the
    # number of free variables
    rng = random.Random(101 + len(variables))
    checked = 0
    while checked < count:
        p = random_rational_poly(rng, variables, 2, 4)
        q = random_rational_poly(rng, variables, 2, 4)
        if degree_in(p, "y") <= 0 or degree_in(q, "y") <= 0:
            continue
        start = time.perf_counter()
        r = resultant(p, q, "y")
        assert time.perf_counter() - start < 1
        assert poly_key(r) == poly_key(_sympy_resultant(p, q, "y")), (p, q)
        checked += 1


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
def test_resultant_matches_sympy_on_dense_pairs(degree):
    rng = random.Random(73 + degree)
    for _ in range(2):
        p, q = dense_poly(rng, degree), dense_poly(rng, degree)
        r = resultant(p, q, "y")
        assert r.degree() == degree * degree  # Bezout's bound is reached
        assert poly_key(r) == poly_key(_sympy_resultant(p, q, "y"))


def test_resultant_matches_sympy_on_the_charts_shape():
    # a quartic's partial on the chart x = 1: a polynomial in y of degree m
    # <= 3 whose coefficient of y^k has degree at most 3 - k in z; the
    # leading one is c * (b*z - a)^j, which vanishes at z = a/b when j > 0
    rng = random.Random(113)
    vanishing = 0

    def chart_partial():
        nonlocal vanishing
        m = rng.randint(1, 3)
        terms = {
            (0, k, j): rng.choice([Fraction(rng.randint(-9, 9), rng.randint(1, 4)), rng.randint(-10**6, 10**6)])
            for k in range(m)
            for j in range(4 - k)
            if rng.random() < 0.7
        }
        lead, times = {(0, 0, 0): rng.randint(1, 5)}, rng.randint(0, 3 - m)
        for _ in range(times):
            lead = ref_mul(lead, {(0, 0, 1): rng.randint(1, 2), (0, 0, 0): rng.randint(-3, 3) or 1})
        vanishing += times > 0
        terms.update({(0, m, j): c for (_, _, j), c in lead.items()})
        return Polynomial(XYZ, terms)

    pairs = [(chart_partial(), chart_partial()) for _ in range(40)]
    assert vanishing >= 10
    _assert_matches_sympy(pairs, count=len(pairs))


def test_resultant_matches_sympy_when_identically_zero():
    rng = random.Random(79)
    for variables in (XY, XYZ):
        for _ in range(10):
            shared = random_rational_poly(rng, variables, 2, 3)
            if degree_in(shared, "y") <= 0:
                shared = add(shared, Polynomial.from_string("y", variables))
            p = mul(shared, random_rational_poly(rng, variables, 2, 3))
            q = mul(shared, random_rational_poly(rng, variables, 2, 3))
            if degree_in(p, "y") <= 0 or degree_in(q, "y") <= 0:
                continue
            assert is_zero(resultant(p, q, "y"))
            assert is_zero(_sympy_resultant(p, q, "y"))


# -- univariate gcds against sympy -------------------------------------------


def _sympy_gcd(polys, name):
    """Monic gcd by sympy over QQ, as a Polynomial in the inputs' variables."""
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol(name)
    idx = polys[0].variables.index(name)
    g = sympy.Poly(0, t, domain="QQ")
    for p in polys:
        terms = {(e[idx],): sympy.Rational(c.numerator, c.denominator) for e, c in p.terms.items()}
        g = g.gcd(sympy.Poly.from_dict(terms, t, domain="QQ"))
    if not g.is_zero:
        g = g.monic()
    unit = tuple(int(v == name) for v in polys[0].variables)
    return Polynomial(
        polys[0].variables,
        {tuple(k * u for u in unit): Fraction(int(c.p), int(c.q)) for (k,), c in g.as_dict().items()},
    )


def random_univariate(rng, name, degree):
    unit = tuple(int(v == name) for v in XY)
    return Polynomial(
        XY,
        {
            tuple(power * u for u in unit): Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            for power in range(degree + 1)
        },
    )


def test_gcd_matches_sympy_with_planted_factors():
    rng = random.Random(83)
    zero, p = Polynomial(XY), poly("6*x^3 - 3*x")
    cases = [([zero], "x"), ([zero, zero], "y"), ([p], "x"), ([zero, p], "x"), ([p, zero], "x")]
    for trial in range(60):
        name = rng.choice(XY)
        shared = random_univariate(rng, name, rng.randint(1, 3))
        if degree_in(shared, name) <= 0:
            continue
        polys = [
            mul(shared, random_univariate(rng, name, rng.randint(0, 3)))
            for _ in range(rng.randint(1, 4))
        ]
        if trial % 5 == 0:
            polys.insert(rng.randint(0, len(polys)), zero)
        cases.append((polys, name))
        assert max(gcd_of(polys, name), default=-1) >= degree_in(shared, name)
    for polys, name in cases:
        assert gcd_of(polys, name) == primitive(_sympy_gcd(polys, name), name), polys


@pytest.mark.parametrize("place", ["first", "middle", "last"])
def test_gcd_with_a_constant_input_matches_sympy(place):
    rng = random.Random(89)
    for _ in range(20):
        name = rng.choice(XY)
        shared = random_univariate(rng, name, rng.randint(1, 3))
        polys = [mul(shared, random_univariate(rng, name, rng.randint(0, 3))) for _ in range(rng.randint(2, 4))]
        constant = Polynomial(XY, {(0, 0): Fraction(rng.randint(1, 9), rng.randint(1, 4))})
        polys.insert({"first": 0, "middle": len(polys) // 2, "last": len(polys)}[place], constant)
        assert gcd_of(polys, name) == primitive(_sympy_gcd(polys, name), name) == {0: 1}, polys


def test_gcd_budget_is_charged_when_the_first_input_is_constant(monkeypatch):
    # the gcd is 1 from the first input on, but the charge comes first
    monkeypatch.setattr(polynomials, "MAX_GCD_WORK", 100)
    polys = [poly("3"), poly("x^3 - 2*x + 1"), poly("x^2 - 1")]
    with pytest.raises(UnsupportedCase, match=r"degrees \[0, 2, 3\] exceeds the supported maximum"):
        gcd_of(polys, "x")
    monkeypatch.undo()
    assert gcd_of(polys, "x") == {0: 1}


def test_univariate_work_rejects_a_second_variable():
    p = poly("x^2 - x*y + 1")
    with pytest.raises(PolynomialError, match="not univariate in 'x'"):
        rational_roots(p, "x")


def _sympy_rational_roots(p, name):
    """Distinct rational roots by sympy, from the linear factors over QQ."""
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol(name)
    idx = p.variables.index(name)
    terms = {(e[idx],): sympy.Rational(c.numerator, c.denominator) for e, c in p.terms.items()}
    _, factors = sympy.Poly.from_dict(terms, t, domain="QQ").factor_list()
    roots = [-f.nth(0) / f.nth(1) for f, _ in factors if f.degree() == 1]
    return sorted(Fraction(int(r.p), int(r.q)) for r in roots)


def test_rational_roots_match_sympy():
    # rational non-monic factors, repeated roots, a zero root on every third
    # trial and a random quadratic that may or may not split
    rng = random.Random(97)
    for trial in range(60):
        name = rng.choice(XY)
        t = Polynomial.from_string(name, XY)
        p = Polynomial(XY, {(0, 0): Fraction(rng.choice([-3, 2, 5, 12]), rng.randint(1, 7))})
        for _ in range(rng.randint(1, 3)):
            lead = Fraction(rng.randint(1, 4), rng.randint(1, 3))
            root = Fraction(rng.randint(-20, 20), rng.randint(1, 6))
            p = mul(p, power(scale(sub(t, Polynomial(XY, {(0, 0): root})), lead), rng.randint(1, 2)))
        if trial % 3 == 0:
            p = mul(p, power(t, rng.randint(1, 2)))
        if rng.random() < 0.5:
            p = mul(p, random_univariate(rng, name, 2))
        if is_zero(p):
            continue
        assert rational_roots(p, name) == _sympy_rational_roots(p, name), p


def test_gcd_of_zero_and_single_inputs():
    p = poly("2*x^2 - 2")
    zero = Polynomial(XY)
    # one input is only made primitive, and a zero input is skipped
    assert gcd_of([p], "x") == {2: 1, 0: -1}
    assert gcd_of([zero, p], "x") == {2: 1, 0: -1} == gcd_of([p, zero], "x")
    assert gcd_of([zero], "x") == {} == gcd_of([zero, zero], "x") == gcd_terms([])
    assert gcd_of([poly("3"), p], "x") == {0: 1}
    # the same on dense coefficient lists, where [] is zero
    assert gcd_terms([[-2, 0, 2]]) == {2: 1, 0: -1} == gcd_terms([[], [-2, 0, 2], []])
    assert gcd_terms([[], []]) == {}
    assert gcd_terms([[3], [-2, 0, 2]]) == {0: 1} == gcd_terms([{0: -3}])


def test_gcd_terms_gives_a_positive_leading_coefficient():
    assert gcd_of([poly("-2*x^2 + 2")], "x") == {2: 1, 0: -1}
    assert gcd_of([poly("-x^2 + 1"), poly("-3*x + 3")], "x") == {1: 1, 0: -1}
    assert gcd_terms([{3: -6, 0: 4}, [-2, 0, 0, 3]]) == {3: 3, 0: -2}
    assert gcd_terms([[0, -5]]) == {1: 1}


def test_gcd_budget_answers_a_sparse_pair_of_high_degree_at_once():
    # the dense remainder sequence of x^d - 1, x^d - x would take minutes
    p = Polynomial.from_string("x^100000 - 1", ("x",))
    q = Polynomial.from_string("x^100000 - x", ("x",))
    start = time.perf_counter()
    try:
        assert gcd_of([p, q], "x") == {1: 1, 0: -1}
    except UnsupportedCase:
        pass
    assert time.perf_counter() - start < 1


def test_gcd_budget_sees_degree_and_coefficient_size():
    # a dense pair of degree 120 with 100-bit coefficients takes about 10 s
    rng = random.Random(3)

    def dense(degree, bits):
        return Polynomial(("x",), {(i,): rng.choice([-1, 1]) * rng.randint(1, 2**bits) for i in range(degree + 1)})

    start = time.perf_counter()
    with pytest.raises(UnsupportedCase, match=r"degrees \[120, 120\] exceeds the supported maximum"):
        gcd_of([dense(120, 100), dense(120, 100)], "x")
    assert time.perf_counter() - start < 1
    shared = Polynomial.from_string("x^2 - 2", ("x",))
    assert gcd_of([mul(dense(40, 100), shared), mul(dense(40, 100), shared)], "x") == {2: 1, 0: -2}


@pytest.mark.parametrize("degree", [2_000_000, 10**8])
def test_gcd_budget_refuses_a_high_degree_before_densifying(degree):
    # the dense coefficient lists of x^d - 1 would take 169 MB at d = 2e6
    # and exhaust memory at 1e8; the charge reads the sparse terms alone
    p = Polynomial.from_string(f"x^{degree} - 1", ("x",))
    line = Polynomial.from_string("x - 1", ("x",))
    tracemalloc.start()
    start = time.perf_counter()
    with pytest.raises(UnsupportedCase, match=rf"degrees \[1, {degree}\] exceeds"):
        gcd_of([p, line], "x")
    with pytest.raises(UnsupportedCase, match=rf"degrees \[{degree - 1}, {degree}\] exceeds"):
        rational_roots(p, "x")
    # one polynomial is only made primitive, from its sparse terms
    assert gcd_of([Polynomial(("x",)), scale(p, -3)], "x") == {degree: 1, 0: -1}
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert time.perf_counter() - start < 1
    assert peak < 10**6


def dense_univariate(rng, degree, bits):
    return Polynomial(("x",), {(i,): rng.choice([-1, 1]) * rng.randint(1, 2**bits - 1) for i in range(degree + 1)})


def test_rational_roots_budget_refuses_a_dense_high_degree_at_once():
    # the remainder sequence of p against p' costs about d^4: 3.2 s at
    # degree 300 with 4-bit coefficients, so degree 400 is charged and refused
    p = dense_univariate(random.Random(7), 400, 4)
    start = time.perf_counter()
    with pytest.raises(UnsupportedCase, match=r"degrees \[399, 400\] exceeds"):
        rational_roots(p, "x")
    assert time.perf_counter() - start < 0.5


def test_rational_roots_budget_admits_moderate_inputs():
    # the benchmark ladder's shape: constant term 1e6, two rational roots
    ladder = mul(*(Polynomial.from_string(f, ("x",)) for f in ("x - 8", "3*x - 5", "x^2 + 7*x + 25000")))
    assert rational_roots(ladder, "x") == [Fraction(5, 3), Fraction(8)]
    # a dense degree-60 factor with 8-bit coefficients, times a planted root
    p = mul(dense_univariate(random.Random(11), 60, 8), Polynomial.from_string("2*x - 1", ("x",)))
    assert Fraction(1, 2) in rational_roots(p, "x")


# -- the heuristic gcd: its retry, its fallback and its budget ---------------


def _refuse(*args):
    raise AssertionError("the remainder sequence ran")


@pytest.mark.parametrize(
    "a, b, expected, points",
    [
        # 2^3 > 2*|x^2 + 1|_inf + 2, and x - 8 vanishes there
        ("x - 8", "x^2 + 1", "1", [3, 6]),
        # (x - 16)(x + 3) and (x^2 + 1)(x + 3): 2^4 > 2*3 + 2, and the first vanishes there
        ("x^2 - 13*x - 48", "x^3 + 3*x^2 + x + 3", "x + 3", [4, 8]),
    ],
)
def test_the_heuristic_gcd_retries_past_a_root_at_its_first_point(monkeypatch, a, b, expected, points):
    pair = [poly(a, ("x",)), poly(b, ("x",))]
    seen = []
    digits = polynomials._signed_digits

    def recording(value, bits):
        seen.append(bits)
        return digits(value, bits)

    monkeypatch.setattr(polynomials, "_signed_digits", recording)
    monkeypatch.setattr(polynomials, "_subresultants", _refuse)
    assert gcd_of(pair, "x") == primitive(poly(expected, ("x",)), "x")
    assert seen == points
    monkeypatch.undo()
    # the remainder sequence alone gives the same primitive gcd
    monkeypatch.setattr(polynomials, "_GCD_HEURISTIC_ATTEMPTS", 0)
    assert gcd_of(pair, "x") == primitive(poly(expected, ("x",)), "x")


def test_the_remainder_sequence_decides_when_every_point_is_a_root(monkeypatch):
    # the first point is 2^4, as above, and each retry squares it; a vanishes
    # at all of them, so each gcd of values is b's value and b does not divide a
    shared = poly("x + 3", ("x",))
    b = mul(poly("x^2 + 1", ("x",)), shared)
    bits = [4 * 2**i for i in range(polynomials._GCD_HEURISTIC_ATTEMPTS)]
    a = mul(shared, *(poly(f"x - {2**s}", ("x",)) for s in bits))
    calls = []
    sequence = polynomials._subresultants

    def counting(*args):
        calls.append(args)
        return sequence(*args)

    monkeypatch.setattr(polynomials, "_subresultants", counting)
    assert gcd_of([a, b], "x") == {1: 1, 0: 3}
    assert calls
    monkeypatch.setattr(polynomials, "_GCD_HEURISTIC_ATTEMPTS", 0)
    assert gcd_of([a, b], "x") == {1: 1, 0: 3}


def test_the_gcd_budget_is_charged_before_the_heuristic(monkeypatch):
    # two dense degree-d cofactors with 100-bit coefficients times x^2 - 2:
    # the heuristic alone finds x^2 - 2 at once, but from the first d whose
    # remainder sequence is past the cap the pair is refused as before
    shared = poly("x^2 - 2", ("x",))

    def pair(degree):
        rng = random.Random(degree)
        return [mul(dense_univariate(rng, degree, 100), shared) for _ in range(2)]

    def charged(polys):
        try:
            polynomials._check_gcd_work([polynomials._univariate_terms(p, "x") for p in polys])
        except UnsupportedCase:
            return False
        return True

    degree = next(d for d in itertools.count(80) if not charged(pair(d)))
    assert charged(pair(degree - 1))
    polys = pair(degree)
    n = degree + 2
    with pytest.raises(UnsupportedCase, match=rf"^a gcd of degrees \[{n}, {n}\] exceeds the supported maximum$"):
        gcd_of(polys, "x")
    monkeypatch.setattr(polynomials, "MAX_GCD_WORK", math.inf)
    monkeypatch.setattr(polynomials, "_subresultants", _refuse)
    assert gcd_of(polys, "x") == {2: 1, 0: -2}


def _cyclotomic(n):
    """The n-th cyclotomic polynomial in x, by sympy."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    coeffs = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
    return Polynomial(("x",), {(i,): int(c) for i, c in enumerate(coeffs)})


def test_gcd_and_rational_roots_match_sympy_on_planted_factors():
    hypothesis = pytest.importorskip("hypothesis")
    pytest.importorskip("sympy")
    st = hypothesis.strategies

    def signed(magnitude):
        return st.tuples(magnitude, st.booleans()).map(lambda t: -t[0] if t[1] else t[0])

    big = signed(st.integers(2**200, 2**240))
    small = signed(st.integers(1, 9))
    nonzero = small | big

    def univariate(low, high, nonzero=nonzero):
        # a polynomial of degree low to high, its leading coefficient of either sign
        coefficient = st.just(0) | nonzero
        return st.tuples(st.lists(coefficient, min_size=low, max_size=high), nonzero).map(
            lambda cs: Polynomial(("x",), {(i,): c for i, c in enumerate([*cs[0], cs[1]])})
        )

    zero = Polynomial(("x",))
    settings = hypothesis.settings(max_examples=150, deadline=None, database=None, derandomize=True)

    @settings
    @hypothesis.given(univariate(1, 4), st.lists(univariate(0, 4), min_size=1, max_size=4), st.data())
    def planted(shared, cofactors, data):
        polys = [mul(shared, c) for c in cofactors]
        for _ in range(data.draw(st.integers(0, 2))):
            polys.insert(data.draw(st.integers(0, len(polys))), zero)
        assert gcd_of(polys, "x") == primitive(_sympy_gcd(polys, "x"), "x"), polys

    @settings
    @hypothesis.given(
        st.sampled_from([30, 42, 60, 70, 84, 105]), st.data(), univariate(0, 3, small)
    )
    def mignotte(n, data, cofactor):
        # a product of some of the cyclotomic factors of x^n - 1 often has
        # larger coefficients than x^n - 1 itself (Phi_105 has a 2)
        factors = data.draw(st.lists(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]), min_size=1, unique=True))
        shared = mul(*(_cyclotomic(d) for d in factors))
        polys = [poly(f"x^{n} - 1", ("x",)), mul(shared, cofactor)]
        assert gcd_of(polys, "x") == primitive(_sympy_gcd(polys, "x"), "x"), polys

    @settings
    @hypothesis.given(
        st.lists(st.tuples(st.integers(-30, 30), st.integers(1, 6), st.integers(1, 3)), min_size=1, max_size=3),
        st.lists(big, min_size=0, max_size=3),
        st.sampled_from([1, -1, 2, -5]),
        st.sampled_from([1, -1, 3, -7]),
    )
    def roots(planted, middle, lead, constant):
        # planted roots num/den, repeated, times a cofactor whose middle
        # coefficients have 200 bits or more; the ends stay small, as the
        # candidates are divisors of them
        x = ("x",)
        p = Polynomial(x, {(0,): constant, **{(i + 1,): c for i, c in enumerate(middle)}, (len(middle) + 1,): lead})
        for num, den, times in planted:
            p = mul(p, power(Polynomial(x, {(1,): den, (0,): -num}), times))
        assert rational_roots(p, "x") == _sympy_rational_roots(p, "x"), p

    planted()
    mignotte()
    roots()


# -- the subresultant sequence: resultants and the gcd fallback --------------


def _sylvester_det(a, b):
    """The determinant of the Sylvester matrix of ascending coefficient lists a and b, by sympy."""
    sympy = pytest.importorskip("sympy")
    m, n = len(a) - 1, len(b) - 1
    rows = [[0] * i + a[::-1] + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + b[::-1] + [0] * (m - 1 - i) for i in range(m)]
    return int(sympy.Matrix(rows).det(method="bareiss"))


def _euclid_degrees(a, b):
    """The degrees of a, b (the higher first) and their remainders over Q, by sympy; -1 for zero."""
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    f, g = (sympy.Poly(c[::-1], t, domain="QQ") for c in sorted((a, b), key=len, reverse=True))
    degrees = [f.degree(), g.degree()]
    while not g.is_zero:
        f, g = g, f.rem(g)
        degrees.append(-1 if g.is_zero else g.degree())
    return degrees


def test_subresultant_resultants_and_gcds_match_sympy(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    st = hypothesis.strategies

    def signed(magnitude):
        return st.tuples(magnitude, st.booleans()).map(lambda t: -t[0] if t[1] else t[0])

    nonzero = signed(st.integers(1, 9)) | signed(st.integers(2**390, 2**410))

    def univariate(degree):
        # ascending coefficients, about half of them zero below a nonzero leading one
        below = st.lists(st.just(0) | nonzero, min_size=degree, max_size=degree)
        return st.tuples(below, nonzero).map(lambda t: [*t[0], t[1]])

    def spread(f, s):
        """f(x^s)."""
        out = [0] * (s * len(f) - s + 1)
        out[::s] = f
        return out

    def times(f, g):
        return [sum(f[i] * g[k - i] for i in range(len(f)) if 0 <= k - i < len(g)) for k in range(len(f) + len(g) - 1)]

    # both orders of each pair are checked; distinct odd degrees come first,
    # as the sampling leans to the first entries
    degrees = [(1, 3), (3, 5), (1, 5)] + [(m, n) for m in range(6) for n in range(m, 6) if (m == n or m * n % 2 == 0)]
    pairs = st.sampled_from(degrees).flatmap(lambda mn: st.tuples(univariate(mn[0]), univariate(mn[1])))
    t = sympy.Symbol("t")
    cases = ["defective step", "defective last step", "swapped odd degrees", "zero", "negative lead", "wide"]
    seen = dict.fromkeys(cases, 0)
    monkeypatch.setattr(polynomials, "_GCD_HEURISTIC_ATTEMPTS", 0)

    @hypothesis.settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @hypothesis.given(
        pairs, st.sampled_from([1, 1, 2, 3]), univariate(1) | univariate(2), st.sampled_from([1, 1, 1, 0])
    )
    def check(pair, s, shared, unshared):
        # in x^s every step's degrees differ by a multiple of s; one pair in
        # four gets a common factor
        a, b = spread(pair[0], s), spread(pair[1], s)
        if not unshared:
            a, b = times(a, shared), times(b, shared)
        m, n = len(a) - 1, len(b) - 1
        expected = _sylvester_det(a, b)
        # the Sylvester matrix of (b, a) is that of (a, b) with its two blocks
        # of rows exchanged, m*n transpositions
        for f, g, det in ((a, b, expected), (b, a, (-1) ** (m * n) * expected)):
            assert polynomials._subresultants(f, g)[1] == det, (f, g)
            if m and n:
                p, q = ({(k,): c for k, c in enumerate(h) if c} for h in (f, g))
                assert polynomials.resultant_slots(p, q, 0, (1,), 1) == ([det] if det else []), (f, g)
        g = sympy.Poly(a[::-1], t).gcd(sympy.Poly(b[::-1], t)).primitive()[1].all_coeffs()[::-1]
        assert gcd_terms([a, b]) == {k: int(c) for k, c in enumerate(g) if c}, (a, b)
        # a step past the first whose degrees differ by 2 or more divides by
        # a power of h, and so does the last one after degree 2 or more
        degrees = _euclid_degrees(a, b)
        if expected:
            seen["defective step"] += any(
                degrees[i - 1] - degrees[i] >= 2 and degrees[i] >= 1 for i in range(2, len(degrees))
            )
            seen["defective last step"] += len(degrees) > 3 and degrees[-3] >= 2
        seen["swapped odd degrees"] += m != n and m * n % 2 == 1
        seen["zero"] += expected == 0
        seen["negative lead"] += a[-1] < 0 or b[-1] < 0
        seen["wide"] += max(map(abs, a + b)).bit_length() > 390

    check()
    assert min(seen.values()) >= 5, seen


@pytest.mark.parametrize("pair", ["dense order 200", "sparse order 320"])
def test_a_resultant_of_order_200_or_more_takes_under_half_a_second(pair):
    # one determinant of the Sylvester matrix took about 1.7 s and 0.7 s
    if pair == "dense order 200":
        rng = random.Random(1)
        p, q = dense_univariate(rng, 100, 4), dense_univariate(rng, 100, 4)
        expected = _sympy_resultant(p, q, "x")
    else:
        p = Polynomial.from_string("x^160 + 1", ("x",))
        q = Polynomial.from_string("x^160 + x + 2", ("x",))
        expected = Polynomial(("x",), {(0,): 2})
    start = time.perf_counter()
    r = resultant(p, q, "x")
    assert time.perf_counter() - start < 0.5
    assert poly_key(r) == poly_key(expected)
