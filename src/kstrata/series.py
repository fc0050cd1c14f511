"""Curve branches as exact power series, and intersection numbers at the origin.

Every curve is a polynomial in the variables ``x`` and ``y``; another
variable may be declared, but only at exponent zero.

A PowerSeries holds exact coefficients c_0..c_N and carries no arithmetic.
A branch of f(x, y) = 0 through the origin with a transverse tangent is
parameterized by (x, phi(x)).  Its coefficients follow from one pass of a
recurrence over a table of the coefficients of phi, phi^2, ... (Knuth,
TAOCP vol. 2, 4.7), run over the integers: with f's denominators cleared
and c = df/dy(0, 0), the rescaled curve f(c^2 x, c y) / c^2 has integer
coefficients and a unit pivot, so each new coefficient is an integer sum of
earlier ones, with no division; phi's rational coefficients are made once,
at the end.

Intersection numbers take no series and no precision: Fulton's algorithm
(Algebraic Curves, 3.3) computes them exactly from the curves' integer
terms.  At a simple point of f, I(f, g) is the order of vanishing of g
along f's branch.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .errors import UnsupportedCase
from .polynomials import Polynomial, PolynomialError, exact

# branch_series is O(d*N^2) integer steps: 1.1 to 2.5 ms at N = 100 for the
# two quartic constructions on a 2-vCPU Xeon guest (the host's speed varies
# that much); the cap bounds what one call can cost
MAX_PRECISION = 100

# intersection_multiplicity charges a reduction its term products times
# (W + c)^2, W the 64-bit words of the largest coefficient (products and
# gcds are quadratic in W; c prices a product of small integers), and a
# peeled factor y the terms of its curve.  With W = 0 throughout, the cap
# allows 10^6 products; y - x^(10^7) against y + x - x^2 charges under 8*c^2
# and each quartic order check under 250*c^2.  At the cap, on a 2-vCPU Xeon
# guest: 0.1 to 0.5 s for a dense f of degree 60 against f + x^100, or of
# degree 2 or 3 with 3000- to 30000-digit coefficients against f + x^50;
# uncapped, f + x^100 for a dense f of degree 30 took 149 s
INTERSECTION_STEP_WORDS = 16  # c above
MAX_INTERSECTION_WORK = 10**6 * INTERSECTION_STEP_WORDS**2


class SeriesError(ValueError):
    """Invalid series or curve input, insufficient precision, or a shared component."""


class PowerSeries:
    """Coefficients c_0..c_N of a series known exactly modulo x^(N+1)."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        coefficients = tuple(
            [c if isinstance(c, Fraction) else exact(c, SeriesError) for c in coefficients]
        )
        if not coefficients:
            raise SeriesError("a series needs at least the constant coefficient")
        self.coefficients = coefficients

    def truncate(self, precision: int) -> "PowerSeries":
        if precision >= len(self.coefficients):
            raise SeriesError(f"cannot extend precision {len(self.coefficients) - 1} to {precision}")
        return PowerSeries(self.coefficients[: precision + 1])

    def __repr__(self):  # equal series print equal: benchmarks/worker.py keys outputs by repr
        return f"PowerSeries({self.coefficients!r})"


def _terms(poly: Polynomial) -> dict:
    """{(i, j): a} with l*poly = sum of a*x^i*y^j in integers, l > 0 least.

    No other variable may occur.
    """
    names = poly.variables
    for name in ("x", "y"):
        if name not in names:
            raise PolynomialError(f"unknown variable {name!r}")
    ix, iy = names.index("x"), names.index("y")
    terms = {}
    for exps, a in poly.cleared()[1].items():
        if sum(exps) != exps[ix] + exps[iy]:
            raise PolynomialError(f"{poly} is not a polynomial in 'x' and 'y'")
        terms[exps[ix], exps[iy]] = a
    return terms


def branch_series(f: Polynomial, precision: int) -> PowerSeries:
    """The unique series phi with phi(0) = 0 and f(x, phi(x)) = O(x^(N+1)).

    Needs f(0,0) = 0 and df/dy(0,0) != 0.  With f's denominators cleared and
    c = df/dy(0,0) in Z, g(X, Y) = f(c^2*X, c*Y) / c^2 has integer
    coefficients and dg/dY(0,0) = 1.  The coefficient of X^n in g(X, psi) is
    psi_n plus terms in psi_1..psi_(n-1) alone, so one pass over n = 1..N
    solves for each psi_n in turn over Z, keeping the coefficients of the
    powers psi^j as it goes: O(d*N^2) for f of degree d in y.  Then
    phi_n = c*psi_n / c^(2n).
    Precisions above MAX_PRECISION raise UnsupportedCase.
    """
    if precision > MAX_PRECISION:
        raise UnsupportedCase(
            f"precision {precision} exceeds the supported maximum {MAX_PRECISION}"
        )
    terms = _terms(f)
    if (0, 0) in terms:
        raise SeriesError("curve does not pass through the origin")
    if (0, 1) not in terms:
        raise SeriesError("singular branch point: df/dy vanishes at the origin")
    # phi^j = O(x^j), so a term c*x^i*y^j with i + j > N cannot reach x^N
    terms = {e: b for e, b in terms.items() if sum(e) <= precision or e == (0, 1)}
    c = terms[0, 1]
    # f's term b*x^i*y^j is g's b*c^(2i+j-2), an integer; the pivot's is 1
    terms = [(i, j, b * c ** (2 * i + j - 2)) for (i, j), b in terms.items() if (i, j) != (0, 1)]
    top = max([1] + [j for _, j, _ in terms])
    # powers[j][n] is the coefficient of X^n in psi^j; powers[1] is psi
    powers = [[int(n == 0) for n in range(precision + 1)]]
    powers += [[0] * (precision + 1) for _ in range(top)]
    psi = powers[1]
    for n in range(1, precision + 1):
        for j in range(2, min(top, n) + 1):
            # sum of psi[k] * powers[j - 1][n - k] over k = 1..n-j+1
            powers[j][n] = sum(map(mul, psi[1 : n - j + 2], powers[j - 1][n - 1 : j - 2 : -1]))
        psi[n] = -sum(b * powers[j][n - i] for i, j, b in terms if i <= n)
    return PowerSeries([Fraction(c * v, c ** (2 * n)) for n, v in enumerate(psi)])


def intersection_multiplicity(f: Polynomial, g: Polynomial) -> int:
    """I(f, g): the intersection number of f = 0 and g = 0 at the origin.

    Fulton's algorithm (Algebraic Curves, 3.3) on the curves' integer terms.
    It rests on the axioms I(f, g) = I(g, f) = I(f, g + a*f),
    I(f, g*h) = I(f, g) + I(f, h), I(y, g) = ord_x g(x, 0), and I = 0 when
    a curve misses the origin.  While both restrictions are nonzero, write
    f(x, 0) = x^r*u_f and g(x, 0) = x^s*u_g with r <= s and units
    u_f(0), u_g(0) != 0; g is replaced by u_f*g - x^(s-r)*u_g*f divided by
    its content.  I(f, u_f) = 0, so the number is unchanged, and the new g
    restricts to zero.  Once a restriction is zero, that curve is y*h: ord_x
    of the other's restriction is added and h goes on in its place, so the
    count rises at least every second step.  At a simple point of f, the
    result is the order of vanishing of g along f's branch.

    A common component through the origin makes the number infinite and
    raises SeriesError.  A finite number is at most B = deg f * deg g
    (Bezout), and a number n <= B leaves the n-th power of the maximal
    ideal at the origin inside (f, g) (Fulton, 2.9), so terms of degree past
    B less the count so far are dropped from each reduced curve.  Then a
    count past B, a curve reduced to 0, or y dividing both restrictions
    means a shared component.  Past MAX_INTERSECTION_WORK, charged as its
    comment says (the term products are u_f's by g's plus u_g's by f's),
    UnsupportedCase is raised.
    """
    f, g = _terms(f), _terms(g)
    bound = max(map(sum, f), default=0) * max(map(sum, g), default=0)
    total = work = 0
    while total <= bound and (0, 0) not in f and (0, 0) not in g:
        p = {i: a for (i, j), a in f.items() if not j}  # f(x, 0)
        q = {i: b for (i, j), b in g.items() if not j}
        if not f or not g or not (p or q):
            break  # a curve is 0, or y divides both: the number is infinite
        if not q or (p and min(p) > min(q)):
            f, g, p, q = g, f, q, p
        if p:
            words = max(map(int.bit_length, [*f.values(), *g.values()])) // 64
            work += (len(p) * len(g) + len(q) * len(f)) * (words + INTERSECTION_STEP_WORDS) ** 2
        else:
            work += len(f)
        if work > MAX_INTERSECTION_WORK:
            raise UnsupportedCase(
                f"the intersection number takes more work than the supported maximum "
                f"{MAX_INTERSECTION_WORK}"
            )
        if not p:
            total += min(q)
            f = {(i, j - 1): a for (i, j), a in f.items()}
            continue
        # u_f*g - x^(s-r)*u_g*f is p*g - q*f over x^r; terms of degree past
        # B less the count are dropped
        r = min(p)
        top = bound - total + r
        reduced = {}
        for terms, unit in ((g, p), (f, {i: -b for i, b in q.items()})):
            for t, a in unit.items():
                for (i, j), c in terms.items():
                    if i + t + j <= top:
                        e = (i + t - r, j)
                        reduced[e] = reduced.get(e, 0) + a * c
        content = math.gcd(*reduced.values())
        g = {e: c // content for e, c in reduced.items() if c}
    if total > bound or ((0, 0) not in f and (0, 0) not in g):
        raise SeriesError("the curves share a component through the origin")
    return total
