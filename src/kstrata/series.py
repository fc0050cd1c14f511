"""Truncated power series over exact rationals, and curve-branch expansions.

A PowerSeries holds exact coefficients c_0..c_N and carries no arithmetic:
the functions below form the sums and products they need over the
integers.  Every curve is a polynomial in the variables ``x`` and ``y``;
another variable may be declared, but only at exponent zero.

A branch of f(x, y) = 0 through the origin with a transverse tangent is
parameterized by (x, phi(x)).  Its coefficients follow from one pass of a
recurrence over a table of the coefficients of phi, phi^2, ... (Knuth,
TAOCP vol. 2, 4.7), run over the integers: with f's denominators cleared
and c = df/dy(0, 0), the rescaled curve f(c^2 x, c y) / c^2 has integer
coefficients and a unit pivot, so each new coefficient is an integer sum of
earlier ones, with no division; phi's rational coefficients are made once,
at the end.  Orders of vanishing along the branch are intersection
multiplicities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import UnsupportedCase
from .polynomials import Polynomial, PolynomialError, exact

# branch_series is O(d*N^2) integer steps: 1.1 to 2.5 ms at N = 100 for the
# two quartic constructions on a 2-vCPU Xeon guest (the host's speed varies
# that much); the cap bounds what one call can cost
MAX_PRECISION = 100


class SeriesError(ValueError):
    """Invalid series input or insufficient precision."""


@dataclass(frozen=True)
class AtLeast:
    """An order of vanishing only bounded below by the working precision."""

    bound: int


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

    @property
    def precision(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, n: int) -> Fraction:
        if n > self.precision:
            raise SeriesError(f"coefficient {n} beyond precision {self.precision}")
        return self.coefficients[n]

    def truncate(self, precision: int) -> "PowerSeries":
        if precision > self.precision:
            raise SeriesError(
                f"cannot extend precision {self.precision} to {precision}"
            )
        return PowerSeries(self.coefficients[: precision + 1])

    def __eq__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self):
        return hash(self.coefficients)

    def valuation(self):
        """Smallest exponent with nonzero coefficient, or AtLeast past precision."""
        for n, c in enumerate(self.coefficients):
            if c:
                return n
        return AtLeast(self.precision + 1)

    def __repr__(self):
        return f"PowerSeries({self.coefficients!r})"

    def __str__(self):
        parts = []
        for n, c in enumerate(self.coefficients):
            if not c:
                continue
            if n == 0:
                parts.append(str(c))
            elif abs(c) == 1:
                parts.append(("-" if c < 0 else "") + (f"x^{n}" if n > 1 else "x"))
            else:
                parts.append(f"{c}*x^{n}" if n > 1 else f"{c}*x")
        body = " + ".join(parts).replace("+ -", "- ") if parts else "0"
        return f"{body} + O(x^{self.precision + 1})"


def _terms(poly: Polynomial) -> tuple[int, dict]:
    """(l, {(i, j): a}) with l*poly = sum of a*x^i*y^j in integers, l > 0 least.

    No other variable may occur.
    """
    names = poly.variables
    for name in ("x", "y"):
        if name not in names:
            raise PolynomialError(f"unknown variable {name!r}")
    ix, iy = names.index("x"), names.index("y")
    lcm, cleared = poly.cleared()
    terms = {}
    for exps, a in cleared.items():
        if sum(exps) != exps[ix] + exps[iy]:
            raise PolynomialError(f"{poly} is not a polynomial in 'x' and 'y'")
        terms[exps[ix], exps[iy]] = a
    return lcm, terms


def polynomial_on_branch(poly: Polynomial, phi: PowerSeries) -> PowerSeries:
    """Series of poly(x, phi(x)) at phi's precision: the sum of c*x^i*phi^j.

    With l clearing poly's denominators and D phi's, the sum runs over Z as
    the sum of l*c * x^i * (D*phi)^j * D^(top-j), divided by l*D^top once.
    """
    precision = phi.precision
    lcm, terms = _terms(poly)
    # with phi(0) = 0, phi^j = O(x^j): a term c*x^i*y^j with i + j > N cannot
    # reach x^N, so top, the largest power of phi formed, is at most N
    weight = 0 if phi.coefficients[0] else 1
    by_power: dict[int, list] = {}
    for (i, j), c in terms.items():
        if i + weight * j <= precision:
            by_power.setdefault(j, []).append((i, c))
    top = max(by_power, default=0)
    den = math.lcm(*[c.denominator for c in phi.coefficients])
    base = [c.numerator * (den // c.denominator) for c in phi.coefficients]
    out = [0] * (precision + 1)
    power = [1] + [0] * precision  # (D*phi)^j
    for j in range(top + 1):
        if j:
            power = [
                sum(map(mul, base[: n + 1], reversed(power[: n + 1])))
                for n in range(precision + 1)
            ]
            if not any(power):  # so is every higher power
                break
        for i, c in by_power.get(j, ()):
            c *= den ** (top - j)
            for n, a in enumerate(power[: precision + 1 - i], i):
                out[n] += c * a
    scale = lcm * den**top
    return PowerSeries([Fraction(c, scale) for c in out])


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
    _, terms = _terms(f)
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


def vanishing_order(g: Polynomial, phi: PowerSeries, precision: int):
    """Order of vanishing of g(x, phi(x)): an int, or AtLeast(precision + 1).

    This is the intersection multiplicity of g with the branch carried by
    phi.  The series must carry at least the requested precision.
    """
    if phi.precision < precision:
        raise SeriesError(
            f"series precision {phi.precision} below requested {precision}"
        )
    return polynomial_on_branch(g, phi.truncate(precision)).valuation()


def tangent_contact_order(f: Polynomial, precision: int = 13):
    """Contact order of the x-axis with the branch of f = y + higher order.

    Equals the valuation of the branch series: 2 at an ordinary point
    (no holomorphic form triple-vanishes there), 3 at a flex that is not a
    hyperflex, and 4 or more at a hyperflex.
    """
    require_x_axis_tangent(f)
    return branch_series(f, precision).valuation()


def require_x_axis_tangent(f: Polynomial) -> None:
    """Raise SeriesError unless df/dx vanishes at the origin."""
    if (1, 0) in _terms(f)[1]:
        raise SeriesError("tangent line at the origin is not the x-axis")
