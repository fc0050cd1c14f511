"""Truncated power series over exact rationals, and curve-branch expansions.

A branch of f(x, y) = 0 through the origin with a transverse tangent is
parameterized by (x, phi(x)); Newton's iteration on f(x, y) = 0 doubles the
number of known coefficients of phi at every step, dividing by
df/dy(x, phi(x)), whose constant term df/dy(0, 0) is a unit (Brent and Kung
1978).  Orders of vanishing along the branch are intersection multiplicities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import UnsupportedCase
from .polynomials import Polynomial, _univariate_ints

# branch_series is O(d*N^2): 0.06 to 0.13 s at N = 100 for the two quartic
# constructions on a 2-vCPU Xeon guest; the cap bounds what one call can cost
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
        coefficients = tuple(Fraction(c) for c in coefficients)
        if not coefficients:
            raise SeriesError("a series needs at least the constant coefficient")
        self.coefficients = coefficients

    @classmethod
    def zero(cls, precision: int) -> "PowerSeries":
        return cls((Fraction(0),) * (precision + 1))

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

    def _aligned(self, other: "PowerSeries") -> int:
        return min(self.precision, other.precision)

    def __add__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = self._aligned(other)
        return PowerSeries(
            tuple(a + b for a, b in zip(self.coefficients, other.coefficients))[: n + 1]
        )

    def __sub__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = self._aligned(other)
        return PowerSeries(
            tuple(a - b for a, b in zip(self.coefficients, other.coefficients))[: n + 1]
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return PowerSeries(tuple(c * other for c in self.coefficients))
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = self._aligned(other)
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coefficients[: n + 1]):
            if not a:
                continue
            for j, b in enumerate(other.coefficients[: n + 1 - i]):
                if b:
                    out[i + j] += a * b
        return PowerSeries(out)

    __rmul__ = __mul__

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


def polynomial_on_branch(
    poly: Polynomial, phi: PowerSeries, x_var: str = "x", y_var: str = "y"
) -> PowerSeries:
    """Series of poly(x, phi(x)) at phi's precision, via Horner in y."""
    precision = phi.precision
    y_coeffs = poly.coefficients_in(y_var)
    result = PowerSeries.zero(precision)
    for layer in reversed(y_coeffs):
        result = result * phi + _poly_to_series(layer, x_var, precision)
    return result


def _poly_to_series(p: Polynomial, x_var: str, precision: int) -> PowerSeries:
    scale, ints = _univariate_ints(p, x_var)
    coeffs = [Fraction(c, scale) for c in ints[: precision + 1]]
    return PowerSeries(coeffs + [Fraction(0)] * (precision + 1 - len(coeffs)))


def branch_series(
    f: Polynomial, precision: int, x_var: str = "x", y_var: str = "y"
) -> PowerSeries:
    """The unique series phi with phi(0) = 0 and f(x, phi(x)) = O(x^(N+1)).

    Needs f(0,0) = 0 and df/dy(0,0) != 0.  Starting from phi = 0, each
    Newton step phi <- phi - f(x, phi) / f_y(x, phi) doubles the precision
    to which phi is exact, so the whole series costs O(d*N^2) for f of
    degree d in y.  Precisions above MAX_PRECISION raise UnsupportedCase.
    """
    if precision > MAX_PRECISION:
        raise UnsupportedCase(
            f"precision {precision} exceeds the supported maximum {MAX_PRECISION}"
        )
    origin = {x_var: 0, y_var: 0}
    if f.evaluate(origin) != 0:
        raise SeriesError("curve does not pass through the origin")
    f_y = f.partial_derivative(y_var)
    if f_y.evaluate(origin) == 0:
        raise SeriesError("singular branch point: df/dy vanishes at the origin")
    coeffs = [Fraction(0)] * (precision + 1)
    known = 1  # coeffs[:known] are exact
    while known <= precision:
        top = min(2 * known, precision + 1)
        phi = PowerSeries(coeffs[:top])
        # f(x, phi) = O(x^known), so the step needs f_y only mod x^(top - known)
        residual = polynomial_on_branch(f, phi, x_var, y_var).coefficients[known:]
        slope = polynomial_on_branch(f_y, phi.truncate(top - known - 1), x_var, y_var)
        step = PowerSeries(residual) * _reciprocal(slope)
        coeffs[known:top] = [-c for c in step.coefficients]
        known = top
    return PowerSeries(coeffs)


def _reciprocal(s: PowerSeries) -> PowerSeries:
    """1/s at the precision of s; s must have a nonzero constant term."""
    a = s.coefficients
    inverse = [1 / a[0]]
    for n in range(1, len(a)):
        inverse.append(-sum(a[i] * inverse[n - i] for i in range(1, n + 1)) * inverse[0])
    return PowerSeries(inverse)


def vanishing_order(
    g: Polynomial, phi: PowerSeries, precision: int, x_var: str = "x", y_var: str = "y"
):
    """Order of vanishing of g(x, phi(x)): an int, or AtLeast(precision + 1).

    This is the intersection multiplicity of g with the branch carried by
    phi.  The series must carry at least the requested precision.
    """
    if phi.precision < precision:
        raise SeriesError(
            f"series precision {phi.precision} below requested {precision}"
        )
    return polynomial_on_branch(g, phi.truncate(precision), x_var, y_var).valuation()


def tangent_contact_order(
    f: Polynomial, precision: int = 13, x_var: str = "x", y_var: str = "y"
):
    """Contact order of the x-axis with the branch of f = y + higher order.

    Equals the valuation of the branch series: 2 at an ordinary point
    (no holomorphic form triple-vanishes there), 3 at a flex that is not a
    hyperflex, and 4 or more at a hyperflex.
    """
    require_x_axis_tangent(f, x_var, y_var)
    return branch_series(f, precision, x_var, y_var).valuation()


def require_x_axis_tangent(f: Polynomial, x_var: str = "x", y_var: str = "y") -> None:
    """Raise SeriesError unless df/dx vanishes at the origin."""
    origin = {x_var: 0, y_var: 0}
    if f.partial_derivative(x_var).evaluate(origin) != 0:
        raise SeriesError("tangent line at the origin is not the x-axis")
