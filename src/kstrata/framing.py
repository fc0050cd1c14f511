"""Winding-number calculus: Arf invariant, spin, relative Arf, quadratic forms.

The winding numbers of a k-differential define a class on the unit tangent
bundle; a small loop around a singularity of order N takes value N + k.  When
k is odd and every boundary value is odd, the mod-2 reduction lives on the
closed surface and q(c) = w(c) + 1 is a quadratic refinement of the mod-2
intersection form, whose Arf invariant is the spin of the differential.
"""

from __future__ import annotations

from .errors import SignatureError
from .record import Record
from .signature import StratumSignature, integer


def boundary_framing_value(k: int, order: int) -> int:
    """Value of the framing on a small positive loop around a singularity."""
    return order + k


class SymplecticFramingValues(Record):
    """Framing values on a symplectic basis and on the boundary loops."""

    k: int
    pairs: tuple[tuple[int, int], ...]
    boundary: tuple[int, ...]

    @classmethod
    def from_signature(cls, sig: StratumSignature, pairs) -> "SymplecticFramingValues":
        """Values on a symplectic basis, one (a_i, b_i) pair of integers per handle."""
        pairs = tuple(
            (integer(a, "a framing value"), integer(b, "a framing value")) for a, b in pairs
        )
        if len(pairs) != sig.genus:
            raise SignatureError(
                f"genus {sig.genus} needs {sig.genus} symplectic pairs, got {len(pairs)}"
            )
        boundary = tuple(boundary_framing_value(sig.k, o) for o in sig.orders)
        return cls(sig.k, pairs, boundary)


def arf(pairs) -> int:
    """Sum of (w(a_i) + 1)(w(b_i) + 1) over the symplectic pairs of integers, mod 2."""
    return sum(
        (integer(a, "a framing value") + 1) * (integer(b, "a framing value") + 1) for a, b in pairs
    ) % 2


def spin(framing: SymplecticFramingValues) -> int:
    """Arf invariant of the mod-2 reduction of an odd-k framing.

    Requires k odd and every boundary value odd (equivalently, every
    singularity order even).
    """
    if framing.k % 2 == 0:
        raise SignatureError("spin requires odd k")
    for w in framing.boundary:
        if w % 2 == 0:
            raise SignatureError(f"boundary value {w} is even: a singularity has odd order")
    return arf(framing.pairs)


def relative_arf(sbar: int, pairs) -> int:
    """Arf invariant relative to an arc s between two framing-zero punctures.

    ``sbar`` is the integer value of the extended framing on the arc.
    """
    return (integer(sbar, "a framing value") + arf(pairs)) % 2


class Mod2QuadraticForm(Record):
    """Quadratic refinement of the mod-2 intersection form on (Z/2)^(2g).

    The form is determined by its values on a symplectic basis through
    q(x + y) = q(x) + q(y) + <x, y>.
    """

    a_values: tuple[int, ...]
    b_values: tuple[int, ...]

    def __post_init__(self):
        if len(self.a_values) != len(self.b_values):
            raise SignatureError("need as many a-values as b-values")
        values = self.a_values + self.b_values
        if not all(integer(v, "a basis value") in (0, 1) for v in values):
            raise SignatureError("basis values must be bits")

    @property
    def genus(self) -> int:
        return len(self.a_values)


def quadratic_eval(form: Mod2QuadraticForm, vector) -> int:
    """Evaluate the refinement at a vector of 2g bits (a-part then b-part).

    Each entry is an integer, read mod 2.  Expanding in the basis,
    q(sum x_i a_i + y_i b_i) picks up the basis values plus one cross term
    x_i * y_i per handle.
    """
    vector = tuple(integer(v, "a bit") % 2 for v in vector)
    g = form.genus
    if len(vector) != 2 * g:
        raise SignatureError(f"expected {2 * g} bits, got {len(vector)}")
    xs, ys = vector[:g], vector[g:]
    total = 0
    for x, y, qa, qb in zip(xs, ys, form.a_values, form.b_values):
        total += x * qa + y * qb + x * y
    return total % 2


def form_arf(form: Mod2QuadraticForm) -> int:
    """Arf invariant of a quadratic form: sum of q(a_i) q(b_i) mod 2."""
    return sum(qa * qb for qa, qb in zip(form.a_values, form.b_values)) % 2


def symplectic_product(u, v) -> int:
    """Mod-2 intersection pairing of two integer vectors in (a-part, b-part) layout."""
    u, v = (tuple(integer(x, "a bit") for x in w) for w in (u, v))
    if len(u) != len(v) or len(u) % 2:
        raise SignatureError("vectors must share an even length")
    g = len(u) // 2
    return sum(u[i] * v[g + i] + u[g + i] * v[i] for i in range(g)) % 2
