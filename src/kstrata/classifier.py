"""Counting primitive nonhyperelliptic components of strata of k-differentials.

For genus >= 2 the generic rule gives one component, or two (labelled by
the Arf invariant) when k is odd and every order is even.  A fixed table of
low-k exceptional strata overrides the generic rule; genus one is handled
by rotation numbers and genus zero strata are connected.  The divisor
breakdown reduces imprimitive components to lower-order differentials.

Results are frozen dataclasses.  Each descriptor class names its kind in a
``tag`` class attribute, which the command line writes as the ``"type"``
of the descriptor's JSON object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

from .errors import SignatureError
from . import genus_one
from .signature import StratumSignature, gcd_orders, imprimitive_divisors, validate


@dataclass(frozen=True)
class Generic:
    """A single component carrying no further invariant label."""

    tag: ClassVar[str] = "generic"


@dataclass(frozen=True)
class ArfLabeled:
    tag: ClassVar[str] = "arf"
    parity: int


@dataclass(frozen=True)
class RelativeArfLabeled:
    tag: ClassVar[str] = "relative_arf"
    parity: int


@dataclass(frozen=True)
class CubicSporadic:
    """Genus-3 cubic component labelled by Arf parity and a section-count bit.

    The bit records whether a holomorphic 1-form triple-vanishes at the
    support of the divisor (possible only for odd Arf parity).
    """

    tag: ClassVar[str] = "cubic_sporadic"
    arf_parity: int
    h0_flag: int


@dataclass(frozen=True)
class GenusOne:
    tag: ClassVar[str] = "genus_one"
    rotation: int
    primitive: bool
    hyperelliptic: bool


Descriptor = Generic | ArfLabeled | RelativeArfLabeled | CubicSporadic | GenusOne


@dataclass(frozen=True)
class ComponentReport:
    signature: StratumSignature
    count: int
    components: tuple[Descriptor, ...]
    empty_reason: str | None = None
    note: str | None = None


@dataclass(frozen=True)
class BreakdownRow:
    """One reduction in the divisor breakdown: d-th differentials, d | k."""

    divisor: int
    signature: StratumSignature
    report: ComponentReport


_CUBIC_LABELS = (CubicSporadic(0, 0), CubicSporadic(1, 0), CubicSporadic(1, 1))
_ONE = (Generic(),)
_TWO = (Generic(), Generic())

# Exceptional strata of the genus >= 2 classification, keyed by
# (k, genus, descending orders).  Rows absent from this table follow the
# generic parity rule.
_EXCEPTIONS: dict[tuple[int, int, tuple[int, ...]], tuple[Descriptor, ...]] = {
    (1, 2, (2,)): (),
    (1, 2, (1, 1)): (),
    (2, 2, (4,)): (),
    (2, 2, (3, 1)): (),
    (2, 2, (2, 2)): (),
    (2, 2, (2, 1, 1)): (),
    (2, 2, (1, 1, 1, 1)): (),
    (1, 3, (4,)): _ONE,
    (1, 3, (2, 2)): _ONE,
    (1, 2, (4, -2)): _ONE,
    (1, 2, (2, 2, -2)): _ONE,
    (3, 2, (6,)): _ONE,
    (3, 2, (4, 2)): _ONE,
    (3, 2, (2, 2, 2)): _ONE,
    (2, 3, (9, -1)): _TWO,
    (2, 3, (6, 3, -1)): _TWO,
    (2, 3, (3, 3, 3, -1)): _TWO,
    (2, 4, (12,)): _TWO,
    (2, 4, (9, 3)): _TWO,
    (2, 4, (6, 6)): _TWO,
    (2, 4, (6, 3, 3)): _TWO,
    (2, 4, (3, 3, 3, 3)): _TWO,
    (3, 3, (12,)): _CUBIC_LABELS,
    (3, 3, (8, 4)): _CUBIC_LABELS,
    (3, 3, (4, 4, 4)): _CUBIC_LABELS,
}


def _two_simple_poles_even_zeros(sig: StratumSignature) -> bool:
    """Abelian strata with poles exactly (-1, -1) and even positive zeros.

    These carry two components for genus >= 3, distinguished by the
    relative Arf invariant of the arc between the simple poles.
    """
    return (
        sig.k == 1
        and sig.genus >= 3
        and sig.poles == (-1, -1)
        and all(o % 2 == 0 for o in sig.zeros)
    )


def _require_no_marked_points(sig: StratumSignature) -> None:
    if any(o == 0 for o in sig.orders):
        raise SignatureError("classification rejects marked points (zero orders)")


def primitive_nonhyperelliptic_components(sig: StratumSignature) -> ComponentReport:
    """Count and label the primitive nonhyperelliptic components of a stratum."""
    _require_no_marked_points(sig)

    if sig.genus == 0:
        if math.gcd(gcd_orders(sig), sig.k) == 1:
            return ComponentReport(
                sig, 1, (Generic(),),
                note="hyperellipticity not evaluated in genus zero",
            )
        return ComponentReport(sig, 0, (), empty_reason="Imprimitive")

    if sig.genus == 1:
        kept = tuple(
            GenusOne(c.rotation, c.primitive, c.hyperelliptic)
            for c in genus_one.components(sig)
            if c.primitive and not c.hyperelliptic
        )
        if not kept:
            return ComponentReport(
                sig, 0, (), empty_reason="NoPrimitiveNonhyperelliptic"
            )
        return ComponentReport(sig, len(kept), kept)

    if sig.k == 1 and sig.poles == (-1,):
        return ComponentReport(sig, 0, (), empty_reason="EmptyStratum")

    row = _EXCEPTIONS.get((sig.k, sig.genus, sig.orders))
    if row is not None:
        if not row:
            return ComponentReport(
                sig, 0, (), empty_reason="NoPrimitiveNonhyperelliptic"
            )
        return ComponentReport(sig, len(row), row)

    if _two_simple_poles_even_zeros(sig):
        labels = (RelativeArfLabeled(0), RelativeArfLabeled(1))
        return ComponentReport(sig, 2, labels)

    if sig.k % 2 == 1 and all(o % 2 == 0 for o in sig.orders):
        return ComponentReport(sig, 2, (ArfLabeled(0), ArfLabeled(1)))
    return ComponentReport(sig, 1, (Generic(),))


def full_component_breakdown(sig: StratumSignature) -> tuple[BreakdownRow, ...]:
    """Reduce to d-th differentials for each d | k with k/d dividing all orders.

    Components of the stratum that are (k/d)-th powers correspond to the
    primitive components of the reduced d-differential stratum; only the
    primitive nonhyperelliptic ones are counted (hyperelliptic counts are
    out of scope).
    """
    _require_no_marked_points(sig)
    rows = []
    for m in sorted(imprimitive_divisors(sig) | {1}, reverse=True):
        d = sig.k // m
        reduced = validate(d, sig.genus, tuple(o // m for o in sig.orders))
        rows.append(BreakdownRow(d, reduced, primitive_nonhyperelliptic_components(reduced)))
    return tuple(rows)
