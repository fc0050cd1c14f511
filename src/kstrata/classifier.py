"""Counting primitive nonhyperelliptic components of strata of k-differentials.

For genus >= 2 the generic rule gives one component, or two (labelled by
the Arf invariant) when k is odd and every order is even.  A fixed table of
low-k exceptional strata overrides the generic rule; genus one is handled
by rotation numbers and genus zero strata are connected.  The divisor
breakdown reduces imprimitive components to lower-order differentials.

The rules are one function, ``report_body``, of the canonical triple
(k, genus, descending orders).  It returns a report body ``(count,
components, empty_reason, note)``, and each fixed outcome is one shared
tuple.  ``primitive_nonhyperelliptic_components`` wraps a body in a
``ComponentReport`` for a single call; the command line's batch mode keys
its work on triples and bodies and builds no report for each line.

Reports and descriptors are frozen records (``record.Record``), equal
when their class and fields are.  Each descriptor class names its kind in a
plain ``tag`` class attribute (not annotated, so not a field), which the
command line writes as the ``"type"`` of the descriptor's JSON object.
"""

from __future__ import annotations

import math

from .errors import SignatureError
from .record import Record
from . import genus_one
from .signature import StratumSignature, imprimitive_divisors, validate


class Generic(Record):
    """A single component carrying no further invariant label."""

    tag = "generic"


class ArfLabeled(Record):
    tag = "arf"
    parity: int


class RelativeArfLabeled(Record):
    tag = "relative_arf"
    parity: int


class CubicSporadic(Record):
    """Genus-3 cubic component labelled by Arf parity and a section-count bit.

    The bit records whether a holomorphic 1-form triple-vanishes at the
    support of the divisor (possible only for odd Arf parity).
    """

    tag = "cubic_sporadic"
    arf_parity: int
    h0_flag: int


class GenusOne(Record):
    tag = "genus_one"
    rotation: int
    primitive: bool
    hyperelliptic: bool


Descriptor = Generic | ArfLabeled | RelativeArfLabeled | CubicSporadic | GenusOne


class ComponentReport(Record):
    signature: StratumSignature
    count: int
    components: tuple[Descriptor, ...]
    empty_reason: str | None = None
    note: str | None = None


class BreakdownRow(Record):
    """One reduction in the divisor breakdown: d-th differentials, d | k."""

    divisor: int
    signature: StratumSignature
    report: ComponentReport


# (count, components, empty_reason, note): a report less its signature
Body = tuple[int, tuple[Descriptor, ...], str | None, str | None]


def _labels(components: tuple[Descriptor, ...]) -> Body:
    return len(components), components, None, None


# each fixed outcome is one shared body
_GENERIC = _labels((Generic(),))
_ARF = _labels((ArfLabeled(0), ArfLabeled(1)))
_RELATIVE_ARF = _labels((RelativeArfLabeled(0), RelativeArfLabeled(1)))
_GENUS_ZERO = (1, (Generic(),), None, "hyperellipticity not evaluated in genus zero")
_IMPRIMITIVE = (0, (), "Imprimitive", None)
_NONE = (0, (), "NoPrimitiveNonhyperelliptic", None)
_EMPTY_STRATUM = (0, (), "EmptyStratum", None)
_TWO = _labels((Generic(), Generic()))
_CUBIC = _labels((CubicSporadic(0, 0), CubicSporadic(1, 0), CubicSporadic(1, 1)))

# Exceptional strata of the genus >= 2 classification, keyed by
# (k, genus, descending orders).  Rows absent from this table follow the
# generic parity rule.
_EXCEPTIONS: dict[tuple[int, int, tuple[int, ...]], Body] = {
    (1, 2, (2,)): _NONE,
    (1, 2, (1, 1)): _NONE,
    (2, 2, (4,)): _NONE,
    (2, 2, (3, 1)): _NONE,
    (2, 2, (2, 2)): _NONE,
    (2, 2, (2, 1, 1)): _NONE,
    (2, 2, (1, 1, 1, 1)): _NONE,
    (1, 3, (4,)): _GENERIC,
    (1, 3, (2, 2)): _GENERIC,
    (1, 2, (4, -2)): _GENERIC,
    (1, 2, (2, 2, -2)): _GENERIC,
    (3, 2, (6,)): _GENERIC,
    (3, 2, (4, 2)): _GENERIC,
    (3, 2, (2, 2, 2)): _GENERIC,
    (2, 3, (9, -1)): _TWO,
    (2, 3, (6, 3, -1)): _TWO,
    (2, 3, (3, 3, 3, -1)): _TWO,
    (2, 4, (12,)): _TWO,
    (2, 4, (9, 3)): _TWO,
    (2, 4, (6, 6)): _TWO,
    (2, 4, (6, 3, 3)): _TWO,
    (2, 4, (3, 3, 3, 3)): _TWO,
    (3, 3, (12,)): _CUBIC,
    (3, 3, (8, 4)): _CUBIC,
    (3, 3, (4, 4, 4)): _CUBIC,
}


def _require_no_marked_points(orders: tuple[int, ...]) -> None:
    if 0 in orders:
        raise SignatureError("classification rejects marked points (zero orders)")


def primitive_nonhyperelliptic_components(sig: StratumSignature) -> ComponentReport:
    """Count and label the primitive nonhyperelliptic components of a stratum."""
    return ComponentReport(sig, *report_body(sig.k, sig.genus, sig.orders))


def report_body(k: int, genus: int, orders: tuple[int, ...]) -> Body:
    """The report of the canonical stratum (k, genus, descending orders), less its signature.

    Raises SignatureError on a marked point, and in genus one on no orders.
    """
    _require_no_marked_points(orders)

    if genus == 0:
        return _GENUS_ZERO if math.gcd(k, *orders) == 1 else _IMPRIMITIVE

    if genus == 1:
        kept = tuple(GenusOne(r, True, False) for r in genus_one.kept_rotations(k, orders))
        return _labels(kept) if kept else _NONE

    # the poles are the negative tail of the descending orders
    if k == 1 and orders[-1] == -1 and (len(orders) == 1 or orders[-2] > 0):
        return _EMPTY_STRATUM

    row = _EXCEPTIONS.get((k, genus, orders))
    if row is not None:
        return row

    # Abelian strata with poles exactly (-1, -1) and even zeros carry two
    # components for genus >= 3, told apart by the relative Arf invariant of
    # the arc between the simple poles
    if (
        k == 1
        and genus >= 3
        and orders[-2:] == (-1, -1)
        and (len(orders) == 2 or orders[-3] > 0)
        and all(o % 2 == 0 for o in orders[:-2])
    ):
        return _RELATIVE_ARF

    if k % 2 == 1 and all(o % 2 == 0 for o in orders):
        return _ARF
    return _GENERIC


def full_component_breakdown(sig: StratumSignature) -> tuple[BreakdownRow, ...]:
    """Reduce to d-th differentials for each d | k with k/d dividing all orders.

    Components of the stratum that are (k/d)-th powers correspond to the
    primitive components of the reduced d-differential stratum; only the
    primitive nonhyperelliptic ones are counted (hyperelliptic counts are
    out of scope).
    """
    _require_no_marked_points(sig.orders)
    rows = []
    for m in sorted(imprimitive_divisors(sig) | {1}, reverse=True):
        d = sig.k // m
        reduced = validate(d, sig.genus, tuple(o // m for o in sig.orders))
        rows.append(BreakdownRow(d, reduced, primitive_nonhyperelliptic_components(reduced)))
    return tuple(rows)
