"""Genus-one strata: rotation numbers, component lists, merging, splitting.

Components of a genus-one stratum correspond to divisors e of
d = gcd(orders): the component of rotation number r = d/e is the locus
where the weighted sum of singularity positions on the torus is a point of
order exactly e.  A component is primitive iff gcd(k, r) = 1.
"""

from __future__ import annotations

import math

from .errors import RotationError, SignatureError
from .record import Record
from .signature import StratumSignature, divisors, integer


class GenusOneComponent(Record):
    rotation: int
    torsion_order: int
    primitive: bool
    hyperelliptic: bool


class GenusOneMerge(Record):
    """Outcome of colliding two singularities on a genus-one signature."""

    feasible: bool
    result: StratumSignature | None
    rotations: tuple[int, ...]
    reason: str = ""


def _require_genus_one(sig: StratumSignature) -> None:
    if sig.genus != 1:
        raise SignatureError(f"expected genus one, got genus {sig.genus}")


def _check_rotation(rotation: int, d: int) -> None:
    if integer(rotation, "a rotation") < 1 or d == 0 or d % rotation != 0:
        raise RotationError(f"rotation {rotation} does not divide gcd {d}")


def nonempty_rotations(orders) -> tuple[int, ...]:
    """Rotation numbers of the nonempty components, descending.

    Rotations are d/e over divisors e of d = gcd of the nonzero orders.
    When exactly two entries are nonzero, the rotation-d component is the
    locus where those two points coincide, so it is empty and excluded;
    marked points neither count toward the two nor change d.
    """
    d = math.gcd(*orders)
    rotations = [d // e for e in divisors(d)]  # descending, as divisors ascend
    if sum(1 for o in orders if o != 0) == 2:
        rotations.remove(d)
    return tuple(rotations)


def components(sig: StratumSignature) -> tuple[GenusOneComponent, ...]:
    """All nonempty components of a genus-one stratum, rotation descending.

    The rotation-r component is hyperelliptic exactly when the orders are
    (r, r, -r, -r), (2r, -r, -r), (-2r, r, r) or (2r, -2r).
    """
    _require_genus_one(sig)
    d = math.gcd(*sig.orders)
    rotations, hyperelliptic = _rotations(sig.orders)
    return tuple(
        GenusOneComponent(
            rotation=r,
            torsion_order=d // r,
            primitive=_primitive(sig.k, r),
            hyperelliptic=r == hyperelliptic,
        )
        for r in rotations
    )


def kept_rotations(k: int, orders) -> tuple[int, ...]:
    """Rotations of the primitive nonhyperelliptic components, descending.

    Raises SignatureError when every order is zero.
    """
    rotations, hyperelliptic = _rotations(orders)
    return tuple(r for r in rotations if r != hyperelliptic and _primitive(k, r))


def _rotations(orders) -> tuple[tuple[int, ...], int]:
    """The nonempty rotations, descending, and the hyperelliptic one (0 if none)."""
    if not any(orders):
        raise SignatureError("all orders are zero: no differential is prescribed")
    return nonempty_rotations(orders), _hyperelliptic_rotation(tuple(sorted(orders)))


def _primitive(k: int, rotation: int) -> bool:
    return math.gcd(k, rotation) == 1


def _hyperelliptic_rotation(multiset: tuple[int, ...]) -> int:
    """The one rotation r whose component is hyperelliptic, or 0 if none.

    ``multiset`` is ascending.  Its largest entry is r in the patterns
    (-r, -r, r, r) and (-2r, r, r), and 2r in (-r, -r, 2r) and (-2r, 2r).
    """
    top = multiset[-1]
    for r in (top, top // 2):
        if multiset in ((-r, -r, r, r), (-r, -r, 2 * r), (-2 * r, r, r), (-2 * r, 2 * r)):
            return r
    return 0


def merge(sig: StratumSignature, rotation: int, i: int, j: int) -> GenusOneMerge:
    """Collide singularities i and j inside the rotation-r component.

    ``degeneration.merge_result`` checks the pair and builds the merged
    signature; this adds the rotation condition.  When feasible, returns it
    with every rotation r' with r | r' | gcd of the merged orders whose
    component is nonempty.  The move is infeasible exactly when that set is
    empty, or when the merged orders are all zero (the two singularities of
    (a, -a)).
    """
    from .degeneration import merge_result  # loaded by moves only, not by classify or prong

    _require_genus_one(sig)
    result = merge_result(sig, i, j)
    _check_rotation(rotation, math.gcd(*sig.orders))
    if not any(result.orders):
        return GenusOneMerge(False, None, (), "merging the only two singularities of (a,-a)")
    rotations = tuple(r for r in nonempty_rotations(result.orders) if r % rotation == 0)
    if not rotations:
        return GenusOneMerge(False, result, (), "every admissible boundary component is empty")
    return GenusOneMerge(True, result, rotations)


def split_to_sphere(
    sig: StratumSignature, rotation: int, zero_index: int, a1: int, a2: int
) -> bool:
    """Whether splitting the chosen zero into (a1, a2) reaches genus zero.

    ``degeneration.split_result`` checks the split, before the rotation;
    this adds the rotation condition: rotation divides gcd(k + a1, k + a2,
    other orders).  As (k + a1) + (k + a2) is the split zero, that gcd is
    gcd(k + a1, d) for d the gcd of all the orders.
    """
    from .degeneration import split_result  # loaded by moves only, not by classify or prong

    _require_genus_one(sig)
    split_result(sig, zero_index, a1, a2)
    d = math.gcd(*sig.orders)
    _check_rotation(rotation, d)
    return math.gcd(sig.k + a1, d) % rotation == 0
