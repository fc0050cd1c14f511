"""Prong matchings at vertical nodes: local and global equivalence counts.

A vertical node whose higher-level order is a carries k + a prongs on each
side, so prong matchings at a pair of nodes with orders a and b form a
torsor under Z/(k+a) x Z/(k+b).  Local equivalence is the diagonal rotation
action; global equivalence also quotients by the monodromy of the adjacent
strata.
"""

from __future__ import annotations

import math

from .errors import RotationError, SignatureError, UnsupportedCase
from .record import Record
from . import genus_one
from .signature import check_k, integer, validate

_ENUMERATION_LIMIT = 10**6


def _check_orders(k: int, a: int, b: int) -> tuple[int, int, int]:
    """(k, a, b) through ``integer``, with k positive and both orders above -k."""
    k, a, b = integer(k, "k"), integer(a, "an order"), integer(b, "an order")
    check_k(k)
    if a <= -k or b <= -k:
        raise SignatureError(f"orders must exceed -k = {-k}, got ({a}, {b})")
    return k, a, b


def local_classes(k: int, a: int, b: int) -> int:
    """Number of orbits of simultaneous rotation on the prong torsor."""
    k, a, b = _check_orders(k, a, b)
    return math.gcd(k + a, k + b)


def enumerate_local_classes(k: int, a: int, b: int) -> int:
    """Brute-force orbit count of the subgroup generated by (1, 1).

    Walks every orbit on Z/(k+a) x Z/(k+b) explicitly; serves as the
    independent oracle for local_classes.  Past _ENUMERATION_LIMIT states
    it raises UnsupportedCase.
    """
    k, a, b = _check_orders(k, a, b)
    na, nb = k + a, k + b
    if na * nb > _ENUMERATION_LIMIT:
        raise UnsupportedCase(f"state space {na}x{nb} too large to enumerate")
    seen = [[False] * nb for _ in range(na)]
    orbits = 0
    for x in range(na):
        for y in range(nb):
            if seen[x][y]:
                continue
            orbits += 1
            cx, cy = x, y
            while not seen[cx][cy]:
                seen[cx][cy] = True
                cx, cy = (cx + 1) % na, (cy + 1) % nb
    return orbits


class ProngHomImage(Record):
    """Image data of the prong matching homomorphism on a torus stratum."""

    delta: int
    index: int


def prong_hom_image(k: int, a: int, e: int) -> ProngHomImage:
    """Prong homomorphism image for the primitive (a, -a) torus component.

    The target is Z/gcd(k+a, k-a); the map is onto unless k and a are both
    odd, in which case the image has index 2.
    """
    k, a, e = integer(k, "k"), integer(a, "an order"), integer(e, "a torsion order")
    check_k(k)
    if e <= 1 or a == 0 or abs(a) % e != 0:
        raise RotationError(f"torsion order {e} must exceed 1 and divide |{a}|")
    rotation = abs(a) // e
    if math.gcd(k, rotation) != 1:
        raise RotationError(
            f"component with rotation {rotation} is not primitive for k = {k}"
        )
    delta = math.gcd(k + a, k - a)
    index = 2 if (k % 2 == 1 and a % 2 == 1) else 1
    return ProngHomImage(delta=delta, index=index)


def global_classes_genus_one_split(k, rotation, a, b, rest_orders=()) -> int:
    """Global prong-matching classes after splitting a genus-two singularity.

    For a split landing in the primitive rotation-r component of the
    genus-one stratum (a, b, rest): there are |k+a| classes when the
    component is hyperelliptic with a and b exchanged by the involution,
    two when k, a, b are all odd and every other order is even, and one
    otherwise.
    """
    rest_orders = tuple(rest_orders)
    sig = validate(k, 1, (a, b) + rest_orders)
    rotation = integer(rotation, "a rotation")
    component = None
    for c in genus_one.components(sig):
        if c.rotation == rotation:
            component = c
    if component is None:
        raise RotationError(
            f"rotation {rotation} names an empty component of {sig}"
        )
    if not component.primitive:
        raise RotationError(f"component with rotation {rotation} is not primitive")
    if component.hyperelliptic and a == b and abs(a) == rotation:
        # the involution exchanges the two order-r (or -r) slots holding a, b
        return abs(k + a)
    if k % 2 and a % 2 and b % 2 and all(o % 2 == 0 for o in rest_orders):
        return 2
    return 1
