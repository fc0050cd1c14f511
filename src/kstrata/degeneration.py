"""Signature-level splits and merges, cylinder criteria, degeneration tables.

A split breaks a zero of order z on a genus-g surface into singularities
a + b = z - 2k (both > -k) on a genus g-1 surface; a merge collides two
singularities on the same surface.  Genus-zero cylinder existence reduces
to counting the sub-multisets of the orders that sum to -k.
"""

from __future__ import annotations

from collections import Counter

from .errors import SignatureError, UnsupportedCase
from .signature import StratumSignature, check_index, check_k, check_pair, validate

# enumerate_zero_splits lists at most this many pairs (a zero of order about
# 2 * 10^5); the CLI prints each one
MAX_ZERO_SPLITS = 100_000

_NO_SIMPLE_DEGENERATION = frozenset({(2, 2, (5, -1)), (3, 2, (6,))})

_EXCEPTIONAL_STRATA = frozenset(
    [(1, 3, p) for p in ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))]
    + [
        (1, 3, tuple(sorted(core + extra, reverse=True)))
        for core in ((6,), (4, 2), (2, 2, 2))
        for extra in ((-2,), (-1, -1))
    ]
    + [(2, 3, (9, -1)), (2, 3, (6, 3, -1)), (2, 3, (3, 3, 3, -1))]
    + [(3, 3, (12,)), (3, 3, (8, 4)), (3, 3, (4, 4, 4))]
    + [(1, 4, (6,)), (1, 4, (4, 2)), (1, 4, (2, 2, 2))]
)


def enumerate_zero_splits(k: int, z: int) -> tuple[tuple[int, int], ...]:
    """All unordered pairs (a, b) with a + b = z - 2k and a, b > -k.

    Pairs containing 0 produce marked points on the split surface.  There
    are (z - 2k) // 2 + k of them; past MAX_ZERO_SPLITS the listing raises
    UnsupportedCase.
    """
    if z < 2:
        raise SignatureError(f"can only split a zero of order >= 2, got {z}")
    total = z - 2 * k
    count = total // 2 + k
    if count > MAX_ZERO_SPLITS:
        raise UnsupportedCase(
            f"a zero of order {z} has {count} splits, more than the "
            f"supported maximum {MAX_ZERO_SPLITS} to list"
        )
    return tuple((a, total - a) for a in range(1 - k, total // 2 + 1))


def split_result(sig: StratumSignature, zero_index: int, a: int, b: int) -> StratumSignature:
    """Signature after splitting the chosen zero into orders a and b."""
    if sig.genus < 1:
        raise SignatureError("splitting a zero lowers genus, need genus >= 1")
    check_index(sig, zero_index)
    z = sig.orders[zero_index]
    if z < 2:
        raise SignatureError(f"entry {z} is not a splittable zero")
    if a + b != z - 2 * sig.k or min(a, b) <= -sig.k:
        raise SignatureError(f"({a}, {b}) is not a valid split of {z}")
    rest = [o for idx, o in enumerate(sig.orders) if idx != zero_index]
    return validate(sig.k, sig.genus - 1, rest + [a, b])


def merge_result(sig: StratumSignature, i: int, j: int) -> StratumSignature:
    """Signature after colliding entries i and j (same genus; 0 allowed)."""
    check_pair(sig, i, j)
    rest = [o for idx, o in enumerate(sig.orders) if idx not in (i, j)]
    return validate(sig.k, sig.genus, rest + [sig.orders[i] + sig.orders[j]])


def undo_split(sig: StratumSignature, i: int, j: int) -> StratumSignature:
    """Fuse the two entries created by a split back into one zero.

    Inverse of split_result: the entries rejoin as a + b + 2k and the genus
    rises by one.
    """
    check_pair(sig, i, j)
    rest = [o for idx, o in enumerate(sig.orders) if idx not in (i, j)]
    fused = sig.orders[i] + sig.orders[j] + 2 * sig.k
    return validate(sig.k, sig.genus + 1, rest + [fused])


def merge_feasible_same_sign(sig: StratumSignature, i: int, j: int):
    """Whether entries i and j can be simply merged, for same-sign pairs.

    In a primitive nonhyperelliptic component (the caller's responsibility)
    any two zeros and any two poles merge; mixed-sign or marked-point pairs
    are outside that statement, reported as None (unknown) rather than False.
    """
    if sig.genus < 1:
        raise SignatureError("same-sign merging requires positive genus")
    check_pair(sig, i, j)
    oi, oj = sig.orders[i], sig.orders[j]
    if (oi > 0 and oj > 0) or (oi < 0 and oj < 0):
        return True
    return None


def simple_degeneration_exists(sig: StratumSignature) -> bool:
    """Whether a primitive nonhyperelliptic component admits a simple split
    or merge preserving nonhyperellipticity.

    True for every genus >= 2 stratum except (k, g, orders) equal to
    (2, 2, (5, -1)) or (3, 2, (6)).
    """
    if sig.genus < 2:
        raise SignatureError("simple degenerations are tabulated for genus >= 2")
    return (sig.k, sig.genus, sig.orders) not in _NO_SIMPLE_DEGENERATION


def is_exceptional_stratum(sig: StratumSignature) -> bool:
    """Whether splits out of this genus >= 3 stratum may become hyperelliptic."""
    if sig.genus < 3:
        raise SignatureError("exceptional strata are tabulated for genus >= 3")
    return (sig.k, sig.genus, sig.orders) in _EXCEPTIONAL_STRATA


def _check_genus_zero(k: int, orders) -> tuple[int, ...]:
    check_k(k)
    orders = tuple(int(o) for o in orders)
    if sum(orders) != -2 * k:
        raise SignatureError(
            f"orders {orders} sum to {sum(orders)}, expected -2k = {-2 * k}"
        )
    return orders


def _count_sums(orders, target: int, cap: int) -> int:
    """Sub-multisets of orders summing to target, counted up to cap.

    Distinct values are taken in ascending order, each with every
    multiplicity from 0 to its count, and each reachable partial sum keeps
    min(cap, number of multiplicity vectors reaching it).  A partial sum is
    dropped once the positive and negative entries still to come can no
    longer bring it to target, so at most min(2^n, window) sums are held.
    """
    items = sorted(Counter(orders).items())
    rising = sum(v * c for v, c in items if v > 0)  # mass still to come
    falling = sum(v * c for v, c in items if v < 0)
    counts = {0: 1}
    for value, mult in items:
        if value > 0:
            rising -= value * mult
        else:
            falling -= value * mult
        low, high = target - rising, target - falling
        reached: dict[int, int] = {}
        for s, ways in counts.items():
            for c in range(mult + 1):
                t = s + value * c
                if low <= t <= high:
                    reached[t] = min(cap, reached.get(t, 0) + ways)
        counts = reached
    return counts.get(target, 0)


def genus0_has_cylinder(k: int, orders) -> bool:
    """Whether the genus-zero stratum contains a Euclidean cylinder.

    Holds iff some nonempty proper sub-multiset of the orders sums to -k.
    The orders sum to -2k with k >= 1, so a sub-multiset summing to -k is
    never empty (sum 0) nor everything (sum -2k): the test is a plain
    subset sum.
    """
    orders = _check_genus_zero(k, orders)
    return _count_sums(orders, -k, 1) > 0


def genus0_has_simple_cylinder(k: int, orders) -> bool:
    """Whether the genus-zero stratum contains a simple Euclidean cylinder.

    Requires a partition into two sub-multisets summing to -k with neither
    equal to (-k/2, -k/2); for odd k the latter constraint is vacuous.  For
    even k with h = -k/2 present at least twice, the forbidden sides are
    {h, h} and its complement, and both sum to -k.  So a simple cylinder
    exists iff more than two sub-multisets sum to -k.  The two coincide only
    for the orders (h, h, h, h), where {h, h} is the one sub-multiset
    summing to -k, and the count of one is again too small.
    """
    orders = _check_genus_zero(k, orders)
    forbidden = 2 if k % 2 == 0 and orders.count(-k // 2) >= 2 else 0
    return _count_sums(orders, -k, forbidden + 1) > forbidden
