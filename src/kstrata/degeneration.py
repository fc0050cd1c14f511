"""Signature-level splits and merges, and the genus-zero cylinder criteria.

A split breaks a zero of order z on a genus-g surface into singularities
a + b = z - 2k (both > -k) on a genus g-1 surface; a merge collides two
singularities on the same surface.  The split and merge rules live here
alone: ``genus_one.split_to_sphere`` and ``genus_one.merge`` call
``split_result`` and ``merge_result`` and add only the rotation condition.

Genus-zero cylinder existence reduces to counting the sub-multisets of the
orders that sum to -k, which is done by meeting in the middle: two
half-size tables of partial sums and one join, with a work budget
(MAX_CYLINDER_WORK) checked before either table is built.
"""

from __future__ import annotations

import math
from collections import Counter

from .errors import SignatureError, UnsupportedCase
from .signature import StratumSignature, check_index, check_k, check_pair, integer, validate

# enumerate_zero_splits lists at most this many pairs (a zero of order about
# 2 * 10^5); the CLI prints each one
MAX_ZERO_SPLITS = 100_000

# steps of the two sum tables of _count_sums, one per held sum and
# multiplicity; at the cap on a 2-vCPU Xeon guest, about 2 s and 190 MB for
# one criterion on 40 orders near 2^40 (3.4 to 4.3 s for the CLI's two)
MAX_CYLINDER_WORK = 3 * 10**6


def enumerate_zero_splits(k: int, z: int) -> tuple[tuple[int, int], ...]:
    """All unordered pairs (a, b) with a + b = z - 2k and a, b > -k.

    Pairs containing 0 produce marked points on the split surface.  There
    are (z - 2k) // 2 + k of them; past MAX_ZERO_SPLITS the listing raises
    UnsupportedCase.
    """
    k, z = integer(k, "k"), integer(z, "a zero order")
    check_k(k)
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
    a, b = integer(a, "a split entry"), integer(b, "a split entry")
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


def _count_sums(orders, target: int, cap: int) -> int:
    """Sub-multisets of orders summing to target, counted up to cap.

    Meet in the middle (Horowitz-Sahni 1974): the distinct values, ascending,
    are split where the products of (multiplicity + 1) on both sides
    balance.  Each half gets a table from partial sum to min(cap, number of
    multiplicity vectors reaching it); one join then sums L[s] * R[target - s].
    The left table drops a sum once its remaining entries and the whole
    right half can no longer bring it to target; the right table drops one
    that can no longer land in [target - max L, target - min L].  So each
    table holds at most min(2^(n/2), window) sums for n distinct values.
    Past MAX_CYLINDER_WORK steps, estimated before any table is built, it
    raises UnsupportedCase.
    """
    items = sorted(Counter(orders).items())
    sizes = [mult + 1 for _, mult in items]
    total, split, product = math.prod(sizes), 0, 1
    while split < len(items) and product * product * sizes[split] < total:
        product *= sizes[split]
        split += 1
    left, right = items[:split], items[split:]
    whole = sum(abs(v) * c for v, c in items)
    work = 0
    for half in (left, right):
        held, span = 1, 0
        for value, mult in half:
            work += held * (mult + 1)
            # a table's sums lie within the span of the values taken so far
            # and within the window that all the other values leave
            span += abs(value) * mult
            held = min(held * (mult + 1), span + 1, whole - span + 1)
    if work > MAX_CYLINDER_WORK:
        raise UnsupportedCase(
            f"counting the sub-multisets of {len(orders)} orders takes about "
            f"{work} steps, more than the supported maximum {MAX_CYLINDER_WORK}"
        )
    left_sums = _partial_sums(
        left,
        target - sum(v * c for v, c in right if v > 0),
        target - sum(v * c for v, c in right if v < 0),
        cap,
    )
    if not left_sums:
        return 0
    right_sums = _partial_sums(
        right, target - max(left_sums), target - min(left_sums), cap
    )
    count = 0
    for s, ways in right_sums.items():
        count += ways * left_sums.get(target - s, 0)
        if count >= cap:
            return cap
    return count


def _partial_sums(items, low: int, high: int, cap: int) -> dict[int, int]:
    """Sums of sub-multisets of items in [low, high], each counted up to cap.

    Values are taken in the given order, each with every multiplicity from 0
    to its count; a partial sum is dropped once the positive and negative
    entries still to come can no longer bring it into [low, high].
    """
    rising = sum(v * c for v, c in items if v > 0)  # mass still to come
    falling = sum(v * c for v, c in items if v < 0)
    counts = {0: 1}
    for value, mult in items:
        if value > 0:
            rising -= value * mult
        else:
            falling -= value * mult
        lo, hi = low - rising, high - falling
        steps = [value * c for c in range(mult + 1)]
        reached: dict[int, int] = {}
        for s, ways in counts.items():
            for step in steps:
                t = s + step
                if lo <= t <= hi:
                    n = reached.get(t, 0) + ways
                    reached[t] = n if n < cap else cap
        counts = reached
    return counts


def genus0_has_cylinder(k: int, orders) -> bool:
    """Whether the genus-zero stratum contains a Euclidean cylinder.

    Holds iff some nonempty proper sub-multiset of the orders sums to -k.
    The orders sum to -2k with k >= 1, so a sub-multiset summing to -k is
    never empty (sum 0) nor everything (sum -2k): the test is a plain
    subset sum, decided by one meet-in-the-middle count capped at 1.
    Raises SignatureError unless (k, 0, orders) is a stratum, and
    UnsupportedCase past MAX_CYLINDER_WORK.
    """
    orders = validate(k, 0, orders).orders
    return _count_sums(orders, -k, 1) > 0


def genus0_has_simple_cylinder(k: int, orders) -> bool:
    """Whether the genus-zero stratum contains a simple Euclidean cylinder.

    Requires a partition into two sub-multisets summing to -k with neither
    equal to (-k/2, -k/2); for odd k the latter constraint is vacuous.  For
    even k with h = -k/2 present at least twice, the forbidden sides are
    {h, h} and its complement, and both sum to -k.  So a simple cylinder
    exists iff more than two sub-multisets sum to -k.  The two coincide only
    for the orders (h, h, h, h), where {h, h} is the one sub-multiset
    summing to -k, and the count of one is again too small.  The count comes
    from the same meet-in-the-middle pass as genus0_has_cylinder, capped at
    one more than the forbidden sides, and the same budget applies.
    """
    orders = validate(k, 0, orders).orders
    forbidden = 2 if k % 2 == 0 and orders.count(-k // 2) >= 2 else 0
    return _count_sums(orders, -k, forbidden + 1) > forbidden
