import math
import random

import pytest

from kstrata.errors import RotationError, SignatureError
from kstrata.genus_one import (
    components,
    merge,
    nonempty_rotations,
    split_to_sphere,
)
from kstrata.signature import divisors, validate


def rotations_of(sig):
    return tuple(c.rotation for c in components(sig))


def test_components_examples():
    assert rotations_of(validate(1, 1, (6, -6))) == (3, 2, 1)
    assert rotations_of(validate(2, 1, (2, 2, -4))) == (2, 1)
    assert rotations_of(validate(4, 1, (1, 1, -2))) == (1,)


def test_components_rejects_wrong_genus():
    with pytest.raises(SignatureError, match="genus"):
        components(validate(1, 2, (2,)))


def test_components_rejects_all_marked_points():
    with pytest.raises(SignatureError, match="zero"):
        components(validate(1, 1, (0, 0)))


def flags_of(k, orders):
    return {c.rotation: (c.primitive, c.hyperelliptic) for c in components(validate(k, 1, orders))}


def test_component_flags():
    # rotation 3 is the (2r,-2r) hyperelliptic component
    assert flags_of(1, (6, -6)) == {3: (True, True), 2: (True, False), 1: (True, False)}
    assert flags_of(2, (4, -4)) == {2: (False, True), 1: (True, False)}
    assert flags_of(5, (4, -4)) == {2: (True, True), 1: (True, False)}
    assert flags_of(3, (1, 1, -2)) == {1: (True, True)}
    # one per pattern: (r,r,-r,-r), (2r,-r,-r), (r,r,-2r) at r = 3
    assert flags_of(2, (3, 3, -3, -3)) == {3: (True, True), 1: (True, False)}
    assert flags_of(4, (6, -3, -3)) == {3: (True, True), 1: (True, False)}
    assert flags_of(4, (3, 3, -6)) == {3: (True, True), 1: (True, False)}


def test_rotation_times_torsion_is_gcd():
    rng = random.Random(3)
    for _ in range(300):
        k = rng.randint(1, 8)
        body = [rng.choice([-6, -4, -3, -2, -1, 1, 2, 3, 4, 6]) for _ in range(3)]
        orders = body + [-sum(body)]
        if all(o == 0 for o in orders):
            continue
        sig = validate(k, 1, orders)
        d = math.gcd(*sig.orders)
        for c in components(sig):
            assert c.rotation * c.torsion_order == d
            assert c.primitive == (math.gcd(k, c.rotation) == 1)


def test_component_count_is_divisor_count():
    # tau(d) components in general, tau(d) - 1 when only two entries are nonzero
    assert len(rotations_of(validate(1, 1, (6, -6)))) == len(divisors(6)) - 1
    assert len(rotations_of(validate(1, 1, (4, 2, -6)))) == len(divisors(2))
    assert len(rotations_of(validate(2, 1, (4, 0, -4)))) == len(divisors(4)) - 1


def test_two_nonzero_singularities_with_trivial_gcd_is_empty():
    # a simple zero against a simple pole forces the two points to collide
    assert components(validate(1, 1, (1, -1))) == ()
    assert components(validate(1, 1, (1, 0, -1))) == ()


def test_merge_collapses_to_two_entry_signature():
    out = merge(validate(1, 1, (3, 1, -4)), 1, 0, 1)
    assert out.feasible
    assert out.result.orders == (4, -4)
    # r' = 4 excluded: the rotation-4 component of (4,-4) is empty
    assert out.rotations == (2, 1)


def test_merge_exception_remaining_singularity_realizes_rotation():
    out = merge(validate(2, 1, (4, -2, -2)), 2, 0, 1)
    assert not out.feasible and out.rotations == ()


def test_merge_exception_opposite_pair_at_full_rotation():
    sig = validate(1, 1, (3, -3, 1, -1))
    assert sig.orders == (3, 1, -1, -3)
    out = merge(sig, 1, 0, 3)
    assert not out.feasible


def test_merge_opposite_pair_below_full_rotation_is_feasible():
    sig = validate(1, 1, (4, -4, 2, -2))
    assert sig.orders == (4, 2, -2, -4)
    out = merge(sig, 1, 0, 3)  # merge 4 with -4 at rotation 1 < 2
    assert out.feasible
    assert out.result.orders == (2, 0, -2)
    assert out.rotations == (1,)  # rotation 2 target is the collided locus


def test_merge_chain_through_a_marked_point():
    # first merge creates a marked point; merging it onward is an ordinary move
    sig = validate(2, 1, (4, 2, -2, -4))
    first = merge(sig, 1, 1, 2)  # 2 with -2
    assert first.feasible and first.result.orders == (4, 0, -4)
    second = merge(first.result, 1, 0, 1)  # 4 with the marked point
    assert second.feasible and second.result.orders == (4, -4)
    assert second.rotations == (2, 1)  # rotation 4 names the collided locus


def test_merge_of_the_only_two_singularities_with_marked_point_is_rejected():
    out = merge(validate(3, 1, (2, 0, -2)), 1, 0, 2)
    assert not out.feasible and out.result is None


def test_merge_of_the_only_two_singularities_is_rejected():
    out = merge(validate(1, 1, (5, -5)), 1, 0, 1)
    assert not out.feasible and out.result is None


def test_merge_index_and_rotation_validation():
    sig = validate(1, 1, (3, 1, -4))
    with pytest.raises(SignatureError, match="indices"):
        merge(sig, 1, 0, 0)
    with pytest.raises(RotationError, match="divide"):
        merge(sig, 2, 0, 1)


def test_merge_same_sign_is_always_feasible_at_same_rotation():
    rng = random.Random(5)
    for _ in range(300):
        k = rng.randint(1, 6)
        zeros = [rng.randint(1, 6) for _ in range(rng.randint(2, 3))]
        poles = [-rng.randint(1, 6) for _ in range(rng.randint(1, 3))]
        body = zeros + poles
        body.append(-sum(body))
        sig = validate(k, 1, body)
        if not any(sig.orders):
            continue
        d = math.gcd(*sig.orders)
        rotation = rng.choice([r for r in nonempty_rotations(sig.orders)] or [d])
        if rotation not in nonempty_rotations(sig.orders):
            continue
        pos = [i for i, o in enumerate(sig.orders) if o > 0]
        neg = [i for i, o in enumerate(sig.orders) if o < 0]
        for pair in (pos[:2], neg[:2]):
            if len(pair) == 2:
                out = merge(sig, rotation, pair[0], pair[1])
                assert out.feasible
                assert rotation in out.rotations


def test_split_to_sphere_examples():
    sig = validate(3, 1, (6, -6))
    assert split_to_sphere(sig, 2, 0, -1, 1)
    assert split_to_sphere(validate(2, 1, (4, -4)), 2, 0, 0, 0)


def test_split_to_sphere_validation():
    sig = validate(3, 1, (6, -6))
    with pytest.raises(SignatureError, match="not a splittable zero"):
        split_to_sphere(sig, 2, 1, -1, 1)
    assert not split_to_sphere(sig, 2, 0, -2, 2)  # gcd(1, 5, 6) = 1 misses r = 2
    with pytest.raises(SignatureError, match="not a valid split"):
        split_to_sphere(sig, 2, 0, -1, 2)
    with pytest.raises(SignatureError, match="not a valid split"):
        split_to_sphere(sig, 2, 0, -4, 4)


def test_default_witness_always_reaches_sphere():
    rng = random.Random(9)
    for _ in range(300):
        k = rng.randint(1, 6)
        zeros = [rng.randint(1, 8) for _ in range(2)]
        body = zeros + [-sum(zeros)]
        sig = validate(k, 1, body)
        for rotation in nonempty_rotations(sig.orders):
            idx = next(i for i, o in enumerate(sig.orders) if o > 0)
            a = sig.orders[idx]
            if rotation == a:
                continue
            # the sphere split (r - k, a - r - k)
            a1, a2 = rotation - k, a - rotation - k
            assert a1 + a2 == a - 2 * k and min(a1, a2) > -k
            assert split_to_sphere(sig, rotation, idx, a1, a2)


def hyperelliptic_reference(orders, r):
    return tuple(sorted(orders)) in ((-r, -r, r, r), (-r, -r, 2 * r), (-2 * r, r, r), (-2 * r, 2 * r))


def test_components_agree_with_per_rotation_calls():
    rng = random.Random(17)
    shapes = [(1, 1, -1, -1), (2, -1, -1), (-2, 1, 1), (2, -2)]
    seen = set()
    for _ in range(500):
        k = rng.randint(1, 6)
        if rng.random() < 0.5:
            scale = rng.randint(1, 12)
            body = [scale * o for o in rng.choice(shapes)]
        else:
            body = [rng.randint(-12, 12) for _ in range(rng.randint(1, 4))]
            body.append(-sum(body))
        if rng.random() < 0.2:
            body.append(0)
        if not any(body):
            continue
        sig = validate(k, 1, body)
        comps = components(sig)
        assert tuple(c.rotation for c in comps) == nonempty_rotations(sig.orders)
        for c in comps:
            expected = hyperelliptic_reference(sig.orders, c.rotation)
            assert c.hyperelliptic == expected
            seen.add(expected)
    assert seen == {True, False}
