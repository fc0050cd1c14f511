import itertools
import random
import subprocess
import sys
import time
from collections import Counter

import pytest

from kstrata import cli
from kstrata.degeneration import (
    MAX_CYLINDER_WORK,
    MAX_ZERO_SPLITS,
    _count_sums,
    enumerate_zero_splits,
    genus0_has_cylinder,
    genus0_has_simple_cylinder,
    merge_feasible_same_sign,
    merge_result,
    split_result,
    undo_split,
)
from kstrata.errors import RotationError, SignatureError, UnsupportedCase
from kstrata.genus_one import merge, split_to_sphere
from kstrata.signature import validate


def test_enumerate_zero_splits_examples():
    assert set(enumerate_zero_splits(3, 6)) == {(-2, 2), (-1, 1), (0, 0)}
    assert set(enumerate_zero_splits(1, 2)) == {(0, 0)}
    assert set(enumerate_zero_splits(2, 2)) == {(-1, -1)}


def test_enumerate_zero_splits_bounds():
    for a, b in enumerate_zero_splits(4, 9):
        assert a + b == 9 - 8 and a > -4 and b > -4 and a <= b
    with pytest.raises(SignatureError, match=">= 2"):
        enumerate_zero_splits(3, 1)


def test_split_result_examples():
    assert split_result(validate(3, 2, (6,)), 0, -1, 1).orders == (1, -1)
    assert split_result(validate(1, 2, (2,)), 0, 0, 0).orders == (0, 0)
    sig = validate(2, 2, (5, -1))
    assert split_result(sig, 0, 0, 1).orders == (1, 0, -1)


def test_split_result_validation():
    with pytest.raises(SignatureError, match="valid split"):
        split_result(validate(3, 2, (6,)), 0, -3, 3)
    with pytest.raises(SignatureError, match="splittable"):
        split_result(validate(2, 2, (5, -1)), 1, 0, 0)
    for a, b in ((-1, 2), (4, -4), (0, 1)):
        with pytest.raises(SignatureError, match="valid split"):
            split_result(validate(3, 2, (6,)), 0, a, b)


def test_genus_zero_has_no_split_and_no_same_sign_merge():
    sig = validate(2, 0, (2, -2, -2, -2))
    with pytest.raises(SignatureError, match="splitting a zero lowers genus, need genus >= 1"):
        split_result(sig, 0, 1, 1)
    with pytest.raises(SignatureError, match="same-sign merging requires positive genus"):
        merge_feasible_same_sign(sig, 1, 2)


def test_split_listing_budget():
    # (z - 2k) // 2 + k pairs: k = 1, z = 2 * MAX_ZERO_SPLITS is exactly at the budget
    assert len(enumerate_zero_splits(1, 2 * MAX_ZERO_SPLITS)) == MAX_ZERO_SPLITS
    start = time.perf_counter()
    with pytest.raises(UnsupportedCase, match="supported maximum"):
        enumerate_zero_splits(1, 2 * MAX_ZERO_SPLITS + 2)
    with pytest.raises(UnsupportedCase, match="supported maximum"):
        enumerate_zero_splits(3, 10**18)
    assert time.perf_counter() - start < 0.5


def test_split_result_on_a_zero_too_large_to_list():
    sig = validate(1, 50_000_001, (100_000_000,))
    assert split_result(sig, 0, 3, 99_999_995).orders == (99_999_995, 3)
    assert split_result(sig, 0, 0, 99_999_998).orders == (99_999_998, 0)
    with pytest.raises(SignatureError, match="valid split"):
        split_result(sig, 0, -1, 99_999_999)


def test_index_and_rotation_guards_keep_their_messages():
    sig = validate(1, 1, (3, 1, -4))
    pair_checks = (merge_result, undo_split, merge_feasible_same_sign,
                   lambda s, i, j: merge(s, 1, i, j))
    for call in pair_checks:
        with pytest.raises(SignatureError, match=r"^bad indices \(1, 1\) for 3 entries$"):
            call(sig, 1, 1)
        with pytest.raises(SignatureError, match=r"^bad indices \(0, 3\) for 3 entries$"):
            call(sig, 0, 3)
    with pytest.raises(SignatureError, match=r"^index -1 out of range$"):
        split_result(sig, -1, 0, 0)
    with pytest.raises(SignatureError, match=r"^index 3 out of range$"):
        split_to_sphere(sig, 1, 3, 0, 1)
    for call in (lambda: merge(sig, 2, 0, 1), lambda: split_to_sphere(sig, 2, 0, 0, 1)):
        with pytest.raises(RotationError, match=r"^rotation 2 does not divide gcd 1$"):
            call()


def test_merge_result_examples():
    assert merge_result(validate(2, 2, (2, 1, 1)), 1, 2).orders == (2, 2)
    sig = validate(1, 2, (2, 2, -1, -1))
    assert merge_result(sig, 2, 3).orders == (2, 2, -2)
    assert merge_result(validate(3, 2, (4, 2)), 0, 1).orders == (6,)


def test_undo_split_inverts_split_result():
    sig = validate(3, 2, (6,))
    split = split_result(sig, 0, -1, 1)
    # the two fresh entries are the whole signature here
    assert undo_split(split, 0, 1) == sig


def test_split_merge_round_trip_random():
    rng = random.Random(23)
    done = 0
    while done < 2000:
        k = rng.randint(1, 6)
        genus = rng.randint(1, 4)
        zero = rng.randint(2, 3 * k)
        rest = [rng.choice([-2, -1, 1, 2, 3]) for _ in range(rng.randint(0, 3))]
        total = k * (2 * genus - 2)
        balance = total - zero - sum(rest)
        if balance == 0 or balance <= -k:
            continue
        sig = validate(k, genus, [zero] + rest + [balance])
        idx = sig.orders.index(zero)
        splits = enumerate_zero_splits(k, zero)
        a, b = splits[rng.randrange(len(splits))]
        result = split_result(sig, idx, a, b)
        positions = _locate_pair(result.orders, a, b)
        assert undo_split(result, *positions) == sig
        done += 1


def _locate_pair(orders, a, b):
    i = orders.index(a)
    j = orders.index(b)
    if i == j:  # a == b occupies consecutive slots in the multiset
        j += 1
    return i, j


def test_merge_feasible_same_sign_examples():
    sig = validate(2, 2, (2, 1, 1))
    assert merge_feasible_same_sign(sig, 1, 2) is True
    sig = validate(1, 2, (2, 2, -1, -1))
    assert merge_feasible_same_sign(sig, 2, 3) is True
    sig = validate(2, 2, (5, -1))
    assert merge_feasible_same_sign(sig, 0, 1) is None


def test_merge_feasible_same_sign_marked_point_is_unknown():
    sig = validate(1, 2, (2, 0))
    assert merge_feasible_same_sign(sig, 0, 1) is None


def test_genus0_cylinder_examples():
    assert genus0_has_cylinder(2, (-1, -1, -1, -1))
    assert genus0_has_cylinder(3, (1, -3, -4))
    assert not genus0_has_cylinder(2, (6, -5, -5))


def test_genus0_simple_cylinder_examples():
    assert not genus0_has_simple_cylinder(2, (-1, -1, -1, -1))
    assert genus0_has_simple_cylinder(3, (1, -3, -4))
    assert not genus0_has_simple_cylinder(4, (-2, -2, -2, -2))


def test_genus0_sum_check():
    with pytest.raises(SignatureError, match=r"expected k\(2g-2\) = -4"):
        genus0_has_cylinder(2, (1, -1))


def oracle_cylinder(k, orders):
    n = len(orders)
    for size in range(1, n):
        for subset in itertools.combinations(range(n), size):
            if sum(orders[i] for i in subset) == -k:
                return True
    return False


def oracle_simple_cylinder(k, orders):
    n = len(orders)
    bad = Counter({-k // 2: 2}) if k % 2 == 0 else None
    for size in range(1, n):
        for subset in itertools.combinations(range(n), size):
            if sum(orders[i] for i in subset) != -k:
                continue
            side = Counter(orders[i] for i in subset)
            rest = Counter(orders) - side
            if bad is not None and (side == bad or rest == bad):
                continue
            return True
    return False


def test_cylinder_criteria_match_bitmask_oracle():
    rng = random.Random(31)
    cases = []
    for k in range(1, 5):
        for n in range(2, 7):
            for _ in range(40):
                body = [rng.randint(-2 * k, 2 * k) for _ in range(n - 1)]
                last = -2 * k - sum(body)
                if last < -2 * k:
                    continue
                cases.append((k, tuple(body + [last])))
    assert len(cases) > 300
    for k, orders in cases:
        assert genus0_has_cylinder(k, orders) == oracle_cylinder(k, orders)
        assert genus0_has_simple_cylinder(k, orders) == oracle_simple_cylinder(k, orders)


def test_cylinder_criteria_match_oracle_up_to_fourteen_entries():
    rng = random.Random(41)
    for n in (13, 14):
        produced = 0
        while produced < 8:
            k = rng.randint(1, 4)
            body = [rng.randint(-2 * k, 2 * k) for _ in range(n - 1)]
            last = -2 * k - sum(body)
            if last < -2 * k:
                continue
            orders = tuple(body + [last])
            assert genus0_has_cylinder(k, orders) == oracle_cylinder(k, orders)
            assert genus0_has_simple_cylinder(k, orders) == oracle_simple_cylinder(k, orders)
            produced += 1


def _assert_cylinders_match_oracle(k, orders):
    assert genus0_has_cylinder(k, orders) == oracle_cylinder(k, orders), (k, orders)
    assert genus0_has_simple_cylinder(k, orders) == oracle_simple_cylinder(k, orders), (k, orders)


def test_cylinder_criteria_on_four_halves():
    # (h, h, h, h): {h, h} is its own complement, the one forbidden side
    for k in range(2, 13, 2):
        _assert_cylinders_match_oracle(k, (-k // 2,) * 4)
        assert genus0_has_cylinder(k, (-k // 2,) * 4)
        assert not genus0_has_simple_cylinder(k, (-k // 2,) * 4)


def test_cylinder_criteria_when_only_forbidden_sides_sum_to_minus_k():
    assert genus0_has_cylinder(4, (-2, -2, -7, 3))
    assert not genus0_has_simple_cylinder(4, (-2, -2, -7, 3))
    rng = random.Random(43)
    found = 0
    while found < 30:
        k = 2 * rng.randint(1, 5)
        rest = [rng.randint(-3 * k, 2 * k) for _ in range(rng.randint(1, 5))]
        rest.append(-k - sum(rest))  # {h, h} and the rest both sum to -k
        orders = tuple([-k // 2] * 2 + rest)
        if oracle_simple_cylinder(k, orders) or rest == [-k // 2] * 2:
            continue
        _assert_cylinders_match_oracle(k, orders)
        found += 1


def test_cylinder_criteria_with_many_halves():
    rng = random.Random(47)
    for k in (2, 4, 6, 8):
        for copies in range(2, 7):
            for _ in range(12):
                rest = [rng.randint(-k, k) for _ in range(rng.randint(0, 4))]
                orders = [-k // 2] * copies + rest
                orders.append(-2 * k - sum(orders))
                _assert_cylinders_match_oracle(k, tuple(orders))


def test_cylinder_criteria_odd_k():
    rng = random.Random(53)
    for _ in range(150):
        k = 2 * rng.randint(0, 4) + 1
        body = [rng.choice([-k, -(k // 2), -(k // 2) - 1, rng.randint(-2 * k, 2 * k)])
                for _ in range(rng.randint(1, 8))]
        orders = tuple(body + [-2 * k - sum(body)])
        _assert_cylinders_match_oracle(k, orders)
        assert genus0_has_simple_cylinder(k, orders) == genus0_has_cylinder(k, orders)


def test_cylinder_criteria_on_26_distinct_orders_are_fast():
    rng = random.Random(59)
    for k in (5, 6):
        while True:
            body = rng.sample(range(-500, 501), 25)
            last = -2 * k - sum(body)
            if abs(last) <= 500 and last not in body:
                break
        orders = tuple(body + [last])
        start = time.perf_counter()
        answers = (genus0_has_cylinder(k, orders), genus0_has_simple_cylinder(k, orders))
        assert time.perf_counter() - start < 0.5
        # distinct orders hold -k/2 at most once, so the criteria agree
        assert answers[0] == answers[1]


def brute_count(orders, target):
    """Sub-multisets (multiplicity vectors) of orders summing to target."""
    items = sorted(Counter(orders).items())
    return sum(
        sum(v * c for (v, _), c in zip(items, picks)) == target
        for picks in itertools.product(*(range(mult + 1) for _, mult in items))
    )


def test_count_sums_matches_brute_force_multiset_count():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    settings = hypothesis.settings(max_examples=250, deadline=None, database=None, derandomize=True)

    @settings
    @hypothesis.given(
        st.lists(st.integers(-12, 12), min_size=1, max_size=11),
        st.integers(-40, 40),
        st.integers(1, 3),
    )
    def any_orders(orders, target, cap):
        assert _count_sums(orders, target, cap) == min(cap, brute_count(orders, target))

    # (h, h, h, h) and its many-halves variants, the inputs of the forbidden rule
    @settings
    @hypothesis.given(
        st.integers(1, 6),
        st.integers(2, 9),
        st.lists(st.integers(-10, 10), max_size=4),
        st.integers(1, 3),
    )
    def many_halves(half_k, copies, rest, cap):
        k = 2 * half_k
        orders = [-half_k] * copies + rest
        orders.append(-2 * k - sum(orders))
        assert _count_sums(orders, -k, cap) == min(cap, brute_count(orders, -k))

    any_orders()
    many_halves()


def _wide_orders(rng, n, answer):
    """n distinct orders near 2^40 with a planted cylinder answer.

    k = 2 mod 4.  For True a planted half sums to -k; for False every order
    is a multiple of 4, so no sub-multiset reaches -k.
    """
    while True:
        k = 4 * rng.randint(1, 50) + 2
        step = 1 if answer else 4
        values = [step * rng.choice((-1, 1)) * rng.randint(2**39 // step, 2**40 // step)
                  for _ in range(n)]
        if answer:
            values[n // 2 - 1] = -k - sum(values[: n // 2 - 1])
            values[n - 1] = -k - sum(values[n // 2 : n - 1])
        else:
            values[n - 1] = -2 * k - sum(values[: n - 1])
        if len(set(values)) == n:
            rng.shuffle(values)
            return k, tuple(values)


@pytest.mark.parametrize("answer", [True, False])
def test_cylinder_criteria_on_32_distinct_orders_near_2_40(answer):
    k, orders = _wide_orders(random.Random(61), 32, answer)
    start = time.perf_counter()
    answers = (genus0_has_cylinder(k, orders), genus0_has_simple_cylinder(k, orders))
    assert time.perf_counter() - start < 3
    assert answers == (answer, answer)


def _over_budget_cases():
    # three values, each about 10^5 times
    heavy = (-5,) * 100_002 + (2,) * 100_000 + (3,) * 100_000
    return [_wide_orders(random.Random(67), 60, False), (5, heavy)]


def test_cylinder_budget_raises_unsupported_case():
    for k, orders in _over_budget_cases():
        for call in (genus0_has_cylinder, genus0_has_simple_cylinder):
            start = time.perf_counter()
            with pytest.raises(UnsupportedCase, match=f"supported maximum {MAX_CYLINDER_WORK}"):
                call(k, orders)
            assert time.perf_counter() - start < 1


def test_cylinder_cli_exits_2_past_the_budget():
    (wide_k, wide), (heavy_k, heavy) = _over_budget_cases()
    argv = ["cylinder", "--k", str(wide_k), "--orders", ",".join(map(str, wide))]
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "kstrata.cli", *argv], capture_output=True, text=True, timeout=60
    )
    assert time.perf_counter() - start < 5
    assert result.returncode == 2
    assert "error: counting the sub-multisets of 60 orders" in result.stderr
    # 300k orders do not fit one command-line argument; call main directly
    start = time.perf_counter()
    assert cli.main(["cylinder", "--k", str(heavy_k), "--orders", ",".join(map(str, heavy))]) == 2
    assert time.perf_counter() - start < 5


def test_simple_cylinder_implies_cylinder():
    rng = random.Random(37)
    for _ in range(400):
        k = rng.randint(1, 6)
        n = rng.randint(2, 8)
        body = [rng.randint(-2 * k, 2 * k) for _ in range(n - 1)]
        last = -2 * k - sum(body)
        if last < -2 * k:
            continue
        orders = tuple(body + [last])
        if genus0_has_simple_cylinder(k, orders):
            assert genus0_has_cylinder(k, orders)


@pytest.mark.parametrize("k", [0, -2])
def test_genus0_cylinders_reject_nonpositive_k(k):
    for call in (genus0_has_cylinder, genus0_has_simple_cylinder):
        with pytest.raises(SignatureError, match=f"k must be positive, got {k}"):
            call(k, (-k, -k))


@pytest.mark.parametrize("k", [0, -2])
def test_zero_splits_reject_nonpositive_k(k):
    with pytest.raises(SignatureError, match=f"k must be positive, got {k}"):
        enumerate_zero_splits(k, 4)
