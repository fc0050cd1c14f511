import math

import pytest

from kstrata.errors import RotationError, SignatureError, UnsupportedCase
from kstrata.prong import (
    enumerate_local_classes,
    global_classes_genus_one_split,
    local_classes,
    prong_hom_image,
)


def test_local_classes_examples():
    assert local_classes(3, 2, -2) == 1
    assert local_classes(1, 1, 1) == 2
    assert local_classes(5, 3, -3) == 2


def test_enumerate_local_classes_examples():
    assert enumerate_local_classes(3, 2, -2) == 1
    assert enumerate_local_classes(1, 1, 1) == 2
    assert enumerate_local_classes(2, 0, 0) == 2


def test_local_classes_rejects_too_negative_orders():
    with pytest.raises(SignatureError, match="-k"):
        local_classes(3, -3, 0)


def test_enumerate_rejects_huge_state_spaces():
    # a budget, not a bad argument: past it the oracle is unsupported
    with pytest.raises(UnsupportedCase, match="too large"):
        enumerate_local_classes(2000, 0, 0)


def test_local_classes_matches_enumeration_small():
    for k in range(1, 7):
        for a in range(1 - k, 9):
            for b in range(1 - k, 9):
                assert local_classes(k, a, b) == enumerate_local_classes(k, a, b)


def test_local_classes_symmetric():
    for k in range(1, 7):
        for a in range(1 - k, 8):
            for b in range(1 - k, 8):
                assert local_classes(k, a, b) == local_classes(k, b, a)


def test_prong_hom_image_examples():
    image = prong_hom_image(5, 3, 3)
    assert (image.delta, image.index) == (2, 2)
    image = prong_hom_image(4, 6, 2)
    assert (image.delta, image.index) == (2, 1)
    image = prong_hom_image(3, 4, 2)
    assert (image.delta, image.index) == (1, 1)


def test_prong_hom_image_validation():
    with pytest.raises(RotationError, match="torsion"):
        prong_hom_image(5, 3, 1)
    with pytest.raises(RotationError, match="torsion"):
        prong_hom_image(5, 3, 2)
    with pytest.raises(RotationError, match="primitive"):
        prong_hom_image(4, 6, 3)  # rotation 2 shares a factor with k = 4


def test_global_classes_examples():
    assert global_classes_genus_one_split(5, 1, 3, -3) == 2
    assert global_classes_genus_one_split(3, 1, 2, -2) == 1
    assert global_classes_genus_one_split(3, 1, 1, 1, (-2,)) == 4


def test_global_classes_hyperelliptic_exchange_cases():
    # (r, r, -r, -r) with the two zeros designated
    assert global_classes_genus_one_split(2, 3, 3, 3, (-3, -3)) == abs(2 + 3)
    # (2r, -r, -r) with the two poles designated
    assert global_classes_genus_one_split(4, 3, -3, -3, (6,)) == abs(4 - 3)
    # (2r, -2r): fixed singularities, no exchange, odd everything fails -> 1
    assert global_classes_genus_one_split(3, 1, 2, -2, ()) == 1


def test_global_classes_validation():
    with pytest.raises(RotationError, match="empty"):
        global_classes_genus_one_split(5, 3, 3, -3)
    with pytest.raises(RotationError, match="primitive"):
        global_classes_genus_one_split(2, 2, 4, -4)
    with pytest.raises(SignatureError, match="sum"):
        global_classes_genus_one_split(5, 1, 3, -4)


def test_global_classes_value_range_and_even_delta():
    cases = [
        (5, 1, 3, -3, ()),
        (3, 1, 2, -2, ()),
        (3, 1, 1, 1, (-2,)),
        (7, 1, 5, -5, ()),
        (3, 2, 4, -4, (2, -2)),
        (5, 1, 1, 1, (-2,)),
        (3, 1, 4, -2, (-2,)),
    ]
    for k, r, a, b, rest in cases:
        value = global_classes_genus_one_split(k, r, a, b, rest)
        assert value in {1, 2, abs(k + a)}
        if value == 2:
            assert math.gcd(abs(k + a), abs(k + b)) % 2 == 0


@pytest.mark.parametrize("k", [0, -3])
def test_nonpositive_k_is_rejected(k):
    for call in (local_classes, enumerate_local_classes, prong_hom_image):
        with pytest.raises(SignatureError, match=f"k must be positive, got {k}"):
            call(k, 2, 2)
