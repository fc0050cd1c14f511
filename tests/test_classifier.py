import pytest

from kstrata.classifier import (
    ArfLabeled,
    CubicSporadic,
    Generic,
    GenusOne,
    RelativeArfLabeled,
    full_component_breakdown,
    primitive_nonhyperelliptic_components,
)
from kstrata.errors import SignatureError
from kstrata.signature import StratumSignature, validate


def count_of(k, genus, orders):
    return primitive_nonhyperelliptic_components(validate(k, genus, orders)).count


def test_minimal_genus_two_cubic_row():
    report = primitive_nonhyperelliptic_components(validate(3, 2, (6,)))
    assert report.count == 1 and report.components == (Generic(),)


def test_minimal_genus_two_generic_odd_even():
    report = primitive_nonhyperelliptic_components(validate(5, 2, (10,)))
    assert report.count == 2
    assert report.components == (ArfLabeled(0), ArfLabeled(1))


def test_minimal_genus_two_even_k():
    assert count_of(4, 2, (8,)) == 1


def test_abelian_genus_two_empty_rows():
    report = primitive_nonhyperelliptic_components(validate(1, 2, (1, 1)))
    assert report.count == 0 and report.empty_reason == "NoPrimitiveNonhyperelliptic"
    assert count_of(1, 2, (2,)) == 0


def test_cubic_sporadic_rows():
    report = primitive_nonhyperelliptic_components(validate(3, 3, (8, 4)))
    assert report.count == 3
    assert report.components == (
        CubicSporadic(0, 0),
        CubicSporadic(1, 0),
        CubicSporadic(1, 1),
    )


def test_a_signature_built_directly_is_classified_as_a_validated_one():
    direct = primitive_nonhyperelliptic_components(StratumSignature(1, 3, (-1, -1, 6)))
    assert direct == primitive_nonhyperelliptic_components(validate(1, 3, (6, -1, -1)))
    assert direct.components == (RelativeArfLabeled(0), RelativeArfLabeled(1))
    with pytest.raises(SignatureError, match="sum to 5"):
        primitive_nonhyperelliptic_components(StratumSignature(1, 2, (5,)))


def test_relative_arf_rows():
    report = primitive_nonhyperelliptic_components(validate(1, 3, (4, 2, -1, -1)))
    assert report.count == 2
    assert report.components == (RelativeArfLabeled(0), RelativeArfLabeled(1))
    # odd partition of the zeros falls back to the generic single component
    assert count_of(1, 3, (3, 3, -1, -1)) == 1


@pytest.mark.parametrize(
    "orders, count",
    [
        ((8, -1, -1), 2),  # poles exactly (-1, -1): relative Arf
        ((8, -2, -1, -1), 1),  # an even pole beside the two simple ones
        ((6, 2, -2, -1, -1), 1),
        ((10, -1, -1, -1, -1), 1),  # four simple poles, even zeros
        ((7, -1, -1, -1), 1),  # three simple poles
        ((6, -2), 2),  # no simple pole: Arf
        ((5, -1), 0),  # one simple pole: empty
    ],
)
def test_relative_arf_needs_poles_exactly_two_simple_ones(orders, count):
    genus = (sum(orders) + 2) // 2
    report = primitive_nonhyperelliptic_components(validate(1, genus, orders))
    assert report.count == count
    if count == 1:
        assert report.components == (Generic(),)


def test_quadratic_two_component_rows():
    assert count_of(2, 4, (9, 3)) == 2
    assert count_of(2, 3, (9, -1)) == 2


def test_generic_odd_order_present():
    assert count_of(7, 2, (13, 1)) == 1


def test_single_simple_pole_abelian_is_empty():
    report = primitive_nonhyperelliptic_components(validate(1, 2, (3, -1)))
    assert report.count == 0 and report.empty_reason == "EmptyStratum"


def test_a_simple_pole_beside_a_simple_zero_is_empty():
    # the one pole is the last order and the smallest zero, before it, is 1
    report = primitive_nonhyperelliptic_components(validate(1, 2, (2, 1, -1)))
    assert report.count == 0 and report.empty_reason == "EmptyStratum"


def test_genus_zero_connected_primitive():
    report = primitive_nonhyperelliptic_components(validate(3, 0, (1, -3, -4)))
    assert report.count == 1 and report.components == (Generic(),)
    assert report.note is not None  # hyperellipticity not evaluated


def test_genus_zero_imprimitive():
    report = primitive_nonhyperelliptic_components(validate(2, 0, (2, -2, -4)))
    assert report.count == 0 and report.empty_reason == "Imprimitive"


def test_genus_one_delegation():
    report = primitive_nonhyperelliptic_components(validate(5, 1, (4, -4)))
    assert report.count == 1
    assert report.components == (GenusOne(1, True, False),)


def test_zero_orders_rejected():
    with pytest.raises(SignatureError, match="marked points"):
        primitive_nonhyperelliptic_components(validate(2, 2, (5, 0, -1)))


def test_count_range_and_distinct_arf_parities():
    cases = [
        (1, 2, (2,)), (3, 2, (6,)), (5, 2, (10,)), (3, 3, (12,)),
        (2, 4, (12,)), (7, 3, (28,)), (2, 2, (5, -1)), (4, 3, (16,)),
        (1, 4, (6,)), (1, 3, (6, -1, -1)),
    ]
    for k, genus, orders in cases:
        report = primitive_nonhyperelliptic_components(validate(k, genus, orders))
        assert 0 <= report.count <= 3
        arf_parities = [c.parity for c in report.components if isinstance(c, ArfLabeled)]
        assert len(arf_parities) == len(set(arf_parities))
        assert report.count == len(report.components)


def test_breakdown_of_imprimitive_genus_one_stratum():
    rows = full_component_breakdown(validate(4, 1, (8, -8)))
    assert [row.divisor for row in rows] == [1, 2, 4]
    by_divisor = {row.divisor: row for row in rows}
    assert by_divisor[1].signature.orders == (2, -2)
    # the unique rotation-1 component of (2,-2) as a 1-differential is
    # hyperelliptic, so the d=1 reduction contributes nothing primitive
    assert by_divisor[1].report.count == 0
    assert by_divisor[2].report.count == 1
    assert by_divisor[4].report.count == 1
    assert by_divisor[4].report.components == (GenusOne(1, True, False),)


def test_breakdown_minimal_genus_two():
    rows = full_component_breakdown(validate(5, 2, (10,)))
    assert [(row.divisor, row.report.count) for row in rows] == [(1, 0), (5, 2)]
    assert rows[0].signature.orders == (2,)


def test_breakdown_single_row_when_k_does_not_reduce():
    rows = full_component_breakdown(validate(3, 2, (5, 1)))
    assert [(row.divisor, row.report.count) for row in rows] == [(3, 1)]


def test_breakdown_where_every_row_is_empty():
    rows = full_component_breakdown(validate(2, 2, (4,)))
    assert [(row.divisor, row.report.count) for row in rows] == [(1, 0), (2, 0)]
    assert rows[0].signature.orders == (2,)


def test_breakdown_rows_revalidate():
    for k, genus, orders in [(4, 1, (8, -8)), (6, 2, (12,)), (2, 3, (8,))]:
        for row in full_component_breakdown(validate(k, genus, orders)):
            again = validate(row.signature.k, row.signature.genus, row.signature.orders)
            assert again == row.signature
            assert k % row.divisor == 0


def test_genus_one_path_agrees_with_rotation_flags():
    import random

    from kstrata.genus_one import components

    rng = random.Random(71)
    done = 0
    while done < 10_000:
        k = rng.randint(1, 8)
        body = [rng.choice([-6, -4, -3, -2, -1, 1, 2, 3, 4, 6]) for _ in range(3)]
        balance = -sum(body)
        if balance == 0 or abs(balance) > 24:
            continue
        sig = validate(k, 1, body + [balance])
        report = primitive_nonhyperelliptic_components(sig)
        expected = [
            c for c in components(sig) if c.primitive and not c.hyperelliptic
        ]
        assert report.count == len(expected)
        assert [d.rotation for d in report.components] == [c.rotation for c in expected]
        done += 1
