import random
import sys
from fractions import Fraction

import pytest

from kstrata.degeneration import (
    enumerate_zero_splits,
    genus0_has_cylinder,
    genus0_has_simple_cylinder,
    merge_result,
    split_result,
)
from kstrata.errors import SignatureError, UnsupportedCase
from kstrata.framing import (
    Mod2QuadraticForm,
    SymplecticFramingValues,
    arf,
    quadratic_eval,
    relative_arf,
    symplectic_product,
)
from kstrata.genus_one import merge, split_to_sphere
from kstrata.prong import (
    enumerate_local_classes,
    global_classes_genus_one_split,
    local_classes,
    prong_hom_image,
)
from kstrata.signature import (
    MAX_DIVISOR_INPUT,
    StratumSignature,
    divisors,
    imprimitive_divisors,
    parse_triple,
    validate,
)


def test_validate_accepts_minimal_genus_two_cubic():
    sig = validate(3, 2, (6,))
    assert sig == StratumSignature(3, 2, (6,))


def test_validate_accepts_marked_point_signature():
    assert validate(1, 1, (0, 0)).orders == (0, 0)


def test_validate_sum_mismatch():
    with pytest.raises(SignatureError, match="sum"):
        validate(2, 2, (5,))


def test_validate_rejects_nonpositive_k():
    with pytest.raises(SignatureError, match="positive"):
        validate(0, 2, (0,))


def test_canonical_form_is_descending_and_idempotent():
    sig = validate(2, 2, (1, 2, -1, 1, 1))
    assert sig.orders == (2, 1, 1, 1, -1)
    again = validate(sig.k, sig.genus, sig.orders)
    assert again == sig


def test_the_constructor_checks_and_sorts_as_validate_does():
    # a signature built directly is canonical too, so the classifier, which
    # reads the orders as descending, sees the same stratum either way
    assert StratumSignature(1, 3, (-1, -1, 6)) == validate(1, 3, (6, -1, -1))
    assert StratumSignature(2, 2, [1, 2, -1, 1, 1]).orders == (2, 1, 1, 1, -1)
    with pytest.raises(SignatureError, match=r"orders \(5,\) sum to 5, expected k\(2g-2\) = 2"):
        StratumSignature(1, 2, (5,))
    with pytest.raises(SignatureError, match="positive"):
        StratumSignature(0, 2, ())
    with pytest.raises(SignatureError, match="non-negative"):
        StratumSignature(1, -1, (-4,))


def test_text_form_round_trip():
    sig = validate(3, 2, (2, 4, -1, 1))
    text = str(sig)
    assert text == "k:3 g:2 orders:(4,2,1,-1)"
    assert parse_triple(text) == (3, 2, (4, 2, 1, -1)) == (sig.k, sig.genus, sig.orders)
    assert parse_triple("  k:3   g:2  orders:( 4 , 2, 1, -1 ) ") == (3, 2, (4, 2, 1, -1))


def test_parse_rejects_garbage():
    with pytest.raises(SignatureError, match="unparseable"):
        parse_triple("k=3 g=2 (6)")


@pytest.mark.parametrize("body", ["(2,)", "(,2)", "(1,,1)", "(1 1)", "(--2)", "(-)", "(2-)"])
def test_parse_rejects_malformed_orders_lists(body):
    text = f"k:1 g:2 orders:{body}"
    with pytest.raises(SignatureError) as exc:
        parse_triple(text)
    assert str(exc.value) == f"unparseable signature: {text!r}"


@pytest.mark.parametrize(
    "template", ["k:{n} g:1 orders:()", "k:1 g:{n} orders:()", "k:1 g:1 orders:({n},-{n})"]
)
def test_parse_rejects_integers_past_the_digit_limit(template):
    limit = sys.get_int_max_str_digits()
    if limit == 0:
        pytest.skip("this interpreter converts integers of any length")
    text = template.format(n="9" * (limit + 1))
    with pytest.raises(SignatureError) as exc:
        parse_triple(text)
    assert str(exc.value) == f"unparseable signature: {text!r}"


def test_parse_agrees_with_validate_on_any_rendering():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @hypothesis.given(
        st.integers(-2, 9),
        st.integers(-2, 5),
        st.lists(st.integers(-40, 40), max_size=6),
        st.booleans(),
        st.data(),
    )
    def agree(k, genus, orders, balanced, data):
        if balanced:
            orders.append(k * (2 * genus - 2) - sum(orders))
        orders = data.draw(st.permutations(orders))
        space = st.text(" \t", max_size=2)
        pad, gap = (lambda: data.draw(space)), (lambda: data.draw(space.map(" ".__add__)))
        body = ",".join(f"{pad()}{o}{pad()}" for o in orders)
        text = f"{pad()}k:{pad()}{k}{gap()}g:{pad()}{genus}{gap()}orders:{pad()}({body}){pad()}"
        try:
            expected = validate(k, genus, orders)
        except SignatureError as exc:
            with pytest.raises(SignatureError) as parsed:
                parse_triple(text)
            assert str(parsed.value) == str(exc)
        else:
            assert parse_triple(text) == (expected.k, expected.genus, expected.orders)

    agree()


def test_divisors_up_to_the_cap():
    assert divisors(-12) == (1, 2, 3, 4, 6, 12)
    assert divisors(0) == ()
    top = divisors(MAX_DIVISOR_INPUT)
    assert top[0] == 1 and top[-1] == MAX_DIVISOR_INPUT
    assert all(MAX_DIVISOR_INPUT % d == 0 for d in top)
    for n in (MAX_DIVISOR_INPUT + 1, -MAX_DIVISOR_INPUT - 1):
        with pytest.raises(UnsupportedCase, match="exceeds the supported maximum"):
            divisors(n)


def test_imprimitive_divisors_examples():
    assert imprimitive_divisors(validate(4, 1, (8, -8))) == {2, 4}
    assert imprimitive_divisors(validate(3, 2, (6,))) == {3}
    assert imprimitive_divisors(validate(5, 2, (9, 1))) == set()


def test_imprimitive_divisors_downward_closed():
    rng = random.Random(7)
    for _ in range(200):
        k = rng.randint(1, 12)
        genus = rng.randint(0, 3)
        total = k * (2 * genus - 2)
        orders = [rng.randint(-k, 3 * k) for _ in range(rng.randint(1, 4))]
        orders.append(total - sum(orders))
        sig = StratumSignature(k, genus, tuple(sorted(orders, reverse=True)))
        found = imprimitive_divisors(sig)
        assert found == {m for m in range(2, k + 1) if k % m == 0 and all(o % m == 0 for o in orders)}
        for m in found:
            assert k % m == 0 and all(o % m == 0 for o in sig.orders)
            for smaller in divisors(m):
                if smaller > 1:
                    assert smaller in found


# Each entry point that reads an integer, with one integer argument made by
# ``make`` from an int; every call is valid when ``make`` is ``int``.
ENTRY_POINTS = {
    "signature.k": lambda make: StratumSignature(make(2), 0, (-4,)),
    "signature.genus": lambda make: StratumSignature(1, make(2), (2,)),
    "signature.order": lambda make: StratumSignature(1, 2, (make(2),)),
    "validate": lambda make: validate(1, 2, (make(3), -1)),
    "divisors": lambda make: divisors(make(12)),
    "cylinder.k": lambda make: genus0_has_cylinder(make(2), (-1, -3)),
    "cylinder.order": lambda make: genus0_has_cylinder(2, (make(-1), -3)),
    "simple_cylinder.k": lambda make: genus0_has_simple_cylinder(make(2), (-1, -1, -1, -1)),
    "simple_cylinder.order": lambda make: genus0_has_simple_cylinder(2, (make(-1), -1, -1, -1)),
    "zero_splits.k": lambda make: enumerate_zero_splits(make(1), 4),
    "zero_splits.z": lambda make: enumerate_zero_splits(1, make(4)),
    "split_result.entry": lambda make: split_result(validate(1, 1, (4, -4)), 0, make(1), 1),
    "merge_result.index": lambda make: merge_result(validate(1, 1, (4, -4)), make(0), 1),
    "merge.rotation": lambda make: merge(validate(1, 1, (2, 2, -4)), make(2), 0, 1),
    "merge.index": lambda make: merge(validate(1, 1, (2, 2, -4)), 2, 0, make(1)),
    "split_to_sphere.rotation": lambda make: split_to_sphere(validate(3, 1, (6, -6)), make(2), 0, -2, 2),
    "split_to_sphere.index": lambda make: split_to_sphere(validate(3, 1, (6, -6)), 2, make(0), -2, 2),
    "split_to_sphere.entry": lambda make: split_to_sphere(validate(3, 1, (6, -6)), 2, 0, make(-2), 2),
    "framing.pair": lambda make: SymplecticFramingValues.from_signature(
        validate(5, 1, (4, -4)), [(make(3), 4)]
    ),
    "quadratic_form.value": lambda make: Mod2QuadraticForm((make(1),), (0,)),
    "quadratic_eval.bit": lambda make: quadratic_eval(Mod2QuadraticForm((1,), (0,)), (make(1), 0)),
    "arf.pair": lambda make: arf([(make(2), 0)]),
    "relative_arf.sbar": lambda make: relative_arf(make(0), [(0, 0)]),
    "symplectic_product.entry": lambda make: symplectic_product((make(1), 1), (1, 1)),
    "local_classes.k": lambda make: local_classes(make(2), 1, 1),
    "local_classes.order": lambda make: local_classes(2, make(1), 1),
    "enumerate_local_classes.order": lambda make: enumerate_local_classes(2, 1, make(1)),
    "prong_hom_image.k": lambda make: prong_hom_image(make(5), 3, 3),
    "prong_hom_image.torsion": lambda make: prong_hom_image(5, 3, make(3)),
    "global_split.rotation": lambda make: global_classes_genus_one_split(3, make(1), 1, 1, (-2,)),
}


@pytest.mark.parametrize("make", [float, Fraction, str], ids=["float", "Fraction", "str"])
@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
def test_every_entry_point_refuses_a_value_that_is_not_an_integer(call, make):
    # refused even when the value names an integer, as 2.0, Fraction(2) and "2" do
    with pytest.raises(SignatureError, match="must be an integer"):
        call(make)
