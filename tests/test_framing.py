import itertools
import random

import pytest

from kstrata.errors import SignatureError
from kstrata.framing import (
    Mod2QuadraticForm,
    SymplecticFramingValues,
    arf,
    boundary_framing_value,
    form_arf,
    quadratic_eval,
    relative_arf,
    spin,
    symplectic_product,
)
from kstrata.signature import validate


def test_boundary_framing_value_examples():
    assert boundary_framing_value(3, 6) == 9
    assert boundary_framing_value(1, -1) == 0
    assert boundary_framing_value(5, -4) == 1


def test_arf_examples():
    assert arf([(0, 0)]) == 1
    assert arf([(0, 0), (0, 0)]) == 0
    assert arf([(1, 1), (0, 0)]) == 1


def test_arf_of_trivial_framing_is_genus_parity():
    for g in range(17):
        assert arf([(0, 0)] * g) == g % 2


def test_spin_example():
    framing = SymplecticFramingValues.from_signature(
        validate(5, 1, (4, -4)), [(2, 4)]
    )
    assert framing.boundary == (9, 1)
    assert spin(framing) == 1


@pytest.mark.parametrize("count", [0, 1, 3])
def test_from_signature_needs_one_pair_per_handle(count):
    with pytest.raises(SignatureError, match=f"genus 2 needs 2 symplectic pairs, got {count}"):
        SymplecticFramingValues.from_signature(validate(1, 2, (2,)), [(1, 2)] * count)


def test_spin_requires_odd_k():
    framing = SymplecticFramingValues.from_signature(validate(2, 2, (4,)), [(0, 0), (0, 0)])
    with pytest.raises(SignatureError, match="odd k"):
        spin(framing)


def test_symplectic_product_needs_an_even_length():
    with pytest.raises(SignatureError, match="vectors must share an even length"):
        symplectic_product((1, 0, 1), (0, 1, 1))


def test_spin_rejects_odd_order_singularity():
    framing = SymplecticFramingValues.from_signature(
        validate(3, 2, (5, 1)), [(0, 0), (0, 0)]
    )
    assert 4 in framing.boundary  # order 1 gives the even value 4
    with pytest.raises(SignatureError, match="even"):
        spin(framing)


def test_relative_arf_examples():
    assert relative_arf(0, [(1, 1)]) == 0
    assert relative_arf(1, [(1, 1)]) == 1
    assert relative_arf(1, [(0, 0), (0, 0)]) == 1


def test_quadratic_eval_examples():
    trivial = Mod2QuadraticForm((0,), (0,))
    assert quadratic_eval(trivial, (1, 0)) == 0
    assert quadratic_eval(trivial, (1, 1)) == 1
    form = Mod2QuadraticForm((1,), (0,))
    assert quadratic_eval(form, (1, 1)) == 0


def test_quadratic_eval_length_check():
    with pytest.raises(SignatureError, match="bits"):
        quadratic_eval(Mod2QuadraticForm((0,), (0,)), (1, 0, 1))


def test_quadratic_eval_is_a_refinement():
    rng = random.Random(13)
    for _ in range(1000):
        g = rng.randint(1, 4)
        form = Mod2QuadraticForm(
            tuple(rng.randint(0, 1) for _ in range(g)),
            tuple(rng.randint(0, 1) for _ in range(g)),
        )
        x = [rng.randint(0, 1) for _ in range(2 * g)]
        y = [rng.randint(0, 1) for _ in range(2 * g)]
        total = [(a + b) % 2 for a, b in zip(x, y)]
        assert quadratic_eval(form, total) == (
            quadratic_eval(form, x) + quadratic_eval(form, y) + symplectic_product(x, y)
        ) % 2


def _symplectic_bases(g):
    """All ordered symplectic bases of (Z/2)^(2g), vectors as bit tuples."""
    vectors = [tuple(bits) for bits in itertools.product((0, 1), repeat=2 * g)]
    nonzero = [v for v in vectors if any(v)]

    def extend(basis):
        if len(basis) == 2 * g:
            yield tuple(basis)
            return
        pairing_done = len(basis) // 2
        for a in nonzero:
            if any(symplectic_product(a, b) for b in basis):
                continue
            for b in nonzero:
                if symplectic_product(a, b) != 1:
                    continue
                if any(symplectic_product(b, c) for c in basis):
                    continue
                yield from extend(basis + [a, b])

    yield from extend([])


def test_arf_is_basis_independent_for_genus_one():
    g = 1
    for values in itertools.product((0, 1), repeat=2 * g):
        form = Mod2QuadraticForm(values[:g], values[g:])
        reference = form_arf(form)
        for basis in _symplectic_bases(g):
            total = 0
            for i in range(g):
                a, b = basis[2 * i], basis[2 * i + 1]
                total += quadratic_eval(form, a) * quadratic_eval(form, b)
            assert total % 2 == reference
