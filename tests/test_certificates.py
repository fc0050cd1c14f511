"""Smoothness certificates of 150 seeded plane quartics against a golden file.

The cases cover dense integer quartics, quartics with rational coefficients,
quartics with a planted node, reducible quartics (some with a rational
singular point) and double conics.  Each is
built with the dict reference in ``polynomial_reference``, so the inputs do
not depend on the package.  Rewrite the golden file, only on purpose, with

    PYTHONPATH=src python tests/test_certificates.py
"""

import functools
import json
import random
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

from kstrata.polynomials import Polynomial
from kstrata.quartic import smoothness_certificate
from macaulay_reference import FULL_RANK, macaulay_rank
from polynomial_reference import ref_mul as mul

GOLDEN = Path(__file__).parent / "golden" / "certificates.json"
XYZ = ("x", "y", "z")


def monomials(degree):
    """Exponent tuples of the degree-d monomials in three variables."""
    out = []
    for combo in combinations_with_replacement(range(3), degree):
        out.append(tuple(combo.count(i) for i in range(3)))
    return out


def form(rng, degree, draw):
    return {e: c for e in monomials(degree) if (c := draw(rng))}


def small(rng):
    return Fraction(rng.randint(-9, 9))


def wide(rng):
    return Fraction(rng.randint(-(2**30), 2**30))


def rational(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 12))


def through(rng, a, b, degree, order):
    """A form vanishing to ``order`` at (a : b : 1): no lower term in x - a*z, y - b*z."""
    u = {(1, 0, 0): Fraction(1), (0, 0, 1): -a}
    v = {(0, 1, 0): Fraction(1), (0, 0, 1): -b}
    basis = {(1, 0, 0): u, (0, 1, 0): v, (0, 0, 1): {(0, 0, 1): Fraction(1)}}
    out = {}
    for e in monomials(degree):
        if e[2] > degree - order or rng.random() < 0.2:
            continue
        term = {(0, 0, 0): Fraction(rng.randint(-5, 5))}
        for axis, power in zip(basis, e):
            for _ in range(power):
                term = mul(term, basis[axis])
        for k, c in term.items():
            out[k] = out.get(k, 0) + c
    return {e: c for e, c in out.items() if c}


def cases():
    """(label, {exponents: Fraction}) for every case, in a fixed order."""
    rng = random.Random(2026)
    out = []
    for i in range(30):
        out.append((f"dense_small_{i}", form(rng, 4, small)))
    for i in range(10):
        out.append((f"dense_wide_{i}", form(rng, 4, wide)))
    for i in range(30):
        out.append((f"dense_rational_{i}", form(rng, 4, rational)))
    for i in range(25):
        a = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        b = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        out.append((f"node_{i}", through(rng, a, b, 4, 2)))
    for i in range(10):
        out.append((f"conic_times_conic_{i}", mul(form(rng, 2, small), form(rng, 2, small))))
    for i in range(10):
        out.append((f"line_times_cubic_{i}", mul(form(rng, 1, small), form(rng, 3, rational))))
    for i in range(10):
        a, b = Fraction(rng.randint(-3, 3), rng.randint(1, 2)), Fraction(rng.randint(-3, 3))
        line, cubic = through(rng, a, b, 1, 1), through(rng, a, b, 3, 1)
        out.append((f"line_times_cubic_meeting_{i}", mul(line, cubic)))
    for i in range(15):
        conic = form(rng, 2, small if i % 2 else rational)
        out.append((f"double_conic_{i}", mul(conic, conic)))
    for i in range(10):
        weights = [Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4)) for _ in range(3)]
        fermat = {(4, 0, 0): weights[0], (0, 4, 0): weights[1], (0, 0, 4): weights[2]}
        out.append((f"diagonal_{i}", fermat))
    return [(label, terms) for label, terms in out if terms]


def record(label, terms):
    cert = smoothness_certificate(Polynomial(XYZ, terms))
    return {
        "label": label,
        "quartic": [[list(e), str(c)] for e, c in sorted(terms.items())],
        "status": cert.status,
        "point": None if cert.point is None else [str(c) for c in cert.point],
        "detail": cert.detail,
    }


@functools.cache
def golden():
    return {entry["label"]: entry for entry in json.loads(GOLDEN.read_text())}


def test_golden_covers_every_case_and_every_status():
    entries = golden()
    assert list(entries) == [label for label, _ in cases()]
    assert 140 <= len(entries) <= 160
    assert {e["status"] for e in entries.values()} == {"smooth", "singular"}


@pytest.mark.parametrize("label, terms", cases(), ids=[label for label, _ in cases()])
def test_certificate_matches_golden(label, terms):
    assert record(label, terms) == golden()[label]


def test_golden_verdicts_agree_with_the_macaulay_rank():
    # smooth exactly at full rank
    wrong = [
        label
        for label, terms in cases()
        if (golden()[label]["status"] == "smooth") != (macaulay_rank(Polynomial(XYZ, terms)) == FULL_RANK)
    ]
    assert wrong == []


if __name__ == "__main__":
    lines = [json.dumps(record(*case)) for case in cases()]
    GOLDEN.write_text("[\n" + ",\n".join(lines) + "\n]\n")
