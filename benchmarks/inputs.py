"""Seeded inputs for the benchmark workloads.

Everything here uses a small sparse-polynomial arithmetic of the
benchmark's own (dicts from exponent tuples to ``Fraction``), so the inputs
and the facts known about them by construction (smooth, nodal at a given
point, roots, cylinder answers) never depend on the package under test.
The same seed always yields the same inputs.
"""

from __future__ import annotations

import ast
import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

DATA_FILE = Path("src/kstrata/data/sporadic_quartics.json")
CLI_TESTS = Path("tests/test_cli.py")
ACCEPTANCE_TESTS = Path("tests/test_acceptance.py")
GOLDEN_DIR = Path("tests/golden")

XYZ = ("x", "y", "z")
XY = ("x", "y")


# -- sparse polynomials: {exponent tuple: Fraction} ---------------------------

def padd(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def pscale(a: dict, s) -> dict:
    return {e: c * s for e, c in a.items()} if s else {}


def pmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def ppow(a: dict, n: int, width: int) -> dict:
    out = {(0,) * width: Fraction(1)}
    for _ in range(n):
        out = pmul(out, a)
    return out


def pderiv(a: dict, i: int) -> dict:
    out = {}
    for e, c in a.items():
        if e[i]:
            d = list(e)
            d[i] -= 1
            out[tuple(d)] = c * e[i]
    return out


def peval(a: dict, point) -> Fraction:
    total = Fraction(0)
    for e, c in a.items():
        term = Fraction(c)
        for value, power in zip(point, e):
            term *= Fraction(value) ** power
        total += term
    return total


def linear_form(coeffs) -> dict:
    width = len(coeffs)
    out = {}
    for i, c in enumerate(coeffs):
        if c:
            e = [0] * width
            e[i] = 1
            out[tuple(e)] = Fraction(c)
    return out


def compose(f: dict, forms) -> dict:
    """f(forms[0], forms[1], ...), each form a polynomial in the same width."""
    width = len(next(iter(forms[0])))
    powers = [[{(0,) * width: Fraction(1)}] for _ in forms]
    out: dict = {}
    for e, c in f.items():
        term = {(0,) * width: Fraction(c)}
        for slot, power in enumerate(e):
            cache = powers[slot]
            while len(cache) <= power:
                cache.append(pmul(cache[-1], forms[slot]))
            term = pmul(term, cache[power])
        out = padd(out, term)
    return out


_TERM_RE = re.compile(r"([+-]?)([^+-]+)")


def parse(text: str, variables) -> dict:
    """Parse sums of monomials such as ``-2*x^3*y + y``."""
    width = len(variables)
    out: dict = {}
    for sign, body in _TERM_RE.findall(text.replace(" ", "")):
        coeff = Fraction(-1 if sign == "-" else 1)
        exps = [0] * width
        for factor in body.split("*"):
            name, _, power = factor.partition("^")
            if name in variables:
                exps[variables.index(name)] += int(power or 1)
            else:
                coeff *= Fraction(name)
        out = padd(out, {tuple(exps): coeff})
    return out


def to_text(a: dict, variables) -> str:
    """Canonical text of a polynomial, for failure reports."""
    parts = []
    for e, c in sorted(a.items(), reverse=True):
        mono = "*".join(
            f"{v}^{p}" if p > 1 else v for v, p in zip(variables, e) if p
        )
        parts.append(f"{c}*{mono}" if mono else str(c))
    return " + ".join(parts) or "0"


# -- truncated series ------------------------------------------------------

def series_residual(f: dict, phi, precision: int) -> list[Fraction]:
    """Coefficients of f(x, phi(x)) modulo x^(precision + 1)."""
    phi = [Fraction(c) for c in phi[: precision + 1]]
    phi += [Fraction(0)] * (precision + 1 - len(phi))
    top = max(e[1] for e in f)
    powers = [[Fraction(1)] + [Fraction(0)] * precision]
    for _ in range(top):
        prev = powers[-1]
        nxt = [Fraction(0)] * (precision + 1)
        for i, a in enumerate(prev):
            if a:
                for j in range(precision + 1 - i):
                    if phi[j]:
                        nxt[i + j] += a * phi[j]
        powers.append(nxt)
    out = [Fraction(0)] * (precision + 1)
    for (i, j), c in f.items():
        for n in range(i, precision + 1):
            out[n] += c * powers[j][n - i]
    return out


# -- reference data read from the repository, never imported ---------------

def constructions() -> dict:
    return json.loads(DATA_FILE.read_text(encoding="utf-8"))


def _literal_assignment(path: Path, name: str):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{path} defines no literal {name}")


def golden_cases() -> dict[str, list[str]]:
    """The golden CLI commands, read from the CLI tests without importing them."""
    return _literal_assignment(CLI_TESTS, "GOLDEN_CASES")


def second_opinion_table() -> dict:
    """The acceptance suite's own transcription of the exceptional rows."""
    table = {}
    text = _literal_assignment(ACCEPTANCE_TESTS, "SECOND_TABLE_TEXT")
    for line in text.strip().splitlines():
        head, count = line.split("->")
        k, genus, orders = head.split()
        key = (int(k), int(genus), tuple(sorted(map(int, orders.split(",")), reverse=True)))
        table[key] = int(count)
    return table


# -- certify ---------------------------------------------------------------

SMOOTH_BASES = {
    "fermat": "x^4 + y^4 + z^4",
    "klein": "x^3*y + y^3*z + z^3*x",
}


def unimodular(rng: random.Random, steps: int = 4):
    """A 3x3 integer matrix of determinant +-1: shears, then a signed permutation."""
    m = [[int(i == j) for j in range(3)] for i in range(3)]
    for _ in range(steps):
        i, j = rng.sample(range(3), 2)
        c = rng.choice((-2, -1, 1, 2))
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    order = rng.sample(range(3), 3)
    return [[rng.choice((-1, 1)) * v for v in m[r]] for r in order]


# Total coefficient bits of an accepted transform.  Random transforms range
# from about 30 to 170 bits; the band keeps the inputs' heights alike across
# seeds.
SMOOTH_BITS = (70, 110)


def coefficient_bits(f: dict) -> int:
    return sum(abs(c.numerator).bit_length() + c.denominator.bit_length() - 1 for c in f.values())


def smooth_quartics(rng: random.Random):
    """Eight integer linear transforms of quartics known to be smooth.

    A projective linear change of coordinates preserves smoothness, so each
    result must be certified smooth.
    """
    bases = dict(SMOOTH_BASES)
    for name, data in sorted(constructions().items()):
        bases[name] = data["quartic"]
    out = []
    for name, text in bases.items():
        base = parse(text, XYZ)
        while len(out) % 2 or not out or not out[-1][0].startswith(name):
            m = unimodular(rng)
            f = compose(base, [linear_form(row) for row in m])
            # dense in all 15 quartic monomials and of bounded height, so every input costs alike
            if len(f) == 15 and SMOOTH_BITS[0] <= coefficient_bits(f) <= SMOOTH_BITS[1]:
                out.append((f"{name}*{m}", f))
    return out


def nodal_quartics(rng: random.Random, count: int = 4):
    """Quartics with a node at a seeded rational point (p0 : p1 : p2).

    With u = p2*x - p0*z and v = p2*y - p1*z vanishing at the point, every
    term of z^2*q(u, v) + z*c(u, v) + r(u, v) has order at least two there,
    and q has distinct tangents.  Neither x nor y vanishes at the point, so
    the node lies in the first chart searched (x = 1) and every input takes
    the same path.
    """
    out = []
    while len(out) < count:
        p = (rng.choice((-1, 1)) * rng.randint(1, 3), rng.choice((-1, 1)) * rng.randint(1, 3),
             rng.randint(1, 3))
        u = linear_form((p[2], 0, -p[0]))
        v = linear_form((0, p[2], -p[1]))
        z = linear_form((0, 0, 1))
        a, b, c = (rng.choice((-2, -1, 1, 2)) for _ in range(3))
        if b * b - 4 * a * c == 0:
            continue
        uv = [ppow(u, i, 3) for i in range(5)]
        vv = [ppow(v, i, 3) for i in range(5)]
        f: dict = {}
        for deg, zpow in ((2, 2), (3, 1), (4, 0)):
            for i in range(deg + 1):
                coeff = (a, b, c)[i] if deg == 2 else rng.randint(-3, 3)
                if coeff:
                    term = pmul(uv[i], vv[deg - i])
                    term = pmul(term, ppow(z, zpow, 3))
                    f = padd(f, pscale(term, coeff))
        out.append((p, f))
    return out


# -- growth ----------------------------------------------------------------

RESULTANT_DEGREES = (3, 4, 5, 6)
SERIES_PRECISIONS = (15, 30, 45, 60)
CYLINDER_SIZES = (12, 14, 16, 18, 20)
ROOT_EXPONENTS = (4, 5, 6)  # constant terms 1e4, 1e5, 1e6

# metric stem: (rung prefix, sizes); a rung's op kind is f"{stem}.{prefix}{size}"
LADDERS = {
    "polynomials.resultant": ("d", RESULTANT_DEGREES),
    "series.branch_series": ("n", SERIES_PRECISIONS),
    "degeneration.cylinders": ("n", CYLINDER_SIZES),
    "polynomials.rational_roots": ("c1e", ROOT_EXPONENTS),
}


def rung(stem: str, size: int) -> str:
    return f"{stem}.{LADDERS[stem][0]}{size}"


def dense_bivariate(rng: random.Random, d: int) -> dict:
    """Every monomial x^i y^j with i + j <= d, coefficients in +-1..9."""
    return {
        (i, j): Fraction(rng.choice((-1, 1)) * rng.randint(1, 9))
        for i in range(d + 1)
        for j in range(d + 1 - i)
    }


# Distinct (sum, size) pairs over the sub-multisets of each prefix of the
# sorted orders, summed over the prefixes: the median over random draws, by
# size.  An exhaustive search that takes the orders in ascending order keeps
# this many partial states, and between random draws the count varies 2.3
# times.  Inputs are kept only within +-4% of it.
CYLINDER_STATES = {12: 3940, 14: 13560, 16: 38255, 18: 82777, 20: 150739}
CYLINDER_STATES_BAND = 0.04


def prefix_states(values) -> int:
    """(sum, size) pairs reachable by each prefix of sorted(values), summed; bitsets per size."""
    values = sorted(values)
    offset = -sum(v for v in values if v < 0)
    rows = [0] * (len(values) + 1)
    rows[0] = 1 << offset
    total = 0
    for v in values:
        total += sum(row.bit_count() for row in rows)
        for size in range(len(values) - 1, -1, -1):
            if rows[size]:
                rows[size + 1] |= rows[size] << v if v > 0 else rows[size] >> -v
    return total


def cylinder_orders(rng: random.Random, n: int, answer: bool, spread: int = 500):
    """Distinct genus-zero orders (summing to -2k) whose cylinder answer is known.

    k = 2 mod 4 throughout.  For True a planted half sums to -k, so its
    complement does too.  For False every order is a multiple of 4, so no
    sub-multiset can reach -k; the factor 4 scales the True case's values,
    so both cases see the same number of distinct subset sums.  Only inputs
    whose prefix_states are within the band of CYLINDER_STATES are kept.
    """
    target = CYLINDER_STATES[n]
    while True:
        k = 4 * rng.randint(1, 50) + 2
        step = 1 if answer else 4
        values = [step * rng.choice((-1, 1)) * rng.randint(1, spread) for _ in range(n)]
        if answer:
            half = n // 2
            values[half - 1] = -k - sum(values[: half - 1])
            values[n - 1] = -k - sum(values[half : n - 1])
        else:
            values[n - 1] = -2 * k - sum(values[: n - 1])
        if (0 not in values and len(set(values)) == n
                and abs(prefix_states(values) - target) <= CYLINDER_STATES_BAND * target):
            rng.shuffle(values)
            return k, tuple(values)


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def root_polynomial(rng: random.Random, target: int):
    """(x - r)(a*x - b)(x^2 + s*x + t) with constant term +-target.

    The roots' numerators divide target, so the constant is exactly +-target
    and its divisors, which set the cost of a candidate search, are the same
    for every seed.  The quadratic has a non-square discriminant, so the
    rational roots are exactly r and b/a (b/a is not an integer).
    """
    while True:
        a = rng.randint(2, 3)
        b = rng.choice((-1, 1)) * rng.choice([d for d in range(1, 10) if target % d == 0 and math.gcd(a, d) == 1])
        r = rng.choice((-1, 1)) * rng.choice([d for d in range(1, 10) if target % (d * b) == 0])
        s = rng.randint(-9, 9)
        t = rng.choice((-1, 1)) * target // abs(r * b)
        if _is_square(s * s - 4 * t):
            continue
        f = pmul(linear_form((1, -r)), linear_form((a, -b)))
        f = pmul(f, {(2, 0): Fraction(1), (1, 1): Fraction(s), (0, 2): Fraction(t)})
        # dehomogenize (x, w) -> x
        coeffs = {(e[0],): c for e, c in f.items()}
        return coeffs, sorted({Fraction(r), Fraction(b, a)})


# -- cli -------------------------------------------------------------------

def signature_line(k: int, genus: int, orders) -> str:
    return f"k:{k} g:{genus} orders:({','.join(map(str, orders))})"


def batch_signatures(rng: random.Random, count: int):
    """Valid signatures: k 1-8, genus 0-4, nonzero orders summing to k(2g-2)."""
    out = []
    while len(out) < count:
        k, genus = rng.randint(1, 8), rng.randint(0, 4)
        n = rng.randint(1, 6)
        orders = [rng.randint(-2 * k, 3 * k) for _ in range(n - 1)]
        last = k * (2 * genus - 2) - sum(orders)
        orders.append(last)
        if 0 in orders or abs(last) > 6 * k:
            continue
        rng.shuffle(orders)
        out.append((k, genus, tuple(orders)))
    return out


def invalid_argv(rng: random.Random):
    """A classify call whose orders miss k(2g-2) by one: must exit 2."""
    k, genus, orders = batch_signatures(rng, 1)[0]
    bad = list(orders)
    bad[0] += 1 if bad[0] != -1 else 2
    return ["classify", "--k", str(k), "--genus", str(genus), "--orders", ",".join(map(str, bad))]
