"""A reference for polynomial arithmetic on {exponents: Fraction} dicts.

The ``ref_*`` functions keep one reduced Fraction per term, as a plain dict,
and share no code with the package.  ``Polynomial`` has no ring operators, so
tests build sums and products through the wrappers below: each reads
``terms``, works on the reference and returns a new ``Polynomial`` in the
first argument's variables.
"""

from fractions import Fraction
from operator import add as add_exponents

from kstrata.polynomials import Polynomial


def poly_key(p):
    """What two equal polynomials share: their variables and their terms.

    ``Polynomial`` compares by identity, so tests compare and dedupe these.
    """
    return p.variables, frozenset(p.terms.items())


def ref_combine(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def ref_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(add_exponents, ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def ref_derivative(a, idx):
    out = {}
    for e, c in a.items():
        if e[idx]:
            out[e[:idx] + (e[idx] - 1,) + e[idx + 1 :]] = c * e[idx]
    return out


def ref_substitute(a, idx, value):
    out = {}
    for e, c in a.items():
        key = e[:idx] + (0,) + e[idx + 1 :]
        out[key] = out.get(key, 0) + c * Fraction(value) ** e[idx]
    return {e: c for e, c in out.items() if c}


def ref_evaluate(a, point):
    total = Fraction(0)
    for e, c in a.items():
        for value, power in zip(point, e):
            c *= Fraction(value) ** power
        total += c
    return total


def evaluate_by_substitution(p, values):
    """p at ``values`` by ``Polynomial.substitute``, one variable at a time.

    A second route to ``Polynomial.evaluate``, which reads the terms in one
    pass: each variable that occurs is substituted in turn, and the constant
    term of what is left is the value.
    """
    for name, exps in zip(p.variables, zip(*p.terms)):
        if max(exps):
            p = p.substitute(name, values[name])
    return p.coefficient((0,) * len(p.variables))


def ref_str(a, names):
    """Terms by descending total degree, then exponents; unit coefficients elided."""
    if not a:
        return "0"
    parts = []
    for e in sorted(a, key=lambda e: (sum(e), e), reverse=True):
        factors = [n if p == 1 else f"{n}^{p}" for n, p in zip(names, e) if p]
        magnitude = abs(a[e])
        if not factors:
            body = str(magnitude)
        else:
            body = "*".join(factors if magnitude == 1 else [str(magnitude)] + factors)
        parts.append(("- " if a[e] < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


# -- Polynomial wrappers -------------------------------------------------------


def add(p, *others):
    terms = p.terms
    for q in others:
        terms = ref_combine(terms, q.terms)
    return Polynomial(p.variables, terms)


def sub(p, q):
    return Polynomial(p.variables, ref_combine(p.terms, q.terms, -1))


def mul(p, *factors):
    terms = p.terms
    for q in factors:
        terms = ref_mul(terms, q.terms)
    return Polynomial(p.variables, terms)


def power(p, k):
    return mul(Polynomial(p.variables, {(0,) * len(p.variables): 1}), *[p] * k)


def scale(p, c):
    """c * p for a rational c."""
    return Polynomial(p.variables, {e: c * v for e, v in p.terms.items()})
