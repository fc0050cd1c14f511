"""Macaulay's smoothness criterion for plane quartics, with its own exact algebra.

For a ternary quartic F, let M be the matrix of the map

    (a, b, c) -> a*F_x + b*F_y + c*F_z

from triples of quartic forms to forms of degree 7: 45 rows (a monomial
multiplier of one partial each) and 36 columns (the monomials of degree 7).
The partials have no common zero in P^2 over the complex numbers exactly
when M has rank 36 (Macaulay's resultant; Cox, Little and O'Shea, Using
Algebraic Geometry, ch. 3).  F is read through ``Polynomial.terms`` and
nothing else; the partials, the monomial lists and the rank are this
module's own, so the oracle shares no code with the certificate it checks.
"""

from itertools import combinations_with_replacement
from math import lcm

FULL_RANK = 36  # the monomials of degree 7 in three variables


def monomials(degree):
    """Exponent triples of the monomials of ``degree`` in three variables."""
    return [
        tuple(combo.count(i) for i in range(3))
        for combo in combinations_with_replacement(range(3), degree)
    ]


def partial(terms, axis):
    """The derivative of an {exponents: int} form along one variable."""
    out = {}
    for e, c in terms.items():
        if e[axis]:
            out[e[:axis] + (e[axis] - 1,) + e[axis + 1 :]] = e[axis] * c
    return out


def macaulay_matrix(F):
    """The 45 x 36 integer matrix M of a quartic F, as a list of rows.

    F is scaled by the common denominator of its coefficients first, which
    changes no rank.
    """
    terms = F.terms
    if any(len(e) != 3 or sum(e) != 4 for e in terms):
        raise ValueError("expected a ternary quartic form")
    scale = lcm(*(c.denominator for c in terms.values()))
    terms = {e: int(c * scale) for e, c in terms.items()}
    column = {e: i for i, e in enumerate(monomials(7))}
    rows = []
    for axis in range(3):
        derivative = partial(terms, axis)
        for shift in monomials(4):
            row = [0] * FULL_RANK
            for e, c in derivative.items():
                row[column[tuple(a + b for a, b in zip(e, shift))]] += c
            rows.append(row)
    return rows


def rank(rows):
    """The exact rank of an integer matrix by fraction-free elimination.

    Bareiss's step with a row swap for each pivot, and a column with no
    pivot left below the rows already used is skipped: every entry stays a
    minor of the input, so each division by the previous pivot is exact.
    """
    m = [list(row) for row in rows]
    done, previous = 0, 1
    for col in range(len(m[0])):
        pivot = next((i for i in range(done, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[done], m[pivot] = m[pivot], m[done]
        top = m[done]
        p = top[col]
        for i in range(done + 1, len(m)):
            f = m[i][col]
            m[i] = [(p * a - f * b) // previous for a, b in zip(m[i], top)]
        done, previous = done + 1, p
    return done


def macaulay_rank(F):
    """The rank of F's Macaulay matrix: FULL_RANK exactly when F is smooth."""
    return rank(macaulay_matrix(F))
