"""Sparse multivariate polynomials over exact rationals, stored over the integers.

A polynomial keeps integer numerators over one positive common denominator,
in lowest terms (content and primitive part; Knuth, TAOCP vol. 2, 4.6.1).
Int coefficients are stored as they are.  Derivatives and evaluation run
on ints, evaluation in one pass per variable over a table of its value's
powers; coefficients become Fractions only where they leave (``terms``,
``coefficient``, ``evaluate``, ``str``).

Supports the arithmetic needed to certify plane-curve constructions:
parsing, derivatives, evaluation, Sylvester resultants computed by one
subresultant remainder sequence each (Collins 1967; Brown and Traub 1971)
on the stored numerators, packed into a single integer per coefficient by
Kronecker substitution, so every intermediate value stays exact, and one
fraction-free (Bareiss) elimination ``integer_rank`` that gives an integer
matrix's rank, read by the Macaulay rank of ``quartic``.
Univariate work reads the same numerators.  The smoothness certificate
calls the integer kernels ``resultant_slots``, ``gcd_terms`` and
``roots_of_terms`` directly; ``resultant`` and ``rational_roots`` are their
``Polynomial`` doors.  A univariate polynomial reaches the gcd as its
sparse terms {k: a_k} or as its dense ascending coefficient list.  The
gcds of ``gcd_terms`` and of the squarefree step of ``roots_of_terms`` are
charged against a budget from the sparse terms before any dense
coefficient list is built, and a gcd of several stops once the running gcd
is constant.  Each pair is first packed the same way and given one integer
gcd, the heuristic gcd of Char, Geddes and Gonnet (1989), whose answer is
kept only when it divides both inputs exactly; when a few evaluation points
fail that check, the primitive part of the last nonzero remainder of the
same subresultant sequence decides.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import index, itemgetter, mul

from .errors import UnsupportedCase
from .signature import divisors

# the two charges on a resultant of Sylvester order m+n over S coefficient
# slots of B bits were fitted to a fraction-free elimination of the Sylvester
# matrix: about (m+n)^4 * S^2 with small coefficients, and (m+n)^3 *
# (W + c)^2 for the W = S*B/64 words of the packed result with large ones
# (each step costing as if its integers had about c more words, however
# small they are); both are held to this cap.  The subresultant sequence
# that computes the resultant takes about m*n multiplications and exact
# divisions of integers of at most W words, so the cap is conservative.  At
# the cap on a 2-vCPU Xeon guest: 0.03 s for a univariate pair of order 244
# with 4-bit coefficients (the largest such pair admitted; uncapped, order
# 800 takes 4.8 s), 0.001 s for the sparse univariate pair y^160 + 1,
# y^160 + y + 2 of order 320, 0.4 s for a dense bivariate pair of degree 16
# (uncapped, degree 20 takes 2.7 s), 0.4 s for S = 79001 at order 2, most
# of it packing and unpacking, and 0.9 s for a dense bivariate pair of
# degree 10 with 100-bit coefficients
MAX_RESULTANT_WORK = 10**11
BAREISS_STEP_WORDS = 44  # c above

# the subresultant sequence of a gcd for degrees m >= n takes about
# (m - n + 1)*m + n^2 row operations on coefficients of up to W words, where
# 64*W = n*log2|p| + m*log2|q| bits (Hadamard's bound on the subresultants,
# |p| the 2-norm); each costs about W^2 + c^2, c^2 the fixed cost of a row
# operation however small its integers, and the sum is held to this cap,
# though the heuristic gcd in front of the sequence usually answers at once.
# At the cap on a 2-vCPU Xeon guest, for a dense pair of degree 98 with
# 100-bit coefficients and one of degree 351 with 4-bit ones: the heuristic
# takes 0.5 and 0.4 ms when they are coprime, 0.6 ms for degree 97 with a
# common quadratic factor; when it declines, its three attempts add at most
# 6 and 2 ms to a subresultant sequence of 2.6 and 2.3 s.  The sparse
# x^d - 1, x^d - x is refused from d = 693, though its gcd takes 0.8 ms at
# d = 600
MAX_GCD_WORK = 10**9
GCD_STEP_WORDS = 12  # c above
_GCD_HEURISTIC_ATTEMPTS = 3  # evaluations before the remainder sequence


class PolynomialError(ValueError):
    """Invalid polynomial input or operation."""


def exact(value, error=PolynomialError) -> Fraction:
    """value as a Fraction: kept if one already, else converted exactly.

    Ints, rationals and rational strings ("3", "-1/2", "0.1") are exact;
    a float is refused with ``error``, since its binary value (0.1 is
    3602879701896397/36028797018963968) is rarely the number meant.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise error(f"inexact value {value!r}: pass an int, a Fraction or a string")
    try:
        return Fraction(value)
    except (TypeError, ValueError) as exc:
        raise error(f"not a rational number: {value!r}") from exc


# the grammar of Polynomial.from_string, matched one term at a time: a failed
# match anchored at the end would try every split of a run of digits
_FACTOR = r"(\d+)(?:\s*/\s*(\d+))?|([A-Za-z_]\w*)(?:\s*\^\s*(\d+))?"
_FACTOR_RE = re.compile(_FACTOR)
_TERM_RE = re.compile(rf"\s*((?:[+-]\s*)*)((?:{_FACTOR})(?:\s*(?:\*\s*)?(?:{_FACTOR}))*)?\s*")


def _fault(text: str, pos: int, last: re.Match | None) -> PolynomialError:
    """The error for text where no term starts at pos, just after factor last (or None)."""
    rest = text[pos:].strip()
    if not rest:
        return PolynomialError(f"dangling sign in {text!r}")
    if rest[0] == "*":
        return PolynomialError(f"misplaced '*' in {text!r}")
    if rest[0] not in "^/":
        return PolynomialError(f"cannot tokenize {rest[:12]!r}")
    # '^' may follow a name without exponent (group 3), '/' a number without denominator (group 1)
    if last and last.lastindex == {"^": 3, "/": 1}[rest[0]]:
        return PolynomialError(f"bad {'exponent' if rest[0] == '^' else 'fraction'} in {text!r}")
    return PolynomialError(f"unexpected token {rest[0]!r} in {text!r}")


class Polynomial:
    """Sparse polynomial, stored as integer numerators over one denominator.

    ``_num`` maps exponent tuples to nonzero ints and ``_den`` is a positive
    int; the polynomial is the sum of ``_num[e] / _den`` times the monomial
    e.  The form is canonical, since the gcd of ``_den`` and every numerator
    is 1, so equal polynomials have equal fields.  ``terms`` and
    ``coefficient`` give the coefficients as Fractions.  Negation is the
    only ring operator, and ``==`` is identity: two polynomials are equal
    when their ``(variables, terms)`` are.
    """

    __slots__ = ("variables", "_num", "_den")

    def __init__(self, variables, terms=None):
        self.variables = tuple(variables)
        width = len(self.variables)
        if len(set(self.variables)) != width:
            # every lookup by name would find the first of two equal names
            raise PolynomialError(f"repeated variable name in {self.variables}")
        clean: dict[tuple[int, ...], int | Fraction] = {}
        rational = False  # whether some coefficient came in as other than an int
        for exps, coeff in (terms or {}).items():
            try:
                exps = tuple(map(index, exps))
            except TypeError:
                raise PolynomialError(f"exponents must be a tuple of ints, got {exps!r}") from None
            if type(coeff) is not int:
                coeff = exact(coeff)
                rational = True
            if len(exps) != width:
                raise PolynomialError(
                    f"exponent tuple {exps} does not fit variables {self.variables}"
                )
            if exps and min(exps) < 0:
                raise PolynomialError(f"negative exponent in {exps}")
            if coeff:
                clean[exps] = coeff
        den = 1
        if rational:
            # the lcm of reduced denominators leaves numerators coprime to it
            den = math.lcm(*[c.denominator for c in clean.values()])
            clean = {e: c.numerator * (den // c.denominator) for e, c in clean.items()}
        self._num, self._den = clean, den

    @classmethod
    def _of(cls, variables: tuple, num: dict, den: int = 1) -> "Polynomial":
        """num / den for int numerators keyed by valid exponent tuples, den > 0.

        Drops zero numerators and divides out the common factor once.
        """
        poly = cls.__new__(cls)
        poly.variables = variables
        num = {e: c for e, c in num.items() if c}
        if den != 1:
            common = math.gcd(den, *num.values())  # den itself when num is empty
            if common != 1:
                num = {e: c // common for e, c in num.items()}
                den //= common
        poly._num = num
        poly._den = den
        return poly

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_string(cls, text: str, variables) -> "Polynomial":
        """Parse a sum of terms like ``3*x^2*y`` or ``-1/2 x y^3``: each term is
        optional signs, then factors joined by whitespace or one ``*``, a factor
        being a number with an optional ``/ number`` or a variable name with an
        optional ``^ number``; every term after the first starts with a sign.
        """
        variables = tuple(variables)
        if not text.strip():
            raise PolynomialError("empty polynomial text")
        terms, pos, last = {}, 0, None
        while pos < len(text):
            m = _TERM_RE.match(text, pos)
            if m[2] is None:  # no factor after the signs, or where a term stopped
                raise _fault(text, m.end(), None if m[1] else last)
            coeff, exps = (-1) ** m[1].count("-"), [0] * len(variables)
            for last in _FACTOR_RE.finditer(text, m.start(2), m.end(2)):
                number, den, name, power = last.groups()
                if name is not None and name not in variables:
                    raise PolynomialError(f"unknown variable {name!r}")
                try:
                    if name is None:
                        coeff *= Fraction(int(number), int(den)) if den else int(number)
                    else:
                        exps[variables.index(name)] += int(power or 1)
                except ZeroDivisionError:
                    raise PolynomialError(f"zero denominator in {text!r}") from None
                except ValueError:  # more digits than the interpreter's limit
                    raise PolynomialError(f"number too long in {text!r}") from None
            key = tuple(exps)
            terms[key] = terms.get(key, 0) + coeff
            pos = m.end()
        return cls(variables, terms)

    # -- structure ------------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        """A new dict of the nonzero coefficients, as Fractions."""
        den = self._den
        return {e: Fraction(c, den) for e, c in self._num.items()}

    def cleared(self) -> tuple[int, dict[tuple[int, ...], int]]:
        """(l, {exponents: int}): the least l > 0 making l*self integral, and l*self."""
        return self._den, dict(self._num)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max(map(sum, self._num), default=-1)

    def _degrees(self) -> list[int]:
        """The degree in each variable, in one pass; empty for the zero polynomial."""
        return [max(column) for column in zip(*self._num)]

    def is_homogeneous(self) -> bool:
        return len(set(map(sum, self._num))) <= 1

    def coefficient(self, exps) -> Fraction:
        return Fraction(self._num.get(tuple(exps), 0), self._den)

    def _index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise PolynomialError(f"unknown variable {name!r}") from None

    def _match(self, other: "Polynomial") -> None:
        if self.variables != other.variables:
            raise PolynomialError(
                f"variable mismatch: {self.variables} vs {other.variables}"
            )

    # -- negation -------------------------------------------------------

    def __neg__(self):
        return Polynomial._of(self.variables, {e: -c for e, c in self._num.items()}, self._den)

    # -- calculus and specialization -------------------------------------

    def partial_derivative(self, name: str) -> "Polynomial":
        idx = self._index(name)
        num = {}
        for exps, coeff in self._num.items():
            if exps[idx] == 0:
                continue
            reduced = exps[:idx] + (exps[idx] - 1,) + exps[idx + 1 :]
            num[reduced] = coeff * exps[idx]  # distinct exps give distinct reduced
        return Polynomial._of(self.variables, num, self._den)

    def evaluate(self, values: dict) -> Fraction:
        """The value at rational values of the variables that occur, as one Fraction.

        One pass per variable, on ints: for its value a/b and top its largest
        power, a table gives a^k * b^(top-k) for each power k that occurs,
        and each term's numerator is multiplied by its entry; the sum is
        over the denominator times every b^top.
        """
        den, products = self._den, list(self._num.values())
        for name, column in zip(self.variables, zip(*self._num)):
            top = max(column)
            if top:
                if name not in values:
                    raise PolynomialError(f"no value for variable {name!r}")
                value = exact(values[name])
                a, b = value.numerator, value.denominator
                powers = {k: a**k * b ** (top - k) for k in set(column)}
                products = list(map(mul, products, map(powers.__getitem__, column)))
                den *= b**top
        return Fraction(sum(products), den)

    # -- display ----------------------------------------------------------

    def __repr__(self):
        return f"Polynomial({str(self)!r}, variables={self.variables})"

    def __str__(self):
        if not self._num:
            return "0"
        parts = []
        for exps in sorted(self._num, key=lambda e: (sum(e), e), reverse=True):
            coeff = Fraction(self._num[exps], self._den)
            factors = [
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(self.variables, exps)
                if e
            ]
            magnitude = abs(coeff)
            if not factors:
                body = str(magnitude)
            elif magnitude == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(magnitude)] + factors)
            parts.append(("- " if coeff < 0 else "+ ") + body)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]


def resultant(p: Polynomial, q: Polynomial, name: str) -> Polynomial:
    """Sylvester resultant eliminating one variable.

    Both inputs need positive degree in the eliminated variable; the result
    is a polynomial in the remaining variables (the variable slot stays but
    its exponent is zero everywhere).  Each remaining variable gets a mixed
    radix one more than its degree bound in the result, and
    ``resultant_slots`` computes the coefficients in those slots from the
    stored numerators, over the denominators' product.  Past
    MAX_RESULTANT_WORK it raises UnsupportedCase.
    """
    p._match(q)
    idx = p._index(name)
    degrees_p, degrees_q = p._degrees(), q._degrees()
    m = degrees_p[idx] if degrees_p else -1
    n = degrees_q[idx] if degrees_q else -1
    if m <= 0 or n <= 0:
        raise PolynomialError(
            f"resultant needs positive degree in {name!r} (got {m} and {n})"
        )
    # one radix per variable, one more than the result's degree bound in it
    bezout = p.degree() * q.degree()
    radices = [min(n * a + m * b, bezout) + 1 for a, b in zip(degrees_p, degrees_q)]
    radices[idx] = 1
    strides = [math.prod(radices[:v]) for v in range(len(radices))]
    digits = resultant_slots(p._num, q._num, idx, strides, math.prod(radices))
    num = {}
    for place, digit in enumerate(digits):
        if digit:
            num[tuple([place // s % r for s, r in zip(strides, radices)])] = digit
    return Polynomial._of(p.variables, num, p._den**n * q._den**m)


def resultant_slots(p: dict, q: dict, idx: int, strides, slots: int) -> list[int]:
    """The coefficients of the resultant of p and q, one per slot, lowest first.

    p and q map exponent tuples to ints, of degrees m, n > 0 in exponent
    ``idx``, the eliminated one; a term's other exponents put it in slot
    sum(e[v] * strides[v]), below ``slots``.  Each remaining variable is
    thus replaced by a power of two (Kronecker substitution), each slot
    B bits wide, enough for any coefficient of the result and its sign, so
    the packed leading coefficients are nonzero, and one subresultant
    remainder sequence of the two packed coefficient lists carries every
    coefficient of the resultant as a signed base-2^B digit; the list ends
    at the last nonzero one, so it is empty for a zero resultant.  When
    (m+n)^4 * slots^2 exceeds MAX_RESULTANT_WORK, judged from the degrees
    alone, or (m+n)^3 * (slots*B/64 + BAREISS_STEP_WORDS)^2 does once the
    coefficient sizes are known, it raises UnsupportedCase before anything
    is packed.
    """
    m, n = max(map(itemgetter(idx), p)), max(map(itemgetter(idx), q))
    if (m + n) ** 4 * slots**2 > MAX_RESULTANT_WORK:
        raise UnsupportedCase(
            f"a resultant of order {m + n} over {slots} coefficient slots exceeds "
            "the supported maximum"
        )
    # each Sylvester row's coefficients sum in absolute value to |p|_1 or
    # |q|_1, so no coefficient of the result reaches their product
    norm_p = sum(map(abs, p.values()))
    norm_q = sum(map(abs, q.values()))
    bits = (norm_p**n * norm_q**m).bit_length() + 1
    words = -(-slots * bits // 64)
    if (m + n) ** 3 * (words + BAREISS_STEP_WORDS) ** 2 > MAX_RESULTANT_WORK:
        raise UnsupportedCase(
            f"a resultant of order {m + n} over {slots} coefficient slots of {bits} "
            "bits exceeds the supported maximum"
        )
    shifts = [bits * s for s in strides]
    shifts[idx] = 0  # the eliminated variable picks the list position instead

    def pack(terms: dict, degree: int) -> list[int]:
        """The packed coefficient of each power of the eliminated variable, lowest first."""
        packed = [0] * (degree + 1)
        for exps, c in terms.items():
            packed[exps[idx]] += c << sum(map(mul, exps, shifts))
        return packed

    return _signed_digits(_subresultants(pack(p, m), pack(q, n))[1], bits)


def _subresultants(a: list[int], b: list[int]) -> tuple[list[int], int]:
    """(last nonzero remainder, Res(a, b)) of the subresultant sequence of a and b.

    a and b are ascending integer coefficient lists ending in a nonzero
    entry.  For deg a >= deg b > 0 and delta = deg a - deg b, each step
    replaces (a, b) by (b, prem(a, b) / (g * h^delta)), where prem(a, b) is
    lc(b)^(delta+1) * a mod b; g and h start at 1, and after the step g is
    the leading coefficient of the new a and h becomes g^delta / h^(delta-1)
    (Collins 1967; Brown and Traub 1971; Cohen, A Course in Computational
    Algebraic Number Theory, Alg. 3.3.7).
    Every division is exact by the subresultant theorem, and the last
    nonzero remainder is a gcd of a and b up to a rational factor.  A zero
    remainder after a nonconstant b makes the resultant 0; a constant b
    ends the sequence with the resultant lc(b)^deg a / h^(deg a - 1), or 1
    when both inputs are constants.  Its sign changes once when the inputs
    are swapped to put the higher degree first, and again at each step
    where both degrees are odd.
    """
    sign = 1
    if len(a) < len(b):
        a, b = b, a
        if (len(a) - 1) * (len(b) - 1) % 2:
            sign = -1
    g = h = 1
    while len(b) > 1:
        n, lead, delta = len(b) - 1, b[-1], len(a) - len(b)
        if (len(a) - 1) * n % 2:
            sign = -sign
        # lc(b) * r less r's top coefficient times b shifted under it, which
        # cancels the top, delta + 1 times
        r = a
        for top in range(len(a) - 1, n - 1, -1):
            factor, shift = r[top], top - n
            r = [lead * c for c in r[:shift]] + [lead * c - factor * d for c, d in zip(r[shift:top], b)]
        while r and not r[-1]:
            r.pop()
        if not r:
            return b, 0
        divisor = g * h**delta
        a, b = b, [c // divisor for c in r]
        g = lead
        if delta:
            h = g**delta // h ** (delta - 1)
    degree = len(a) - 1
    return b, sign * b[0] ** degree // h ** (degree - 1) if degree else 1


def _signed_digits(value: int, bits: int) -> list[int]:
    """value's base-2^bits digits, each in [-2^(bits-1), 2^(bits-1)), lowest first."""
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    digits = []
    while value:
        digit = value & mask
        value >>= bits
        if digit >= half:  # a negative digit borrows from the next slot
            digit -= mask + 1
            value += 1
        digits.append(digit)
    return digits


def integer_rank(matrix: list[list[int]]) -> tuple[int, int]:
    """(rank, signed last pivot) of an integer matrix, by fraction-free elimination.

    Bareiss's step (1968) with a row swap where a pivot is zero, skipping a
    column with no pivot left below the rows already used: every entry
    stays a minor of the input, so each division by the previous pivot is
    exact.  The last pivot, signed by the swaps, is the determinant of a
    square matrix of full rank; it is 1 for rank 0.  The Macaulay rank of
    ``quartic`` reads the rank.
    """
    m = [row[:] for row in matrix]
    rows, cols = len(m), len(m[0]) if m else 0
    rank, sign, previous = 0, 1, 1
    for col in range(cols):
        if rank == rows:
            break
        if not m[rank][col]:
            for r in range(rank + 1, rows):
                if m[r][col]:
                    m[rank], m[r] = m[r], m[rank]
                    sign = -sign
                    break
            else:
                continue
        pivot_row = m[rank]
        pivot = pivot_row[col]
        for r in range(rank + 1, rows):
            row = m[r]
            lead = row[col]
            for c in range(col + 1, cols):
                row[c] = (row[c] * pivot - lead * pivot_row[c]) // previous
        previous = pivot
        rank += 1
    return rank, sign * previous


def _univariate_terms(p: Polynomial, name: str) -> dict[int, int]:
    """{k: a_k} with l*p = sum of a_k * name^k, l the stored denominator."""
    idx = p._index(name)
    terms = {}
    for exps, c in p._num.items():
        k = exps[idx]
        if sum(exps) != k:  # another variable has a positive exponent
            raise PolynomialError(f"{p} is not univariate in {name!r}")
        terms[k] = c
    return terms


def _dense(terms: dict[int, int] | list[int]) -> list[int]:
    """The ascending coefficient list of a univariate polynomial; a list is one already."""
    if isinstance(terms, list):
        return terms
    a = [0] * (max(terms, default=-1) + 1)
    for k, c in terms.items():
        a[k] = c
    return a


def _primitive(a: list[int]) -> list[int]:
    content = math.gcd(*a)
    return [c // content for c in a] if content > 1 else a


def _pack(a: list[int], bits: int) -> int:
    """a(2^bits), the coefficients packed into one integer (Kronecker)."""
    value = 0
    for c in reversed(a):
        value = (value << bits) + c
    return value


def _gcd_ints(a: list[int], b: list[int]) -> list[int]:
    """A gcd of two integer polynomials, up to a rational factor.

    First the heuristic gcd (GCDHEU; Char, Geddes and Gonnet 1989) of the
    primitive parts: for 2^s > 2*min(|a|_inf, |b|_inf) + 2, the signed
    base-2^s digits of gcd(a(2^s), b(2^s)) form a polynomial whose primitive
    part is the gcd when it divides a and b exactly (Geddes, Czapor and
    Labahn, Algorithms for Computer Algebra, Theorem 7.7).  A constant needs
    no division: by Cauchy's bound every root of a common factor is below
    1 + min(|a|_inf, |b|_inf) in absolute value, so a nonconstant one exceeds
    2^(s-1) at 2^s and cannot divide a gcd of values that is a single digit.
    When the check fails, s doubles, for _GCD_HEURISTIC_ATTEMPTS evaluations
    in all, and then the primitive part of the last nonzero remainder of
    ``_subresultants`` decides.
    """
    if not a or not b:
        return a or b
    a, b = _primitive(a), _primitive(b)
    bits = (2 * min(max(map(abs, a)), max(map(abs, b))) + 2).bit_length()
    for _ in range(_GCD_HEURISTIC_ATTEMPTS):
        g = _primitive(_signed_digits(math.gcd(_pack(a, bits), _pack(b, bits)), bits))
        if len(g) == 1 or _quotient(a, g) is not None and _quotient(b, g) is not None:
            return g
        bits *= 2
    return _primitive(_subresultants(a, b)[0])


def _quotient(a: list[int], b: list[int]) -> list[int] | None:
    """a / b for a nonzero a, or None when b does not divide a in Z[x]."""
    n, lead = len(b) - 1, b[-1]
    a = a[:]
    q = [0] * (len(a) - n)
    for shift in reversed(range(len(q))):
        c, r = divmod(a[shift + n], lead)
        if r:
            return None
        if c:
            q[shift] = c
            for i in range(n):
                a[shift + i] -= c * b[i]
    return None if any(a[:n]) else q


def rational_roots(p: Polynomial, name: str) -> list[Fraction]:
    """All rational roots of a univariate polynomial, ascending (``roots_of_terms``)."""
    terms = _univariate_terms(p, name)
    if not terms:
        raise PolynomialError("the zero polynomial has every root")
    return roots_of_terms(terms)


def roots_of_terms(terms: dict[int, int]) -> list[Fraction]:
    """The rational roots, ascending, of the nonzero sum of a_k * x^k for {k: a_k}.

    The squarefree part p / gcd(p, p'), which has the same roots and a
    smaller constant term when p has repeated roots, supplies the candidates:
    num/den is a root iff sum a_i * num^i * den^(n-i) is 0.  gcd(p, p') is
    ``_gcd_ints``'s: the heuristic gcd when it divides both exactly, else
    the remainder sequence of p and p', which is charged to MAX_GCD_WORK
    first, from the sparse terms; past it this raises UnsupportedCase.  A
    constant gcd leaves p as its own squarefree part.
    """
    roots = set()
    low = min(terms)
    if low:
        roots.add(Fraction(0))
        terms = {k - low: c for k, c in terms.items()}
    derivative = {k - 1: k * c for k, c in terms.items() if k}
    _check_gcd_work([terms, derivative])
    coeffs = _dense(terms)
    g = _gcd_ints(coeffs, _dense(derivative))
    if len(g) > 1:
        # a primitive g divides coeffs over Q, hence over Z (Gauss)
        coeffs = _quotient(coeffs, _primitive(g))
    coeffs = _primitive(coeffs)
    n = len(coeffs) - 1
    if n > 0:
        lead = abs(coeffs[-1])
        # Cauchy's bound: every root has |root| <= reach / lead
        reach = lead + max(abs(c) for c in coeffs[:-1])
        denominators, numerators = divisors(lead), divisors(coeffs[0])
        for den in denominators:
            scaled = [c * den ** (n - i) for i, c in enumerate(coeffs)]
            for num in numerators:
                if num * lead > den * reach:
                    break
                for x in (num, -num):
                    total = 0
                    for c in reversed(scaled):
                        total = total * x + c
                    if total == 0:
                        roots.add(Fraction(x, den))
    return sorted(roots)


def _check_gcd_work(polys: list[dict[int, int] | list[int]]) -> None:
    """Raise UnsupportedCase if the remainder sequences of a gcd of polys cost too much.

    Each input is its sparse terms {k: a_k} or its dense ascending
    coefficients, ending in a nonzero one.  Only the degree and the 2-norm
    of each are read, so nothing is densified before the charge.  The running gcd is
    charged with the smallest degree and the largest norm folded in so far,
    each fold as the MAX_GCD_WORK comment says.
    """
    work, degree, norm, degrees = 0, None, 0, []
    for terms in polys:
        if not terms:  # a zero polynomial leaves the gcd as it is
            continue
        if isinstance(terms, dict):
            n, values = max(terms), terms.values()
        else:
            n, values = len(terms) - 1, terms
        bits = sum(map(mul, values, values)).bit_length() // 2 + 1
        degrees.append(n)
        if degree is not None:
            high, low = max(degree, n), min(degree, n)
            words = (n * norm + degree * bits) // 64 + 1
            work += ((high - low + 1) * high + low * low) * (words**2 + GCD_STEP_WORDS**2)
        degree = n if degree is None else min(degree, n)
        norm = max(norm, bits)
    if work > MAX_GCD_WORK:
        raise UnsupportedCase(f"a gcd of degrees {sorted(degrees)} exceeds the supported maximum")


def gcd_terms(polys: list[dict[int, int] | list[int]]) -> dict[int, int]:
    """The gcd of univariate polynomials as the {k: a_k} of a primitive one, a_n > 0.

    The inputs are as ``_check_gcd_work`` reads them, and are charged by it
    first; {} when all are zero.  A single nonzero input is only made
    primitive; otherwise the running gcd starts as the first one and is
    folded with each next one by ``_gcd_ints``: the heuristic gcd, kept
    when it divides both exactly, else the subresultant sequence.
    Nothing more is densified or folded once the running gcd is constant.
    """
    polys = [t for t in polys if t]
    _check_gcd_work(polys)
    if not polys:
        return {}
    terms = polys[0]
    if len(polys) > 1:
        terms = _dense(terms)
        for other in polys[1:]:
            if len(terms) == 1:  # a constant: the gcd is 1 whatever follows
                break
            terms = _gcd_ints(terms, _dense(other))
    if isinstance(terms, list):
        terms = {k: c for k, c in enumerate(terms) if c}
    content = math.gcd(*terms.values())
    if terms[max(terms)] < 0:
        content = -content
    return {k: c // content for k, c in terms.items()}
