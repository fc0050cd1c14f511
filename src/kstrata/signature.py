"""Stratum signatures of k-differentials and arithmetic predicates on them.

A k-differential on a genus g surface has zeros and poles whose orders form
an integer partition of k(2g-2).  The triple (k, genus, order multiset) names
a stratum; everything else in this package is computed from that triple.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import SignatureError, UnsupportedCase

# divisors is O(sqrt(n)): 0.5 s at the cap on a 2-vCPU Xeon guest
MAX_DIVISOR_INPUT = 10**13

_SIGNATURE_RE = re.compile(
    r"^\s*k:\s*(-?\d+)\s+g:\s*(-?\d+)\s+orders:\s*\(\s*([-\d,\s]*)\)\s*$"
)


@dataclass(frozen=True)
class StratumSignature:
    """A stratum of k-differentials: (k, genus, singularity orders).

    ``orders`` is stored in descending order and treated as a multiset.
    Positive entries are zeros, negative entries poles, and zero entries
    marked points (accepted only where an operation says so).
    """

    k: int
    genus: int
    orders: tuple[int, ...]

    @property
    def zeros(self) -> tuple[int, ...]:
        return tuple(o for o in self.orders if o > 0)

    @property
    def poles(self) -> tuple[int, ...]:
        return tuple(o for o in self.orders if o < 0)

    def __str__(self) -> str:
        return format_signature(self)


def validate(k, genus, orders) -> StratumSignature:
    """Build the canonical signature, checking the order-sum identity.

    Raises SignatureError when k <= 0, genus < 0, or the orders do not sum
    to k(2*genus - 2).
    """
    return _canonical(int(k), int(genus), tuple(int(o) for o in orders))


def _canonical(k: int, genus: int, orders: tuple[int, ...]) -> StratumSignature:
    """``validate`` on values that are already ints."""
    check_k(k)
    if genus < 0:
        raise SignatureError(f"genus must be non-negative, got {genus}")
    expected = k * (2 * genus - 2)
    total = sum(orders)
    if total != expected:
        raise SignatureError(
            f"orders {orders} sum to {total}, expected k(2g-2) = {expected}"
        )
    return StratumSignature(k, genus, tuple(sorted(orders, reverse=True)))


def format_signature(sig: StratumSignature) -> str:
    """Canonical text form ``k:<k> g:<g> orders:(o1,o2,...)``, descending."""
    body = ",".join(str(o) for o in sig.orders)
    return f"k:{sig.k} g:{sig.genus} orders:({body})"


def parse_signature(text: str) -> StratumSignature:
    """Parse the text form of a signature; tolerant of whitespace."""
    m = _SIGNATURE_RE.match(text)
    if m is None:
        raise SignatureError(f"unparseable signature: {text!r}")
    body = m.group(3).strip()
    try:
        # int() refuses the empty, doubled-sign and space-joined entries the
        # regex lets through: "(2,)", "(--2)", "(1 1)"; and any integer
        # longer than the interpreter's digit limit
        k, genus = int(m.group(1)), int(m.group(2))
        orders = tuple(map(int, body.split(","))) if body else ()
    except ValueError:
        raise SignatureError(f"unparseable signature: {text!r}") from None
    return _canonical(k, genus, orders)


def check_k(k: int) -> None:
    """Raise SignatureError unless the differential order k is positive."""
    if k < 1:
        raise SignatureError(f"differential order k must be positive, got {k}")


def check_index(sig: StratumSignature, i: int) -> None:
    """Raise SignatureError unless i indexes an entry of ``sig.orders``."""
    if not 0 <= i < len(sig.orders):
        raise SignatureError(f"index {i} out of range")


def check_pair(sig: StratumSignature, i: int, j: int) -> None:
    """Raise SignatureError unless i and j index two distinct entries."""
    n = len(sig.orders)
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise SignatureError(f"bad indices ({i}, {j}) for {n} entries")


def divisors(n: int) -> tuple[int, ...]:
    """Positive divisors of |n|, ascending.

    Raises UnsupportedCase when |n| exceeds MAX_DIVISOR_INPUT.
    """
    n = abs(n)
    if n == 0:
        return ()
    if n > MAX_DIVISOR_INPUT:
        raise UnsupportedCase(
            f"{n} exceeds the supported maximum {MAX_DIVISOR_INPUT} for listing divisors"
        )
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


def gcd_orders(sig: StratumSignature) -> int:
    """gcd of the nonzero orders; 0 when every order is zero.

    Marked points are ignored, consistent with gcd(x, 0) = x.
    """
    return math.gcd(*sig.orders)


def imprimitive_divisors(sig: StratumSignature) -> set[int]:
    """All m > 1 dividing k and every order.

    For each such m the stratum carries components of m-th powers of
    (k/m)-differentials; the stratum has primitive components only when
    this set leaves room (see the classifier's divisor breakdown).
    """
    return {
        m
        for m in divisors(sig.k)
        if m > 1 and all(o % m == 0 for o in sig.orders)
    }


def is_finite_area(sig: StratumSignature) -> bool:
    """True iff every order exceeds -k (no pole has infinite-area cone)."""
    return all(o > -sig.k for o in sig.orders)


def is_invisible_pole(k: int, order: int) -> bool:
    """True iff order = -k + d for some divisor d of k with 1 <= d.

    Such a pole lifts to a regular point or marked point on the holonomy
    cover, hence "invisible".
    """
    if order >= 0:
        raise SignatureError(f"expected a pole (negative order), got {order}")
    d = order + k
    return d >= 1 and k % d == 0


def is_connected_type(sig: StratumSignature) -> bool:
    """Whether an odd-k stratum is of connected type.

    Disconnected type means every order is even, or the zero multiset is
    (a) or (a, a) with gcd(a, k) = 1 and every remaining entry an invisible
    pole.  Holonomy covers of primitive differentials in connected-type
    strata land in connected strata of abelian differentials.
    """
    if sig.k % 2 == 0:
        raise SignatureError("connected type is defined for odd k only")
    if all(o % 2 == 0 for o in sig.orders):
        return False
    zeros = sig.zeros
    single = len(zeros) == 1
    double = len(zeros) == 2 and zeros[0] == zeros[1]
    if (single or double) and math.gcd(zeros[0], sig.k) == 1:
        rest = [o for o in sig.orders if o <= 0]
        if all(o < 0 and is_invisible_pole(sig.k, o) for o in rest):
            return False
    return True


@dataclass(frozen=True)
class HyperellipticPattern:
    """A matched primitive hyperelliptic signature shape for k != 1."""

    shape: str  # "(2m,2l)", "(2m,l,l)" or "(m,m,l,l)"
    m: int
    l: int


def _coprime_with(k: int, m: int, l: int) -> bool:
    return math.gcd(math.gcd(abs(m), abs(l)), k) == 1


def hyperelliptic_signature_pattern(sig: StratumSignature):
    """Match the signature against the primitive hyperelliptic shapes.

    For k != 1 the primitive hyperelliptic components have order multisets
    (2m, 2l), (2m, l, l) or (m, m, l, l) with gcd(m, l, k) = 1.  Returns the
    matched HyperellipticPattern or None.  The k = 1 shape list is a
    different classification and is not supported here.
    """
    if sig.k == 1:
        raise UnsupportedCase("the k = 1 hyperelliptic signature list is not supported")
    orders = sig.orders
    if any(o == 0 for o in orders):
        return None
    n = len(orders)
    if n == 2:
        a, b = orders
        if a % 2 == 0 and b % 2 == 0 and _coprime_with(sig.k, a // 2, b // 2):
            return HyperellipticPattern("(2m,2l)", a // 2, b // 2)
    elif n == 3:
        for i in range(3):
            rest = [orders[j] for j in range(3) if j != i]
            if rest[0] == rest[1] and orders[i] % 2 == 0:
                m, l = orders[i] // 2, rest[0]
                if _coprime_with(sig.k, m, l):
                    return HyperellipticPattern("(2m,l,l)", m, l)
    elif n == 4:
        a, b, c, d = orders
        if a == b and c == d and _coprime_with(sig.k, a, c):
            return HyperellipticPattern("(m,m,l,l)", a, c)
    return None
