"""Stratum signatures of k-differentials: parsing, validation, divisors.

A k-differential on a genus g surface has zeros and poles whose orders form
an integer partition of k(2g-2).  The triple (k, genus, order multiset) names
a stratum; everything else in this package is computed from that triple.
"""

from __future__ import annotations

import math
import re
from operator import index

from .errors import SignatureError, UnsupportedCase
from .record import Record

# divisors is O(sqrt(n)): 0.5 s at the cap on a 2-vCPU Xeon guest
MAX_DIVISOR_INPUT = 10**13

# the regex only splits a line into k, genus and the orders list; int()
# reads each value, as argparse and ``read_orders`` read the command line
_SIGNATURE_RE = re.compile(r"^\s*k:\s*(\S+)\s+g:\s*(\S+)\s+orders:\s*\(([^)]*)\)\s*$")


class StratumSignature(Record):
    """A stratum of k-differentials: (k, genus, singularity orders).

    ``orders`` is stored in descending order and treated as a multiset.
    Positive entries are zeros, negative entries poles, and zero entries
    marked points (accepted only where an operation says so).  The
    constructor takes every value through ``integer``, checks the order-sum
    identity and sorts the orders, so a signature is canonical however it
    is built.
    """

    k: int
    genus: int
    orders: tuple[int, ...]

    def __init__(self, k: int, genus: int, orders: tuple[int, ...]) -> None:
        fields = vars(self)
        k, genus = integer(k, "k"), integer(genus, "genus")
        orders = tuple([integer(o, "an order") for o in orders])
        fields["k"], fields["genus"], fields["orders"] = _canonical(k, genus, orders)

    def __str__(self) -> str:
        """Canonical text form ``k:<k> g:<g> orders:(o1,o2,...)``, descending."""
        return triple_text(self.k, self.genus, self.orders)


def validate(k, genus, orders) -> StratumSignature:
    """The canonical signature of (k, genus, orders): the constructor itself.

    Raises SignatureError when a value is not an integer, k <= 0, genus < 0,
    or the orders do not sum to k(2*genus - 2).
    """
    return StratumSignature(k, genus, orders)


def integer(value, what: str) -> int:
    """``value`` by ``operator.index``: a float, fraction or string raises SignatureError."""
    try:
        return index(value)
    except TypeError:
        raise SignatureError(f"{what} must be an integer, got {value!r}") from None


def _canonical(k: int, genus: int, orders: tuple[int, ...]) -> tuple[int, int, tuple[int, ...]]:
    """The checked triple (k, genus, descending orders) of ints; see ``validate``."""
    check_k(k)
    if genus < 0:
        raise SignatureError(f"genus must be non-negative, got {genus}")
    expected = k * (2 * genus - 2)
    total = sum(orders)
    if total != expected:
        raise SignatureError(
            f"orders {orders} sum to {total}, expected k(2g-2) = {expected}"
        )
    return k, genus, tuple(sorted(orders, reverse=True))


def triple_text(k: int, genus: int, orders: tuple[int, ...]) -> str:
    """The text form, ``str`` of a signature, of the canonical triple (k, genus, orders)."""
    return f"k:{k} g:{genus} orders:({','.join(map(str, orders))})"


def read_orders(text: str) -> tuple[int, ...]:
    """The integers of a comma-separated list, each read by ``int``; blank text is ().

    Raises ValueError on an entry ``int`` refuses: an empty one, as in
    "2," or "1,,1", a doubled sign, two numbers joined by a space, and any
    integer longer than the interpreter's digit limit.
    """
    return tuple(map(int, text.split(","))) if text.strip() else ()


def parse_triple(text: str) -> tuple[int, int, tuple[int, ...]]:
    """The canonical triple (k, genus, orders) of a signature's text form.

    Tolerant of whitespace; raises SignatureError as ``validate`` does, and
    on text that is not a signature.
    """
    m = _SIGNATURE_RE.match(text)
    if m is None:
        raise SignatureError(f"unparseable signature: {text!r}")
    try:
        k, genus, orders = int(m.group(1)), int(m.group(2)), read_orders(m.group(3))
    except ValueError:
        raise SignatureError(f"unparseable signature: {text!r}") from None
    return _canonical(k, genus, orders)


def check_k(k: int) -> None:
    """Raise SignatureError unless the differential order k is positive."""
    if k < 1:
        raise SignatureError(f"differential order k must be positive, got {k}")


def check_index(sig: StratumSignature, i: int) -> None:
    """Raise SignatureError unless the integer i indexes an entry of ``sig.orders``."""
    if not 0 <= integer(i, "an index") < len(sig.orders):
        raise SignatureError(f"index {i} out of range")


def check_pair(sig: StratumSignature, i: int, j: int) -> None:
    """Raise SignatureError unless the integers i and j index two distinct entries."""
    n = len(sig.orders)
    i, j = integer(i, "an index"), integer(j, "an index")
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise SignatureError(f"bad indices ({i}, {j}) for {n} entries")


def divisors(n: int) -> tuple[int, ...]:
    """Positive divisors of the integer |n|, ascending.

    Raises UnsupportedCase when |n| exceeds MAX_DIVISOR_INPUT.
    """
    n = abs(integer(n, "n"))
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


def imprimitive_divisors(sig: StratumSignature) -> set[int]:
    """All m > 1 dividing k and every order.

    For each such m the stratum carries components of m-th powers of
    (k/m)-differentials, one row of the classifier's divisor breakdown.
    """
    return {m for m in divisors(math.gcd(sig.k, *sig.orders)) if m > 1}
