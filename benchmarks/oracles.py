"""Output checks against references that do not come from the code under test.

Each checker returns ``None`` when the output is right and a one-line
reason when it is not.  They run after timing; only the resultant check
imports sympy.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import inputs

# -- classification ----------------------------------------------------------


def classify_count(k: int, genus: int, orders, table) -> int:
    """Component count by rules written down independently of the classifier.

    Genus 0: one component iff gcd(k, orders) = 1.  Genus 1: rotations
    r = d/e over divisors e of d = gcd(orders), minus r = d when exactly two
    singularities; keep the primitive (gcd(k, r) = 1) non-hyperelliptic
    ones.  Genus >= 2: the acceptance suite's second-opinion table, then
    the parity rules.
    """
    orders = tuple(sorted(orders, reverse=True))
    if genus == 0:
        return int(math.gcd(k, *orders) == 1)
    if genus == 1:
        d = math.gcd(*orders)
        rotations = {d // e for e in range(1, d + 1) if d % e == 0}
        if len(orders) == 2:
            rotations.discard(d)
        ascending = tuple(sorted(orders))
        kept = 0
        for r in rotations:
            hyperelliptic = ascending in (
                (-r, -r, r, r), (-r, -r, 2 * r), (-2 * r, r, r), (-2 * r, 2 * r),
            )
            kept += math.gcd(k, r) == 1 and not hyperelliptic
        return kept
    poles = tuple(o for o in orders if o < 0)
    zeros = tuple(o for o in orders if o > 0)
    if k == 1 and poles == (-1,):
        return 0
    if (k, genus, orders) in table:
        return table[(k, genus, orders)]
    if k == 1 and genus >= 3 and poles == (-1, -1) and all(z % 2 == 0 for z in zeros):
        return 2
    if k % 2 == 1 and all(o % 2 == 0 for o in orders):
        return 2
    return 1


def _result(code: int, out: bytes, err: bytes, want_code: int = 0):
    if code != want_code:
        return f"exit code {code}, expected {want_code}: {err[:200]!r}"
    if want_code == 0 and err:
        return f"unexpected stderr {err[:200]!r}"
    return None


def check_batch_json(output, signatures, counts):
    code, out, err = output
    bad = _result(code, out, err)
    if bad:
        return bad
    text = out.decode("utf-8")
    payload = json.loads(text)
    if json.dumps(payload, indent=2, sort_keys=True) + "\n" != text:
        return "JSON does not round-trip byte-identical"
    reports = payload.get("reports")
    if set(payload) != {"reports"} or len(reports) != len(signatures):
        return f"expected {len(signatures)} reports"
    for line, report, (k, genus, orders), want in zip(
        range(1, len(reports) + 1), reports, signatures, counts
    ):
        sig = inputs.signature_line(k, genus, sorted(orders, reverse=True))
        if report["signature"] != sig:
            return f"line {line}: signature {report['signature']!r}, expected {sig!r}"
        if report["count"] != want or len(report["components"]) != want:
            return f"line {line} {sig}: count {report['count']}, expected {want}"
    return None


def check_batch_human(output, signatures, counts):
    code, out, err = output
    bad = _result(code, out, err)
    if bad:
        return bad
    lines = out.decode("utf-8").splitlines()
    heads = [line for line in lines if line.startswith("k:")]
    got = [int(line.split(":", 1)[1]) for line in lines if line.startswith("components: ")]
    want_heads = [inputs.signature_line(k, g, sorted(o, reverse=True)) for k, g, o in signatures]
    if heads != want_heads:
        return "signature lines differ from the input"
    if got != list(counts):
        first = next(
            (i for i, (a, b) in enumerate(zip(got, counts)) if a != b), min(len(got), len(counts))
        )
        return f"components: lines differ first at report {first + 1}"
    return None


def check_golden(output, golden: bytes):
    code, out, err = output
    bad = _result(code, out, err)
    if bad:
        return bad
    if out != golden:
        at = next((i for i, (a, b) in enumerate(zip(out, golden)) if a != b), min(len(out), len(golden)))
        return f"stdout differs from the golden file at byte {at}"
    return None


def check_usage_error(output):
    code, out, err = output
    if code != 2:
        return f"exit code {code}, expected 2"
    if out or not err.startswith(b"error:"):
        return "expected empty stdout and an 'error:' line on stderr"
    return None


# -- quartics ----------------------------------------------------------------


def check_smooth(certificate):
    if certificate.status != "smooth" or certificate.point is not None:
        return f"smooth by construction, got {certificate.status}: {certificate.detail}"
    return None


def check_nodal(certificate, f: dict):
    """A singular verdict with a projective point where every partial vanishes."""
    if certificate.status != "singular":
        return f"nodal by construction, got {certificate.status}: {certificate.detail}"
    point = certificate.point
    if point is None or len(point) != 3 or not any(point):
        return f"singular verdict without a projective point: {point!r}"
    for i, name in enumerate(inputs.XYZ):
        value = inputs.peval(inputs.pderiv(f, i), point)
        if value != 0:
            return f"d/d{name} is {value} at the returned point {tuple(map(str, point))}"
    return None


def _series_terms(text: str) -> dict[int, Fraction]:
    terms = {}
    for part in text.split(" + "):
        coeff, _, power = part.partition("*x^")
        if coeff != "0":
            terms[int(power)] = Fraction(coeff)
    return terms


def check_sporadic(report, name: str, data: dict):
    """Every check passes and reports exactly what the data file expects."""
    if report.construction != name:
        return f"report is for {report.construction!r}"
    expected = data["expected"]
    want = {
        "smoothness": "smooth",
        "cubic_vanishing_order": str(expected["cubic_order"]),
        "tangent_contact_order": str(expected["contact_order"]),
    }
    if "quadratic" in data:
        want["quadratic_vanishing_order"] = str(expected["quadratic_order"])
    names = ["smoothness", "affine_form_matches_quartic", "branch_series",
             "cubic_vanishing_order", "tangent_contact_order"]
    if "quadratic" in data:
        names.insert(4, "quadratic_vanishing_order")
    checks = {c.name: c for c in report.checks}
    if [c.name for c in report.checks] != names:
        return f"checks {[c.name for c in report.checks]}, expected {names}"
    for check in report.checks:
        if not check.passed or check.expected != check.actual:
            return f"check {check.name} failed: expected {check.expected}, got {check.actual}"
        if check.name in want and check.actual != want[check.name]:
            return f"check {check.name} reports {check.actual}, data file says {want[check.name]}"
    quartic = inputs.parse(data["quartic"], inputs.XYZ)
    affine = {e[:2]: c for e, c in quartic.items()}  # z = 1
    if inputs.parse(checks["affine_form_matches_quartic"].actual, inputs.XY) != affine:
        return "affine form differs from the quartic at z = 1"
    coefficients = {int(n): Fraction(v) for n, v in data["branch_coefficients"].items()}
    if _series_terms(checks["branch_series"].actual) != coefficients:
        return "branch series differs from the data file's coefficients"
    return None


# -- growth ladders ------------------------------------------------------------


def check_resultant(result, p: dict, q: dict):
    """Equal to sympy's resultant in y, sign included."""
    import sympy

    x, y = sympy.symbols("x y")

    def expr(poly):
        return sum(sympy.Rational(c.numerator, c.denominator) * x**i * y**j for (i, j), c in poly.items())

    reference = sympy.Poly(sympy.resultant(expr(p), expr(q), y), x).as_dict()
    want = {i: Fraction(int(c.p), int(c.q)) for (i,), c in reference.items() if c}
    if any(e[1] for e in result.terms):
        return "resultant still involves y"
    got = {e[0]: c for e, c in result.terms.items()}
    if got != want:
        return f"resultant differs from sympy's (degree {max(got, default=-1)} vs {max(want, default=-1)})"
    return None


def check_series(phi, f: dict, precision: int):
    """phi(0) = 0, N + 1 coefficients, and f(x, phi(x)) = 0 mod x^(N+1)."""
    coefficients = list(phi.coefficients)
    if len(coefficients) != precision + 1 or coefficients[0] != 0:
        return f"expected {precision + 1} coefficients with phi(0) = 0"
    residual = inputs.series_residual(f, coefficients, precision)
    first = next((n for n, c in enumerate(residual) if c), None)
    if first is not None:
        return f"f(x, phi) has a nonzero x^{first} coefficient {residual[first]}"
    return None


def has_subset_sum(values, target: int) -> bool:
    """Bitset subset-sum: bit s + offset is set iff some sub-multiset sums to s."""
    offset = -sum(v for v in values if v < 0)
    bits = 1 << offset
    for v in values:
        bits |= bits << v if v > 0 else bits >> -v
    index = target + offset
    return index >= 0 and bool(bits >> index & 1)


def check_cylinders(answer, k: int, orders, planted: bool):
    """With distinct orders the simple test equals the plain subset-sum test."""
    reference = has_subset_sum(orders, -k)
    if reference != planted:
        return f"benchmark input error: planted {planted}, subset-sum says {reference}"
    if tuple(answer) != (reference, reference):
        return f"(cylinder, simple) = {tuple(answer)}, expected ({reference}, {reference})"
    return None


def check_roots(roots, expected):
    if list(roots) != list(expected):
        return f"roots {[str(r) for r in roots]}, expected {[str(r) for r in expected]}"
    return None
