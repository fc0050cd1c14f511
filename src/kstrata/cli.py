"""Command-line front end with human-readable and JSON output.

Each ``_cmd_*`` imports the modules it runs, so a one-shot call loads only
what its subcommand needs: ``classify`` loads ``signature``, ``classifier``
and ``genus_one`` and never the polynomial arithmetic behind
``quartic-verify``, and a signature that fails validation stops
``classify`` and ``breakdown`` before the classifier is loaded.  Outside
``quartic-verify``, whose results are dataclasses, no call imports
``dataclasses`` or ``inspect``: the other commands' results are
``record.Record`` types.  Building the parser reads no file: the
``--construction`` choices are written out, and only ``quartic-verify``
reads the construction data.  ``json`` is imported by the ``--json``
output alone.

``main`` writes stdout once per call, after the command has finished, so a
failing call writes nothing there.  Each ``_cmd_*`` returns the payload for
``--json`` and the lines for the human form; ``classify --orders-file`` is
``_classify_batch``, which parses and classifies every line before it
renders.  It parses each distinct line text once, classifies each distinct
stratum once and renders each distinct report body once, working on
canonical triples (k, genus, orders) and report bodies throughout:
signature and report objects are built only for single calls.
"""

from __future__ import annotations

import argparse
import re
import sys

from .errors import StratumError
from .signature import StratumSignature, check_index, parse_triple, read_orders, triple_text, validate


def _orders(text: str) -> tuple[int, ...]:
    try:
        return read_orders(text)
    except ValueError as exc:
        raise StratumError(f"bad orders list {text!r}: {exc}") from None


def _pairs(text: str) -> tuple[tuple[int, int], ...]:
    pairs = []
    for chunk in text.split(";") if text.strip() else ():
        try:
            wa, wb = map(int, chunk.split(","))
        except ValueError:
            raise StratumError(f"bad pair {chunk.strip()!r}; expected 'wa,wb'") from None
        pairs.append((wa, wb))
    return tuple(pairs)


def _signature_from_args(args):
    return validate(args.k, args.genus, _orders(args.orders))


# field values written as they are, without a recursive call
_SCALARS = (int, float, str)


def _to_json(value):
    """The JSON form of a command result; the CLI's one serializer.

    Signatures become their text form and result objects (records and
    ``quartic``'s dataclasses) the fields in their ``vars()``, with
    ``"type"`` set from a descriptor's ``tag``; a field left at its default
    of None, the class attribute of the same name, is omitted.  Tuples and
    lists become lists, dicts recurse; a value with no ``__dict__`` is
    written as it is.
    """
    if isinstance(value, (tuple, list)):
        return [_to_json(item) for item in value]
    if isinstance(value, dict):
        return {key: _to_json(item) for key, item in value.items()}
    if isinstance(value, StratumSignature):
        return str(value)
    fields = getattr(value, "__dict__", None)
    if fields is None:
        return value
    cls = type(value)
    out = {
        key: item if isinstance(item, _SCALARS) else _to_json(item)
        for key, item in fields.items()
        # None is left out where it is the field's default: the class
        # attribute of the same name, which a field with no default lacks
        if item is not None or getattr(cls, key, 0) is not None
    }
    tag = getattr(value, "tag", None)
    if tag is not None:
        out["type"] = tag
    return out


def _describe(descriptor) -> str:
    d = _to_json(descriptor)
    kind = d.pop("type")
    if not d:
        return kind
    body = ", ".join(f"{key}={value}" for key, value in sorted(d.items()))
    return f"{kind}({body})"


def _report_lines(report) -> list[str]:
    return [str(report.signature), *_body_lines(report)]


def _body_lines(report) -> list[str]:
    """A report's human lines after its signature line."""
    lines = [f"components: {report.count}"]
    for descriptor in report.components:
        lines.append(f"  - {_describe(descriptor)}")
    if report.empty_reason:
        lines.append(f"reason: {report.empty_reason}")
    if report.note:
        lines.append(f"note: {report.note}")
    return lines


def _json_text(payload) -> str:
    import json  # on the JSON paths only: a human call never loads it

    return json.dumps(_to_json(payload), indent=2, sort_keys=True)


def _lines_text(lines) -> str:
    return "".join(f"{line}\n" for line in lines)


# the signature of a report body while it is encoded: json writes it as
# _BLANK_JSON, and no other string in a report holds a control character
_BLANK = "\0"
_BLANK_JSON = '"\\u0000"'


def _json_halves(payload, depth) -> list[str]:
    """``_json_text(payload)`` nested ``depth`` levels deep, split at ``_BLANK``.

    JSON strings hold no raw newline, so indenting every line after the
    first by two spaces per level nests the text as the encoder would.
    """
    text = _json_text(payload).replace("\n", "\n" + "  " * depth)
    halves = text.split(_BLANK_JSON)
    if len(halves) != 2:
        raise RuntimeError(f"report body {text!r} holds {_BLANK_JSON} {len(halves) - 1} times")
    return halves


def _classify_batch(args) -> str:
    """The whole output of ``classify --orders-file``, in one string.

    Strata are canonical triples (k, genus, orders) and reports are bodies,
    the report less its signature, from ``classifier.report_body``; no
    signature or report object is built for a line.  Three memos, which live
    for this call only, do each distinct piece of work once.  ``by_text``
    maps a stripped line text to its stratum, so a repeated text costs one
    lookup; ``by_triple`` maps a triple to its place among the distinct
    strata, each classified once; ``by_body`` maps a body to its place among
    the distinct bodies, each rendered once.  A stratum's text is its
    signature text, made once from its triple, spliced into its body's text.
    """
    if (args.k, args.genus, args.orders) != (None, None, None):
        raise StratumError("--orders-file takes no --k, --genus or --orders")
    from . import classifier

    by_text, by_triple, by_body = {}, {}, {}
    strata, bodies, order = [], [], []  # strata: (triple, body index)
    with open(args.orders_file, encoding="utf-8") as handle:
        for raw in handle:
            raw = raw.strip()
            if not raw or raw.startswith("#"):
                continue
            i = by_text.get(raw)
            if i is None:
                triple = parse_triple(raw)
                i = by_text[raw] = by_triple.setdefault(triple, len(strata))
                if i == len(strata):
                    body = classifier.report_body(*triple)
                    b = by_body.setdefault(body, len(bodies))
                    if b == len(bodies):
                        bodies.append(body)
                    strata.append((triple, b))
            order.append(i)
    reports = [classifier.ComponentReport(_BLANK, *body) for body in bodies]
    if not args.json:
        tails = [_lines_text(_body_lines(report)) for report in reports]
        texts = [f"{triple_text(*triple)}\n{tails[b]}" for triple, b in strata]
        return "".join(texts[i] for i in order)
    if not strata:
        return _json_text({"reports": []}) + "\n"
    # a signature text holds no character that JSON escapes
    halves = [_json_halves(report, 2) for report in reports]
    texts = [f'"{triple_text(*triple)}"'.join(halves[b]) for triple, b in strata]
    head, tail = _json_halves({"reports": [_BLANK]}, 0)
    return head + ",\n    ".join(texts[i] for i in order) + tail + "\n"


def _cmd_classify(args):
    sig = _signature_from_args(args)
    from . import classifier

    report = classifier.primitive_nonhyperelliptic_components(sig)
    return report, _report_lines(report)


def _cmd_breakdown(args):
    sig = _signature_from_args(args)
    from . import classifier

    rows = classifier.full_component_breakdown(sig)
    payload = {
        "signature": sig,
        "hyperelliptic_components": "OutOfScope",
        "rows": [
            {"divisor": row.divisor, "reduced": row.signature, "report": row.report}
            for row in rows
        ],
    }
    lines = [str(sig)]
    for row in rows:
        lines.append(f"d={row.divisor}: {row.signature}")
        lines.extend("  " + line for line in _body_lines(row.report))
    return payload, lines


def _cmd_genus1(args):
    from . import genus_one

    sig = _signature_from_args(args)
    comps = genus_one.components(sig)
    lines = [str(sig)] + [
        f"rotation {c.rotation} (torsion {c.torsion_order}):"
        f" primitive={c.primitive} hyperelliptic={c.hyperelliptic}"
        for c in comps
    ]
    return {"signature": sig, "components": comps}, lines


def _cmd_merge(args):
    from . import degeneration, genus_one

    sig = _signature_from_args(args)
    if args.rotation is not None:
        outcome = genus_one.merge(sig, args.rotation, args.i, args.j)
        lines = [
            f"merge entries {args.i},{args.j} at rotation {args.rotation}: "
            + ("feasible" if outcome.feasible else f"infeasible ({outcome.reason})")
        ]
        if outcome.result is not None:
            lines.append(f"result: {outcome.result}")
        if outcome.rotations:
            lines.append(f"rotations: {','.join(map(str, outcome.rotations))}")
        return {"signature": sig, **_to_json(outcome)}, lines
    # raises on genus zero and on bad indices, before merge_result could
    same_sign = degeneration.merge_feasible_same_sign(sig, args.i, args.j)
    result = degeneration.merge_result(sig, args.i, args.j)
    simple = "unknown" if same_sign is None else same_sign
    payload = {
        "signature": sig,
        "result": result,
        "feasible": True,
        "simple_merge": simple,
        "reason": "",
    }
    lines = [
        f"merge entries {args.i},{args.j}: {result}",
        f"simple merge (same-sign pair): {simple}",
    ]
    return payload, lines


def _cmd_split(args):
    from . import degeneration, genus_one

    sig = _signature_from_args(args)
    check_index(sig, args.index)
    z = sig.orders[args.index]
    if (args.a is None) != (args.b is None):
        raise StratumError("--a and --b must be given together")
    if args.rotation is not None and args.a is None:
        raise StratumError("--rotation needs --a and --b")
    if args.a is None:
        pairs = degeneration.enumerate_zero_splits(sig.k, z)
        payload = {
            "signature": sig,
            "zero": z,
            "splits": [
                {"a": a, "b": b, "marked_point": a == 0 or b == 0} for a, b in pairs
            ],
        }
        lines = [f"splits of {z} on {sig}:"] + [
            f"  ({a},{b})" + (" [marked point]" if 0 in (a, b) else "")
            for a, b in pairs
        ]
        return payload, lines
    payload = {"signature": sig, "a": args.a, "b": args.b}
    if args.rotation is not None:
        ok = genus_one.split_to_sphere(sig, args.rotation, args.index, args.a, args.b)
        payload.update(rotation=args.rotation, reachable=ok)
        return payload, [f"split to sphere ({args.a},{args.b}): {ok}"]
    result = degeneration.split_result(sig, args.index, args.a, args.b)
    payload["result"] = result
    return payload, [f"split result: {result}"]


def _cmd_arf(args):
    from . import framing

    pairs = _pairs(args.pairs)
    if args.sbar is None:
        value = framing.arf(pairs)
        label = "arf"
    else:
        value = framing.relative_arf(args.sbar, pairs)
        label = "relative_arf"
    return {label: value}, [f"{label}: {value}"]


def _cmd_spin(args):
    from . import framing

    sig = _signature_from_args(args)
    values = framing.SymplecticFramingValues.from_signature(sig, _pairs(args.pairs))
    value = framing.spin(values)
    payload = {"signature": sig, "boundary": values.boundary, "spin": value}
    return payload, [f"spin: {value}"]


def _cmd_prong(args):
    from . import prong

    if args.rest is not None and args.rotation is None:
        raise StratumError("--rest needs --rotation")
    if args.torsion is not None and (args.rotation, args.b) != (None, None):
        raise StratumError("--torsion takes no --b or --rotation")
    if args.torsion is None and args.b is None:
        kind = "local" if args.rotation is None else "global"
        raise StratumError(f"--b is required for {kind} prong classes")
    if args.rotation is not None:
        rest = _orders(args.rest) if args.rest else ()
        count = prong.global_classes_genus_one_split(args.k, args.rotation, args.a, args.b, rest)
        payload = {
            "k": args.k,
            "rotation": args.rotation,
            "a": args.a,
            "b": args.b,
            "rest": rest,
            "global_classes": count,
        }
        return payload, [f"global prong classes: {count}"]
    if args.torsion is not None:
        image = prong.prong_hom_image(args.k, args.a, args.torsion)
        payload = {"k": args.k, "a": args.a, "torsion": args.torsion, **_to_json(image)}
        return payload, [f"delta: {image.delta}", f"index: {image.index}"]
    count = prong.local_classes(args.k, args.a, args.b)
    payload = {"k": args.k, "a": args.a, "b": args.b, "local_classes": count}
    return payload, [f"local prong classes: {count}"]


def _cmd_cylinder(args):
    from . import degeneration

    orders = _orders(args.orders)
    has = degeneration.genus0_has_cylinder(args.k, orders)
    simple = degeneration.genus0_has_simple_cylinder(args.k, orders)
    payload = {
        "k": args.k,
        "orders": sorted(orders, reverse=True),
        "cylinder": has,
        "simple_cylinder": simple,
    }
    return payload, [f"cylinder: {has}", f"simple cylinder: {simple}"]


def _cmd_quartic_verify(args):
    from . import quartic

    report = quartic.verify_sporadic(args.construction)
    lines = [f"construction {report.construction}:"] + [
        f"  {'PASS' if c.passed else 'FAIL'} {c.name} (expected {c.expected}, got {c.actual})"
        for c in report.checks
    ]
    return {**_to_json(report), "all_passed": report.all_passed}, lines


def _add_signature_arguments(parser, with_genus=True):
    parser.add_argument("--k", type=int, required=True, help="differential order")
    if with_genus:
        parser.add_argument("--genus", type=int, required=True)
    parser.add_argument(
        "--orders", required=True, help="comma-separated singularity orders"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kstrata",
        description="Count components of strata of k-differentials and verify "
        "the sporadic cubic constructions, in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="primitive nonhyperelliptic component count")
    p.add_argument("--k", type=int)
    p.add_argument("--genus", type=int)
    p.add_argument("--orders")
    p.add_argument("--orders-file", help="file of signature lines 'k:K g:G orders:(..)'")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("breakdown", help="component breakdown over divisors of k")
    _add_signature_arguments(p)
    p.set_defaults(func=_cmd_breakdown)

    p = sub.add_parser("genus1", help="rotation-number components of a genus-one stratum")
    _add_signature_arguments(p, with_genus=False)
    p.set_defaults(func=_cmd_genus1, genus=1)

    p = sub.add_parser("merge", help="collide two singularities")
    _add_signature_arguments(p)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--rotation", type=int, help="genus-one component rotation")
    p.set_defaults(func=_cmd_merge)

    p = sub.add_parser("split", help="split a zero into two singularities")
    _add_signature_arguments(p)
    p.add_argument("--index", type=int, required=True, help="index of the zero")
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--rotation", type=int, help="genus-one component rotation")
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("arf", help="Arf invariant of framing values")
    p.add_argument("--pairs", required=True, help="semicolon-separated 'wa,wb' pairs")
    p.add_argument("--sbar", type=int, help="arc value for the relative invariant")
    p.set_defaults(func=_cmd_arf)

    p = sub.add_parser("spin", help="spin of an odd-k framing on a signature")
    _add_signature_arguments(p)
    p.add_argument("--pairs", required=True, help="semicolon-separated 'wa,wb' pairs")
    p.set_defaults(func=_cmd_spin)

    p = sub.add_parser("prong", help="prong matching counts")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int)
    p.add_argument("--torsion", type=int, help="torsion order e for the image record")
    p.add_argument("--rotation", type=int, help="rotation for global classes")
    p.add_argument("--rest", help="comma-separated remaining orders")
    p.set_defaults(func=_cmd_prong)

    p = sub.add_parser("cylinder", help="genus-zero cylinder criteria")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--orders", required=True)
    p.set_defaults(func=_cmd_cylinder)

    p = sub.add_parser("quartic-verify", help="verify a sporadic cubic construction")
    # the keys of quartic's construction data file, written out so that building
    # the parser reads no file; test_the_parser_lists_every_construction keeps them equal
    p.add_argument("--construction", required=True, choices=("OddArf_h0_0", "OddArf_h0_1"))
    p.set_defaults(func=_cmd_quartic_verify)

    for sp in sub.choices.values():
        sp.add_argument("--json", action="store_true")
        # let comma-separated negative order lists pass as option values
        sp._negative_number_matcher = re.compile(r"^-\d[\d,.\-]*$")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    batch = args.command == "classify" and args.orders_file
    if args.command == "classify" and not batch:
        if args.k is None or args.genus is None or args.orders is None:
            parser.error("classify needs --k, --genus and --orders (or --orders-file)")
    try:
        if batch:
            text = _classify_batch(args)
        else:
            payload, lines = args.func(args)
            text = _json_text(payload) + "\n" if args.json else _lines_text(lines)
        sys.stdout.write(text)
        return 0
    except (ValueError, OSError) as exc:
        # the domain errors (StratumError, PolynomialError, SeriesError, ...)
        # are all ValueErrors raised on bad input
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
