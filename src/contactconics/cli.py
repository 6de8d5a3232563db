"""Command-line front end.

Commands operate on the bundled worked example and the four case
lattices; curve arguments accept component names of the example (Q, L1,
L2, L3, Cbar, C0, C1, C2), projective forms in T, X, Z, or affine charts
in t, x (optionally written as an equation `lhs = rhs`).

Each command is one row of `_COMMANDS`: its name, help line, arguments,
handler and renderer, from which `_build_parser` builds its subcommand.

Identical invocations produce byte-identical reports.  Exit codes:
0 success, 1 usage or input-grammar errors, 2 precondition violations,
3 integrity failures, 141 standard output closed by its reader.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from . import fixtures, lattice
from .curves import (
    PlaneCurve,
    arrangement_fingerprint,
    contact_conic_type,
    cremona_transform,
    is_weak_contact,
)
from .errors import IntegrityError, ParseError, PreconditionError
from .heights import height
from .parsing import MAX_PAIR_BEZOUT, parse_bipoly, parse_section, parse_triform
from .poly import BiPoly, TriForm
from .surface import Section, classify_fibers

_TYPE_DESCRIPTIONS = {
    1: "cusp only",
    2: "one node",
    3: "one node and the cusp",
    4: "both nodes",
    5: "both nodes and the cusp",
    6: "no singular points",
}

_QUARTIC_ALIASES = {"Q", "phiQ"}


EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE: what a shell reports for a process SIGPIPE ended


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: A003 - argparse API
        raise _UsageError(message)


def _curve_from_chart(chart: BiPoly) -> PlaneCurve:
    if chart.is_zero():
        raise PreconditionError("the zero polynomial does not define a curve")
    return PlaneCurve(TriForm.homogenize(chart, chart.total_degree))


def _resolve_curve(text: str) -> tuple[str, PlaneCurve]:
    """A curve argument: an example component name, a form, or a chart.

    The text is parsed as typed, the right side of `left = right` with the
    left side and `=` blanked, so a refusal's position counts from the
    argument's first character.
    """
    stripped = text.strip()
    if stripped in _QUARTIC_ALIASES:
        return "Q", fixtures.load_worked_example().quartic
    if stripped in fixtures.COMPONENT_FIELDS:
        return stripped, fixtures.load_worked_example().curve(stripped)
    if "=" in text:
        left_text, _, right_text = text.partition("=")
        right_in_place = " " * (len(left_text) + 1) + right_text
        chart = parse_bipoly(left_text) - parse_bipoly(right_in_place)
        return stripped, _curve_from_chart(chart)
    if any(upper in text for upper in "TXZ"):
        return stripped, PlaneCurve(parse_triform(text))
    return stripped, _curve_from_chart(parse_bipoly(text))


def _resolve_section(text: str) -> tuple[str, Section]:
    example = fixtures.load_worked_example()
    stripped = text.strip()
    if stripped == "O" or stripped in fixtures.SECTION_NAMES:
        return stripped, example.section(stripped)
    x, y = parse_section(stripped)  # not None: "O" is handled above
    return stripped, Section(example.model, x, y)


def _read_input(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise PreconditionError(f"cannot read input file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Commands: each `_cmd_*` returns its payload, the structured output, and the
# `_text_*` of the same command renders the text output from the payload alone.


def _cmd_verify_example(args: argparse.Namespace) -> dict:
    verified = fixtures.load_worked_example().verified
    return {"command": "verify-example", "verified": list(verified), "count": len(verified)}


def _text_verify_example(payload: dict) -> str:
    lines = [f"ok: {label}" for label in payload["verified"]]
    lines.append(f"verified {payload['count']} identities")
    return "\n".join(lines)


def _cmd_fibers(args: argparse.Namespace) -> dict:
    fibers = classify_fibers(fixtures.load_worked_example().model)
    rows = [
        {"location": str(f.location), "kodaira": f.kodaira, "components": f.m_v, "euler": f.euler}
        for f in fibers
    ]
    return {
        "command": "fibers",
        "fibers": rows,
        # classify_fibers has checked that all Euler numbers sum to 12
        "residual_euler": 12 - sum(f.euler for f in fibers),
        "euler_total": 12,
    }


def _text_fibers(payload: dict) -> str:
    lines = ["singular fibers of the worked-example surface:"]
    for row in payload["fibers"]:
        lines.append(
            f"  t = {row['location']}: type {row['kodaira']}, "
            f"{row['components']} components, euler {row['euler']}"
        )
    lines.append(f"residual euler contribution: {payload['residual_euler']}")
    lines.append(f"euler total: {payload['euler_total']}")
    return "\n".join(lines)


def _cmd_height(args: argparse.Namespace) -> dict:
    left_name, left = _resolve_section(args.left)
    right_name, right = (left_name, left) if args.right is None else _resolve_section(args.right)
    value = height(left, right)
    return {"command": "height", "left": left_name, "right": right_name, "value": str(value)}


def _text_height(payload: dict) -> str:
    return f"<{payload['left']}, {payload['right']}> = {payload['value']}"


_GROUP_OP_ARITY = {"add": 2, "double": 1, "negate": 1}


def _cmd_group_op(args: argparse.Namespace) -> dict:
    expected = _GROUP_OP_ARITY[args.op]
    if len(args.sections) != expected:
        raise _UsageError(
            f"group-op {args.op} takes {expected} section argument(s), "
            f"got {len(args.sections)}"
        )
    names, sections = zip(*(_resolve_section(text) for text in args.sections))
    if args.op == "add":
        result = sections[0] + sections[1]
    elif args.op == "double":
        result = 2 * sections[0]
    else:
        result = -sections[0]
    return {
        "command": "group-op",
        "op": args.op,
        "operands": list(names),
        "result": "O" if result.is_zero else {"x": result.x.to_str(), "y": result.y.to_str()},
    }


def _text_group_op(payload: dict) -> str:
    operands, result = payload["operands"], payload["result"]
    description = {
        "add": " + ".join(operands),
        "double": f"[2]{operands[0]}",
        "negate": f"-{operands[0]}",
    }[payload["op"]]
    if result == "O":
        return f"op: {description}\nresult = O"
    return f"op: {description}\nx = {result['x']}\ny = {result['y']}"


def _cmd_enumerate(args: argparse.Namespace) -> dict:
    case = lattice.CASES[args.case]
    target = lattice.target_height(case, args.type)
    payload = {"command": "enumerate", "case": case.name, "type": args.type}
    if target is None:
        return {**payload, "realizable": False, "count": 0, "classes": []}
    vectors = lattice.vectors_for_type(case, args.type)
    return {
        **payload,
        "realizable": True,
        "height": str(target),
        "count": len(vectors),
        "classes": [list(v) for v in vectors],
        "labels": [case.combination_label(v) for v in vectors],
    }


def _text_enumerate(payload: dict) -> str:
    conic_type = payload["type"]
    head = f"case {payload['case']}, type {conic_type}"
    if not payload["realizable"]:
        return f"{head}: not realizable (a required singular fiber lies at infinity)"
    plural = "class" if payload["count"] == 1 else "classes"
    lines = [
        f"{head} ({_TYPE_DESCRIPTIONS[conic_type]}): "
        f"target height {payload['height']}, {payload['count']} conic {plural}"
    ]
    for vector, label in zip(payload["classes"], payload["labels"]):
        lines.append(f"  ({', '.join(str(c) for c in vector)})  {label}")
    return "\n".join(lines)


def _cmd_main_theorem(args: argparse.Namespace) -> dict:
    return {
        "command": "main-theorem",
        "types": list(lattice.CONIC_TYPES),
        "rows": {name: list(counts) for name, counts in lattice.main_theorem_rows()},
    }


def _text_main_theorem(payload: dict) -> str:
    rows = payload["rows"]
    width = max(len(f"case {name}") for name in rows)
    lines = ["type".ljust(width) + "".join(f"{t:>4}" for t in payload["types"])]
    for name, counts in rows.items():
        lines.append(f"case {name}".ljust(width) + "".join(f"{c:>4}" for c in counts))
    return "\n".join(lines)


def _multiplicity(multiplicity: int) -> dict:
    return {"multiplicity": multiplicity, "parity": "even" if multiplicity % 2 == 0 else "odd"}


def _cmd_weak_contact(args: argparse.Namespace) -> dict:
    quartic_name, quartic = _resolve_curve(args.quartic)
    conic_name, conic = _resolve_curve(args.conic)
    certificate = is_weak_contact(quartic, conic)
    payload = {
        "command": "weak-contact",
        "quartic": quartic_name,
        "conic": conic_name,
        "weak_contact": certificate.is_weak,
        "shear": certificate.shear,
        "classes": [
            {"factor": cls.factor, "degree": cls.degree, **_multiplicity(cls.multiplicity)}
            for cls in certificate.classes
        ],
        "infinity": [
            {"point": str(contact.point), **_multiplicity(contact.multiplicity)}
            for contact in certificate.infinity
        ],
        "bezout_total": certificate.bezout_total,
    }
    if certificate.is_weak:
        try:
            payload["type"] = contact_conic_type(quartic, conic)
        except PreconditionError:
            pass  # types are defined only against a two-node one-cusp quartic
    return payload


def _text_weak_contact(payload: dict) -> str:
    lines = [
        f"quartic: {payload['quartic']}",
        f"conic: {payload['conic']}",
        f"weak contact: {'true' if payload['weak_contact'] else 'false'}",
        f"certificate: shear x -> x + {payload['shear']}*t",
    ]
    classes, infinity = payload["classes"], payload["infinity"]
    if classes:
        lines.append("intersection classes (affine):")
        for cls in classes:
            lines.append(
                f"  {cls['factor']} (degree {cls['degree']}): "
                f"multiplicity {cls['multiplicity']} ({cls['parity']})"
            )
    if infinity:
        lines.append("intersection points at infinity:")
        for point in infinity:
            lines.append(
                f"  {point['point']}: multiplicity {point['multiplicity']} ({point['parity']})"
            )
    affine_total = sum(cls["degree"] * cls["multiplicity"] for cls in classes)
    infinity_total = sum(point["multiplicity"] for point in infinity)
    lines.append(
        f"audit: affine {affine_total} + infinity {infinity_total} = {payload['bezout_total']}"
    )
    if "type" in payload:
        lines.append(f"type: {payload['type']} ({_TYPE_DESCRIPTIONS[payload['type']]})")
    return "\n".join(lines)


def _cmd_cremona(args: argparse.Namespace) -> dict:
    if args.curve is not None and args.input is not None:
        raise _UsageError("give the curve either inline or via --input, not both")
    if args.curve is None and args.input is None:
        raise _UsageError("cremona needs a curve (inline argument or --input file)")
    text = args.curve if args.curve is not None else _read_input(args.input).strip()
    curve = PlaneCurve(parse_triform(text))
    if args.triangle is None:
        triangle = fixtures.load_worked_example().triangle
    else:
        parts = [part.strip() for part in args.triangle.split(";")]
        if len(parts) != 3:
            raise _UsageError("--triangle needs three lines separated by ';'")
        triangle = tuple(PlaneCurve(parse_triform(part)) for part in parts)
    image = cremona_transform(curve, triangle)
    return {
        "command": "cremona",
        "input": str(curve),
        "triangle": "; ".join(str(line) for line in triangle),
        "image": str(image),
    }


def _text_cremona(payload: dict) -> str:
    return "\n".join(f"{key}: {payload[key]}" for key in ("input", "triangle", "image"))


def _cmd_zariski(args: argparse.Namespace) -> dict:
    report = lattice.zariski_pair_report(args.pair)
    return {
        "command": "zariski",
        "pair": report.pair_id,
        "left": report.left,
        "right": report.right,
        "swapped": report.swapped,
        "sections": [report.section_1, report.section_2],
        "checks": [check._asdict() for check in report.checks],
        "fingerprints_equal": report.fingerprints_equal,
        "conclusion": report.conclusion,
    }


def _text_zariski(payload: dict) -> str:
    # the report's own renderer, which the recorded report bytes pin
    return lattice.ZariskiReport(
        payload["pair"], payload["left"], payload["right"], payload["swapped"],
        *payload["sections"],
        tuple(lattice.PairCheck(**check) for check in payload["checks"]),
        payload["fingerprints_equal"], payload["conclusion"],
    ).render()


def _cmd_fingerprint(args: argparse.Namespace) -> dict:
    if args.input is not None:
        if args.names:
            raise _UsageError(
                "give arrangement names or --input with one curve per line, not both"
            )
        curve_lines = [
            line.strip() for line in _read_input(args.input).splitlines() if line.strip()
        ]
        if len(curve_lines) < 2:
            raise PreconditionError("an arrangement needs at least two curves")
        curves = tuple(_resolve_curve(line)[1] for line in curve_lines)
        high, next_high = sorted((c.degree for c in curves), reverse=True)[:2]
        if high * next_high > MAX_PAIR_BEZOUT:
            raise PreconditionError(
                f"curves of degrees {high} and {next_high} meet in {high * next_high} "
                f"points, which exceeds the input budget of {MAX_PAIR_BEZOUT} per pair"
            )
        return {
            "command": "fingerprint",
            "input": args.input,
            "arrangements": {args.input: arrangement_fingerprint(curves)},
        }
    if not args.names:
        raise _UsageError("fingerprint needs arrangement names or --input")
    example = fixtures.load_worked_example()
    # one entry per distinct name, in argument order
    prints = {
        name: arrangement_fingerprint(example.arrangement(name))
        for name in dict.fromkeys(args.names)
    }
    payload = {"command": "fingerprint", "arrangements": prints}
    if len(args.names) == 2:
        first, second = args.names
        payload["equal"] = prints[first] == prints[second]
    return payload


def _text_fingerprint(payload: dict) -> str:
    prints = payload["arrangements"]
    if "input" in payload:
        return f"arrangement from {payload['input']}:\n{prints[payload['input']]}"
    lines = []
    for name, fingerprint in prints.items():
        lines.append(f"arrangement {name} ({' + '.join(fixtures.ARRANGEMENTS[name])}):")
        lines.append(fingerprint)
    if "equal" in payload:
        lines.append(f"fingerprints equal: {'true' if payload['equal'] else 'false'}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Parser assembly


def _arg(*flags: str, **options: object) -> tuple[tuple[str, ...], dict]:
    return flags, options


# One row a command: its name, help line, arguments, handler and renderer.
# Rows hold only private functions: perfbench's tracer wraps the public ones
# by rebinding module attributes, which a reference kept in a row would miss.
_COMMANDS = (
    ("verify-example", "re-verify every stored identity of the worked example", (),
     _cmd_verify_example, _text_verify_example),
    ("fibers", "classify the singular fibers of the worked-example surface", (),
     _cmd_fibers, _text_fibers),
    ("height", "height pairing of two sections (one section for its height)", (
        _arg("left", help="section: O, P0..P3, or (x, y)"),
        _arg("right", nargs="?", default=None, help="second section (default: left)"),
    ), _cmd_height, _text_height),
    ("group-op", "group law on sections: add, double, negate", (
        _arg("op", choices=tuple(_GROUP_OP_ARITY)),
        _arg("sections", nargs="+", help="section names or literals"),
    ), _cmd_group_op, _text_group_op),
    ("enumerate", "enumerate weak contact conic classes of one case and type", (
        _arg("--case", required=True, choices=lattice.CASE_NAMES),
        _arg("--type", required=True, type=int, choices=lattice.CONIC_TYPES),
    ), _cmd_enumerate, _text_enumerate),
    ("main-theorem", "the full count table over all cases and types", (),
     _cmd_main_theorem, _text_main_theorem),
    ("weak-contact", "test a conic for weak contact with a quartic", (
        _arg("--quartic", default="Q", help="quartic curve (default: the example quartic)"),
        _arg("--conic", required=True, help="conic to test"),
    ), _cmd_weak_contact, _text_weak_contact),
    ("cremona", "standard quadratic transformation of a curve", (
        _arg("curve", nargs="?", default=None, help="projective form in T, X, Z"),
        _arg("--input", default=None, help="file with the form"),
        _arg("--triangle", default=None,
             help="three fundamental lines separated by ';' (default: example triangle)"),
    ), _cmd_cremona, _text_cremona),
    ("zariski", "lattice hypothesis report for an arrangement pair", (
        _arg("--pair", required=True, help="pair id, e.g. B11-B21"),
    ), _cmd_zariski, _text_zariski),
    ("fingerprint", "combinatorial fingerprint of arrangements", (
        _arg("names", nargs="*", help="arrangement names, e.g. B11 B21"),
        _arg("--input", default=None, help="file with one curve per line"),
    ), _cmd_fingerprint, _text_fingerprint),
)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="contactconics",
        description="Weak contact conics of a two-node one-cusp quartic.",
    )
    common = _Parser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "structured"), default="text",
        help="output format (default: text)",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, help_line, arguments, handler, render in _COMMANDS:
        command = commands.add_parser(name, parents=[common], help=help_line)
        for flags, options in arguments:
            command.add_argument(*flags, **options)
        command.set_defaults(handler=handler, render=render)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        status = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull so the interpreter's
        # final flush cannot raise again, and exit as a process ended by
        # SIGPIPE would.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return status


def _run(argv: Sequence[str] | None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        payload = args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except PreconditionError as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return 2
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return 3
    if args.format == "structured":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(args.render(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
