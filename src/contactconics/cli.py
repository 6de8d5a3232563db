"""Command-line front end.

Commands operate on the bundled worked example and the four case
lattices; curve arguments accept component names of the example (Q, L1,
L2, L3, Cbar, C0, C1, C2), projective forms in T, X, Z, or affine charts
in t, x (optionally written as an equation `lhs = rhs`).

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
from .heights import HeightContext, height
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
    """A curve argument: an example component name, a form, or a chart."""
    stripped = text.strip()
    if stripped in _QUARTIC_ALIASES:
        return "Q", fixtures.load_worked_example().quartic
    example_names = {"L1", "L2", "L3", "Cbar", "C0", "C1", "C2"}
    if stripped in example_names:
        return stripped, fixtures.load_worked_example().curve(stripped)
    if "=" in stripped:
        left_text, _, right_text = stripped.partition("=")
        chart = parse_bipoly(left_text) - parse_bipoly(right_text)
        return stripped, _curve_from_chart(chart)
    if any(upper in stripped for upper in "TXZ"):
        return stripped, PlaneCurve(parse_triform(stripped))
    return stripped, _curve_from_chart(parse_bipoly(stripped))


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
    except OSError as exc:
        raise PreconditionError(f"cannot read input file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Command implementations: each returns (payload, text)


def _cmd_verify_example(args: argparse.Namespace) -> tuple[dict, str]:
    example = fixtures.load_worked_example()
    lines = [f"ok: {label}" for label in example.verified]
    lines.append(f"verified {len(example.verified)} identities")
    payload = {
        "command": "verify-example",
        "verified": list(example.verified),
        "count": len(example.verified),
    }
    return payload, "\n".join(lines)


def _cmd_fibers(args: argparse.Namespace) -> tuple[dict, str]:
    example = fixtures.load_worked_example()
    collection = classify_fibers(example.model)
    lines = ["singular fibers of the worked-example surface:"]
    rows = []
    for fiber in collection:
        location = str(fiber.location)
        lines.append(
            f"  t = {location}: type {fiber.kodaira}, "
            f"{fiber.m_v} components, euler {fiber.euler}"
        )
        rows.append(
            {
                "location": location,
                "kodaira": fiber.kodaira,
                "components": fiber.m_v,
                "euler": fiber.euler,
            }
        )
    euler_total = sum(f.euler for f in collection) + collection.residual_euler
    lines.append(f"residual euler contribution: {collection.residual_euler}")
    lines.append(f"euler total: {euler_total}")
    payload = {
        "command": "fibers",
        "fibers": rows,
        "residual_euler": collection.residual_euler,
        "euler_total": euler_total,
    }
    return payload, "\n".join(lines)


def _cmd_height(args: argparse.Namespace) -> tuple[dict, str]:
    example = fixtures.load_worked_example()
    left_name, left = _resolve_section(args.left)
    right_name, right = (
        _resolve_section(args.right) if args.right is not None else (left_name, left)
    )
    context = HeightContext.for_model(example.model)
    value = height(left, right, context)
    text = f"<{left_name}, {right_name}> = {value}"
    payload = {
        "command": "height",
        "left": left_name,
        "right": right_name,
        "value": str(value),
    }
    return payload, text


def _cmd_group_op(args: argparse.Namespace) -> tuple[dict, str]:
    expected = {"add": 2, "double": 1, "negate": 1}[args.op]
    if len(args.sections) != expected:
        raise _UsageError(
            f"group-op {args.op} takes {expected} section argument(s), "
            f"got {len(args.sections)}"
        )
    resolved = [_resolve_section(text) for text in args.sections]
    if args.op == "add":
        result = resolved[0][1] + resolved[1][1]
        description = f"{resolved[0][0]} + {resolved[1][0]}"
    elif args.op == "double":
        result = 2 * resolved[0][1]
        description = f"[2]{resolved[0][0]}"
    else:
        result = -resolved[0][1]
        description = f"-{resolved[0][0]}"
    lines = [f"op: {description}"]
    if result.is_zero:
        lines.append("result = O")
        coordinates = None
    else:
        lines.append(f"x = {result.x.to_str()}")
        lines.append(f"y = {result.y.to_str()}")
        coordinates = {"x": result.x.to_str(), "y": result.y.to_str()}
    payload = {
        "command": "group-op",
        "op": args.op,
        "operands": [name for name, _ in resolved],
        "result": coordinates if coordinates is not None else "O",
    }
    return payload, "\n".join(lines)


def _cmd_enumerate(args: argparse.Namespace) -> tuple[dict, str]:
    case = lattice.CASES[args.case]
    conic_type = args.type
    target = lattice.target_height(case, conic_type)
    if target is None:
        text = (
            f"case {case.name}, type {conic_type}: not realizable "
            f"(a required singular fiber lies at infinity)"
        )
        payload = {
            "command": "enumerate",
            "case": case.name,
            "type": conic_type,
            "realizable": False,
            "count": 0,
            "classes": [],
        }
        return payload, text
    vectors = lattice.vectors_for_type(case, conic_type)
    plural = "class" if len(vectors) == 1 else "classes"
    lines = [
        f"case {case.name}, type {conic_type} ({_TYPE_DESCRIPTIONS[conic_type]}): "
        f"target height {target}, {len(vectors)} conic {plural}"
    ]
    for vector in vectors:
        rendered = ", ".join(str(c) for c in vector)
        lines.append(f"  ({rendered})  {case.combination_label(vector)}")
    payload = {
        "command": "enumerate",
        "case": case.name,
        "type": conic_type,
        "realizable": True,
        "height": str(target),
        "count": len(vectors),
        "classes": [list(v) for v in vectors],
        "labels": [case.combination_label(v) for v in vectors],
    }
    return payload, "\n".join(lines)


def _cmd_main_theorem(args: argparse.Namespace) -> tuple[dict, str]:
    rows = lattice.main_theorem_rows()
    width = max(len(f"case {name}") for name, _ in rows)
    header = "type".ljust(width) + "".join(f"{t:>4}" for t in lattice.CONIC_TYPES)
    lines = [header]
    for name, counts in rows:
        lines.append(
            f"case {name}".ljust(width) + "".join(f"{c:>4}" for c in counts)
        )
    payload = {
        "command": "main-theorem",
        "types": list(lattice.CONIC_TYPES),
        "rows": {name: list(counts) for name, counts in rows},
    }
    return payload, "\n".join(lines)


def _cmd_weak_contact(args: argparse.Namespace) -> tuple[dict, str]:
    quartic_name, quartic = _resolve_curve(args.quartic)
    conic_name, conic = _resolve_curve(args.conic)
    certificate = is_weak_contact(quartic, conic)
    lines = [
        f"quartic: {quartic_name}",
        f"conic: {conic_name}",
        f"weak contact: {'true' if certificate.is_weak else 'false'}",
        f"certificate: shear x -> x + {certificate.shear}*t",
    ]
    class_rows = []
    if certificate.classes:
        lines.append("intersection classes (affine):")
        for cls in certificate.classes:
            parity = "even" if cls.multiplicity % 2 == 0 else "odd"
            lines.append(
                f"  {cls.factor} (degree {cls.degree}): "
                f"multiplicity {cls.multiplicity} ({parity})"
            )
            class_rows.append(
                {
                    "factor": cls.factor,
                    "degree": cls.degree,
                    "multiplicity": cls.multiplicity,
                    "parity": parity,
                }
            )
    infinity_rows = []
    if certificate.infinity:
        lines.append("intersection points at infinity:")
        for contact in certificate.infinity:
            parity = "even" if contact.multiplicity % 2 == 0 else "odd"
            lines.append(
                f"  {contact.point}: multiplicity {contact.multiplicity} ({parity})"
            )
            infinity_rows.append(
                {
                    "point": str(contact.point),
                    "multiplicity": contact.multiplicity,
                    "parity": parity,
                }
            )
    affine_total = sum(c.degree * c.multiplicity for c in certificate.classes)
    infinity_total = sum(c.multiplicity for c in certificate.infinity)
    lines.append(
        f"audit: affine {affine_total} + infinity {infinity_total} "
        f"= {certificate.bezout_total}"
    )
    payload = {
        "command": "weak-contact",
        "quartic": quartic_name,
        "conic": conic_name,
        "weak_contact": certificate.is_weak,
        "shear": certificate.shear,
        "classes": class_rows,
        "infinity": infinity_rows,
        "bezout_total": certificate.bezout_total,
    }
    if certificate.is_weak:
        conic_type = contact_conic_type(quartic, conic)
        lines.append(
            f"type: {conic_type} ({_TYPE_DESCRIPTIONS[conic_type]})"
        )
        payload["type"] = conic_type
    return payload, "\n".join(lines)


def _cmd_cremona(args: argparse.Namespace) -> tuple[dict, str]:
    if args.curve is not None and args.input is not None:
        raise _UsageError("give the curve either inline or via --input, not both")
    if args.curve is None and args.input is None:
        raise _UsageError("cremona needs a curve (inline argument or --input file)")
    text = args.curve if args.curve is not None else _read_input(args.input).strip()
    curve = PlaneCurve(parse_triform(text))
    if args.triangle is None:
        triangle = fixtures.load_worked_example().triangle
        triangle_text = "; ".join(str(line) for line in triangle)
    else:
        parts = [part.strip() for part in args.triangle.split(";")]
        if len(parts) != 3:
            raise _UsageError("--triangle needs three lines separated by ';'")
        triangle = tuple(PlaneCurve(parse_triform(part)) for part in parts)
        triangle_text = "; ".join(str(line) for line in triangle)
    image = cremona_transform(curve, triangle)
    lines = [
        f"input: {curve}",
        f"triangle: {triangle_text}",
        f"image: {image}",
    ]
    payload = {
        "command": "cremona",
        "input": str(curve),
        "triangle": triangle_text,
        "image": str(image),
    }
    return payload, "\n".join(lines)


def _cmd_zariski(args: argparse.Namespace) -> tuple[dict, str]:
    report = lattice.zariski_pair_report(args.pair)
    payload = {
        "command": "zariski",
        "pair": report.pair_id,
        "left": report.left,
        "right": report.right,
        "swapped": report.swapped,
        "sections": [report.section_1, report.section_2],
        "checks": [
            {"name": check.name, "passed": check.passed, "detail": check.detail}
            for check in report.checks
        ],
        "fingerprints_equal": report.fingerprints_equal,
        "conclusion": report.conclusion,
    }
    return payload, report.render()


def _cmd_fingerprint(args: argparse.Namespace) -> tuple[dict, str]:
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
        fingerprint = arrangement_fingerprint(curves)
        text = "\n".join([f"arrangement from {args.input}:", fingerprint])
        payload = {
            "command": "fingerprint",
            "arrangements": {args.input: fingerprint},
        }
        return payload, text
    if not args.names:
        raise _UsageError("fingerprint needs arrangement names or --input")
    example = fixtures.load_worked_example()
    lines = []
    prints: dict[str, str] = {}
    for name in args.names:
        components = " + ".join(fixtures.ARRANGEMENTS.get(name, ()))
        fingerprint = arrangement_fingerprint(example.arrangement(name))
        prints[name] = fingerprint
        lines.append(f"arrangement {name} ({components}):")
        lines.append(fingerprint)
    payload = {"command": "fingerprint", "arrangements": prints}
    if len(args.names) == 2:
        first, second = args.names
        equal = prints[first] == prints[second]
        lines.append(f"fingerprints equal: {'true' if equal else 'false'}")
        payload["equal"] = equal
    return payload, "\n".join(lines)


# ---------------------------------------------------------------------------
# Parser assembly


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="contactconics",
        description="Weak contact conics of a two-node one-cusp quartic.",
    )
    common = _Parser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "structured"),
        default="text",
        help="output format (default: text)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser(
        "verify-example",
        parents=[common],
        help="re-verify every stored identity of the worked example",
    ).set_defaults(handler=_cmd_verify_example)

    commands.add_parser(
        "fibers",
        parents=[common],
        help="classify the singular fibers of the worked-example surface",
    ).set_defaults(handler=_cmd_fibers)

    height_parser = commands.add_parser(
        "height",
        parents=[common],
        help="height pairing of two sections (one section for its height)",
    )
    height_parser.add_argument("left", help="section: O, P0..P3, or (x, y)")
    height_parser.add_argument(
        "right", nargs="?", default=None, help="second section (default: left)"
    )
    height_parser.set_defaults(handler=_cmd_height)

    group_parser = commands.add_parser(
        "group-op",
        parents=[common],
        help="group law on sections: add, double, negate",
    )
    group_parser.add_argument("op", choices=("add", "double", "negate"))
    group_parser.add_argument("sections", nargs="+", help="section names or literals")
    group_parser.set_defaults(handler=_cmd_group_op)

    enumerate_parser = commands.add_parser(
        "enumerate",
        parents=[common],
        help="enumerate weak contact conic classes of one case and type",
    )
    enumerate_parser.add_argument("--case", required=True, choices=lattice.CASE_NAMES)
    enumerate_parser.add_argument(
        "--type", required=True, type=int, choices=lattice.CONIC_TYPES
    )
    enumerate_parser.set_defaults(handler=_cmd_enumerate)

    commands.add_parser(
        "main-theorem",
        parents=[common],
        help="the full count table over all cases and types",
    ).set_defaults(handler=_cmd_main_theorem)

    weak_parser = commands.add_parser(
        "weak-contact",
        parents=[common],
        help="test a conic for weak contact with a quartic",
    )
    weak_parser.add_argument(
        "--quartic", default="Q", help="quartic curve (default: the example quartic)"
    )
    weak_parser.add_argument("--conic", required=True, help="conic to test")
    weak_parser.set_defaults(handler=_cmd_weak_contact)

    cremona_parser = commands.add_parser(
        "cremona",
        parents=[common],
        help="standard quadratic transformation of a curve",
    )
    cremona_parser.add_argument(
        "curve", nargs="?", default=None, help="projective form in T, X, Z"
    )
    cremona_parser.add_argument("--input", default=None, help="file with the form")
    cremona_parser.add_argument(
        "--triangle",
        default=None,
        help="three fundamental lines separated by ';' (default: example triangle)",
    )
    cremona_parser.set_defaults(handler=_cmd_cremona)

    zariski_parser = commands.add_parser(
        "zariski",
        parents=[common],
        help="lattice hypothesis report for an arrangement pair",
    )
    zariski_parser.add_argument("--pair", required=True, help="pair id, e.g. B11-B21")
    zariski_parser.set_defaults(handler=_cmd_zariski)

    fingerprint_parser = commands.add_parser(
        "fingerprint",
        parents=[common],
        help="combinatorial fingerprint of arrangements",
    )
    fingerprint_parser.add_argument(
        "names", nargs="*", help="arrangement names, e.g. B11 B21"
    )
    fingerprint_parser.add_argument(
        "--input", default=None, help="file with one curve per line"
    )
    fingerprint_parser.set_defaults(handler=_cmd_fingerprint)

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
        payload, text = args.handler(args)
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
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
