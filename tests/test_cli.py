"""The command line: reports, formats, determinism, exit codes."""

import contextlib
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

from contactconics import IntegrityError, cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_main_theorem_table(capsys):
    code, out, _ = run(capsys, "main-theorem")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["type", "1", "2", "3", "4", "5", "6"]
    assert "case I" in lines[1] and lines[1].split()[-6:] == ["3", "4", "4", "1", "1", "1"]
    assert lines[2].split()[-6:] == ["1", "2", "2", "0", "1", "0"]
    assert lines[3].split()[-6:] == ["0", "2", "0", "1", "0", "0"]
    assert lines[4].split()[-6:] == ["1", "0", "2", "0", "0", "1"]


def test_enumerate_prints_the_type_two_classes(capsys):
    code, out, _ = run(capsys, "enumerate", "--case", "I", "--type", "2")
    assert code == 0
    assert "4 conic classes" in out
    for label in (
        "[1]P1 + [-2]P2 + [-1]P3",
        "[1]P1 + [-2]P2 + [1]P3",
        "[2]P1 + [-1]P2 + [-1]P3",
        "[2]P1 + [-1]P2 + [1]P3",
    ):
        assert label in out


def test_enumerate_unrealizable_type(capsys):
    code, out, _ = run(capsys, "enumerate", "--case", "III", "--type", "1")
    assert code == 0
    assert "not realizable" in out


def test_group_op_double(capsys):
    code, out, _ = run(capsys, "group-op", "double", "P1")
    assert code == 0
    assert "x = t^2 + 3/2*t" in out


def test_group_op_add_matches_difference_relation(capsys):
    # P0 = P2 - P1, so P0 + P1 recovers P2 exactly.
    code, out, _ = run(capsys, "group-op", "add", "P0", "P1")
    assert code == 0
    assert "x = t" in out.splitlines()
    code, out, _ = run(capsys, "group-op", "negate", "P3")
    assert code == 0
    assert "x = 1/2*t - 1/2" in out
    # A section is also given by its coordinates, here -P1.
    code, out, _ = run(capsys, "group-op", "add", "P1", "(0, -1/4*r2*t*(t - 1))")
    assert code == 0
    assert out.splitlines()[-1] == "result = O"


def test_height_command(capsys):
    code, out, _ = run(capsys, "height", "P1", "P2")
    assert code == 0
    assert out.strip() == "<P1, P2> = 1/6"
    code, out, _ = run(capsys, "height", "(0, 1/4*r2*t*(t - 1))", "P2")
    assert code == 0
    assert out.strip() == "<(0, 1/4*r2*t*(t - 1)), P2> = 1/6"
    # 2(P1 + P2): polynomial, with x of degree 4, so it meets O at t = infinity
    doubled = "(2*t^4 - 2*t^2 + 1/2*t + 1/8, -2*r2*t^6 + 5/2*r2*t^4 - 5/8*r2*t^2 - 1/32*r2)"
    code, out, _ = run(capsys, "height", doubled)
    assert code == 0
    assert out.strip() == f"<{doubled}, {doubled}> = 4"
    code, out, _ = run(capsys, "height", doubled, "--format", "structured")
    assert code == 0
    assert json.loads(out) == {
        "command": "height", "left": doubled, "right": doubled, "value": "4"
    }
    # [3]P1 has coordinates that are not polynomial
    tripled = (
        "((-2*t^3 - 1/2*t^2 + 2*t + 1/2) / (t^2 + 3*t + 9/4), "
        "(7/4*r2*t^5 + 13/8*r2*t^4 - 17/16*r2*t^3 - 45/32*r2*t^2 - 21/32*r2*t - 1/4*r2)"
        " / (t^3 + 9/2*t^2 + 27/4*t + 27/8))"
    )
    for fmt in ("text", "structured"):
        code, out, err = run(capsys, "height", tripled, "--format", fmt)
        assert code == 2 and out == ""
        assert err == (
            "precondition error: local fiber geometry needs polynomial section coordinates\n"
        )


def test_verify_example_lists_identities(capsys):
    code, out, _ = run(capsys, "verify-example")
    assert code == 0
    assert out.count("ok: ") == 32
    assert out.strip().endswith("verified 32 identities")


def test_fibers_table(capsys):
    code, out, _ = run(capsys, "fibers")
    assert code == 0
    assert "t = 0: type IV, 3 components, euler 4" in out
    assert "euler total: 12" in out


def test_weak_contact_true_with_type(capsys):
    code, out, _ = run(capsys, "weak-contact", "--quartic", "phiQ", "--conic", "Cbar")
    assert code == 0
    assert "weak contact: true" in out
    assert "type: 5" in out


def test_weak_contact_false_with_parity_certificate(capsys):
    code, out, _ = run(capsys, "weak-contact", "--quartic", "phiQ", "--conic", "x = t^2+1")
    assert code == 0
    assert "weak contact: false" in out
    assert "(odd)" in out
    assert "audit: affine 6 + infinity 2 = 8" in out


def test_weak_contact_true_against_a_quartic_without_conic_types(capsys):
    # The quartic is not two-node one-cusp, so the conic has no type: the
    # certificate prints without one.
    argv = (
        "weak-contact",
        "--quartic", "(X*Z - T^2)*(X^2 + T^2 - Z^2) + T^4",
        "--conic", "X*Z - T^2",
    )
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert "weak contact: true" in out
    assert "  x (degree 1): multiplicity 4 (even)" in out
    assert "  [0, 1, 0]: multiplicity 4 (even)" in out
    assert "type" not in out
    code, out, err = run(capsys, *argv, "--format", "structured")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["weak_contact"] is True
    assert "type" not in payload


def test_cremona_regression(capsys):
    code, out, _ = run(capsys, "cremona", "X*Z - T^2")
    assert code == 0
    assert "image:" in out


def test_zariski_report(capsys):
    code, out, _ = run(capsys, "zariski", "--pair", "B11-B21")
    assert code == 0
    assert "pair B11-B21" in out
    assert "[pass]" in out and "FAIL" not in out
    assert "cited, not re-proved" in out


def test_fingerprint_pair_comparison(capsys):
    code, out, _ = run(capsys, "fingerprint", "B11", "B21")
    assert code == 0
    assert "fingerprints equal: true" in out


@pytest.mark.parametrize("names", [["B11", "B11"], ["B21", "B11"]])
def test_fingerprint_text_is_rendered_from_its_structured_payload(capsys, names):
    args = cli._build_parser().parse_args(["fingerprint", *names])
    payload = args.handler(args)
    code, out, _ = run(capsys, "fingerprint", *names, "--format", "structured")
    assert code == 0 and json.loads(out) == payload
    code, out, _ = run(capsys, "fingerprint", *names)
    assert code == 0 and out == args.render(payload) + "\n"
    # one block per distinct name, in argument order, and the comparison
    heads = [line.split(" (")[0] for line in out.splitlines() if line.startswith("arrangement ")]
    assert heads == [f"arrangement {name}" for name in dict.fromkeys(names)]
    assert out.endswith("fingerprints equal: true\n")


def test_structured_output_is_sorted_json(capsys):
    code, out, _ = run(capsys, "height", "P3", "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"command": "height", "left": "P3", "right": "P3", "value": "1/2"}
    assert list(payload) == sorted(payload)


def test_reports_are_byte_identical_across_runs(capsys):
    first = run(capsys, "zariski", "--pair", "D0-D1")
    second = run(capsys, "zariski", "--pair", "D0-D1")
    assert first == second
    third = run(capsys, "enumerate", "--case", "IV", "--type", "3", "--format", "structured")
    fourth = run(capsys, "enumerate", "--case", "IV", "--type", "3", "--format", "structured")
    assert third == fourth


def test_usage_errors_exit_one(capsys):
    code, _, err = run(capsys, "group-op", "add", "P1")
    assert code == 1 and "usage error" in err
    code, _, err = run(capsys, "enumerate", "--case", "V", "--type", "1")
    assert code == 1
    code, _, err = run(capsys, "cremona")
    assert code == 1


def test_parse_errors_exit_one(capsys):
    code, _, err = run(capsys, "cremona", "X*Z - T^")
    assert code == 1 and "parse error" in err
    code, _, err = run(capsys, "weak-contact", "--conic", "x = ")
    assert code == 1


def test_precondition_errors_exit_two(capsys, tmp_path):
    code, _, err = run(capsys, "zariski", "--pair", "B11-B99")
    assert code == 2 and "precondition error" in err
    code, _, err = run(capsys, "fingerprint", "B99")
    assert code == 2
    code, _, err = run(capsys, "cremona", "X*Z - T^2", "--triangle", "T; X; T + X")
    assert code == 2
    # two conics crossing at the nodes (+-sqrt(3), 0), which the line X = 0 meets
    path = tmp_path / "nodes.txt"
    path.write_text("X^2*Z^2 - (T^2 - 3*Z^2)^2\nX\n", encoding="utf-8")
    code, out, err = run(capsys, "fingerprint", "--input", str(path))
    assert code == 2 and "possible singular point over the residual factor" in err
    assert "Traceback" not in err and out == ""


def test_quartic_containing_the_line_at_infinity_exits_two(capsys):
    code, out, err = run(
        capsys, "weak-contact", "--quartic", "Z*(X^3 - T^2*Z)", "--conic", "X*Z - T^2 - Z^2"
    )
    assert code == 2 and "precondition error" in err
    assert "Traceback" not in err and out == ""


def test_a_conic_of_two_lines_through_a_k_point_is_not_smooth(capsys):
    # T^2 - 3*Z^2 is two lines over Q(sqrt(3)) that meet only at [0, 1, 0]
    code, out, err = run(capsys, "weak-contact", "--conic", "T^2 - 3*Z^2")
    assert code == 2 and "the conic must be smooth" in err
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("cremona", "X^99999999"),
        ("weak-contact", "--conic", "X*Z - 10^100000*T^2"),
        ("weak-contact", "--conic", "X*Z - 10^3000*T^2"),
        # inside every parser budget, but its image has degree 23
        ("cremona", "X^12+T^11*Z-Z^12+T*X^5*Z^6"),
    ],
)
def test_inputs_over_budget_exit_two_at_once(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 10
    assert code == 2 and "exceeds the input budget" in err
    assert "Traceback" not in err and out == ""


def _fingerprint_over_budget(capsys, tmp_path, curves):
    path = tmp_path / "high.txt"
    path.write_text(curves, encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(capsys, "fingerprint", "--input", str(path))
    assert time.perf_counter() - start < 10
    assert code == 2 and "exceeds the input budget" in err
    assert "Traceback" not in err and out == ""


def test_fingerprint_input_over_budget_exits_two(capsys, tmp_path):
    _fingerprint_over_budget(capsys, tmp_path, "X*Z^200 - T^201\nX*Z^200 - T^201 - T^200*Z\n")


def test_fingerprint_pair_meeting_in_too_many_points_exits_two(capsys, tmp_path):
    # each curve inside every parser budget, but the pair meets in 144 points
    _fingerprint_over_budget(capsys, tmp_path, "X^12+T^11*Z-Z^12+T*X^5*Z^6\nX^12-T^12+T*X*Z^10+Z^12\n")


def test_arrangement_sharing_a_component_exits_two(capsys, tmp_path):
    path = tmp_path / "shared.txt"
    path.write_text("(X*Z - T^2)*(X - Z)\n(X - Z)*(T - Z)\n", encoding="utf-8")
    code, out, err = run(capsys, "fingerprint", "--input", str(path))
    assert code == 2 and "common component" in err
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize(
    "curves",
    [
        # the conic X*Z = T^2 is a component of both
        "X*Z - T^2\nX^2*Z - T^2*X\n",
        # the line X = T is a component of both
        "X - T\nX^2 - T*X + X*Z - T*Z\n",
    ],
)
def test_curves_sharing_a_component_are_refused_where_it_meets_infinity(capsys, tmp_path, curves):
    # A common component meets Z = 0, so the pass at infinity refuses the
    # pair before any shear, and no resultant of a sheared pair is zero.
    path = tmp_path / "shared.txt"
    path.write_text(curves, encoding="utf-8")
    code, out, err = run(capsys, "fingerprint", "--input", str(path))
    assert (code, out) == (2, "")
    assert err == "precondition error: curves share a common component through the point\n"


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (
            ("cremona", "X*Z - T^2", "--input", "{path}"),
            1,
            "usage error: give the curve either inline or via --input, not both",
        ),
        (("cremona",), 1, "usage error: cremona needs a curve (inline argument or --input file)"),
        (
            ("cremona", "X*Z - T^2", "--triangle", "T;X"),
            1,
            "usage error: --triangle needs three lines separated by ';'",
        ),
        (
            ("fingerprint", "B11", "--input", "{path}"),
            1,
            "usage error: give arrangement names or --input with one curve per line, not both",
        ),
        (("fingerprint",), 1, "usage error: fingerprint needs arrangement names or --input"),
        (
            ("fingerprint", "--input", "{path}"),
            2,
            "precondition error: an arrangement needs at least two curves",
        ),
    ],
)
def test_refusals_before_any_geometry(capsys, tmp_path, argv, code, message):
    path = tmp_path / "one-curve.txt"
    path.write_text("X*Z - T^2\n", encoding="utf-8")
    argv = [arg.format(path=path) for arg in argv]
    assert run(capsys, *argv) == (code, "", message + "\n")


@pytest.mark.parametrize(
    "argv, curves, code, line",
    [
        (("weak-contact", "--conic", "x - x"), None, 2, "precondition error: the zero polynomial does not define a curve"),
        (("fingerprint", "--input", "{path}"), None, 2, "precondition error: cannot read input file {path}: "),
        (("weak-contact", "--conic", "x$"), None, 1, "parse error: unexpected character '$' at position 1"),
        (("weak-contact", "--conic", "x/0"), None, 1, "parse error: division by zero at position 1"),
        (
            ("weak-contact", "--conic", "x/t"),
            None,
            1,
            "parse error: a polynomial in t and x must not contain division by a variable expression",
        ),
        (("cremona", "T - T"), None, 1, "parse error: the zero form has no degree"),
        (
            ("cremona", "X*Z - T^2", "--triangle", "T; X; X*Z - T^2"),
            None,
            2,
            "precondition error: expected a line (degree-1 curve)",
        ),
        (
            ("weak-contact", "--quartic", "X", "--conic", "X*Z - T^2"),
            None,
            2,
            "precondition error: weak contact is defined against a quartic",
        ),
        (("weak-contact", "--conic", "T"), None, 2, "precondition error: the contact curve must be a conic"),
        (
            ("weak-contact", "--conic", "X^2"),
            None,
            2,
            "precondition error: curve form is not square-free (non-reduced curve)",
        ),
        (
            ("fingerprint", "--input", "{path}"),
            "T^2 - 3*X^2 + Z^2\nT^2 - 3*X^2 + T*Z\n",
            2,
            "precondition error: the curves meet the line at infinity at a non-K-rational point",
        ),
        # both curves contain Z = 0; the pair is refused before any shear
        (
            ("fingerprint", "--input", "{path}"),
            "Z\nX*Z - T*Z + Z^2\n",
            2,
            "precondition error: curve contains the line at infinity in this frame",
        ),
        # The marks 0, 1, 4, 10, 16, 18, 21, 23 form a complete sparse ruler:
        # their differences cover 1..23.  The lines X = m*Z meet T = 0 and
        # T = Z in 16 transversal K-points, and every shear x -> x + k*t with
        # |k| <= 21 lines up two of them.  Neither curve contains Z = 0 and no
        # common point is singular on both; the refusal claims neither.
        (
            ("fingerprint", "--input", "{path}"),
            "X*(X - Z)*(X - 4*Z)*(X - 10*Z)*(X - 16*Z)*(X - 18*Z)*(X - 21*Z)*(X - 23*Z)\nT*(T - Z)\n",
            2,
            "precondition error: no shear x -> x + k*t with |k| <= 21 certifies one common point "
            "over each root of the resultant",
        ),
        # a bare chart in t and x is the curve x = t^2; the answer goes to stdout
        (("weak-contact", "--conic", "x - t^2"), None, 0, "conic: x - t^2"),
        # one curve is the line Z = 0, which every shear would skip
        (
            ("fingerprint", "--input", "{path}"),
            "Z\nX\n",
            2,
            "precondition error: curve contains the line at infinity in this frame",
        ),
        # a fundamental line of the triangle is contracted to a point
        (
            ("cremona", "Z"),
            None,
            2,
            "precondition error: the image has degree 0: the curve is made of fundamental lines "
            "of the triangle, which the quadratic transformation contracts to points",
        ),
        (
            ("cremona", "(T - Z)*X", "--triangle", "T - Z; X; Z"),
            None,
            2,
            "precondition error: the image has degree 0: the curve is made of fundamental lines "
            "of the triangle, which the quadratic transformation contracts to points",
        ),
        # only 0-9 are digits: a superscript two or an Arabic-Indic three is refused
        (("weak-contact", "--conic", "x = t^\u00b2"), None, 1, "parse error: unexpected character '\u00b2' at position 6"),
        (("cremona", "X*Z - T^\u00b2"), None, 1, "parse error: unexpected character '\u00b2' at position 8"),
        (("weak-contact", "--conic", "x = \u0663*t"), None, 1, "parse error: unexpected character '\u0663' at position 4"),
        # an input file that is not UTF-8
        (("fingerprint", "--input", "{path}"), b"\xff\xfe X\n", 2, "precondition error: cannot read input file {path}: "),
        (("cremona", "--input", "{path}"), b"\xff\xfe X\n", 2, "precondition error: cannot read input file {path}: "),
        # a position counts from the first character of the argument as typed:
        # past the left side of a chart and past leading blanks
        (
            ("weak-contact", "--conic", "x = t^2 + y"),
            None,
            1,
            "parse error: unknown name 'y' at position 10 (variables here: t, x)",
        ),
        (("weak-contact", "--conic", "  x$"), None, 1, "parse error: unexpected character '$' at position 3"),
        (
            ("weak-contact", "--conic", "x = t^13"),
            None,
            2,
            "precondition error: exponent 13 at position 6 exceeds the input budget of 12",
        ),
        (
            ("fingerprint", "--input", "{path}"),
            "x = t + y\nX\n",
            1,
            "parse error: unknown name 'y' at position 8 (variables here: t, x)",
        ),
    ],
)
def test_each_input_is_answered_or_refused_in_one_line(capsys, tmp_path, argv, curves, code, line):
    path = tmp_path / "curves.txt"
    if curves is not None:
        path.write_bytes(curves if isinstance(curves, bytes) else curves.encode("utf-8"))
    got, out, err = run(capsys, *[arg.format(path=path) for arg in argv])
    line = line.format(path=path)
    assert got == code
    if code == 0:
        assert err == "" and line in out.splitlines()
    else:
        assert out == "" and err.startswith(line) and err.count("\n") == 1


def test_line_through_k_rational_nodes_meets_them_as_nodes(capsys, tmp_path):
    path = tmp_path / "nodes.txt"
    path.write_text("X^2*Z^2 - (T^2 - 2*Z^2)^2\nX\n", encoding="utf-8")
    code, out, _ = run(capsys, "fingerprint", "--input", str(path))
    assert code == 0
    assert out.splitlines()[1:] == ["pair (1,4):"] + ["  point mult=2 quartic=node incidence=[]"] * 2
    # A node on the line at infinity, at [0:1:0].
    path.write_text("X^2*T^2 - X^2*Z^2 + T^4 + Z^4\nT\n", encoding="utf-8")
    code, out, _ = run(capsys, "fingerprint", "--input", str(path))
    assert code == 0
    assert out.splitlines()[1:] == [
        "pair (1,4):",
        "  point mult=1 quartic=smooth incidence=[]",
        "  point mult=1 quartic=smooth incidence=[]",
        "  point mult=2 quartic=node incidence=[]",
    ]


def test_integrity_errors_exit_three(capsys, monkeypatch):
    def broken():
        raise IntegrityError("worked example: tampered")

    monkeypatch.setattr(cli.fixtures, "load_worked_example", broken)
    code, _, err = run(capsys, "verify-example")
    assert code == 3 and "integrity error" in err


def test_closed_stdout_exits_without_a_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the command writes
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    try:
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from contactconics.cli import main; sys.exit(main())", "main-theorem"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path},
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert done.returncode == cli.EXIT_BROKEN_PIPE == 141
    assert done.stderr == b""


def _fresh_process_output(code):
    """Standard output of `python -c code` in a fresh process that imports this package."""
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return done.stdout


def test_a_cold_import_loads_neither_dataclasses_nor_inspect():
    # importing and applying dataclasses (which loads inspect) was most of a
    # cold import; site and .pth hooks may load modules first, so count only
    # what the import adds
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import contactconics.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    assert _fresh_process_output(code).strip() == "[]"


def test_lattice_only_commands_load_neither_sympy_nor_the_worked_example():
    code = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "from contactconics import cli, fixtures\n"
        "for argv in (['main-theorem'], ['enumerate', '--case', 'I', '--type', '2']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0\n"
        "    print(argv[0], 'sympy' in set(sys.modules) - before,\n"
        "          fixtures.load_worked_example.cache_info().currsize)\n"
    )
    assert _fresh_process_output(code).splitlines() == ["main-theorem False 0", "enumerate False 0"]


# The call that imports sympy pauses the cyclic collector for the import and
# freezes what is alive after it, once a process; the collector's enabled
# state is restored, and a process that imported sympy itself is left alone.


def test_the_sympy_import_freezes_the_heap_once_and_leaves_the_collector_on():
    code = (
        "import contextlib, gc, io\n"
        "from contactconics import cli, fixtures, poly\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['main-theorem']) == 0\n"
        "print(gc.get_freeze_count())\n"
        "fixtures.load_worked_example()\n"
        "frozen = gc.get_freeze_count()\n"
        "print(gc.isenabled(), frozen > 0)\n"
        "poly.k_rational_roots(poly.Poly([-2, 0, 1]))\n"
        "print(gc.get_freeze_count() == frozen)\n"
    )
    assert _fresh_process_output(code).splitlines() == ["0", "True True", "True"]


def test_the_sympy_import_leaves_a_disabled_collector_disabled():
    code = (
        "import gc\n"
        "from contactconics import fixtures\n"
        "gc.disable()\n"
        "fixtures.load_worked_example()\n"
        "print(gc.isenabled(), gc.get_freeze_count() > 0)\n"
    )
    assert _fresh_process_output(code).strip() == "False True"


def test_a_caller_that_imported_sympy_keeps_its_heap_unfrozen():
    code = (
        "import gc, sympy\n"
        "from contactconics import fixtures\n"
        "fixtures.load_worked_example()\n"
        "print(gc.isenabled(), gc.get_freeze_count())\n"
    )
    assert _fresh_process_output(code).strip() == "True 0"


# -- fuzzing the command line ---------------------------------------------------


class _Expired(Exception):
    """A fuzz case outlived its deadline."""


_FUZZ_DEADLINE_S = 10

# Every strategy below makes the same draws whatever values it draws, and
# chooses among them afterwards.  Hypothesis mutates a test case by copying
# one part of it over another part drawn by the same strategy, and discards
# the case as invalid when the copy asks for more draws than the case holds;
# with fixed draws, no copy does.  So a repeated part is a plain list of
# draws, not st.lists, and a recursive text recurses by a plain call.

_coefficient = st.sampled_from(["1", "2", "-3", "1/2", "r2", "i", "(1+i)", "(2-r2)/3", "98765432109876543210"])


@st.composite
def _form(draw, degrees=(1, 2, 3)):
    """A homogeneous form in T, X, Z of two to five terms; one time in ten
    with a term T^k, k <= 14, added."""
    degree = draw(st.sampled_from(degrees))
    terms = []
    for _ in range(5):
        a = draw(st.integers(0, degree))
        b = draw(st.integers(0, degree - a))
        terms.append(f"{draw(_coefficient)}*T^{a}*X^{b}*Z^{degree - a - b}")
    terms = terms[: draw(st.integers(2, 5))]
    power = f"T^{draw(st.integers(0, 14))}"
    if draw(st.integers(0, 9)) == 0:
        terms.append(power)
    return " + ".join(terms)


_chart = st.builds(
    lambda c, a, b: f"x = {c}*t^{a} + t^{b}",
    _coefficient,
    st.integers(0, 3),
    st.integers(0, 3),
)
# non-ASCII: a superscript two, an Arabic-Indic three, a letter and a no-break space
_noise = st.text(alphabet="TXZtx0123456789+-*/^()r2i= \u00b2\u0663\u00e9\u00a0", max_size=24)
# 0xff starts no UTF-8 sequence
_not_utf8 = st.builds(lambda head, tail: head + b"\xff" + tail, st.binary(max_size=12), st.binary(max_size=12))


# section coefficients: r2, i, and a 255-bit literal
_t_coefficient = st.sampled_from(["1", "-2", "1/4", "r2", "i", "1/4*r2", "i*r2", str(2**255 - 19)])


def _t_text(draw, depth):
    terms = [f"{draw(_t_coefficient)}*t^{draw(st.integers(0, 4))}" for _ in range(3)]
    text = " + ".join(terms[: draw(st.integers(1, 3))])
    if depth < 2:
        divisor = _t_text(draw, depth + 1)
        if draw(st.integers(0, 2)) == 0:
            text = f"({text}) / ({divisor})"
    return text


@st.composite
def _t_expression(draw):
    """A polynomial text in t of one to three terms, one time in three
    divided by another, two quotients deep at most."""
    return _t_text(draw, 0)


@st.composite
def _section(draw):
    """The example's names, an unknown one, sections on the surface ([-1]P1
    and [3]P1, whose coordinates have denominators), drawn coordinates, or
    noise, one time in four each."""
    choices = [
        draw(st.sampled_from(["P0", "P1", "P2", "P3", "O", "P9"])),
        draw(st.sampled_from([
            "(0, -1/4*r2*t*(t - 1))",
            "((-2*t^3 - 1/2*t^2 + 2*t + 1/2) / (t^2 + 3*t + 9/4), "
            "(7/4*r2*t^5 + 13/8*r2*t^4 - 17/16*r2*t^3 - 45/32*r2*t^2 - 21/32*r2*t - 1/4*r2)"
            " / (t^3 + 9/2*t^2 + 27/4*t + 27/8))",
        ])),
        f"({draw(_t_expression())}, {draw(_t_expression())})",
        draw(_noise),
    ]
    return choices[draw(st.integers(0, 3))]


def _run_bounded(argv):
    """cli.main on argv with its output captured, or _Expired after the deadline."""
    def expire(signum, frame):
        raise _Expired(argv)

    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, _FUZZ_DEADLINE_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


@st.composite
def _argv(draw):
    fmt = draw(st.sampled_from([[], ["--format", "structured"]]))
    command = draw(st.sampled_from(["weak-contact", "cremona", "fingerprint", "height", "group-op"]))
    if command in ("height", "group-op"):
        op = [draw(st.sampled_from(["add", "double", "negate"]))] if command == "group-op" else []
        sections = [draw(_section()), draw(_section())][: draw(st.integers(1, 2))]
        return [command, *op, *sections, *fmt], None
    if command == "weak-contact":
        conic = draw(st.one_of(_form(degrees=(2,)), _chart, _noise))
        return ["weak-contact", f"--conic={conic}", *fmt], None
    if command == "cremona":
        form, noise, not_utf8 = draw(_form()), draw(_noise), draw(_not_utf8)
        if draw(st.integers(0, 4)) == 0:
            text = [form, noise, not_utf8][draw(st.integers(0, 2))]
            return ["cremona", "--input", None, *fmt], text
        return ["cremona", [form, noise][draw(st.integers(0, 1))], *fmt], None
    curves = [draw(_form()) for _ in range(3)][: draw(st.integers(2, 3))]
    noise, not_utf8 = draw(_noise), draw(_not_utf8)
    if draw(st.integers(0, 4)) == 0:
        curves.append(noise)
    if draw(st.integers(0, 9)) == 0:
        return ["fingerprint", "--input", None, *fmt], not_utf8
    return ["fingerprint", "--input", None, *fmt], "\n".join(curves) + "\n"


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM for the deadline")
@settings(deadline=None)
@given(_argv())
def test_fuzzed_commands_end_in_a_documented_exit_code(case):
    argv, input_text = case
    with tempfile.TemporaryDirectory() as directory:
        if input_text is not None:
            path = os.path.join(directory, "curves.txt")
            with open(path, "wb") as handle:
                handle.write(input_text if isinstance(input_text, bytes) else input_text.encode("utf-8"))
            argv = [path if arg is None else arg for arg in argv]
        code, out, err = _run_bounded(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    assert (out != "") == (code == 0)
