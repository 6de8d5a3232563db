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


# -- fuzzing the command line ---------------------------------------------------


class _Expired(Exception):
    """A fuzz case outlived its deadline."""


_FUZZ_DEADLINE_S = 10

_coefficient = st.sampled_from(["1", "2", "-3", "1/2", "r2", "i", "(1+i)", "(2-r2)/3", "98765432109876543210"])


@st.composite
def _form(draw, degrees=(1, 2, 3)):
    """A homogeneous form in T, X, Z; one time in ten with a term T^k, k <= 14, added."""
    degree = draw(st.sampled_from(degrees))
    terms = []
    for _ in range(draw(st.integers(2, 5))):
        a = draw(st.integers(0, degree))
        b = draw(st.integers(0, degree - a))
        terms.append(f"{draw(_coefficient)}*T^{a}*X^{b}*Z^{degree - a - b}")
    if draw(st.integers(0, 9)) == 0:
        terms.append(f"T^{draw(st.integers(0, 14))}")
    return " + ".join(terms)


_chart = st.builds(
    lambda c, a, b: f"x = {c}*t^{a} + t^{b}",
    _coefficient,
    st.integers(0, 3),
    st.integers(0, 3),
)
_noise = st.text(alphabet="TXZtx0123456789+-*/^()r2i= ", max_size=24)


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
    command = draw(st.sampled_from(["weak-contact", "cremona", "fingerprint"]))
    if command == "weak-contact":
        conic = draw(st.one_of(_form(degrees=(2,)), _chart, _noise))
        return ["weak-contact", f"--conic={conic}", *fmt], None
    if command == "cremona":
        return ["cremona", draw(st.one_of(_form(), _noise)), *fmt], None
    curves = draw(st.lists(_form(), min_size=2, max_size=3))
    if draw(st.integers(0, 4)) == 0:
        curves.append(draw(_noise))
    return ["fingerprint", "--input", None, *fmt], "\n".join(curves) + "\n"


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM for the deadline")
@settings(max_examples=60, deadline=None)
@given(_argv())
def test_fuzzed_commands_end_in_a_documented_exit_code(case):
    argv, input_text = case
    with tempfile.TemporaryDirectory() as directory:
        if input_text is not None:
            path = os.path.join(directory, "curves.txt")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(input_text)
            argv = [path if arg is None else arg for arg in argv]
        code, out, err = _run_bounded(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    assert (out != "") == (code == 0)
