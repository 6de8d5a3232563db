"""The byte gate: every README command prints its recorded bytes.

The recorded outputs are the files of perfbench/expected, read where they
are, so the benchmark's oracles and Tier-1 check the same bytes.  A change
that alters an output on purpose changes its file, and the diff of that
file shows each changed byte.  The documented refusals are recorded in
tests/golden/refusals.txt, with their exit codes, and the help texts and
usage errors in tests/golden/help.txt.
"""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from contactconics import ARRANGEMENT_NAMES, PAIR_NAMES, arrangement_fingerprint, cli, zariski_pair_report

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = ROOT / "perfbench" / "expected"

# Every command of README's command blocks, by the name of its recorded output.
README_COMMANDS = {
    "main-theorem": ["main-theorem"],
    "enumerate-I-2": ["enumerate", "--case", "I", "--type", "2"],
    "verify-example": ["verify-example"],
    "fibers": ["fibers"],
    "group-op-double-P1": ["group-op", "double", "P1"],
    "height-P1-P2": ["height", "P1", "P2"],
    "weak-contact-Cbar": ["weak-contact", "--conic", "Cbar"],
    "weak-contact-graph": ["weak-contact", "--conic", "x = t^2+1"],
    "cremona": ["cremona", "X*Z - T^2"],
    "zariski-B11-B21": ["zariski", "--pair", "B11-B21"],
    "fingerprint-B11-B21": ["fingerprint", "B11", "B21"],
}


def _expected(group, name):
    return (EXPECTED / group / f"{name}.out").read_text(encoding="utf-8")


def _main(argv):
    """cli.main on argv: its exit code, standard output and standard error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # -h prints its help, then exits
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_every_readme_command_has_a_recorded_output():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```sh\n(.*?)```", text, re.DOTALL)
    commands = [
        shlex.split(line, comments=True)[1:]
        for block in blocks
        for line in block.splitlines()
        if line.startswith("contactconics ")
    ]
    assert len(commands) == len(README_COMMANDS)
    assert all(argv in README_COMMANDS.values() for argv in commands), commands


@pytest.mark.parametrize("fmt", ["text", "structured"])
@pytest.mark.parametrize("name", README_COMMANDS)
def test_readme_command_prints_its_recorded_bytes(name, fmt):
    code, out, err = _main([*README_COMMANDS[name], "--format", fmt])
    assert (code, err) == (0, "")
    assert out == _expected("cli", f"{name}.{fmt}")


def _render(argv, payload):
    """The text output of the command argv for its structured payload."""
    return cli._build_parser().parse_args(argv).render(payload) + "\n"


@pytest.mark.parametrize("name", README_COMMANDS)
def test_recorded_text_is_rendered_from_the_recorded_structured_output(name):
    payload = json.loads(_expected("cli", f"{name}.structured"))
    assert _render(README_COMMANDS[name], payload) == _expected("cli", f"{name}.text")


def test_fingerprint_input_text_is_rendered_from_its_structured_output(tmp_path):
    path = tmp_path / "nodes.txt"
    path.write_text("X^2*Z^2 - (T^2 - 2*Z^2)^2\nX\n", encoding="utf-8")
    argv = ["fingerprint", "--input", str(path)]
    code, text, _ = _main(argv)
    assert code == 0 and text.startswith(f"arrangement from {path}:\n")
    code, structured, _ = _main([*argv, "--format", "structured"])
    payload = json.loads(structured)
    assert code == 0 and payload["input"] == str(path)
    assert list(payload["arrangements"]) == [str(path)]
    assert _render(argv, payload) == text


def _refusals():
    lines = (ROOT / "tests" / "golden" / "refusals.txt").read_text(encoding="utf-8").splitlines()
    for line in lines:
        if line.strip() and not line.startswith("#"):
            argv, curves, code, message = (field.strip() for field in line.split("|", 3))
            case = f"{argv} {curves}".strip()
            yield pytest.param(argv, curves.replace("\\n", "\n"), int(code), message, id=case)


@pytest.mark.parametrize("fmt", ["text", "structured"])
@pytest.mark.parametrize("argv, curves, code, message", _refusals())
def test_documented_refusal_prints_its_recorded_message(
    tmp_path, argv, curves, code, message, fmt
):
    path = tmp_path / "curves.txt"
    path.write_text(curves, encoding="utf-8")
    argv = [arg.replace("{input}", str(path)) for arg in shlex.split(argv)]
    assert _main([*argv, "--format", fmt]) == (code, "", message + "\n")


def _transcript(argv):
    """The command line of argv, then its exit code, standard output and
    standard error, as tests/golden/help.txt records them."""
    code, out, err = _main(argv)
    command = shlex.join(["contactconics", *argv])
    return f"$ {command}\nexit {code}\n--- stdout\n{out}--- stderr\n{err}"


def _help_cases():
    text = (ROOT / "tests" / "golden" / "help.txt").read_text(encoding="utf-8")
    for case in re.split(r"^(?=\$ )", text, flags=re.MULTILINE)[1:]:
        yield pytest.param(case, id=case.split("\n", 1)[0][2:])


@pytest.mark.parametrize("case", _help_cases())
def test_help_and_usage_error_print_their_recorded_bytes(monkeypatch, case):
    # argparse wraps its text to the terminal width, which COLUMNS sets
    monkeypatch.setenv("COLUMNS", "80")
    argv = shlex.split(case.split("\n", 1)[0][2:])[1:]
    assert _transcript(argv) == case


def test_every_arrangement_has_a_recorded_output():
    recorded = {path.stem for path in (EXPECTED / "arrangements").glob("*.out")}
    assert recorded == set(ARRANGEMENT_NAMES) | set(PAIR_NAMES)


@pytest.mark.parametrize("name", ARRANGEMENT_NAMES)
def test_fingerprint_is_its_recorded_bytes(example, name):
    fingerprint = arrangement_fingerprint(example.arrangement(name))
    assert fingerprint == _expected("arrangements", name)


@pytest.mark.parametrize("pair", PAIR_NAMES)
def test_zariski_report_is_its_recorded_bytes(pair):
    assert zariski_pair_report(pair).render() == _expected("arrangements", pair)
