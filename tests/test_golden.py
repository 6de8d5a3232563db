"""The byte gate: every README command prints its recorded bytes.

The recorded outputs are the files of perfbench/expected, read where they
are, so the benchmark's oracles and Tier-1 check the same bytes.  A change
that alters an output on purpose changes its file, and the diff of that
file shows each changed byte.
"""

import contextlib
import io
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
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*README_COMMANDS[name], "--format", fmt])
    assert (code, err.getvalue()) == (0, "")
    assert out.getvalue() == _expected("cli", f"{name}.{fmt}")


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
