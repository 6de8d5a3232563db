"""Check that Tier-1 reaches every statement of src/contactconics, or that
the ledger says why not.

Usage, from anywhere:

    python tools/reach.py [pytest arguments]

The script runs pytest over tests/ in this process under a line tracer
(`sys.settrace` and `threading.settrace`; Python 3.11 has no
`sys.monitoring`, and no coverage package is needed).  The pytest arguments
default to `--hypothesis-seed=0`; the hypothesis example database and
deadlines are off, so the examples depend on the seed alone and a slow
traced example cannot fail a test.

The statements come from an `ast` walk of src/contactconics/*.py, without
docstrings and the other constant expressions, `global` and `nonlocal`,
which compile to nothing.  A statement owns the lines of its span (its
decorators included) that no nested statement covers, and it is reached
when a line event fires on one of them.

Every statement left unreached needs an entry in tools/reach_ledger.txt,
one a line:

    module | qualified name | occurrence | statement | kind: reason

The statement is its source text with the whitespace collapsed, or the
first line of a compound statement; the occurrence counts statements with
the same text in the same function, from 1.  Line numbers are not part of
the key, so an unrelated edit leaves the ledger valid.  The kind is one of
`KINDS`.

The exit status is 1 when Tier-1 fails, an unreached statement has no
entry, an entry's statement is reached, or an entry matches no statement
(each is listed), and 0 otherwise.  The last line of the output gives the
counts.  Line events differ between interpreter versions; the ledger is
kept for Python 3.11.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "contactconics"
LEDGER = Path(__file__).resolve().parent / "reach_ledger.txt"

KINDS = (
    "invariant",  # an IntegrityError or AssertionError guard, with why it cannot fire
    "child process",  # runs only in a process the tests start
    "perfbench",  # read by perfbench/tracer.py, which the tests do not run
)


class Statement(NamedTuple):
    module: str
    qualname: str
    occurrence: int
    text: str
    lines: frozenset[int]

    @property
    def key(self) -> tuple[str, str, int, str]:
        return self.module, self.qualname, self.occurrence, self.text


def _child_blocks(node: ast.stmt) -> list[list[ast.stmt]]:
    blocks = [getattr(node, name, None) for name in ("body", "orelse", "finalbody")]
    blocks = [block for block in blocks if isinstance(block, list)]
    blocks += [handler.body for handler in getattr(node, "handlers", ())]
    blocks += [case.body for case in getattr(node, "cases", ())]
    return blocks


def _compiles_to_nothing(node: ast.stmt) -> bool:
    return isinstance(node, (ast.Global, ast.Nonlocal)) or (
        isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
    )


def _span(node: ast.stmt) -> range:
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    return range(first, node.end_lineno + 1)


def statements(path: Path) -> list[Statement]:
    """The executable statements of one module, in source order."""
    source = path.read_text(encoding="utf-8")
    module = path.stem
    found: list[tuple[str, str, frozenset[int]]] = []

    def visit(block: list[ast.stmt], scope: tuple[str, ...]) -> None:
        for node in block:
            children = _child_blocks(node)
            inner = scope
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (node.name,)
            if not _compiles_to_nothing(node):
                covered = {line for child in children for stmt in child for line in _span(stmt)}
                segment = ast.get_source_segment(source, node)
                text = segment.splitlines()[0].strip() if children else " ".join(segment.split())
                owned = frozenset(line for line in _span(node) if line not in covered)
                found.append((".".join(scope) or "<module>", text, owned))
            for child in children:
                visit(child, inner)

    visit(ast.parse(source, filename=str(path)).body, ())
    counts: dict[tuple[str, str], int] = {}
    out = []
    for qualname, text, owned in found:
        occurrence = counts[(qualname, text)] = counts.get((qualname, text), 0) + 1
        out.append(Statement(module, qualname, occurrence, text, owned))
    return out


def render(key: tuple[str, str, int, str], reason: str) -> str:
    module, qualname, occurrence, text = key
    return f"{module} | {qualname} | {occurrence} | {text} | {reason}"


def read_ledger(path: Path) -> tuple[dict[tuple[str, str, int, str], str], list[str]]:
    """Entries by key, and the lines that are no valid entry."""
    entries: dict[tuple[str, str, int, str], str] = {}
    malformed = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split(" | ", 3)
        if len(parts) != 4 or " | " not in parts[3] or not parts[2].isdigit():
            malformed.append(line)
            continue
        text, reason = parts[3].rsplit(" | ", 1)
        key = (parts[0], parts[1], int(parts[2]), text)
        kind, _, why = reason.partition(": ")
        if kind not in KINDS or not why.strip() or key in entries:
            malformed.append(line)
            continue
        entries[key] = reason
    return entries, malformed


def run_tests(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run Tier-1 in this process under the line tracer: pytest's exit
    status, and the lines that fired by module file name."""
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    class SeedOnly:
        """Loads a hypothesis profile with no example database and no
        deadline, before the test modules are collected."""

        @staticmethod
        def pytest_configure(config):
            from hypothesis import settings

            settings.register_profile("reach", database=None, deadline=None)
            settings.load_profile("reach")

    package = os.path.realpath(PACKAGE)
    hits: dict[str, set[int]] = {}
    tracers: dict[str, object] = {}

    def tracer_for(filename: str):
        if filename not in tracers:
            tracers[filename] = None
            real = os.path.realpath(filename)
            if os.path.dirname(real) == package:
                lines = hits.setdefault(os.path.basename(real), set())

                def local(frame, event, arg):
                    if event == "line":
                        lines.add(frame.f_lineno)
                    return local

                tracers[filename] = local
        return tracers[filename]

    def on_call(frame, event, arg):
        return tracer_for(frame.f_code.co_filename)

    if not any(arg.startswith("--hypothesis-seed") for arg in pytest_args):
        pytest_args = ["--hypothesis-seed=0", *pytest_args]
    os.chdir(ROOT)
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(
            ["-q", "-p", "no:cacheprovider", *pytest_args, "tests"], plugins=[SeedOnly()]
        )
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def main(argv: list[str]) -> int:
    status, hits = run_tests(argv)
    known, unreached = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        fired = hits.get(path.name, set())
        for stmt in statements(path):
            known.append(stmt.key)
            if not stmt.lines & fired:
                unreached.append(stmt.key)
    entries, malformed = read_ledger(LEDGER)
    problems = {
        "unreached, with no ledger entry": [
            render(key, "kind: reason") for key in unreached if key not in entries
        ],
        "ledgered, but reached": [
            render(key, reason)
            for key, reason in entries.items()
            if key in known and key not in unreached
        ],
        "ledgered, but no such statement": [
            render(key, reason) for key, reason in entries.items() if key not in known
        ],
        "malformed ledger lines": malformed,
    }
    print()
    for title, lines in problems.items():
        if lines:
            print(f"{title} ({len(lines)}):")
            print("\n".join(f"  {line}" for line in lines))
    if status != 0:
        print(f"Tier-1 failed under the tracer (pytest exit status {status})")
    failed = status != 0 or any(problems.values())
    print(
        f"reach: {len(unreached)} of {len(known)} statements unreached, "
        f"{len(entries)} ledger entries, {'FAIL' if failed else 'ok'}"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
