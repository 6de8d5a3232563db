"""The package computes exactly: no float, no complex float, no tolerance."""

import ast
from pathlib import Path

import contactconics

_PACKAGE = Path(contactconics.__file__).parent
_INEXACT_MATH = {"sqrt", "log", "exp", "pow"}


def _inexact_nodes(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{where}: float literal {node.value!r}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append(f"{where}: float(...) call")
        elif isinstance(node, ast.Import) and any(alias.name == "cmath" for alias in node.names):
            found.append(f"{where}: import cmath")
        elif isinstance(node, ast.ImportFrom) and node.module == "cmath":
            found.append(f"{where}: from cmath import")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [
                f"{where}: from math import {alias.name}"
                for alias in node.names
                if alias.name in _INEXACT_MATH
            ]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr in _INEXACT_MATH
        ):
            found.append(f"{where}: math.{node.attr}")
    return found


def test_package_sources_use_no_floating_point():
    sources = sorted(_PACKAGE.glob("*.py"))
    assert len(sources) >= 9
    problems = [
        f"{path.name} {problem}"
        for path in sources
        for problem in _inexact_nodes(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert problems == []


def test_guard_flags_each_inexact_construct():
    sample = (
        "import cmath\n"
        "import math\n"
        "from math import sqrt, isqrt\n"
        "x = 0.5\n"
        "y = float(3)\n"
        "z = math.log(2) + math.exp(1) + math.pow(2, 3) + math.sqrt(2)\n"
        "w = 2j\n"
        "n = math.isqrt(4)\n"
    )
    problems = _inexact_nodes(ast.parse(sample))
    assert len(problems) == 9
    assert not any("isqrt" in problem for problem in problems)
