"""Checks of every output against answers that do not come from the code
under test: values stated in README, expected files captured from the seed
commit, Bezout counts, brute-force lattice enumeration and determinantal
divisors.

Each check returns a list of problems; an empty list means the output is
correct.  Oracles run in the parent, after the timed phase.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd
from pathlib import Path

import workloads

EXPECTED = Path(__file__).resolve().parent / "expected"

# Values README states for the commands it shows.
README_MAIN_THEOREM = (
    "type       1   2   3   4   5   6\n"
    "case I     3   4   4   1   1   1\n"
    "case II    1   2   2   0   1   0\n"
    "case III   0   2   0   1   0   0\n"
    "case IV    1   0   2   0   0   1\n"
)
README_ENUMERATE = (
    "case I, type 2 (one node): target height 3/2, 4 conic classes\n"
    "  (1, -2, -1)  [1]P1 + [-2]P2 + [-1]P3\n"
    "  (1, -2, 1)  [1]P1 + [-2]P2 + [1]P3\n"
    "  (2, -1, -1)  [2]P1 + [-1]P2 + [-1]P3\n"
    "  (2, -1, 1)  [2]P1 + [-1]P2 + [1]P3\n"
)


def expected_output(group: str, item_id: str) -> str:
    return (EXPECTED / group / f"{item_id}.out").read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# cli-cold


def _readme_problems(item_id: str, stdout: str) -> list[str]:
    slug, fmt = item_id.rsplit(".", 1)
    if fmt == "text":
        lines = stdout.splitlines()
        if slug == "main-theorem" and stdout != README_MAIN_THEOREM:
            return ["main-theorem table differs from README"]
        if slug == "enumerate-I-2" and stdout != README_ENUMERATE:
            return ["enumerate --case I --type 2 differs from README"]
        if slug == "height-P1-P2" and lines != ["<P1, P2> = 1/6"]:
            return ["height P1 P2 is not <P1, P2> = 1/6"]
        if slug == "group-op-double-P1" and "x = t^2 + 3/2*t" not in lines:
            return ["double P1 is not x = t^2 + 3/2*t"]
        if slug == "verify-example" and lines[-1:] != ["verified 32 identities"]:
            return ["verify-example does not report 32 identities"]
        return []
    payload = json.loads(stdout)
    if slug == "main-theorem":
        rows = {name: list(counts) for name, counts in workloads.MAIN_THEOREM.items()}
        if payload["rows"] != rows:
            return ["structured main-theorem rows differ from README"]
    if slug == "enumerate-I-2" and payload["classes"] != [
        list(v) for v in workloads.CASE_I_CLASSES[2]
    ]:
        return ["structured enumerate classes differ from README"]
    if slug == "height-P1-P2" and payload["value"] != "1/6":
        return ["structured height P1 P2 is not 1/6"]
    if slug == "group-op-double-P1" and payload["result"]["x"] != "t^2 + 3/2*t":
        return ["structured double P1 is not x = t^2 + 3/2*t"]
    if slug == "verify-example" and payload["count"] != 32:
        return ["structured verify-example count is not 32"]
    return []


def check_cli(item: dict, output: dict) -> list[str]:
    """output: {"code": exit code, "stdout": text}."""
    if output["code"] != 0:
        return [f"{item['id']}: exit code {output['code']}"]
    problems = []
    if output["stdout"] != expected_output("cli", item["id"]):
        problems.append(f"{item['id']}: output differs from the seed capture")
    problems += [f"{item['id']}: {p}" for p in _readme_problems(item["id"], output["stdout"])]
    return problems


# ---------------------------------------------------------------------------
# arrangements


def _bezout_problems(name: str, fingerprint: str) -> list[str]:
    """Each pair block lists every intersection point once; the
    multiplicities of a pair (d1,d2) must add up to d1*d2."""
    problems = []
    current, total = None, 0
    blocks = []
    for line in fingerprint.splitlines():
        if line.startswith("pair ("):
            if current is not None:
                blocks.append((current, total))
            degrees = line[len("pair ("):line.index(")")].split(",")
            current, total = (int(degrees[0]), int(degrees[1])), 0
        elif "mult=" in line:
            total += int(line.split("mult=")[1].split()[0])
    if current is not None:
        blocks.append((current, total))
    if len(blocks) != 3:
        problems.append(f"{name}: {len(blocks)} pair blocks, expected 3")
    for (d1, d2), total in blocks:
        if total != d1 * d2:
            problems.append(f"{name}: pair ({d1},{d2}) has {total} points, Bezout {d1 * d2}")
    return problems


def check_arrangement(item: dict, output: str, fingerprints: dict[str, str]) -> list[str]:
    """Byte comparison and Bezout for one item; for a report, all lattice
    checks pass and its fingerprint verdict agrees with the fingerprints the
    same process computed (`fingerprints`, by arrangement name)."""
    problems = []
    if output != expected_output("arrangements", item["id"]):
        problems.append(f"{item['id']}: output differs from the seed capture")
    if item["kind"] == "fingerprint":
        return problems + _bezout_problems(item["id"], output)
    if "[FAIL]" in output or output.count("[pass]") != 7:
        problems.append(f"{item['id']}: not every lattice check passes")
    left, right = item["id"].split("-")
    if left not in fingerprints or right not in fingerprints:
        return problems + [f"{item['id']}: fingerprints of {left}, {right} missing"]
    verdict = "equal" if fingerprints[left] == fingerprints[right] else "different"
    if f"  fingerprints: {verdict}" not in output.splitlines():
        problems.append(f"{item['id']}: fingerprint verdict disagrees")
    return problems


# ---------------------------------------------------------------------------
# lattice-enum


def _canonical(vector: tuple[int, ...]) -> tuple[int, ...]:
    for coordinate in vector:
        if coordinate:
            return vector if coordinate > 0 else tuple(-c for c in vector)
    return vector


def _norm(gram, vector) -> Fraction:
    return sum(
        (gram[r][c] * vector[r] * vector[c] for r in range(len(vector)) for c in range(len(vector))),
        Fraction(0),
    )


def _class_problems(label: str, gram, vectors, height: Fraction | None) -> list[str]:
    problems = []
    tuples = [tuple(v) for v in vectors]
    if len(set(tuples)) != len(tuples):
        problems.append(f"{label}: a class appears twice")
    for vector in tuples:
        if _canonical(vector) != vector:
            problems.append(f"{label}: {vector} is not in canonical sign")
        if height is not None and _norm(gram, vector) != height:
            problems.append(f"{label}: {vector} has norm {_norm(gram, vector)}")
    return problems


def _brute_force(gram, height: Fraction) -> set[tuple[int, ...]]:
    found = workloads.brute_force_norms(gram, height).get(height, set())
    return {_canonical(v) for v in found}


def _basis_problems(label: str, rows, output) -> list[str]:
    """Smith invariants of a 2 x n matrix from its determinantal divisors.

    d1 is the gcd of the entries and d1*d2 the gcd of the 2 x 2 minors; the
    rank is the number of nonzero divisors, and the rows extend to a basis
    of Z^n exactly when the rank is 2 and the minors have gcd 1.
    """
    u, v = rows
    entries_gcd = 0
    for entry in (*u, *v):
        entries_gcd = gcd(entries_gcd, entry)
    minors_gcd = 0
    for i in range(len(u)):
        for j in range(i + 1, len(u)):
            minors_gcd = gcd(minors_gcd, u[i] * v[j] - u[j] * v[i])
    if minors_gcd:
        invariants = [entries_gcd, minors_gcd // entries_gcd]
    else:
        invariants = [entries_gcd] if entries_gcd else []
    expected = [invariants, len(invariants) == 2 and minors_gcd == 1, len(invariants)]
    if output != expected:
        return [f"{label} {rows}: (invariants, extends, rank) {output}, expected {expected}"]
    return []


def check_lattice(item: dict, output: str) -> list[str]:
    value = json.loads(output)
    if item["kind"] == "enumerate":
        gram = workloads.CASE_GRAMS[item["case"]]
        height = Fraction(item["height"])
        label = f"case {item['case']} height {height}"
        problems = _class_problems(label, gram, value, height)
        if {tuple(v) for v in value} != _brute_force(gram, height):
            problems.append(f"{label}: differs from the brute-force box enumeration")
        return problems
    if item["kind"] == "type":
        gram = workloads.CASE_GRAMS[item["case"]]
        label = f"case {item['case']} type {item['type']}"
        heights = {_norm(gram, v) for v in value}
        problems = _class_problems(label, gram, value, None)
        if len(heights) > 1:
            problems.append(f"{label}: classes of different heights {sorted(heights)}")
        for height in heights:
            if not {tuple(v) for v in value} <= _brute_force(gram, height):
                problems.append(f"{label}: a class is not a lattice vector of height {height}")
        if len(value) != workloads.MAIN_THEOREM[item["case"]][item["type"] - 1]:
            problems.append(f"{label}: {len(value)} classes, README states "
                            f"{workloads.MAIN_THEOREM[item['case']][item['type'] - 1]}")
        if item["case"] == "I" and [tuple(v) for v in value] != list(
            workloads.CASE_I_CLASSES[item["type"]]
        ):
            problems.append(f"{label}: classes differ from the stated case-I classes")
        return problems
    label = f"case {item['case']} section pairs"
    if len(value) != len(item["pairs"]):
        return [f"{label}: {len(value)} results for {len(item['pairs'])} pairs"]
    return [
        problem
        for rows, output in zip(item["pairs"], value)
        for problem in _basis_problems(label, rows, output)
    ]
