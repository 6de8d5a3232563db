"""Workload inputs (generated in the parent from the seed) and item execution
(in a fresh child process).

A run repeats a workload's *pass* -- a fixed list of items -- a number of
times set by `--seconds`.  Every in-process pass runs in its own child, so no
cache of the package survives from one pass to the next.  The seed sets the
order of the items and, where a workload has free inputs, their values; it
never changes how many items of each kind a pass holds.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import product
from math import isqrt, lcm
from typing import NamedTuple

# ---------------------------------------------------------------------------
# cli-cold

# Every command shown in README, as argv after the program name.
README_COMMANDS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("main-theorem", ("main-theorem",)),
    ("enumerate-I-2", ("enumerate", "--case", "I", "--type", "2")),
    ("verify-example", ("verify-example",)),
    ("fibers", ("fibers",)),
    ("group-op-double-P1", ("group-op", "double", "P1")),
    ("height-P1-P2", ("height", "P1", "P2")),
    ("weak-contact-Cbar", ("weak-contact", "--conic", "Cbar")),
    ("weak-contact-graph", ("weak-contact", "--conic", "x = t^2+1")),
    ("cremona", ("cremona", "X*Z - T^2")),
    ("zariski-B11-B21", ("zariski", "--pair", "B11-B21")),
    ("fingerprint-B11-B21", ("fingerprint", "B11", "B21")),
)
FORMATS = ("text", "structured")
# What the installed `contactconics` console script runs.
CLI_ENTRY = "import sys; from contactconics.cli import main; sys.exit(main())"


def cli_groups(rng: random.Random) -> list[list[dict]]:
    """Every README command in both formats: one group per format, the
    groups and the commands in each in seeded order.  Each group holds every
    command once, so the traced run can take one group and still run them all."""
    groups = []
    for fmt in rng.sample(FORMATS, len(FORMATS)):
        items = [
            {"kind": "cli", "id": f"{slug}.{fmt}", "argv": [*argv, "--format", fmt]}
            for slug, argv in README_COMMANDS
        ]
        rng.shuffle(items)
        groups.append(items)
    return groups


# ---------------------------------------------------------------------------
# arrangements

PAIR_IDS = (
    "B11-B10", "B11-B12", "B11-B21", "B22-B12",
    "B22-B20", "B22-B21", "D0-D1", "D0-D2",
)
ARRANGEMENT_IDS = ("B10", "B11", "B12", "B20", "B21", "B22", "D0", "D1", "D2")


def arrangement_items(rng: random.Random) -> list[dict]:
    items = [{"kind": "report", "id": pair} for pair in PAIR_IDS]
    items += [{"kind": "fingerprint", "id": name} for name in ARRANGEMENT_IDS]
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# lattice-enum

# The four case lattices (Gram matrices over each case basis).
CASE_GRAMS: dict[str, tuple[tuple[Fraction, ...], ...]] = {
    "I": (
        (Fraction(1, 3), Fraction(1, 6), Fraction(0)),
        (Fraction(1, 6), Fraction(1, 3), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1, 2)),
    ),
    "II": ((Fraction(1, 6), Fraction(0)), (Fraction(0), Fraction(1, 6))),
    "III": ((Fraction(1, 5), Fraction(1, 10)), (Fraction(1, 10), Fraction(3, 10))),
    "IV": ((Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1, 12))),
}
# Target heights are drawn among the norms the lattice attains in
# [base, base + 2).  Inside each window the Gershgorin box of the seed
# implementation keeps the same size, so the seed moves the answer but not
# the amount of work; the bases make the four enumerations comparable in cost.
HEIGHT_WINDOWS: dict[str, int] = {"I": 24, "II": 500, "III": 300, "IV": 250}
HEIGHT_WINDOW_WIDTH = 2
# Main-theorem counts (README), per case, for types 1..6.
MAIN_THEOREM: dict[str, tuple[int, ...]] = {
    "I": (3, 4, 4, 1, 1, 1),
    "II": (1, 2, 2, 0, 1, 0),
    "III": (0, 2, 0, 1, 0, 0),
    "IV": (1, 0, 2, 0, 0, 1),
}
# The 14 case-I classes of types 1-6 (the main-theorem row 3 4 4 1 1 1),
# as coordinates over the basis P1, P2, P3.
CASE_I_CLASSES: dict[int, tuple[tuple[int, int, int], ...]] = {
    1: ((0, 2, 0), (2, -2, 0), (2, 0, 0)),
    2: ((1, -2, -1), (1, -2, 1), (2, -1, -1), (2, -1, 1)),
    3: ((0, 1, -1), (0, 1, 1), (1, 0, -1), (1, 0, 1)),
    4: ((1, 1, 0),),
    5: ((1, -1, 0),),
    6: ((0, 0, 2),),
}
# Smith-form items take the shape `zariski_pair_report` passes to
# `smith_invariants`, `extends_to_basis` and `integer_rank`: two section
# vectors of a case lattice as a 2 x rank matrix, either two sections or a
# section and its double.  The sections are drawn among the lattice vectors
# of height at most 2, the heights the conic types need.
SECTION_HEIGHT = Fraction(2)
SECTION_PAIRS = 8
DOUBLED_PAIRS = 4


def integer_form(gram) -> tuple[int, list[list[int]]]:
    """(scale, A) with A = scale * gram integral."""
    scale = lcm(*(value.denominator for row in gram for value in row))
    return scale, [[int(value * scale) for value in row] for row in gram]


def coordinate_bounds(gram, height: Fraction) -> list[int]:
    """floor(sqrt(H * (G^-1)_ii)): the exact per-coordinate bound of the ellipsoid."""
    inverse = _inverse(gram)
    return [
        isqrt((height * inverse[i][i]).numerator // (height * inverse[i][i]).denominator)
        for i in range(len(gram))
    ]


def _inverse(matrix) -> list[list[Fraction]]:
    size = len(matrix)
    work = [
        [Fraction(v) for v in row] + [Fraction(int(r == c)) for c in range(size)]
        for r, row in enumerate(matrix)
    ]
    for col in range(size):
        pivot = next(r for r in range(col, size) if work[r][col] != 0)
        work[col], work[pivot] = work[pivot], work[col]
        lead = work[col][col]
        work[col] = [v / lead for v in work[col]]
        for r in range(size):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
    return [row[size:] for row in work]


def brute_force_norms(gram, height: Fraction) -> dict[Fraction, set[tuple[int, ...]]]:
    """Every nonzero vector of norm at most `height`, grouped by norm."""
    scale, form = integer_form(gram)
    limit = height * scale
    ranges = [range(-b, b + 1) for b in coordinate_bounds(gram, height)]
    rank = len(gram)
    found: dict[Fraction, set[tuple[int, ...]]] = {}
    for vector in product(*ranges):
        norm = sum(
            form[r][c] * vector[r] * vector[c] for r in range(rank) for c in range(rank)
        )
        if norm == 0 or norm > limit:
            continue
        found.setdefault(Fraction(norm, scale), set()).add(vector)
    return found


def lattice_passes(rng: random.Random, count: int) -> list[list[dict]]:
    attainable = {}
    for case, base in HEIGHT_WINDOWS.items():
        top = Fraction(base + HEIGHT_WINDOW_WIDTH)
        norms = brute_force_norms(CASE_GRAMS[case], top)
        attainable[case] = sorted(n for n in norms if base <= n < top)
    sections = {
        case: sorted(v for vs in brute_force_norms(gram, SECTION_HEIGHT).values() for v in vs)
        for case, gram in CASE_GRAMS.items()
    }
    passes = []
    for _ in range(count):
        items = [
            {"kind": "enumerate", "case": case, "height": str(rng.choice(heights))}
            for case, heights in attainable.items()
        ]
        items += [
            {"kind": "type", "case": case, "type": conic_type}
            for case in CASE_GRAMS
            for conic_type in range(1, 7)
        ]
        for case, vectors in sections.items():
            pairs = [[list(u), list(v)] for u, v in (
                rng.sample(vectors, 2) for _ in range(SECTION_PAIRS)
            )]
            pairs += [[list(u), [2 * c for c in u]] for u in (
                rng.choice(vectors) for _ in range(DOUBLED_PAIRS)
            )]
            items.append({"kind": "basis", "case": case, "pairs": pairs})
        rng.shuffle(items)
        passes.append(items)
    return passes


# ---------------------------------------------------------------------------
# Workload table.  `--seconds` sets the number of passes,
# round(seconds / nominal_s), at least one, so the item count of a run is
# fixed by its arguments.  Each run takes `setup_samples` set-up
# measurements, spread over the run.


class Workload(NamedTuple):
    nominal_s: float  # planned seconds per pass
    loads_example: bool  # set-up includes load_worked_example()
    setup_samples: int


WORKLOADS = {
    "cli-cold": Workload(40.0, True, 3),
    "arrangements": Workload(10.0, True, 3),
    "lattice-enum": Workload(2.5, False, 16),
}


def pass_count(workload: str, seconds: int) -> int:
    return max(1, round(seconds / WORKLOADS[workload].nominal_s))


def build_passes(workload: str, seed: int, seconds: int) -> list[list[list[dict]]]:
    """Inputs of one run: a list of passes; a pass is a list of item groups.

    In-process workloads run each group in a fresh child process; cli-cold
    runs every item as its own process.
    """
    rng = random.Random(f"{workload}:{seed}")
    count = pass_count(workload, seconds)
    if workload == "cli-cold":
        return [cli_groups(rng) for _ in range(count)]
    if workload == "arrangements":
        return [[arrangement_items(rng)] for _ in range(count)]
    if workload == "lattice-enum":
        return [[items] for items in lattice_passes(rng, count)]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Item execution, inside a child process with contactconics importable


class Runner:
    """Runs the items of one workload."""

    def __init__(self, cc):
        self.cc = cc

    def run(self, item: dict) -> str:
        return getattr(self, "_" + item["kind"])(item)

    def _report(self, item):
        return self.cc.zariski_pair_report(item["id"]).render()

    def _fingerprint(self, item):
        example = self.cc.load_worked_example()
        return self.cc.arrangement_fingerprint(example.arrangement(item["id"]))

    def _enumerate(self, item):
        vectors = self.cc.enumerate_height_vectors(
            self.cc.CASES[item["case"]], Fraction(item["height"])
        )
        return repr([list(v) for v in vectors])

    def _type(self, item):
        vectors = self.cc.vectors_for_type(self.cc.CASES[item["case"]], item["type"])
        return repr([list(v) for v in vectors])

    def _basis(self, item):
        lattice = self.cc.lattice
        return json.dumps([
            [
                lattice.smith_invariants(rows),
                lattice.extends_to_basis(rows),
                lattice.integer_rank(rows),
            ]
            for rows in item["pairs"]
        ])
