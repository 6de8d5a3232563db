"""Section lattices of the four tangent-line cases and conic counting.

Each case fixes the reducible-fiber configuration of the elliptic surface
attached to a two-node one-cusp quartic with a chosen smooth tangency
point, together with a basis of the section lattice, its Gram matrix, and
the fiber-component indices of the basis sections.  Weak contact conics
of a given type correspond to sections of a prescribed height whose
fiber-component pattern matches the singular points the conic must hit;
counting them is short-vector enumeration in the positive-definite Gram
form followed by the component filter.

Vector conventions: a section is an integer coordinate vector over the
case basis; v and -v give the same conic, so classes are counted once,
represented by the vector whose first nonzero coordinate is positive.

The pair reports re-verify the lattice-side hypotheses of the
non-homeomorphism criterion for the bundled arrangements: that the two
distinguished sections extend to a basis (Smith normal form), the
dependence of a section on its double, the independence of the swapped
pair, and the identification of each arrangement member as a section
image.  The topological conclusion itself is cited, not re-proved.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Mapping, NamedTuple, Sequence

from .curves import CONIC_TYPE_TABLE as _TYPE_TABLE, arrangement_fingerprint
from .errors import IntegrityError, PreconditionError
from .fixtures import ARRANGEMENTS, load_worked_example
from .heights import _require_positive_definite, component_contribution

# Fiber roles: the plane-curve feature the fiber sits over.
NODE_FIBER = "node"
CUSP_FIBER = "cusp"
LINE_FIBER = "line"

# Conic types, in order; `curves.CONIC_TYPE_TABLE` gives the singular points each passes through.
CONIC_TYPES: tuple[int, ...] = tuple(_TYPE_TABLE)


class CaseFiber(NamedTuple):
    """One reducible fiber of a case configuration.

    psi holds the fiber-component indices of the basis sections; it is a
    homomorphism into Z/count componentwise.

    The fiber is assumed to be of type A: its components off the zero
    section span the root lattice A_{count-1} (Kodaira I_count, III or IV).
    count then serves both as rank + 1 of that root lattice (Shioda–Tate)
    and as its determinant det(A_{count-1}) = count, which is what makes
    the audit's det(Gram) = 1 / prod count right.  A D or E fiber breaks
    the second use: det(D_n) = 4, det(E6) = 3, det(E7) = 2.
    """

    label: str
    role: str
    count: int
    at_infinity: bool
    psi: tuple[int, ...]


class _IntegerLDL(NamedTuple):
    """The LDLᵀ factors of a positive-definite Gram matrix, scaled to integers.

    With c_k = sum_{r>k} L[r][k]·x_r, level k of the walk reads the integer
    y_k = scales[k]·(x_k + c_k) = scales[k]·x_k + sum_{(r, n) in shifts[k]} n·x_r,
    where scales[k] is the lcm of the denominators of the L[r][k], r > k, and
    the norm is sum_k weights[k]·y_k² with weights[k] = d_k / scales[k]².
    """

    scales: tuple[int, ...]
    shifts: tuple[tuple[tuple[int, int], ...], ...]
    weights: tuple[Fraction, ...]


def _integer_ldl(
    pivots: Sequence[Fraction], lower: Sequence[Sequence[Fraction]]
) -> _IntegerLDL:
    """The integer form of the factors that `_require_positive_definite` returns."""
    rank = len(pivots)
    scales: list[int] = []
    shifts: list[tuple[tuple[int, int], ...]] = []
    for k in range(rank):
        below = [(r, lower[r][k]) for r in range(k + 1, rank) if lower[r][k]]
        scale = lcm(*(entry.denominator for _r, entry in below))
        scales.append(scale)
        shifts.append(tuple((r, int(entry * scale)) for r, entry in below))
    weights = tuple(pivot / (scale * scale) for pivot, scale in zip(pivots, scales))
    return _IntegerLDL(tuple(scales), tuple(shifts), weights)


class CaseLattice:
    """Basis, Gram matrix and reducible fibers of one tangent-line case.

    Every audit runs on construction.  `ldl` holds the integer form of the
    Gram matrix's LDLᵀ factors, computed once by the positive-definiteness
    audit and reused by every enumeration.  The type table is fixed here too:
    `targets` holds the target height of each of `CONIC_TYPES`, in order (see
    `target_height`), and the type filter reads the finite node fibers and
    the finite cusp fibers.
    """

    __slots__ = ("name", "basis", "gram", "fibers", "ldl", "targets",
                 "node_fibers", "cusp_fibers")

    def __init__(
        self,
        name: str,
        basis: tuple[str, ...],
        gram: tuple[tuple[Fraction, ...], ...],
        fibers: tuple[CaseFiber, ...],
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "fibers", fibers)
        rank = len(self.basis)
        if len(self.gram) != rank or any(len(row) != rank for row in self.gram):
            raise IntegrityError(f"case {self.name}: Gram matrix is not {rank}x{rank}")
        for r in range(rank):
            for c in range(rank):
                if self.gram[r][c] != self.gram[c][r]:
                    raise IntegrityError(f"case {self.name}: Gram matrix not symmetric")
        pivots, lower = _require_positive_definite(
            self.gram, f"case {self.name}: Gram matrix is not positive definite"
        )
        for fiber in self.fibers:
            if fiber.role not in (NODE_FIBER, CUSP_FIBER, LINE_FIBER):
                raise IntegrityError(
                    f"case {self.name}: unknown fiber role {fiber.role!r}"
                )
            if fiber.count < 2:
                raise IntegrityError(
                    f"case {self.name}: fiber {fiber.label} is not reducible"
                )
            if len(fiber.psi) != rank:
                raise IntegrityError(
                    f"case {self.name}: fiber {fiber.label} has a component row "
                    f"of length {len(fiber.psi)}, expected {rank}"
                )
            if any(index < 0 or index >= fiber.count for index in fiber.psi):
                raise IntegrityError(
                    f"case {self.name}: fiber {fiber.label} component index "
                    f"out of range"
                )
        # The stated diagonal heights must agree with the fiber data under
        # the height formula for sections not meeting the zero section.
        for k in range(rank):
            expected = Fraction(2)
            for fiber in self.fibers:
                expected -= component_contribution(
                    fiber.count, fiber.psi[k], fiber.psi[k]
                )
            if self.gram[k][k] != expected:
                raise IntegrityError(
                    f"case {self.name}: stated height of {self.basis[k]} "
                    f"({self.gram[k][k]}) disagrees with its fiber data "
                    f"({expected})"
                )
        # Mordell–Weil lattice identities of a rational elliptic surface
        # (Shioda 1990; Oguiso–Shioda 1991): Shioda–Tate gives the rank as 8
        # minus the rank of the fibers' root lattices, and a torsion-free
        # Mordell–Weil lattice has det(Gram) = 1 / prod m_v.  The rank
        # identity reads fiber.count as rank + 1, which holds for any fiber;
        # the determinant reads it as det(A_{m_v - 1}) = m_v, which holds only
        # for type A fibers (see CaseFiber).  A D or E fiber would need its
        # own discriminant in place of count.
        shioda_tate = 8 - sum(fiber.count - 1 for fiber in self.fibers)
        if rank != shioda_tate:
            raise IntegrityError(
                f"case {self.name}: rank {rank} disagrees with Shioda–Tate "
                f"(8 - sum(m_v - 1) = {shioda_tate})"
            )
        determinant = Fraction(1)
        for pivot in pivots:
            determinant *= pivot
        counts = 1
        for fiber in self.fibers:
            counts *= fiber.count
        if determinant != Fraction(1, counts):
            raise IntegrityError(
                f"case {self.name}: Gram determinant {determinant} is not "
                f"1/{counts}, one over the product of the fiber component counts"
            )
        object.__setattr__(self, "ldl", _integer_ldl(pivots, lower))
        finite = [fiber for fiber in self.fibers if not fiber.at_infinity]
        nodes = tuple(fiber for fiber in finite if fiber.role == NODE_FIBER)
        cusps = tuple(fiber for fiber in finite if fiber.role == CUSP_FIBER)
        object.__setattr__(self, "node_fibers", nodes)
        object.__setattr__(self, "cusp_fibers", cusps)
        targets: list[Fraction | None] = []
        for conic_type in CONIC_TYPES:
            nodes_needed, cusp_needed = _TYPE_TABLE[conic_type]
            height = None
            if len(nodes) >= nodes_needed and (cusps or not cusp_needed):
                height = Fraction(2) - Fraction(nodes_needed, 2)
                if cusp_needed:
                    height -= Fraction(cusps[0].count - 1, cusps[0].count)
            targets.append(height)
        object.__setattr__(self, "targets", tuple(targets))

    def __setattr__(self, name, value):
        raise AttributeError("CaseLattice is immutable")

    def __repr__(self) -> str:
        return f"CaseLattice({self.name})"

    @property
    def rank(self) -> int:
        return len(self.basis)

    def norm(self, vector: Sequence[int]) -> Fraction:
        """The height <v, v> of an integer combination of the basis."""
        if len(vector) != self.rank:
            raise PreconditionError(
                f"case {self.name} expects vectors of length {self.rank}"
            )
        total = Fraction(0)
        for r in range(self.rank):
            for c in range(self.rank):
                total += self.gram[r][c] * vector[r] * vector[c]
        return total

    def combination_label(self, vector: Sequence[int]) -> str:
        """Render a vector as an integer combination of the basis sections."""
        parts = [
            f"[{coefficient}]{name}"
            for coefficient, name in zip(vector, self.basis)
            if coefficient != 0
        ]
        return " + ".join(parts) if parts else "O"


CASE_I = CaseLattice(
    name="I",
    basis=("P1", "P2", "P3"),
    gram=(
        (Fraction(1, 3), Fraction(1, 6), Fraction(0)),
        (Fraction(1, 6), Fraction(1, 3), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1, 2)),
    ),
    fibers=(
        CaseFiber("v1", NODE_FIBER, 2, False, (1, 0, 1)),
        CaseFiber("v2", NODE_FIBER, 2, False, (0, 1, 1)),
        CaseFiber("v3", CUSP_FIBER, 3, False, (1, 2, 0)),
        CaseFiber("vinf", LINE_FIBER, 2, True, (1, 1, 1)),
    ),
)

CASE_II = CaseLattice(
    name="II",
    basis=("P1", "P2"),
    gram=(
        (Fraction(1, 6), Fraction(0)),
        (Fraction(0), Fraction(1, 6)),
    ),
    fibers=(
        CaseFiber("v1", NODE_FIBER, 2, False, (1, 0)),
        CaseFiber("v2", NODE_FIBER, 2, False, (0, 1)),
        CaseFiber("v3", CUSP_FIBER, 3, False, (1, 1)),
        CaseFiber("vinf", LINE_FIBER, 3, True, (1, 2)),
    ),
)

CASE_III = CaseLattice(
    name="III",
    basis=("P1", "P2"),
    gram=(
        (Fraction(1, 5), Fraction(1, 10)),
        (Fraction(1, 10), Fraction(3, 10)),
    ),
    fibers=(
        CaseFiber("v1", NODE_FIBER, 2, False, (1, 0)),
        CaseFiber("v2", NODE_FIBER, 2, False, (1, 1)),
        CaseFiber("vinf", CUSP_FIBER, 5, True, (1, 3)),
    ),
)

CASE_IV = CaseLattice(
    name="IV",
    basis=("P3", "P2"),
    gram=(
        (Fraction(1, 2), Fraction(0)),
        (Fraction(0), Fraction(1, 12)),
    ),
    fibers=(
        CaseFiber("v1", NODE_FIBER, 2, False, (1, 1)),
        CaseFiber("v2", CUSP_FIBER, 3, False, (0, 1)),
        CaseFiber("vinf", NODE_FIBER, 4, True, (2, 1)),
    ),
)

CASES: Mapping[str, CaseLattice] = {
    "I": CASE_I,
    "II": CASE_II,
    "III": CASE_III,
    "IV": CASE_IV,
}

CASE_NAMES: tuple[str, ...] = tuple(CASES)


def target_height(case: CaseLattice, conic_type: int) -> Fraction | None:
    """Required section height for a conic of the given type, if attainable.

    A type needs as many node fibers as nodes the conic passes through, and
    a cusp fiber when it passes through the cusp; a fiber sitting over the
    line at infinity cannot be used because the corresponding section would
    not map to a conic.  Returns None when the case lacks the needed
    finite fibers.  The case fixes its table of these heights when built.
    """
    if conic_type not in _TYPE_TABLE:
        raise PreconditionError(
            f"unknown conic type {conic_type}; expected 1..6"
        )
    return case.targets[CONIC_TYPES.index(conic_type)]


def enumerate_height_vectors(
    case: CaseLattice, height: Fraction
) -> list[tuple[int, ...]]:
    """All classes {v, -v} with <v, v> equal to the given height.

    Returns canonical representatives (first nonzero coordinate positive),
    sorted.
    """
    if height <= 0:
        raise PreconditionError("the target height must be positive")
    return _short_vectors(case.ldl, height)


def _short_vectors(ldl: _IntegerLDL, height: Fraction) -> list[tuple[int, ...]]:
    """Sorted canonical classes {v, -v} of integer v with vᵀ·G·v == height > 0.

    Exact Fincke–Pohst enumeration (Fincke–Pohst 1985) over the LDLᵀ factors
    of the Gram matrix G in integer form: Q(x) = sum_k d_k·(x_k + c_k)²
    = sum_k w_k·y_k², where c_k = sum_{r>k} L[r][k]·x_r and the integer
    y_k = den_k·(x_k + c_k) depend only on x_k and the later coordinates
    (see `_IntegerLDL`).  With S the lcm of the denominators of the height
    and of the w_k, the coefficients e_k = S·w_k and the target R = S·height
    are integers.  The walk fixes coordinates from the last one down; at
    level k it takes every integer x_k with e_k·y_k² <= R - sum_{i>k} e_i·y_i²,
    and as y_k² is an integer that is |y_k| <= isqrt(remainder // e_k).
    Completeness: every term of Q is >= 0, so a vector of norm H has each
    partial sum sum_{i>=k} e_i·y_i² <= R, and the nested intervals contain
    it.  At the first coordinate the last term must equal what is left, so
    y_0 is solved for by an exact integer square root instead of scanned,
    inside the loop over x_1 rather than by one more level of the walk.
    Each vector is reached once, so keeping the ones whose first nonzero
    coordinate is positive keeps one per class.
    """
    scales, shifts, weights = ldl
    scale = lcm(height.denominator, *(w.denominator for w in weights))
    coefficients = [w.numerator * (scale // w.denominator) for w in weights]
    target = height.numerator * (scale // height.denominator)
    first_den, first_coefficient, first_shifts = scales[0], coefficients[0], shifts[0]
    if len(weights) == 1:
        roots = _level_roots(target, first_coefficient, first_den, 0)
        return sorted((x,) for x in roots if x > 0)
    vector = [0] * len(weights)
    classes: list[tuple[int, ...]] = []

    def walk(k: int, remainder: int) -> None:
        shift = 0
        for r, n in shifts[k]:
            shift += n * vector[r]
        den, coefficient = scales[k], coefficients[k]
        for x in _level_range(remainder, coefficient, den, shift):
            vector[k] = x
            y = den * x + shift
            rest = remainder - coefficient * y * y
            if k > 1:
                walk(k - 1, rest)
                continue
            first_shift = 0
            for r, n in first_shifts:
                first_shift += n * vector[r]
            for x0 in _level_roots(rest, first_coefficient, first_den, first_shift):
                vector[0] = x0
                if next(c for c in vector if c) > 0:
                    classes.append(tuple(vector))

    walk(len(weights) - 1, target)
    return sorted(classes)


def _level_range(remainder: int, coefficient: int, den: int, shift: int) -> range:
    """The integers x with coefficient·(den·x + shift)² <= remainder.

    All four are integers, remainder >= 0 and coefficient, den > 0.  As
    y = den·x + shift is an integer, so is y², and the condition is
    y² <= remainder // coefficient, that is |y| <= isqrt(remainder // coefficient).
    """
    bound = isqrt(remainder // coefficient)
    return range(-((bound + shift) // den), (bound - shift) // den + 1)


def _level_roots(remainder: int, coefficient: int, den: int, shift: int) -> list[int]:
    """The integers x with coefficient·(den·x + shift)² == remainder."""
    square, rest = divmod(remainder, coefficient)
    root = isqrt(square)
    if rest or root * root != square:
        return []
    return [(y - shift) // den for y in {root, -root} if (y - shift) % den == 0]


def _psi_value(fiber: CaseFiber, vector: Sequence[int]) -> int:
    return sum(p * v for p, v in zip(fiber.psi, vector)) % fiber.count


def _matches_type(case: CaseLattice, vector: Sequence[int], conic_type: int) -> bool:
    """Whether a vector at the type's target height hits the type's singular points.

    A conic's section must also meet the identity component of the fiber at
    infinity, and at the target height h that is implied.  The finite fibers
    are node fibers of count 2 and cusp fibers of count 3, so the ones this
    filter passes contribute 2 - h in total.  The height formula
    h = 2 + 2 P.O - sum_v contr_v then leaves contr_inf = 2 P.O, an even
    integer, while a nonzero index at infinity would give
    0 < contr_inf <= 6/5, the most a fiber of count <= 5 gives.
    """
    nodes_needed, cusp_needed = _TYPE_TABLE[conic_type]
    nodes_hit = sum(1 for fiber in case.node_fibers if _psi_value(fiber, vector))
    cusp_hit = any(_psi_value(fiber, vector) for fiber in case.cusp_fibers)
    return nodes_hit == nodes_needed and cusp_hit == cusp_needed


def vectors_for_type(case: CaseLattice, conic_type: int) -> list[tuple[int, ...]]:
    """Canonical class representatives giving weak contact conics of a type."""
    height = target_height(case, conic_type)
    if height is None:
        return []
    return [
        vector
        for vector in enumerate_height_vectors(case, height)
        if _matches_type(case, vector, conic_type)
    ]


def count_by_type(case: CaseLattice) -> tuple[int, ...]:
    """Number of weak contact conics of each type 1..6 for one case."""
    return tuple(len(vectors_for_type(case, t)) for t in CONIC_TYPES)


def main_theorem_rows() -> list[tuple[str, tuple[int, ...]]]:
    """The full count table, one row per case, computed by enumeration."""
    return [(name, count_by_type(CASES[name])) for name in CASE_NAMES]


# ---------------------------------------------------------------------------
# Integer-matrix utilities for the basis-extension and independence checks


def smith_invariants(rows: Sequence[Sequence[int]]) -> list[int]:
    """Nonzero invariant factors of an integer matrix, in divisibility order.

    One elimination for every shape.  Each round pivots on an entry p of
    least absolute value and reduces its column, then its row, once by floor
    division, leaving remainders a - (a // p)·p of absolute value below |p|.
    While one is left the pivot row stays in; otherwise the round records |p|
    and drops the pivot's row and column.
    """
    work = [list(map(int, row)) for row in rows]
    width = len(work[0]) if work else 0
    for row in work:
        if len(row) != width:
            raise PreconditionError("ragged integer matrix")
    invariants: list[int] = []
    while True:
        least = 0
        for r, row in enumerate(work):
            for entry in row:
                if entry and (not least or abs(entry) < least):
                    least, r0, p = abs(entry), r, entry
        if not least:
            break
        pivot_row = work[r0]
        c0 = pivot_row.index(p)
        left = False
        for r, row in enumerate(work):
            if row[c0] and r != r0:
                q = row[c0] // p
                row = work[r] = [a - q * b for a, b in zip(row, pivot_row)]
                if row[c0]:
                    left = True
        # reduce the row unless p is already its only nonzero entry
        if pivot_row.count(0) < width - 1:
            quotients = [a // p for a in pivot_row]
            quotients[c0] = 0
            for r, row in enumerate(work):
                head = row[c0]
                if head:
                    work[r] = [a - q * head for a, q in zip(row, quotients)]
            left = left or work[r0].count(0) < width - 1
        if left:
            continue
        invariants.append(least)
        del work[r0]
        for row in work:
            del row[c0]
        width -= 1
    # A diagonal form determines the invariant factors after gcd/lcm
    # normalization into a divisibility chain.
    changed = len(invariants) > 1
    while changed:
        changed = False
        for i in range(len(invariants) - 1):
            a, b = invariants[i], invariants[i + 1]
            if b % a:
                g = gcd(a, b)
                invariants[i], invariants[i + 1] = g, a * b // g
                changed = True
    invariants.sort()
    return invariants


def integer_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals of an integer matrix."""
    return len(smith_invariants(rows))


def extends_to_basis(rows: Sequence[Sequence[int]]) -> bool:
    """Whether the row vectors extend to a basis of the ambient Z^n.

    True exactly when the rows are independent and all Smith invariant
    factors are 1, i.e. the quotient by the row span is torsion free.
    """
    invariants = smith_invariants(rows)
    return len(invariants) == len(rows) and all(d == 1 for d in invariants)


# ---------------------------------------------------------------------------
# Arrangement pair reports


class PairCheck(NamedTuple):
    name: str
    passed: bool
    detail: str


class ZariskiReport(NamedTuple):
    """Re-verified lattice hypotheses for one arrangement pair."""

    pair_id: str
    left: str
    right: str
    swapped: str  # "companion curve" or "contact conic"
    section_1: str
    section_2: str
    checks: tuple[PairCheck, ...]
    fingerprints_equal: bool
    conclusion: str

    @property
    def all_lattice_checks_pass(self) -> bool:
        return all(check.passed for check in self.checks)

    def render(self) -> str:
        lines = [
            f"pair {self.pair_id}: {self.left} vs {self.right}",
            f"  differ in: {self.swapped}",
            f"  sections: s1 = {self.section_1}, s2 = {self.section_2}",
        ]
        for check in self.checks:
            status = "pass" if check.passed else "FAIL"
            lines.append(f"  [{status}] {check.name}: {check.detail}")
        agreement = "equal" if self.fingerprints_equal else "different"
        lines.append(f"  fingerprints: {agreement}")
        lines.append(f"  conclusion: {self.conclusion}")
        return "\n".join(lines)


SWAP_COMPANION = "companion curve"
SWAP_CONIC = "contact conic"

# For each pair: the two arrangement names, the distinguished sections, and
# which member is swapped between the arrangements.
_PAIRS: Mapping[str, tuple[str, str, str, str, str]] = {
    "B11-B21": ("B11", "B21", "P1", "P2", SWAP_COMPANION),
    "B22-B12": ("B22", "B12", "P2", "P1", SWAP_COMPANION),
    "B11-B12": ("B11", "B12", "P1", "P2", SWAP_CONIC),
    "B11-B10": ("B11", "B10", "P1", "P0", SWAP_CONIC),
    "B22-B21": ("B22", "B21", "P2", "P1", SWAP_CONIC),
    "B22-B20": ("B22", "B20", "P2", "P0", SWAP_CONIC),
    "D0-D1": ("D0", "D1", "P0", "P1", SWAP_CONIC),
    "D0-D2": ("D0", "D2", "P0", "P2", SWAP_CONIC),
}

PAIR_NAMES: tuple[str, ...] = tuple(sorted(_PAIRS))


def zariski_pair_report(pair_id: str) -> ZariskiReport:
    """Re-verify the lattice hypotheses for one arrangement pair.

    The checks cover: both arrangements decompose as quartic + section
    image + doubled-section image; (s1, s2) extends to a basis of the
    section lattice (Smith normal form); s1 and [2]s1 are dependent; the
    swapped pair is independent.  The coordinates of s over the basis are
    read from `example.vectors` and the images of s and [2]s from
    `example.images`: the load checked P0's coordinates and the stated
    doublings against the group law, and matched the images to the
    companion lines and the conics Cbar and C0-C2, so no report runs the
    group law.  The fingerprint comparison records whether the
    combinatorial necessary conditions agree.  The topological conclusion
    is cited from the underlying criterion, not re-proved here.
    """
    if pair_id not in _PAIRS:
        raise PreconditionError(
            f"unknown pair {pair_id!r}; expected one of {', '.join(PAIR_NAMES)}"
        )
    left_name, right_name, s1_name, s2_name, swapped = _PAIRS[pair_id]
    example = load_worked_example()
    checks: list[PairCheck] = []

    s1_vector = example.vectors[s1_name]
    s2_vector = example.vectors[s2_name]

    left_components = ARRANGEMENTS[left_name]
    right_components = ARRANGEMENTS[right_name]
    shared_ok = (
        left_components[0] == right_components[0] == "Q"
        and (
            left_components[2] == right_components[2]
            if swapped == SWAP_COMPANION
            else left_components[1] == right_components[1]
        )
    )
    checks.append(
        PairCheck(
            "arrangements share the quartic and the unswapped member",
            shared_ok,
            f"{left_name} = Q + {left_components[1]} + {left_components[2]}, "
            f"{right_name} = Q + {right_components[1]} + {right_components[2]}",
        )
    )

    # the left members of s1 and [2]s1, and the swapped member on the right
    identities = [(left_components[1], s1_name), (left_components[2], f"[2]{s1_name}")]
    if swapped == SWAP_COMPANION:
        identities.insert(1, (right_components[1], s2_name))
    else:
        identities.append((right_components[2], f"[2]{s2_name}"))
    # No curve is built from an image: one proportional to a fixture curve,
    # which the load tested square-free, is itself square-free.
    for curve_key, image_key in identities:
        checks.append(
            PairCheck(
                "member identified as a section image",
                example.images[image_key].is_proportional(example.curve(curve_key).form),
                f"{curve_key} is the image of {image_key}",
            )
        )

    # read basis extension (see `extends_to_basis`) and rank off the invariants
    invariants = smith_invariants([list(s1_vector), list(s2_vector)])
    checks.append(
        PairCheck(
            f"({s1_name}, {s2_name}) extends to a basis of the section lattice",
            invariants == [1, 1],
            f"Smith invariants {tuple(invariants)}",
        )
    )

    double_vector = tuple(2 * c for c in s1_vector)
    dependence_rank = integer_rank([list(s1_vector), list(double_vector)])
    checks.append(
        PairCheck(
            f"{s1_name} and [2]{s1_name} are linearly dependent",
            dependence_rank == 1,
            f"rank {dependence_rank}",
        )
    )

    if swapped == SWAP_COMPANION:
        independent_pair = (s2_name, f"[2]{s1_name}")
        independence_rank = integer_rank([list(s2_vector), list(double_vector)])
    else:
        independent_pair = (s1_name, s2_name)
        independence_rank = len(invariants)
    checks.append(
        PairCheck(
            f"{independent_pair[0]} and {independent_pair[1]} are linearly independent",
            independence_rank == 2,
            f"rank {independence_rank}",
        )
    )

    left_fingerprint = arrangement_fingerprint(example.arrangement(left_name))
    right_fingerprint = arrangement_fingerprint(example.arrangement(right_name))
    fingerprints_equal = left_fingerprint == right_fingerprint

    lattice_ok = all(check.passed for check in checks)
    if lattice_ok:
        conclusion = (
            "lattice hypotheses verified; the arrangements are not "
            "homeomorphic as plane pairs (topological conclusion cited, "
            "not re-proved here)"
        )
        if fingerprints_equal:
            conclusion += (
                "; fingerprints agree, consistent with equal combinatorics "
                "(a necessary condition, not a proof)"
            )
        else:
            conclusion += (
                "; fingerprints differ, so equal combinatorics is not "
                "corroborated by this implementation"
            )
    else:
        conclusion = "lattice hypotheses FAILED; no conclusion"
    return ZariskiReport(
        pair_id=pair_id,
        left=left_name,
        right=right_name,
        swapped=swapped,
        section_1=s1_name,
        section_2=s2_name,
        checks=tuple(checks),
        fingerprints_equal=fingerprints_equal,
        conclusion=conclusion,
    )
