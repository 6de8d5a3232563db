"""Case lattices: target heights, short-vector enumeration, pair reports."""

import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, product
from math import gcd, isqrt, lcm

import pytest
from hypothesis import given, settings, strategies as st

from contactconics import (
    ARRANGEMENT_NAMES,
    BiPoly,
    CASE_I,
    CASE_II,
    CASE_III,
    CASE_IV,
    CASE_NAMES,
    CASES,
    PAIR_NAMES,
    PreconditionError,
    TriForm,
    arrangement_fingerprint,
    count_by_type,
    enumerate_height_vectors,
    load_worked_example,
    main_theorem_rows,
    smith_invariants,
    target_height,
    vectors_for_type,
    zariski_pair_report,
)
from contactconics import curves, fixtures, lattice
from contactconics.errors import IntegrityError
from contactconics.heights import _require_positive_definite
from contactconics.lattice import (
    CaseLattice,
    _integer_ldl,
    _level_range,
    _level_roots,
    _short_vectors,
    extends_to_basis,
    integer_rank,
)

F = Fraction


def test_case_constants_are_audited_on_import():
    assert [case.name for case in (CASE_I, CASE_II, CASE_III, CASE_IV)] == list(CASE_NAMES)
    assert CASE_I.rank == 3
    assert CASE_II.rank == CASE_III.rank == CASE_IV.rank == 2


def test_norms_match_the_gram_data():
    assert CASE_I.norm((1, 0, 0)) == F(1, 3)
    assert CASE_I.norm((1, -1, 0)) == F(1, 3)
    assert CASE_III.norm((1, 3)) == F(1, 5) + 2 * 3 * F(1, 10) + 9 * F(3, 10)
    assert CASE_IV.norm((0, 2)) == F(1, 3)
    with pytest.raises(PreconditionError, match="case I expects vectors of length 3"):
        CASE_I.norm((1, 0))


def test_target_heights():
    # the whole table, types 1..6 in each case; None where the case lacks a
    # needed finite node or cusp fiber
    table = {
        "I": (F(4, 3), F(3, 2), F(5, 6), F(1), F(1, 3), F(2)),
        "II": (F(4, 3), F(3, 2), F(5, 6), F(1), F(1, 3), F(2)),
        "III": (None, F(3, 2), None, F(1), None, F(2)),
        "IV": (F(4, 3), F(3, 2), F(5, 6), None, None, F(2)),
    }
    for name, heights in table.items():
        assert tuple(target_height(CASES[name], t) for t in range(1, 7)) == heights, name
    for conic_type in (0, 7):
        with pytest.raises(PreconditionError):
            target_height(CASE_I, conic_type)


def test_enumeration_is_symmetric_and_canonical():
    vectors = enumerate_height_vectors(CASE_I, F(3, 2))
    for vector in vectors:
        flipped = tuple(-c for c in vector)
        first_nonzero = next(c for c in vector if c)
        assert first_nonzero > 0
        assert flipped not in vectors
        assert CASE_I.norm(vector) == F(3, 2)
    with pytest.raises(PreconditionError):
        enumerate_height_vectors(CASE_I, F(0))


# -- exact enumeration against an independent brute force ---------------------


def _determinant(matrix):
    """Laplace expansion along the first row; the empty matrix has det 1."""
    if not matrix:
        return F(1)
    return sum(
        (-1) ** c * matrix[0][c] * _determinant([row[:c] + row[c + 1:] for row in matrix[1:]])
        for c in range(len(matrix))
    )


def _brute_force_by_norm(gram, limit):
    """Canonical classes of norm <= limit, grouped by norm, sorted in each group.

    Scans the box |v_i| <= sqrt(H·(G^-1)_ii) with H = limit; (G^-1)_ii is the
    cofactor of entry (i, i) over det G, and for positive definite G,
    H·(G^-1)_ii is the largest x_i² on the ellipsoid xᵀGx <= H.
    """
    rank = len(gram)
    rows = [list(row) for row in gram]
    det = _determinant(rows)
    bounds = []
    for i in range(rank):
        minor = [row[:i] + row[i + 1:] for k, row in enumerate(rows) if k != i]
        ratio = F(limit) * _determinant(minor) / det
        bounds.append(isqrt(ratio.numerator * ratio.denominator) // ratio.denominator)
    scale = lcm(*(entry.denominator for row in gram for entry in row))
    form = [[int(entry * scale) for entry in row] for row in gram]
    found = {}
    for vector in product(*(range(-b, b + 1) for b in bounds)):
        norm = sum(form[r][c] * vector[r] * vector[c] for r in range(rank) for c in range(rank))
        first = next((x for x in vector if x), 0)
        if first > 0 and norm <= limit * scale:
            found.setdefault(F(norm, scale), []).append(vector)
    return {norm: sorted(classes) for norm, classes in found.items()}


def _brute_force_classes(gram, height):
    return _brute_force_by_norm(gram, height).get(F(height), [])


@pytest.mark.parametrize("case, limit", [(CASE_I, 30), (CASE_II, 60), (CASE_III, 60), (CASE_IV, 60)])
def test_enumeration_matches_the_exact_box_at_every_attained_norm(case, limit):
    by_norm = _brute_force_by_norm(case.gram, limit)
    assert len(by_norm) > limit
    for norm, classes in by_norm.items():
        assert enumerate_height_vectors(case, norm) == classes, norm


def test_height_off_the_norm_lattice_has_no_vectors():
    # Norms of case I lie in (1/6)Z and of case III in (1/10)Z.
    assert enumerate_height_vectors(CASE_I, F(1, 7)) == []
    assert enumerate_height_vectors(CASE_I, F(170, 7)) == []
    assert enumerate_height_vectors(CASE_III, F(1, 3)) == []
    assert enumerate_height_vectors(CASE_III, F(3001, 20)) == []


def _walk(gram, height):
    """The enumeration of a bare Gram matrix, factored here as a case lattice factors its own."""
    return _short_vectors(_integer_ldl(*_require_positive_definite(gram, "not positive definite")), height)


def test_an_indefinite_gram_matrix_is_refused():
    with pytest.raises(IntegrityError, match="indefinite"):
        _require_positive_definite(((F(1), F(2)), (F(2), F(1))), "indefinite")


def test_non_dominant_gram():
    # Not diagonally dominant, so a Gershgorin bound gives no box at all.
    gram = ((F(1), F(9, 10)), (F(9, 10), F(1)))
    assert _walk(gram, F(1, 5)) == [(1, -1)]
    for height in (F(1), F(2), F(19, 5), F(38, 5), F(13, 2)):
        assert _walk(gram, height) == _brute_force_classes(gram, height), height


def test_rank_one_walk_solves_its_only_coordinate():
    gram = ((F(1, 2),),)
    assert _walk(gram, F(2)) == [(2,)]
    assert _walk(gram, F(1, 2)) == [(1,)]
    assert _walk(gram, F(1)) == []


def test_case_lattices_keep_the_integer_factors_of_their_audit():
    for case in (CASE_I, CASE_II, CASE_III, CASE_IV):
        assert case.ldl == _integer_ldl(*_require_positive_definite(case.gram, "not positive definite"))
    # Case III: L[1][0] = 1/2, so level 0 reads y_0 = 2·x_0 + x_1 with weight (1/5)/4.
    assert CASE_III.ldl.scales == (2, 1)
    assert CASE_III.ldl.shifts == (((1, 1),), ())
    assert CASE_III.ldl.weights == (F(1, 20), F(1, 4))


def _ldl_gram(pivots, below):
    """L·D·Lᵀ for a unit lower-triangular L with the given entries below the diagonal."""
    rank = len(pivots)
    lower = [[F(int(r == c)) for c in range(rank)] for r in range(rank)]
    entries = iter(below)
    for r in range(rank):
        for c in range(r):
            lower[r][c] = next(entries)
    return tuple(
        tuple(sum(lower[r][k] * pivots[k] * lower[c][k] for k in range(rank)) for c in range(rank))
        for r in range(rank)
    )


_pivot = st.fractions(min_value=F(1, 2), max_value=F(2), max_denominator=6)
_below = st.fractions(min_value=F(-1), max_value=F(1), max_denominator=4)


@st.composite
def _grams_and_heights(draw):
    rank = draw(st.sampled_from((2, 3)))
    gram = _ldl_gram(
        [draw(_pivot) for _ in range(rank)],
        [draw(_below) for _ in range(rank * (rank - 1) // 2)],
    )
    vector = draw(st.lists(st.integers(-2, 2), min_size=rank, max_size=rank).filter(any))
    height = sum(gram[r][c] * vector[r] * vector[c] for r in range(rank) for c in range(rank))
    return gram, height


@settings(max_examples=60, deadline=None)
@given(_grams_and_heights())
def test_short_vectors_on_random_positive_definite_grams(gram_and_height):
    gram, height = gram_and_height
    classes = _walk(gram, height)
    assert classes  # the height is the norm of a drawn vector
    assert classes == _brute_force_classes(gram, height)


_wide = 10**4
_wide_pivot = st.fractions(min_value=F(1, 2), max_value=F(2), max_denominator=_wide)
_wide_below = st.fractions(min_value=F(-1), max_value=F(1), max_denominator=_wide)


@st.composite
def _grams_and_heights_with_large_denominators(draw):
    rank = draw(st.sampled_from((2, 3)))
    gram = _ldl_gram(
        [draw(_wide_pivot) for _ in range(rank)],
        [draw(_wide_below) for _ in range(rank * (rank - 1) // 2)],
    )
    vector = draw(st.lists(st.integers(-2, 2), min_size=rank, max_size=rank).filter(any))
    attained = sum(gram[r][c] * vector[r] * vector[c] for r in range(rank) for c in range(rank))
    # Either a norm the lattice attains, or a height whose denominator is
    # unrelated to the Gram's, so the scale S mixes both kinds of denominator.
    drawn = st.fractions(min_value=F(1, _wide), max_value=F(8), max_denominator=_wide)
    return gram, draw(st.one_of(st.just(attained), drawn)), attained


@settings(max_examples=40, deadline=None)
@given(_grams_and_heights_with_large_denominators())
def test_short_vectors_with_denominators_up_to_ten_thousand(case):
    gram, height, attained = case
    classes = _walk(gram, height)
    assert classes == _brute_force_classes(gram, height)
    if height == attained:
        assert classes


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 5000),
    st.integers(1, 60),
    st.integers(1, 12),
    st.integers(-200, 200),
)
def test_interval_and_roots_are_exact(remainder, coefficient, den, shift):
    # |den·x + shift| <= sqrt(5000) < 71, so every solution has |x| <= 271.
    candidates = range(-300, 301)
    assert list(_level_range(remainder, coefficient, den, shift)) == [
        x for x in candidates if coefficient * (den * x + shift) ** 2 <= remainder
    ]
    assert sorted(_level_roots(remainder, coefficient, den, shift)) == [
        x for x in candidates if coefficient * (den * x + shift) ** 2 == remainder
    ]


def test_case_lattices_pass_the_mordell_weil_audits():
    for case, rank, det in (
        (CASE_I, 3, F(1, 24)), (CASE_II, 2, F(1, 36)), (CASE_III, 2, F(1, 20)), (CASE_IV, 2, F(1, 24)),
    ):
        pivots, _ = _require_positive_definite(case.gram, "not positive definite")
        assert case.rank == rank == 8 - sum(fiber.count - 1 for fiber in case.fibers)
        product_of_pivots = F(1)
        for pivot in pivots:
            product_of_pivots *= pivot
        assert product_of_pivots == det == _determinant([list(row) for row in case.gram])


def test_tampered_gram_fails_the_determinant_audit():
    # Symmetric, positive definite (det 23/400) and consistent on its
    # diagonal, but not 1/20 = 1/(2·2·5).
    gram = ((F(1, 5), F(1, 20)), (F(1, 20), F(3, 10)))
    with pytest.raises(IntegrityError, match="determinant"):
        CaseLattice(name="III", basis=CASE_III.basis, gram=gram, fibers=CASE_III.fibers)


def test_lemma_vector_lists():
    assert vectors_for_type(CASE_I, 1) == [(0, 2, 0), (2, -2, 0), (2, 0, 0)]
    assert vectors_for_type(CASE_I, 2) == [(1, -2, -1), (1, -2, 1), (2, -1, -1), (2, -1, 1)]
    assert vectors_for_type(CASE_I, 3) == [(0, 1, -1), (0, 1, 1), (1, 0, -1), (1, 0, 1)]
    assert vectors_for_type(CASE_I, 4) == [(1, 1, 0)]
    assert vectors_for_type(CASE_I, 5) == [(1, -1, 0)]
    assert vectors_for_type(CASE_I, 6) == [(0, 0, 2)]
    assert vectors_for_type(CASE_II, 1) == [(2, 2)]
    assert vectors_for_type(CASE_II, 2) == [(0, 3), (3, 0)]
    assert vectors_for_type(CASE_II, 3) == [(1, -2), (2, -1)]
    assert vectors_for_type(CASE_II, 5) == [(1, 1)]
    assert vectors_for_type(CASE_III, 2) == [(2, 1), (3, -1)]
    assert vectors_for_type(CASE_III, 4) == [(1, -2)]
    assert vectors_for_type(CASE_IV, 1) == [(0, 4)]
    assert vectors_for_type(CASE_IV, 3) == [(1, -2), (1, 2)]
    assert vectors_for_type(CASE_IV, 6) == [(2, 0)]


def test_no_vector_of_a_type_has_a_nonzero_index_at_infinity():
    # `_matches_type` reads only the finite node and cusp fibers: at a target
    # height they force the index at infinity to 0 (see its docstring).  The
    # argument needs finite fibers of count 2 (node) and 3 (cusp) and fibers
    # of count <= 5 at infinity, and its conclusion holds on all 19 cells.
    # Case I's line fiber at infinity marked finite changes no count; this
    # test fails on it.
    cells = 0
    for case in CASES.values():
        finite = [fiber for fiber in case.fibers if not fiber.at_infinity]
        at_infinity = [fiber for fiber in case.fibers if fiber.at_infinity]
        assert {(fiber.role, fiber.count) for fiber in finite} <= {("node", 2), ("cusp", 3)}
        assert at_infinity and all(fiber.count <= 5 for fiber in at_infinity)
        for conic_type in range(1, 7):
            if target_height(case, conic_type) is None:
                continue
            cells += 1
            for vector in vectors_for_type(case, conic_type):
                indices = [lattice._psi_value(fiber, vector) for fiber in at_infinity]
                assert indices == [0] * len(at_infinity), (case, conic_type, vector)
    assert cells == 19


def test_main_theorem_table():
    rows = dict(main_theorem_rows())
    assert rows == {
        "I": (3, 4, 4, 1, 1, 1),
        "II": (1, 2, 2, 0, 1, 0),
        "III": (0, 2, 0, 1, 0, 0),
        "IV": (1, 0, 2, 0, 0, 1),
    }
    for name, counts in rows.items():
        assert count_by_type(CASES[name]) == counts


def test_combination_labels():
    assert CASE_I.combination_label((1, -2, 1)) == "[1]P1 + [-2]P2 + [1]P3"
    assert CASE_I.combination_label((0, 0, 0)) == "O"
    assert CASE_IV.combination_label((0, 4)) == "[4]P2"


# -- integer lattice helpers ---------------------------------------------------


def test_smith_invariants():
    assert smith_invariants([[1, 0, 0], [0, 1, 0]]) == [1, 1]
    assert smith_invariants([[2, 0, 0], [0, 1, 0]]) == [1, 2]
    assert smith_invariants([[6, 4], [4, 6]]) == [2, 10]
    assert smith_invariants([[2, 4, 4]]) == [2]
    for ragged in ([[1, 2], [3]], [[], [1]]):
        with pytest.raises(PreconditionError):
            smith_invariants(ragged)


def test_smith_invariants_fix_up_divisibility_and_keep_remainders():
    # a diagonal form whose entries do not divide each other
    assert smith_invariants([[2, 0], [0, 3]]) == [1, 6]
    # the remainder 6 - 4 = 2 is left in the pivot row, and pivots the next round
    assert smith_invariants([[4, 6]]) == [2]
    # the remainder 5 - 3 = 2 is left in the pivot column
    assert smith_invariants([[3], [5]]) == [1]
    assert smith_invariants([]) == []
    assert smith_invariants([[]]) == []


def test_smith_invariants_of_zero_rows_and_columns():
    assert smith_invariants([[0, 0], [0, 0]]) == []
    assert smith_invariants([[0, 3], [0, 6]]) == [3]
    assert smith_invariants([[0], [0], [-4]]) == [4]
    assert integer_rank([[0, 3], [0, 6]]) == 1
    assert not extends_to_basis([[0, 1], [0, 0]])


def determinant(rows):
    """Laplace expansion along the first row."""
    if not rows:
        return 1
    return sum(
        (-1) ** c * entry * determinant([row[:c] + row[c + 1:] for row in rows[1:]])
        for c, entry in enumerate(rows[0])
    )


def determinantal_invariants(rows):
    """Oracle: with d_k the gcd of the k x k minors (d_0 = 1), the invariant
    factors are d_k / d_(k-1) for every k with d_k != 0."""
    height, width = len(rows), len(rows[0])
    divisors = [1]
    for k in range(1, min(height, width) + 1):
        d_k = 0
        for picked_rows in combinations(range(height), k):
            for picked_cols in combinations(range(width), k):
                d_k = gcd(d_k, determinant([[rows[r][c] for c in picked_cols] for r in picked_rows]))
        if d_k == 0:
            break
        divisors.append(d_k)
    return [b // a for a, b in zip(divisors, divisors[1:])]


integer_matrices = st.integers(1, 4).flatmap(
    lambda width: st.lists(
        st.lists(st.integers(-12, 12), min_size=width, max_size=width), min_size=1, max_size=4
    )
)


@given(integer_matrices)
def test_smith_invariants_match_determinantal_divisors(rows):
    assert smith_invariants(rows) == determinantal_invariants(rows)


def test_rank_and_basis_extension():
    assert integer_rank([[1, 0, 0], [2, 0, 0]]) == 1
    assert extends_to_basis([[1, 0, 0], [-1, 1, 0]])
    assert not extends_to_basis([[2, 0, 0], [0, 1, 0]])
    assert not extends_to_basis([[1, 0, 0], [2, 0, 0]])


# -- arrangement pair reports ---------------------------------------------------


def test_all_pairs_verify_their_lattice_hypotheses():
    for pair_id in PAIR_NAMES:
        report = zariski_pair_report(pair_id)
        assert report.all_lattice_checks_pass, pair_id
        assert "cited, not re-proved" in report.conclusion


def test_pair_kinds_and_fingerprints():
    companion = {"B11-B21", "B22-B12"}
    for pair_id in PAIR_NAMES:
        report = zariski_pair_report(pair_id)
        if pair_id in companion:
            assert report.swapped == "companion curve"
        else:
            assert report.swapped == "contact conic"
    # the conic-swap pairs around Cbar genuinely differ in this fingerprint
    assert not zariski_pair_report("D0-D1").fingerprints_equal
    assert not zariski_pair_report("D0-D2").fingerprints_equal
    assert zariski_pair_report("B11-B21").fingerprints_equal


def test_no_report_runs_the_group_law_after_the_load():
    # A fresh process, so that its first report is counted too: the load
    # checked every section vector, and the reports only read them.
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(lattice.__file__)))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    code = (
        "from contactconics import PAIR_NAMES, Section, load_worked_example, zariski_pair_report\n"
        "load_worked_example()\n"
        "additions = []\n"
        "add = Section.__add__\n"
        "Section.__add__ = lambda self, other: additions.append(other) or add(self, other)\n"
        "reports = [zariski_pair_report(pair_id) for pair_id in PAIR_NAMES]\n"
        "print(len(reports), all(report.all_lattice_checks_pass for report in reports), len(additions))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert done.stdout == f"{len(PAIR_NAMES)} True 0\n"


def test_warm_reports_build_no_curve_and_hash_no_chart(monkeypatch):
    # After a first run, every pair and every form hash is in a memo: the
    # reports compare the cached canonical forms of the images without a
    # square-free test or a scaling, and the memo keys hash each form from
    # its cached value.
    example = load_worked_example()
    for pair_id in PAIR_NAMES:
        zariski_pair_report(pair_id)
    calls = {"squarefree": 0, "hash": 0, "scale": 0}
    squarefree, chart_hash, scale = curves._form_is_squarefree, BiPoly.__hash__, TriForm.scale

    def counting_squarefree(form):
        calls["squarefree"] += 1
        return squarefree(form)

    def counting_hash(self):
        calls["hash"] += 1
        return chart_hash(self)

    def counting_scale(self, value):
        calls["scale"] += 1
        return scale(self, value)

    monkeypatch.setattr(curves, "_form_is_squarefree", counting_squarefree)
    monkeypatch.setattr(BiPoly, "__hash__", counting_hash)
    monkeypatch.setattr(TriForm, "scale", counting_scale)
    reports = [zariski_pair_report(pair_id).render() for pair_id in PAIR_NAMES]
    for name in ARRANGEMENT_NAMES:
        arrangement_fingerprint(example.arrangement(name))
    assert calls == {"squarefree": 0, "hash": 0, "scale": 0}
    assert all("lattice hypotheses verified" in report for report in reports)


@pytest.mark.parametrize(
    "sections, failed",
    [(("P1", "P0"), ["L2 is the image of P0"]),
     (("P2", "P1"), ["L1 is the image of P2", "L2 is the image of P1", "C1 is the image of [2]P2"])],
)
def test_a_wrong_section_fails_the_image_check(monkeypatch, sections, failed):
    # (P1, P0) compares a line with a conic; (P2, P1) also compares C1 with
    # the image of [2]P2, a conic with the same support.
    monkeypatch.setitem(lattice._PAIRS, "B11-B21", ("B11", "B21", *sections, lattice.SWAP_COMPANION))
    report = zariski_pair_report("B11-B21")
    rendered = report.render()
    assert [c.detail for c in report.checks if not c.passed] == failed
    for detail in failed:
        assert f"[FAIL] member identified as a section image: {detail}" in rendered
    assert report.conclusion == "lattice hypotheses FAILED; no conclusion"
    assert rendered.endswith("conclusion: lattice hypotheses FAILED; no conclusion")


def test_a_failed_lattice_hypothesis_gives_no_conclusion(monkeypatch):
    monkeypatch.setattr(lattice, "smith_invariants", lambda rows: [1, 2])
    report = zariski_pair_report("B11-B21")
    assert not report.all_lattice_checks_pass
    assert report.conclusion == "lattice hypotheses FAILED; no conclusion"


def test_tampered_section_vector_fails_the_first_report(monkeypatch):
    # P0 = -P1 + P2; the report on B11-B21 uses only P1 and P2, but the load
    # checks P0's stated vector against the group law before any report.
    monkeypatch.setattr(fixtures, "_P0_VECTOR", (1, 1, 0))
    load_worked_example.cache_clear()
    try:
        with pytest.raises(IntegrityError, match=r"^worked example: group relation P0 = P2 \+ \(-P1\)$"):
            zariski_pair_report("B11-B21")
    finally:
        load_worked_example.cache_clear()


def test_unknown_pair_is_rejected():
    with pytest.raises(PreconditionError):
        zariski_pair_report("B11-B99")


def test_report_renders_deterministically():
    first = zariski_pair_report("B11-B10").render()
    second = zariski_pair_report("B11-B10").render()
    assert first == second
    assert first.startswith("pair B11-B10:")
