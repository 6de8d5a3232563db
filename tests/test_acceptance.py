"""Acceptance gate: one test (and one pass/fail line under -v) per criterion.

Each criterion is asserted exactly — no tolerances anywhere, since every
computation in the package is exact field arithmetic.
"""

import itertools
from fractions import Fraction

from contactconics import (
    CASE_I,
    CASE_II,
    CASE_III,
    CASE_IV,
    CONIC_TYPES,
    FieldElem,
    PAIR_NAMES,
    PlaneCurve,
    PlanePoint,
    classify_fibers,
    combine,
    component_index,
    contact_conic_type,
    cremona_transform,
    gram_matrix,
    height,
    intersection_multiplicity,
    is_weak_contact,
    main_theorem_rows,
    enumerate_height_vectors,
    parse_point,
    parse_ratfunc,
    parse_triform,
    section_to_plane_curve,
    target_height,
    vectors_for_type,
    zariski_pair_report,
)
from contactconics.curves import CUSP, NODE
from contactconics.field import I, SQRT2

F = Fraction


def test_criterion_1_main_theorem_counts():
    """The enumeration reproduces the full count table exactly."""
    assert dict(main_theorem_rows()) == {
        "I": (3, 4, 4, 1, 1, 1),
        "II": (1, 2, 2, 0, 1, 0),
        "III": (0, 2, 0, 1, 0, 0),
        "IV": (1, 0, 2, 0, 0, 1),
    }


def test_criterion_2_lemma_element_lists():
    """Enumerated vectors match the stated combinations, one per {v, -v} pair,
    represented with the first nonzero coordinate positive."""
    stated = {
        (CASE_I, 1): {(0, 2, 0), (2, -2, 0), (2, 0, 0)},
        (CASE_I, 2): {(1, -2, -1), (1, -2, 1), (2, -1, -1), (2, -1, 1)},
        (CASE_I, 3): {(0, 1, -1), (0, 1, 1), (1, 0, -1), (1, 0, 1)},
        (CASE_I, 4): {(1, 1, 0)},
        (CASE_I, 5): {(1, -1, 0)},
        (CASE_I, 6): {(0, 0, 2)},
        (CASE_II, 1): {(2, 2)},
        (CASE_II, 2): {(3, 0), (0, 3)},
        (CASE_II, 3): {(1, -2), (2, -1)},
        (CASE_II, 4): set(),
        (CASE_II, 5): {(1, 1)},
        (CASE_II, 6): set(),
        (CASE_III, 2): {(2, 1), (3, -1)},
        (CASE_III, 4): {(1, -2)},
        (CASE_III, 6): set(),
        (CASE_IV, 1): {(0, 4)},
        (CASE_IV, 3): {(1, -2), (1, 2)},
        (CASE_IV, 6): {(2, 0)},
    }
    for (case, conic_type), vectors in stated.items():
        enumerated = vectors_for_type(case, conic_type)
        assert set(enumerated) == vectors, (case.name, conic_type)
        assert len(enumerated) == len(vectors), (case.name, conic_type)
        for vector in enumerated:
            assert next(c for c in vector if c) > 0  # orientation convention


def test_criterion_3_group_law_regression(example):
    """Doubling and difference formulas reproduce the stated sections exactly
    (x on the nose, y up to one global sign)."""
    expected_x = {
        "P1": "t^2 + 3/2*t",      # (2t + 3) t / 2
        "P2": "t^2 - 1/2*t",      # (2t - 1) t / 2
        "P0": "1/8*t^2 + 1/2*t",  # t (t + 4) / 8
    }
    for name, x_text in expected_x.items():
        doubled = 2 * example.section(name)
        assert doubled.x == parse_ratfunc(x_text), name
        stated = example.doubles[name]
        assert doubled.x == stated.x
        assert doubled.y in (stated.y, -stated.y)
    assert example.section("P2") + (-example.section("P1")) == example.section("P0")


def test_criterion_4_quadratic_transformation_regression(example):
    """The quadratic map sends the base conic to the quartic and the tangent
    line to the contact conic, up to a scalar."""
    quartic_image = cremona_transform(example.conic, example.triangle)
    assert quartic_image.form.is_proportional(example.quartic_image.form)
    conic_image = cremona_transform(example.tangent_line, example.triangle)
    assert conic_image.form.is_proportional(
        parse_triform("2*T*X + T*Z - X*Z")
    )


def test_criterion_5_singularity_classification(example):
    """The normalized quartic has exactly the stated two nodes and one cusp."""
    records = dict(example.quartic.singular_points())
    assert records == {
        PlanePoint(*parse_point("[-1, -1, 1]")): NODE,
        PlanePoint(*parse_point("[1, 0, 1]")): NODE,
        PlanePoint(*parse_point("[0, 0, 1]")): CUSP,
    }


def test_criterion_6_height_gram_matrix(example):
    """The Gram matrix of (P1, P2, P3) computed from the surface data equals
    the stated case-I matrix exactly."""
    basis = [example.section(name) for name in ("P1", "P2", "P3")]
    computed = gram_matrix(basis)
    assert computed == [
        [F(1, 3), F(1, 6), F(0)],
        [F(1, 6), F(1, 3), F(0)],
        [F(0), F(0), F(1, 2)],
    ]
    assert computed == [list(row) for row in CASE_I.gram]


def test_criterion_7_weak_contact_certificates(example):
    """Every stated contact conic and every enumerated case-I class passes the
    weak-contact test with a full Bezout audit, and the certificate's type
    agrees with the lattice type."""
    lattice_type_of = {}
    for conic_type in CONIC_TYPES:
        for vector in vectors_for_type(CASE_I, conic_type):
            lattice_type_of[vector] = conic_type

    named = {"Cbar": (1, -1, 0), "C0": (2, -2, 0), "C1": (2, 0, 0), "C2": (0, 2, 0)}
    for name, vector in named.items():
        conic = example.curve(name)
        certificate = is_weak_contact(example.quartic, conic)
        assert certificate.is_weak, name
        assert certificate.bezout_total == 8, name
        assert contact_conic_type(example.quartic, conic) == lattice_type_of[vector], name

    basis = [example.section(name) for name in ("P1", "P2", "P3")]
    for vector, conic_type in sorted(lattice_type_of.items()):
        curve = section_to_plane_curve(combine(basis, vector))
        certificate = is_weak_contact(example.quartic, curve)
        assert certificate.is_weak, vector
        assert certificate.bezout_total == 8, vector
        assert contact_conic_type(example.quartic, curve) == conic_type, vector


def test_criterion_8_property_suites(example):
    """Field axioms, multiplicity axioms, associativity, height bilinearity
    with the m^2 law, component-map additivity, enumeration symmetry, and
    fingerprint determinism — all exact."""
    # field axioms on a structured sample
    sample = [FieldElem.from_rational(F(n, 3)) + SQRT2 * n + I * (1 - n) for n in range(-2, 3)]
    for a, b in itertools.product(sample, repeat=2):
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + FieldElem.from_rational(1)) == a * b + a
        if not a.is_zero():
            assert a * a.inv() == FieldElem.from_rational(1)

    # intersection multiplicities: transversality, tangency, additivity
    conic = PlaneCurve(parse_triform("X*Z - T^2"))
    origin = PlanePoint(*parse_point("[0, 0, 1]"))
    line = PlaneCurve(parse_triform("X"))
    through = PlaneCurve(parse_triform("T"))
    product = PlaneCurve(parse_triform("X*T"))
    assert intersection_multiplicity(line, through, origin) == 1
    assert intersection_multiplicity(conic, line, origin) == 2
    assert intersection_multiplicity(conic, product, origin) == intersection_multiplicity(
        conic, line, origin
    ) + intersection_multiplicity(conic, through, origin)

    # group-law associativity on the worked-example sections
    sections = [example.section(name) for name in ("P1", "P2", "P3")]
    for a, b, c in itertools.product(sections, repeat=3):
        assert (a + b) + c == a + (b + c)

    # height bilinearity and the m^2 law
    P1, P2 = example.section("P1"), example.section("P2")
    for probe in sections:
        assert height(P1 + P2, probe) == height(P1, probe) + height(P2, probe)
    # the m^2 law, checked on the doubles of all four named sections: they
    # have polynomial coordinates, which the component indices need
    for name in ("P0", "P1", "P2", "P3"):
        section = example.section(name)
        assert height(2 * section, 2 * section) == 4 * height(section, section)
        assert height(2 * section, section) == 2 * height(section, section)

    # the component map is additive fiber by fiber
    for fiber in classify_fibers(example.model):
        for a, b in itertools.product(sections, repeat=2):
            expected = (component_index(a, fiber) + component_index(b, fiber)) % fiber.m_v
            assert component_index(a + b, fiber) == expected

    # enumeration symmetry: one representative per {v, -v}, norm exact
    for conic_type in CONIC_TYPES:
        target = target_height(CASE_I, conic_type)
        vectors = enumerate_height_vectors(CASE_I, target)
        for vector in vectors:
            assert CASE_I.norm(vector) == target
            assert tuple(-c for c in vector) not in vectors

    # fingerprint determinism
    from contactconics import arrangement_fingerprint

    assert arrangement_fingerprint(example.arrangement("B11")) == arrangement_fingerprint(
        example.arrangement("B11")
    )


def test_criterion_9_zariski_pair_reports():
    """All eight pairs verify the lattice hypotheses (dependence, independence,
    Smith-basis extension) and the topological conclusion is cited, not
    re-proved."""
    assert len(PAIR_NAMES) == 8
    for pair_id in PAIR_NAMES:
        report = zariski_pair_report(pair_id)
        assert report.all_lattice_checks_pass, pair_id
        names = [check.name for check in report.checks]
        assert any("extends to a basis" in name for name in names), pair_id
        assert any("linearly dependent" in name for name in names), pair_id
        assert any("linearly independent" in name for name in names), pair_id
        snf = next(check for check in report.checks if "extends to a basis" in check.name)
        assert "Smith invariants (1, 1)" in snf.detail, pair_id
        assert "cited, not re-proved" in report.conclusion, pair_id
