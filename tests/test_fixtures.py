"""The bundled worked example: load-time verification and tamper detection."""

import pytest

from contactconics import (
    ARRANGEMENT_NAMES,
    ARRANGEMENTS,
    IntegrityError,
    PreconditionError,
    build_worked_example,
    load_worked_example,
)


def test_load_verifies_the_full_chain(example):
    assert len(example.verified) == 32
    assert "the quadratic map sends the base conic to the quartic" in example.verified
    assert "group relation P0 = P2 + (-P1)" in example.verified
    assert "contact conic C2 is the image of the doubled section of P2" in example.verified


def test_load_is_cached():
    assert load_worked_example() is load_worked_example()


def test_curve_and_section_lookups(example):
    assert example.curve("Q") is example.quartic
    assert example.section("O").is_zero
    expected = "^unknown curve 'L9'; expected one of Q, L1, L2, L3, C0, C1, C2, Cbar$"
    with pytest.raises(PreconditionError, match=expected):
        example.curve("L9")
    with pytest.raises(PreconditionError):
        example.section("P9")


def test_arrangement_tables(example):
    assert set(ARRANGEMENT_NAMES) == set(ARRANGEMENTS)
    assert ARRANGEMENTS["B11"] == ("Q", "L1", "C1")
    assert ARRANGEMENTS["D0"] == ("Q", "Cbar", "C0")
    curves = example.arrangement("B12")
    assert [c.degree for c in curves] == [4, 1, 2]
    with pytest.raises(PreconditionError):
        example.arrangement("B99")


def test_unknown_override_key_is_rejected():
    with pytest.raises(PreconditionError):
        build_worked_example({"no_such_field": "1"})


@pytest.mark.parametrize(
    "field, value, expected_fragment",
    [
        # off the surface: x nudged
        ("section_P1", "(1, 1/4*(r2*t^2 - r2*t))", "satisfies the Weierstrass equation"),
        # wrong doubling formula
        ("double_P1", "(t^2 + t, r2*t^3 + 5/4*r2*t^2 + 1/4*r2*t)", "lies on the surface"),
        # wrong singular point
        ("node_1", "[3, 3, 1]", "stated nodes and cusp"),
        # wrong image point under the quadratic map
        ("marked_point", "[1, 1, -1]", "image of the tangency point"),
        # a conic that is not the image of the doubled section
        ("conic_0", "8*x - t*(t + 5)", "image of the doubled section of P0"),
        # a named section or doubling given as the zero section
        ("section_P2", "O", "section P2 is missing"),
        ("double_P0", "O", "doubling of P0 is missing"),
    ],
)
def test_tampering_raises_named_integrity_errors(field, value, expected_fragment):
    with pytest.raises(IntegrityError, match=expected_fragment):
        build_worked_example({field: value})


def test_rebuild_matches_the_cached_example(example):
    rebuilt = build_worked_example()
    assert rebuilt.quartic.form == example.quartic.form
    assert rebuilt.verified == example.verified
    assert rebuilt.sections.keys() == example.sections.keys()
