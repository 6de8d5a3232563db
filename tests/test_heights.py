"""The height pairing on sections and its Gram matrices."""

from fractions import Fraction

import pytest

from contactconics import (
    PreconditionError,
    Section,
    UnsupportedSectionError,
    WeierstrassModel,
    component_contribution,
    gram_matrix,
    height,
    parse_poly,
)
from contactconics.heights import section_intersection

F = Fraction


def test_component_contribution_table():
    assert component_contribution(2, 0, 1) == 0
    assert component_contribution(2, 1, 1) == F(1, 2)
    assert component_contribution(3, 1, 1) == F(2, 3)
    assert component_contribution(3, 1, 2) == F(1, 3)
    assert component_contribution(3, 2, 2) == F(2, 3)
    with pytest.raises(PreconditionError):
        component_contribution(2, 0, 2)


def test_heights_of_generators(example, context):
    values = {
        name: height(example.section(name), example.section(name), context)
        for name in ("P0", "P1", "P2", "P3")
    }
    assert values == {"P0": F(1, 3), "P1": F(1, 3), "P2": F(1, 3), "P3": F(1, 2)}


def test_pairing_with_zero_section(example, context, model):
    zero = Section.zero(model)
    assert height(zero, zero, context) == 0
    assert height(example.section("P1"), zero, context) == 0


def test_gram_matrix_of_the_basis(example, context):
    basis = [example.section(name) for name in ("P1", "P2", "P3")]
    assert gram_matrix(basis, context) == [
        [F(1, 3), F(1, 6), F(0)],
        [F(1, 6), F(1, 3), F(0)],
        [F(0), F(0), F(1, 2)],
    ]


def test_pairing_is_symmetric(example, context):
    sections = [example.section(name) for name in ("P0", "P1", "P2", "P3")]
    for left in sections:
        for right in sections:
            assert height(left, right, context) == height(right, left, context)


def test_pairing_is_bilinear(example, context):
    P1 = example.section("P1")
    P2 = example.section("P2")
    P3 = example.section("P3")
    combined = P1 + P2
    for probe in (P1, P2, P3, P1 + P3):
        assert height(combined, probe, context) == height(P1, probe, context) + height(
            P2, probe, context
        )


def test_doubling_quadruples_the_height(example, context):
    for name in ("P0", "P1", "P2"):
        section = example.section(name)
        assert height(2 * section, 2 * section, context) == 4 * height(
            section, section, context
        )


def test_negation_preserves_the_height(example, context):
    P0 = example.section("P0")
    assert height(-P0, -P0, context) == height(P0, P0, context)
    assert height(-P0, P0, context) == -height(P0, P0, context)


def sections_on(a4: str, a6: str, *coords: tuple[str, str]) -> list[Section]:
    model = WeierstrassModel(parse_poly("0"), parse_poly(a4), parse_poly(a6))
    return [Section.from_xy(model, parse_poly(x), parse_poly(y)) for x, y in coords]


def test_sections_meeting_over_conjugate_places():
    # P and Q meet only where t^2 = 3, transversally on smooth fibers: the
    # two places are conjugate over K, so the count goes through the
    # residual factor t^2 - 3 and not through K-rational roots.
    left, right = sections_on(
        "2*t + t^2 - 3 - (t^2 - 3)^2", "t^2", ("0", "t"), ("t^2 - 3", "t + t^2 - 3")
    )
    assert section_intersection(left, right) == 2


def test_meeting_over_a_non_rational_singular_fiber_is_refused():
    left, right = sections_on(
        "3*(t^2 - 3) - (t^2 - 3)^2",
        "(t^2 - 3)^2",
        ("0", "t^2 - 3"),
        ("t^2 - 3", "2*(t^2 - 3)"),
    )
    with pytest.raises(UnsupportedSectionError):
        section_intersection(left, right)
