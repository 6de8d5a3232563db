"""The height pairing on sections and its Gram matrices."""

from fractions import Fraction

import pytest

from contactconics import (
    HeightContext,
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


def test_intersection_needs_two_sections_on_one_model(example):
    P1 = example.section("P1")
    with pytest.raises(PreconditionError):
        section_intersection(P1, P1)
    (elsewhere,) = sections_on("2*t + t^2 - 3 - (t^2 - 3)^2", "t^2", ("0", "t"))
    with pytest.raises(PreconditionError):
        section_intersection(P1, elsewhere)


def test_sections_meeting_over_conjugate_places():
    # P and Q meet only where t^2 = 3, transversally on smooth fibers: the
    # two places are conjugate over K, so the count goes through the
    # residual factor t^2 - 3 and not through K-rational roots.
    left, right = sections_on(
        "2*t + t^2 - 3 - (t^2 - 3)^2", "t^2", ("0", "t"), ("t^2 - 3", "t + t^2 - 3")
    )
    assert section_intersection(left, right) == 2


def test_section_meets_its_negative_where_y_vanishes_over_conjugate_places():
    # y = t^2 - 3 vanishes only where t^2 = 3, on smooth fibers: there P and
    # -P meet at a 2-torsion point of the fiber, once over each place.
    (P,) = sections_on("0", "(t^2 - 3)^2 - t^3", ("t", "t^2 - 3"))
    assert section_intersection(P, -P) == 2
    context = HeightContext.for_model(P.model)
    assert height(P, P, context) == F(4, 3)
    assert height(P, -P, context) == -F(4, 3)


def test_meeting_over_a_non_rational_singular_fiber_is_refused():
    left, right = sections_on(
        "3*(t^2 - 3) - (t^2 - 3)^2",
        "(t^2 - 3)^2",
        ("0", "t^2 - 3"),
        ("t^2 - 3", "2*(t^2 - 3)"),
    )
    with pytest.raises(UnsupportedSectionError):
        section_intersection(left, right)


def test_sections_meeting_transversally_off_the_two_torsion():
    # P and Q meet at t = 1 and t = -1, both times at a point with y != 0.
    left, right = sections_on(
        "2*t + t^2 - 1 - (t^2 - 1)^2", "t^2", ("0", "t"), ("t^2 - 1", "t + t^2 - 1")
    )
    assert section_intersection(left, right) == 2


def test_heights_through_i4_and_iv_fibers():
    model = WeierstrassModel(parse_poly("1"), parse_poly("0"), parse_poly("t^4"))
    context = HeightContext.for_model(model)
    P = Section.from_xy(model, parse_poly("i*t^2"), parse_poly("(1/2*r2 - 1/2*i*r2)*t^3"))
    Q = Section.from_xy(model, parse_poly("r2*t"), parse_poly("r2*t + t^2"))
    assert height(P, P, context) == 1
    assert height(Q, Q, context) == F(7, 12)
    assert height(P, Q, context) == F(1, 2)
    # P and -P meet at the I4 point and still meet after two blow-ups, on the
    # far component; Q and -Q meet where y = 0, on the smooth fiber at t = -r2.
    assert section_intersection(P, -P) == 1
    assert height(P, -P, context) == -1
    assert section_intersection(Q, -Q) == 1
    assert height(Q, -Q, context) == -F(7, 12)


def test_two_torsion_through_iii_fibers_has_height_zero():
    model = WeierstrassModel(parse_poly("0"), parse_poly("t*(t - 1)*(t + 1)*(t - 2)"), parse_poly("0"))
    torsion = Section.from_xy(model, parse_poly("0"), parse_poly("0"))
    assert height(torsion, torsion, HeightContext.for_model(model)) == 0


def test_intersections_need_the_polynomial_stratum(example):
    P1 = example.section("P1")
    off_stratum = 2 * (P1 + example.section("P2"))  # polynomial, x of degree 4
    for other in (P1, Section.zero(example.model)):
        with pytest.raises(UnsupportedSectionError, match="stratum"):
            section_intersection(off_stratum, other)
        with pytest.raises(UnsupportedSectionError, match="polynomial"):
            section_intersection(3 * P1, other)
