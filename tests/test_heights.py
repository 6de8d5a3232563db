"""The height pairing on sections and its Gram matrices."""

import itertools
from fractions import Fraction

import pytest

from contactconics import (
    IntegrityError,
    PreconditionError,
    Section,
    UnsupportedSectionError,
    WeierstrassModel,
    combine,
    component_contribution,
    gram_matrix,
    height,
    parse_poly,
)
from contactconics.heights import section_intersection

F = Fraction

# The Gram matrix of P1, P2, P3 on the worked example.
BASIS_GRAM = [
    [F(1, 3), F(1, 6), F(0)],
    [F(1, 6), F(1, 3), F(0)],
    [F(0), F(0), F(1, 2)],
]


def test_component_contribution_table():
    assert component_contribution(2, 0, 1) == 0
    assert component_contribution(2, 1, 1) == F(1, 2)
    assert component_contribution(3, 1, 1) == F(2, 3)
    assert component_contribution(3, 1, 2) == F(1, 3)
    assert component_contribution(3, 2, 2) == F(2, 3)
    with pytest.raises(PreconditionError):
        component_contribution(2, 0, 2)


def test_heights_of_generators(example):
    values = {
        name: height(example.section(name), example.section(name))
        for name in ("P0", "P1", "P2", "P3")
    }
    assert values == {"P0": F(1, 3), "P1": F(1, 3), "P2": F(1, 3), "P3": F(1, 2)}


def test_pairing_with_zero_section(example, model):
    zero = Section.zero(model)
    assert height(zero, zero) == 0
    assert height(example.section("P1"), zero) == 0


def test_gram_matrix_of_the_basis(example):
    basis = [example.section(name) for name in ("P1", "P2", "P3")]
    assert gram_matrix(basis) == BASIS_GRAM


def test_a_gram_matrix_with_a_zero_last_pivot_is_refused(example):
    # P0 = P2 - P1, so the Gram matrix of (P1, P2, P0) is singular and its
    # last pivot is exactly 0: a check of pivot < 0 would pass it.
    basis = [example.section(name) for name in ("P1", "P2", "P0")]
    with pytest.raises(IntegrityError, match="not positive definite"):
        gram_matrix(basis)


def test_pairing_is_symmetric(example):
    sections = [example.section(name) for name in ("P0", "P1", "P2", "P3")]
    for left in sections:
        for right in sections:
            assert height(left, right) == height(right, left)


def test_pairing_is_bilinear(example):
    P1 = example.section("P1")
    P2 = example.section("P2")
    P3 = example.section("P3")
    combined = P1 + P2
    for probe in (P1, P2, P3, P1 + P3):
        assert height(combined, probe) == height(P1, probe) + height(P2, probe)


def test_doubling_quadruples_the_height(example):
    for name in ("P0", "P1", "P2"):
        section = example.section(name)
        assert height(2 * section, 2 * section) == 4 * height(section, section)


def test_negation_preserves_the_height(example):
    P0 = example.section("P0")
    assert height(-P0, -P0) == height(P0, P0)
    assert height(-P0, P0) == -height(P0, P0)


def sections_on(a4: str, a6: str, *coords: tuple[str, str]) -> list[Section]:
    model = WeierstrassModel(parse_poly("0"), parse_poly(a4), parse_poly(a6))
    return [Section.from_xy(model, parse_poly(x), parse_poly(y)) for x, y in coords]


def test_intersection_needs_two_sections_on_one_model(example):
    P1 = example.section("P1")
    with pytest.raises(PreconditionError):
        section_intersection(P1, P1)
    (elsewhere,) = sections_on("2*t + t^2 - 3 - (t^2 - 3)^2", "t^2", ("0", "t"))
    with pytest.raises(PreconditionError, match="sections live on different models"):
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
    assert height(P, P) == F(4, 3)
    assert height(P, -P) == -F(4, 3)


def test_sections_through_conjugate_or_rational_singular_fibers_need_not_meet():
    # y^2 = x^3 + (3 q - q^2) x + q^2 and sections through its singular
    # fibers over q = 0, which are conjugate over K for q = t^2 - 3 and
    # K-rational for q = t^2 - 2.  x(P - Q) is a polynomial of degree at
    # most 2, so P - Q misses O and P misses Q on the smooth model.
    for place in ("t^2 - 3", "t^2 - 2"):
        left, right = sections_on(
            f"3*({place}) - ({place})^2",
            f"({place})^2",
            ("0", place),
            (place, f"2*({place})"),
        )
        assert section_intersection(left, right) == 0, place
        assert section_intersection(right, left) == 0, place


def test_sections_meeting_transversally_off_the_two_torsion():
    # P and Q meet at t = 1 and t = -1, both times at a point with y != 0.
    left, right = sections_on(
        "2*t + t^2 - 1 - (t^2 - 1)^2", "t^2", ("0", "t"), ("t^2 - 1", "t + t^2 - 1")
    )
    assert section_intersection(left, right) == 2


def test_heights_through_i4_and_iv_fibers():
    model = WeierstrassModel(parse_poly("1"), parse_poly("0"), parse_poly("t^4"))
    P = Section.from_xy(model, parse_poly("i*t^2"), parse_poly("(1/2*r2 - 1/2*i*r2)*t^3"))
    Q = Section.from_xy(model, parse_poly("r2*t"), parse_poly("r2*t + t^2"))
    assert height(P, P) == 1
    assert height(Q, Q) == F(7, 12)
    assert height(P, Q) == F(1, 2)
    # P and -P meet at the I4 point and still meet after two blow-ups, on the
    # far component; Q and -Q meet where y = 0, on the smooth fiber at t = -r2.
    assert section_intersection(P, -P) == 1
    assert height(P, -P) == -1
    assert section_intersection(Q, -Q) == 1
    assert height(Q, -Q) == -F(7, 12)


def test_two_torsion_through_iii_fibers_has_height_zero():
    model = WeierstrassModel(parse_poly("0"), parse_poly("t*(t - 1)*(t + 1)*(t - 2)"), parse_poly("0"))
    torsion = Section.from_xy(model, parse_poly("0"), parse_poly("0"))
    assert height(torsion, torsion) == 0


def test_intersections_come_from_pole_orders_off_the_stratum(example):
    P1 = example.section("P1")
    off_stratum = 2 * (P1 + example.section("P2"))  # polynomial, x of degree 4
    assert section_intersection(off_stratum, P1) == 1
    assert section_intersection(off_stratum, Section.zero(example.model)) == 1
    for other in (P1, 3 * P1):
        with pytest.raises(UnsupportedSectionError, match="polynomial"):
            height(3 * P1, other)


def test_heights_over_the_box_of_basis_combinations(example):
    # Every s = v1 P1 + v2 P2 + v3 P3 with |v_i| <= 3: where s has polynomial
    # coordinates, <s, s> = v^T G v and <s, P_i> = (G v)_i; elsewhere the
    # component indices need a series expansion that `height` does not do.
    basis = [example.section(name) for name in ("P1", "P2", "P3")]
    answered = 0
    for vector in itertools.product(range(-3, 4), repeat=3):
        if not any(vector):
            continue
        section = combine(basis, vector)
        if not (section.x.is_polynomial() and section.y.is_polynomial()):
            with pytest.raises(UnsupportedSectionError, match="polynomial"):
                height(section, section)
            continue
        answered += 1
        image = [sum(g * v for g, v in zip(row, vector)) for row in BASIS_GRAM]
        assert height(section, section) == sum(
            v * w for v, w in zip(vector, image)
        ), vector
        for generator, expected in zip(basis, image):
            assert height(section, generator) == expected, vector
    assert answered == 52
