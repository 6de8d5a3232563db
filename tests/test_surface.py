"""The elliptic surface of the normalized quartic: model, sections, fibers."""

import itertools

import pytest

from contactconics import (
    INFINITY,
    PreconditionError,
    Section,
    UnsupportedSectionError,
    WeierstrassModel,
    classify_fibers,
    component_index,
    from_quartic,
    parse_poly,
    parse_ratfunc,
    plane_curve_to_sections,
    section_to_plane_curve,
)


def test_model_read_off_the_quartic(example):
    model = from_quartic(example.quartic)
    assert model.a2 == parse_poly("t^2 - 3/2*t")
    assert model.a4 == parse_poly("t^2 - t^3")
    assert model.a6 == parse_poly("1/8*t^2*(t - 1)^2")
    example.model.at_infinity()  # the cached mirror takes no part in equality
    assert model == example.model and not model != example.model


def test_from_quartic_needs_a_monic_cubic_chart(example):
    with pytest.raises(PreconditionError):
        from_quartic(example.conic)


def test_sections_satisfy_the_equation(example, model):
    for name in ("P0", "P1", "P2", "P3"):
        section = example.section(name)
        assert model.contains(section.x, section.y)


# -- group law ----------------------------------------------------------------


def test_doubling_oracles(example):
    expected_x = {
        "P0": parse_ratfunc("1/8*t^2 + 1/2*t"),
        "P1": parse_ratfunc("t^2 + 3/2*t"),
        "P2": parse_ratfunc("t^2 - 1/2*t"),
    }
    for name, x_value in expected_x.items():
        doubled = 2 * example.section(name)
        assert doubled.x == x_value
        stated = example.doubles[name]
        assert doubled.x == stated.x
        assert doubled.y == stated.y or doubled.y == -stated.y


def test_difference_relation(example):
    assert example.section("P2") + (-example.section("P1")) == example.section("P0")


def test_identity_and_inverses(example, model):
    zero = Section.zero(model)
    for name in ("P0", "P1", "P2", "P3"):
        section = example.section(name)
        assert section + zero == section
        assert section + (-section) == zero
        assert 0 * section == zero
        assert (-1) * section == -section


def test_associativity_on_generators(example):
    sections = [example.section(name) for name in ("P1", "P2", "P3")]
    for a, b, c in itertools.product(sections, repeat=3):
        assert (a + b) + c == a + (b + c)


def repeated_sums(section, limit):
    """{n: P + ... + P (n times), or of -P when n < 0} for |n| <= limit."""
    sums = {0: Section.zero(section.model)}
    for n in range(1, limit + 1):
        sums[n] = sums[n - 1] + section
        sums[-n] = sums[1 - n] + (-section)
    return sums


def test_scalar_ladder_matches_repeated_addition(example):
    for name in ("P0", "P1", "P2", "P3"):
        section = example.section(name)
        for count, expected in repeated_sums(section, 5).items():
            assert count * section == expected


def test_scalar_ladder_doubles_only_while_bits_remain(example, monkeypatch):
    add = Section.__add__
    proper = []  # additions with neither operand zero

    def counting(self, other):
        if not (self.is_zero or other.is_zero):
            proper.append((self, other))
        return add(self, other)

    monkeypatch.setattr(Section, "__add__", counting)
    for name in ("P0", "P1", "P2", "P3"):
        for count in (*range(-5, 0), *range(1, 6)):
            proper.clear()
            count * example.section(name)
            bits = abs(count)
            assert len(proper) == (bits.bit_length() - 1) + (bin(bits).count("1") - 1)


def test_two_torsion_free_on_generators(example, model):
    for name in ("P0", "P1", "P2", "P3"):
        assert not (2 * example.section(name)).is_zero


# -- fibers --------------------------------------------------------------------


def test_singular_fiber_table(example):
    collection = classify_fibers(example.model)
    table = {str(fiber.location): (fiber.kodaira, fiber.m_v, fiber.euler) for fiber in collection}
    assert table == {
        "-1": ("I2", 2, 2),
        "0": ("IV", 3, 4),
        "1": ("I2", 2, 2),
        "inf": ("I2", 2, 2),
    }
    assert collection.residual_euler == 2
    assert sum(fiber.euler for fiber in collection) + collection.residual_euler == 12


def test_component_indices_of_generators(example):
    collection = classify_fibers(example.model)
    by_place = {str(fiber.location): fiber for fiber in collection}
    profile = {
        name: tuple(
            component_index(example.section(name), by_place[place])
            for place in ("-1", "1", "0", "inf")
        )
        for name in ("P0", "P1", "P2", "P3")
    }
    # Indices at the places (-1, 1, 0, inf).  The orientation of each
    # component group Z/m is a convention (i and m - i give the same
    # height corrections); these are the values the blow-up walk picks.
    assert profile["P1"] == (0, 1, 2, 1)
    assert profile["P2"] == (1, 0, 1, 1)
    assert profile["P3"] == (1, 1, 0, 1)
    # P0 = P2 - P1 and the indices add in each component group.
    assert profile["P0"] == (1, 1, 2, 0)


def test_zero_section_meets_identity_components(example):
    zero = Section.zero(example.model)
    for fiber in classify_fibers(example.model):
        assert component_index(zero, fiber) == 0


def test_component_index_additive_at_i2_fibers(example):
    # At a node fiber the component group is Z/2 and the walk respects addition.
    collection = classify_fibers(example.model)
    fiber = next(f for f in collection if str(f.location) == "-1")
    for left, right in itertools.product(("P1", "P2"), repeat=2):
        a = example.section(left)
        b = example.section(right)
        expected = (component_index(a, fiber) + component_index(b, fiber)) % fiber.m_v
        assert component_index(a + b, fiber) == expected


def section_on(model, x, y):
    return Section.from_xy(model, parse_poly(x), parse_poly(y))


def test_component_walk_through_i4_and_iv_fibers():
    # At the I4 fiber the first blow-up leaves two lines crossing at a
    # singular point: Q and -Q land on either line, P on the crossing, where a
    # second blow-up puts it on the far component.
    model = WeierstrassModel(parse_poly("1"), parse_poly("0"), parse_poly("t^4"))
    fibers = classify_fibers(model)
    assert [str(fiber) for fiber in fibers] == ["I4 at t = 0", "IV at t = inf"]
    P = section_on(model, "i*t^2", "(1/2*r2 - 1/2*i*r2)*t^3")
    Q = section_on(model, "r2*t", "r2*t + t^2")
    assert [component_index(P, fiber) for fiber in fibers] == [2, 0]
    assert [component_index(Q, fiber) for fiber in fibers] == [1, 1]
    assert [component_index(-Q, fiber) for fiber in fibers] == [3, 2]


def test_component_walk_through_iii_fibers():
    # At a III fiber one blow-up leaves a smooth parabola.
    model = WeierstrassModel(parse_poly("0"), parse_poly("t*(t - 1)*(t + 1)*(t - 2)"), parse_poly("0"))
    fibers = classify_fibers(model)
    assert [fiber.kodaira for fiber in fibers] == ["III"] * 4
    torsion = section_on(model, "0", "0")
    assert [component_index(torsion, fiber) for fiber in fibers] == [1, 1, 1, 1]


def test_component_index_needs_the_stratum_only_at_infinity(example):
    # x has degree 4: the section is polynomial but meets O at t = infinity.
    section = 2 * (example.section("P1") + example.section("P2"))
    assert section.x.as_poly().degree == 4
    fibers = classify_fibers(example.model)
    finite = [fiber for fiber in fibers if fiber.location is not INFINITY]
    assert [component_index(section, fiber) for fiber in finite] == [0, 0, 0]
    with pytest.raises(UnsupportedSectionError, match="stratum"):
        component_index(section, fibers[-1])
    with pytest.raises(UnsupportedSectionError, match="polynomial"):
        component_index(3 * example.section("P1"), finite[0])


# -- sections as plane curves ---------------------------------------------------


def test_section_curve_round_trip(example, model):
    for name in ("P0", "P1", "P2", "P3"):
        section = example.section(name)
        curve = section_to_plane_curve(section)
        plus, minus = plane_curve_to_sections(model, curve)
        assert section in (plus, minus)


def test_zero_section_has_no_chart_curve(example, model):
    with pytest.raises(PreconditionError):
        section_to_plane_curve(Section.zero(model))


def test_line_and_conic_images_match_fixture_curves(example):
    assert section_to_plane_curve(example.section("P1")).form.is_proportional(
        example.curve("L1").form
    )
    assert section_to_plane_curve(2 * example.section("P0")).form.is_proportional(
        example.curve("C0").form
    )
