"""Plane-curve geometry: singularities, intersection numbers, the quadratic
transformation, weak contact certificates, and arrangement fingerprints."""

import itertools
import operator
import sys
from fractions import Fraction

import hypothesis
import pytest
from hypothesis import assume, given, settings, strategies as st

from contactconics import curves
from contactconics import (
    ARRANGEMENTS,
    ARRANGEMENT_NAMES,
    BiPoly,
    CASE_B,
    CASE_S,
    CASE_SC,
    CASE_SN,
    CUSP,
    ContactConicsError,
    FieldElem,
    InfiniteMultiplicityError,
    NODE,
    NotKRationalError,
    OTHER,
    PlaneCurve,
    PlanePoint,
    Poly,
    PreconditionError,
    TriForm,
    arrangement_fingerprint,
    classify_tangent_case,
    contact_conic_type,
    cremona_point,
    cremona_transform,
    intersection_multiplicity,
    is_weak_contact,
    load_worked_example,
    parse_bipoly,
    parse_point,
    parse_triform,
)
from contactconics import poly
from contactconics.curves import _fulton, _line_images, _local_at_origin, _t_on_class
from contactconics.poly import resultant_t


def curve(text: str) -> PlaneCurve:
    return PlaneCurve(parse_triform(text))


def point(text: str) -> PlanePoint:
    return PlanePoint(*parse_point(text))


CONIC = curve("X*Z - T^2")
ORIGIN = point("[0, 0, 1]")

# The quartic below meets CONIC at the points (t, t^2) for t in LINED_UP_TS.
# Every shear x -> x + k*t with |k| <= 9 is blocked: k = 0 puts [1 : k : 0] on
# the quartic, and every other such k = t_i + t_j lines up two of the points.
LINED_UP_TS = (-9, -8, -7, -2, 1, 3, 4, 5)


def lined_up_quartic() -> PlaneCurve:
    """The quartic Q with Q(t, t^2) = prod (t - t_j): t^m lifts to t^(m mod 2)*x^(m div 2)."""
    product = Poly.constant(1)
    for root in LINED_UP_TS:
        product = product * Poly((-root, 1))
    terms = {}
    for m, coeff in enumerate(product.coeffs):
        i, j = m % 2, m // 2
        terms[(i, j, 4 - i - j)] = coeff
    return PlaneCurve(TriForm(4, terms))


# -- singular points ---------------------------------------------------------


def test_points_and_curves_refuse_degenerate_input():
    with pytest.raises(PreconditionError, match=r"\[0, 0, 0\] is not a projective point"):
        PlanePoint(0, 0, 0)
    with pytest.raises(PreconditionError, match="a nonzero form of positive degree"):
        PlaneCurve(TriForm(0, {(0, 0, 0): 1}))
    # the t-content (t - 1)^2 of the chart (t - 1)^2 * (x + t) is a square
    with pytest.raises(PreconditionError, match="not square-free"):
        curve("(T - Z)^2*(X + T)")


def test_quartic_singularities(example):
    found = {p: kind for p, kind in example.quartic.singular_points()}
    assert found == {
        example.nodes[0]: NODE,
        example.nodes[1]: NODE,
        example.cusp: CUSP,
    }


def test_cuspidal_cubic_classification():
    cubic = curve("X^2*Z - T^3")
    records = cubic.singular_points()
    assert records == [(ORIGIN, CUSP)]


def test_nodal_cubic_classification():
    cubic = curve("X^2*Z - T^2*Z - T^3")
    records = cubic.singular_points()
    assert records == [(ORIGIN, NODE)]


def test_smooth_conic_has_no_singular_points():
    assert CONIC.singular_points() == []


def test_singular_points_over_a_residual_factor_are_not_k_rational():
    # x = +-(t^3 - 2) cross where t^3 = 2, which has no root in K
    crossing = curve("X^2*Z^4 - (T^3 - 2*Z^3)^2")
    with pytest.raises(NotKRationalError):
        crossing.singular_points()


@pytest.mark.parametrize(
    "text, expected",
    [
        # two lines over Q(sqrt(3)) through one K-point at infinity
        ("T^2 - 3*Z^2", [(point("[0, 1, 0]"), NODE)]),
        ("X^2 - 3*Z^2", [(point("[1, 0, 0]"), NODE)]),
        ("3*T^2 - 2*T*Z - 2*Z^2", [(point("[0, 1, 0]"), NODE)]),
        # the gcd of the resultants has the root t = 0, where the slices share no x
        ("T^2*X + 3*T*Z^2", [(point("[0, 1, 0]"), OTHER)]),
        # the first polar f_x also meets the curve at the vertical tangent
        # point (0, 1), over the node's t = 0; the second polar does not
        (
            "X^2*(X - Z)^2 - T^2*Z^2 + T*X*Z^2",
            [(ORIGIN, NODE), (point("[1, 0, 0]"), OTHER)],
        ),
        # a residual t-factor whose certificate shows no singular point over it
        ("3*T*X^2 + Z^3", [(point("[1, 0, 0]"), CUSP)]),
    ],
)
def test_singular_points_of_special_curves(text, expected):
    assert curve(text).singular_points() == expected


@pytest.mark.parametrize(
    "text, message",
    [
        # crossings at t = +-sqrt(2), x = +-sqrt(3): K-rational t, non-K x
        ("(T^2 - 2*Z^2)*(X^2 - 3*Z^2)", "non-K x-coordinate"),
        # crossings (+-sqrt(3), 1): the leading coefficient in x vanishes there
        ("(X - Z)*(T^2 - 3*Z^2)", "residual factor"),
        # crossings of x = +-sqrt(-3) with t = +-i*x: the certificate's s11 vanishes there
        ("(X^2 + 3*Z^2)*(T^2 + X^2)", "residual factor"),
        # the line x = 0 meets the conic at t = +-1/sqrt(3)
        ("T*X*(3*T^2 + 2*T*X - Z^2)", "residual factor"),
        ("(X^2 - 3*T^2 + X*Z)*(X^2 - 3*T^2 + T*Z)", "on the line at infinity"),
        # a squared residual, (t^2 - 3)^2 here and (t^2 - 1/3)^2 for the curve two
        # rows up, is named by its square-free part
        ("X^2*Z^2 - (T^2 - 3*Z^2)^2", r"^possible singular point over the residual factor t\^2 - 3$"),
        ("T*X*(3*T^2 + 2*T*X - Z^2)", r"^possible singular point over the residual factor t\^2 - 1/3$"),
    ],
)
def test_non_k_singular_points_are_refused(text, message):
    with pytest.raises(NotKRationalError, match=message):
        curve(text).singular_points()


def test_a_curve_containing_the_line_at_infinity_is_refused():
    with pytest.raises(PreconditionError, match="line at infinity"):
        curve("Z*(X*Z - T^2)").singular_points()


# The coefficient vectors in [-3, 3]^3, grouped by the line they define;
# never the line Z = 0.
LINE_CLASSES = {}
for coeffs in itertools.product(range(-3, 4), repeat=3):
    if coeffs[0] or coeffs[1]:
        LINE_CLASSES.setdefault(PlanePoint(*coeffs), []).append(coeffs)


@st.composite
def distinct_lines(draw):
    """Two to five distinct lines, each as one of its coefficient vectors.

    Five lines are drawn every time, each from those not drawn yet, so each
    example makes the same number of choices and none is discarded."""
    count = draw(st.integers(2, 5))
    pool = list(LINE_CLASSES.values())
    lines = []
    for _ in range(5):
        vectors = pool.pop(draw(st.integers(0, len(pool) - 1)))
        lines.append(vectors[draw(st.integers(0, len(vectors) - 1))])
    return lines[:count]


@settings(deadline=None)
@given(distinct_lines())
def test_singular_points_of_lines_are_their_crossings(lines):
    """Oracle: two lines meet at the cross product of their coefficient
    vectors; the point is a node where two lines pass and `other` where
    three or more do."""
    form = TriForm(0, {(0, 0, 0): 1})
    for a, b, c in lines:
        form = form * TriForm(1, {(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c})
    crossings = {}
    for (a0, a1, a2), (b0, b1, b2) in itertools.combinations(lines, 2):
        cross = (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)
        crossings[PlanePoint(*cross)] = cross
    expected = []
    for p in sorted(crossings, key=PlanePoint.sort_key):
        through = sum(1 for line in lines if sum(map(operator.mul, line, crossings[p])) == 0)
        expected.append((p, NODE if through == 2 else OTHER))
    assert PlaneCurve(form).singular_points() == expected


MILNOR_CURVES = [
    "X^2*Z - T^3",
    "X^2*Z - T^3 - T^2*Z",
    "(X*Z - T^2)*(X*Z - 2*T^2)",  # two tacnodes
    "T*X*(T - X)",  # an ordinary triple point
    "T^2 - 3*Z^2",  # a node at infinity
    "X^2*Z^2 - (T^2 - 2*Z^2)^2",  # two nodes and a tacnode at infinity
]


def test_node_and_cusp_agree_with_the_milnor_number(example):
    """Second route (Milnor 1968): the Milnor number mu = I_p(g_t, g_x) of
    the translated chart g is 1 exactly at a node and 2 exactly at a cusp.
    Kills `_classify_singular_point` without its cubic-term test, which
    calls every double point with one tangent, tacnodes too, a cusp."""
    seen = []
    for c in [example.quartic, example.quartic_image, *map(curve, MILNOR_CURVES)]:
        for p, kind in c.singular_points():
            g = _local_at_origin(c.form, p)
            g_t = BiPoly(tuple(col.derivative() for col in g.coeffs))
            mu = _fulton(g_t, g.derivative_x(), (c.degree - 1) ** 2)
            assert kind == (NODE if mu == 1 else CUSP if mu == 2 else OTHER), (str(c), p)
            seen.append(mu)
    assert len(seen) == 15 and set(seen) == {1, 2, 3, 4}


# -- intersection multiplicity ----------------------------------------------


def test_transverse_lines_meet_once():
    assert intersection_multiplicity(curve("T"), curve("X"), ORIGIN) == 1


def test_tangent_line_meets_conic_twice():
    assert intersection_multiplicity(CONIC, curve("X"), ORIGIN) == 2


def test_multiplicity_is_symmetric():
    assert intersection_multiplicity(CONIC, curve("X"), ORIGIN) == intersection_multiplicity(
        curve("X"), CONIC, ORIGIN
    )


def test_multiplicity_zero_off_the_curves():
    away = point("[1, 1, 1]")
    assert intersection_multiplicity(curve("T"), curve("X"), away) == 0


def test_multiplicity_additive_under_products():
    line = curve("X")
    through = curve("T")
    product = curve("X*T")
    expected = intersection_multiplicity(CONIC, line, ORIGIN) + intersection_multiplicity(
        CONIC, through, ORIGIN
    )
    assert intersection_multiplicity(CONIC, product, ORIGIN) == expected == 3


def test_common_component_is_rejected():
    with_component = curve("(X*Z - T^2)*X")
    with pytest.raises(InfiniteMultiplicityError):
        intersection_multiplicity(CONIC, with_component, ORIGIN)


def test_cusp_counts_with_multiplicity():
    cubic = curve("X^2*Z - T^3")
    assert intersection_multiplicity(cubic, curve("X"), ORIGIN) == 3
    assert intersection_multiplicity(cubic, curve("T"), ORIGIN) == 2


# -- the standard quadratic transformation -----------------------------------


def test_coordinate_triangle_transform_is_an_involution():
    triangle = (curve("T"), curve("X"), curve("Z"))
    original = curve("X*Z - T^2 + T*Z")
    once = cremona_transform(original, triangle)
    twice = cremona_transform(once, triangle)
    assert twice.form.is_proportional(original.form)


def test_worked_example_transform_regressions(example):
    image = cremona_transform(example.conic, example.triangle)
    assert image.form.is_proportional(example.quartic_image.form)
    line_image = cremona_transform(example.tangent_line, example.triangle)
    assert line_image.form.is_proportional(example.conic_image.form)


def test_point_map_matches_curve_map(example):
    assert cremona_point(example.triangle, example.tangency_point) == example.marked_point


def test_point_map_is_undefined_at_a_triangle_vertex(example):
    with pytest.raises(PreconditionError, match="undefined at a triangle vertex"):
        cremona_point(example.triangle, point("[0, 1, 1]"))


@st.composite
def small_form_texts(draw):
    """A form of degree 2-4 with coefficients in -3..3, as text.  The 15
    coefficients of a quartic are drawn at every degree, so that every case
    makes the same draws (hypothesis discards a case as invalid when a copy
    of one part of it over another asks for more draws than it holds).  Zero
    comes last, so that the simplest cases, which hypothesis tries first, are
    curves rather than the zero form or c*Z^d, which would be refused."""
    d = draw(st.integers(2, 4))
    coefficient = st.sampled_from((1, -1, 2, -2, 3, -3, 0))
    coefficients = iter([draw(coefficient) for _ in range(15)])
    terms = [
        f"({next(coefficients)})*T^{a}*X^{b}*Z^{d - a - b}"
        for a in range(d + 1)
        for b in range(d + 1 - a)
    ]
    return " + ".join(terms)


# The worked triangle's vertices are [0, 1, 1], [1, 1, 0] and [1, -1, 0].
@settings(deadline=None)
@given(small_form_texts())
@hypothesis.example("T^2 - X^2 + X*Z")  # through all three vertices: a line
@hypothesis.example("(X - Z)^2*Z - T^2*(T + Z)")  # a node at [0, 1, 1]
@hypothesis.example("T^3 - T*X^2 + X^2*Z")  # through [1, 1, 0] and [1, -1, 0]
def test_cremona_image_degree_drops_by_the_vertex_multiplicities(text):
    """Second route (Fulton, Algebraic Curves, 7.4): a curve of degree d that
    contains no fundamental line has an image of degree 2d - m1 - m2 - m3,
    the m_i its multiplicities at the triangle's vertices.  The explicit
    examples pass through vertices, so they kill `cremona_transform` that
    divides out no monomial factor."""
    triangle = load_worked_example().triangle
    try:
        c = curve(text)
    except ContactConicsError:
        assume(False)  # zero, or not square-free
    assume(not any(c.form.substitute(_line_images(line)).is_zero() for line in triangle))
    vertices = [point("[0, 1, 1]"), point("[1, 1, 0]"), point("[1, -1, 0]")]
    assert all(sum(line.contains(v) for line in triangle) == 2 for v in vertices)
    expected = 2 * c.degree - sum(c.multiplicity_at(v) for v in vertices)
    assert cremona_transform(c, triangle).degree == expected


def test_concurrent_triangle_is_rejected():
    with pytest.raises(PreconditionError):
        cremona_transform(CONIC, (curve("T"), curve("X"), curve("T + X")))


# -- weak contact ------------------------------------------------------------


def test_contact_conics_have_even_certificates(example):
    for name in ("Cbar", "C0", "C1", "C2"):
        certificate = is_weak_contact(example.quartic, example.curve(name))
        assert certificate.is_weak, name
        assert certificate.bezout_total == 8, name
        for cls in certificate.classes:
            assert cls.multiplicity % 2 == 0, name
        for contact in certificate.infinity:
            assert contact.multiplicity % 2 == 0, name


def test_non_contact_conic_fails_with_odd_class(example):
    from contactconics import parse_bipoly, TriForm

    chart = parse_bipoly("x - t^2 - 1")
    conic = PlaneCurve(TriForm.homogenize(chart, 2))
    certificate = is_weak_contact(example.quartic, conic)
    assert not certificate.is_weak
    assert certificate.bezout_total == 8
    odd = [c for c in certificate.classes if c.multiplicity % 2 == 1]
    odd += [c for c in certificate.infinity if c.multiplicity % 2 == 1]
    assert odd


def test_odd_contacts_only_at_infinity_refuse_weak_contact():
    # Every affine class is even and both odd contacts lie on Z = 0: a
    # verdict that ignored the parity at infinity would answer true.
    quartic = PlaneCurve(parse_triform(
        "T^3*X + T^3*Z + 3*T^2*Z^2 + T*X^3 + 6*T*Z^3 + 4*X^3*Z + 3*X^2*Z^2 + 9*X*Z^3 + 8*Z^4"
    ))
    certificate = is_weak_contact(quartic, PlaneCurve(parse_triform("X*T - Z^2")))
    assert [(c.degree, c.multiplicity) for c in certificate.classes] == [(3, 2)]
    assert [(str(c.point), c.multiplicity) for c in certificate.infinity] == [
        ("[0, 1, 0]", 1),
        ("[1, 0, 0]", 1),
    ]
    assert not certificate.is_weak


def test_lined_up_pair_is_certified_beyond_shear_eight():
    certificate = is_weak_contact(lined_up_quartic(), CONIC)
    assert certificate.shear == 10
    assert not certificate.is_weak
    assert sum(c.degree * c.multiplicity for c in certificate.classes) == 8
    assert certificate.infinity == ()
    assert certificate.bezout_total == 8


def test_weak_contact_builds_one_chain_per_shear_tried(monkeypatch):
    quartic, conic = lined_up_quartic(), PlaneCurve(CONIC.form)
    conic.singular_points()  # the conic's own chains, built before counting
    subresultant_chain = poly.subresultant_chain
    shears, chains = [], []

    def counting_resultant(p, q):
        shears.append(p)
        return resultant_t(p, q)

    def counting_chain(p, q):
        chains.append(p)
        return subresultant_chain(p, q)

    monkeypatch.setattr(curves, "resultant_t", counting_resultant)
    monkeypatch.setattr(poly, "subresultant_chain", counting_chain)
    monkeypatch.setattr(curves, "subresultant_chain", counting_chain)
    certificate = is_weak_contact(quartic, conic)
    # shear 0 is inadmissible; 1, -1, ..., 9, -9 fail and 10 certifies
    assert certificate.shear == 10
    assert len(shears) == 19
    assert len(chains) == len(shears)


def test_lined_up_points_meet_transversely():
    quartic = lined_up_quartic()
    for t in LINED_UP_TS:
        assert intersection_multiplicity(quartic, CONIC, PlanePoint(t, t * t, 1)) == 1


def test_conic_types_of_the_example_conics(example):
    types = {
        name: contact_conic_type(example.quartic, example.curve(name))
        for name in ("Cbar", "C0", "C1", "C2")
    }
    assert types == {"Cbar": 5, "C0": 1, "C1": 1, "C2": 1}


def test_type_table_needs_the_right_singularities():
    with pytest.raises(PreconditionError):
        contact_conic_type(curve("X^2*Z - T^3"), CONIC)


# -- tangent-line cases -------------------------------------------------------


def test_distinguished_tangency_is_a_simple_case(example):
    assert classify_tangent_case(example.quartic, point("[0, 1, 0]")) == CASE_S


def test_tangent_through_the_cusp_is_case_sc(example):
    tangency = cremona_point(example.triangle, point("[i, -1, 1]"))
    assert tangency == point("[2/5 - 1/5*i, -2/5 - 1/5*i, 1]")
    assert classify_tangent_case(example.quartic_image, tangency) == CASE_SC


def test_tangent_through_a_node_is_case_sn(example):
    assert classify_tangent_case(example.quartic_image, point("[4/5, -4, 1]")) == CASE_SN


# Smooth quartics tangent to Z = 0 at [1, 1, 0]: the first meets the line
# there with contact 2 and again with contact 2 at [1, -1, 0] (a bitangent),
# the second with contact 4 (a 4-fold tangent).
BITANGENT = "Z*(T^3 + 2*X^3 + Z^3 + T*X*Z) + (X^2 - T^2 + X*Z)^2"
FOURFOLD = "Z*(T^3 + 2*X^3 + Z^3 + T*X*Z) + (X^2 - 2*T*X + T^2 + X*Z)^2"


@pytest.mark.parametrize("text, contact", [(BITANGENT, 2), (FOURFOLD, 4)])
def test_bitangent_and_fourfold_tangents_are_case_b(text, contact):
    quartic = curve(text)
    tangency = point("[1, 1, 0]")
    assert intersection_multiplicity(quartic, quartic.tangent_line(tangency), tangency) == contact
    assert classify_tangent_case(quartic, tangency) == CASE_B


def test_flex_tangent_is_a_simple_case():
    # x = t^3 - t^4 - x^4 near the origin: contact 3 there, and 1 at [1, 0, 1]
    quartic = curve("X*Z^3 - T^3*Z + T^4 + X^4")
    assert intersection_multiplicity(quartic, curve("X"), ORIGIN) == 3
    assert classify_tangent_case(quartic, ORIGIN) == CASE_S


def test_tangent_line_that_is_a_component_is_a_typed_error():
    # X = 0 is a component; the rest meets it only at the origin, a point of
    # kind "other", so no singular point decides the case first
    quartic = curve("X*(X*Z^2 - T^3 + X^3)")
    with pytest.raises(InfiniteMultiplicityError):
        classify_tangent_case(quartic, point("[2, 0, 1]"))


def test_tangent_along_t_equal_zero_is_read_through_x_and_z():
    # T = 0 meets T*Z^3 - X^4 only at [0, 0, 1], with contact 4
    assert classify_tangent_case(curve("T*Z^3 - X^4"), ORIGIN) == CASE_B


def test_tangent_line_needs_a_smooth_point_on_the_curve():
    with pytest.raises(PreconditionError, match="is not on the curve"):
        CONIC.tangent_line(point("[1, 0, 1]"))
    with pytest.raises(PreconditionError, match="is a singular point; no unique tangent line"):
        curve("X^2*Z - T^2*(T + Z)").tangent_line(ORIGIN)


def test_tangent_case_rejects_singular_and_off_curve_points(example):
    with pytest.raises(PreconditionError, match="is a singular point; no unique tangent line"):
        classify_tangent_case(example.quartic, example.cusp)
    with pytest.raises(PreconditionError, match="is not on the curve"):
        classify_tangent_case(example.quartic, point("[17, 1, 1]"))


# -- arrangement fingerprints -------------------------------------------------


def test_fingerprint_is_deterministic(example):
    first = arrangement_fingerprint(example.arrangement("B11"))
    second = arrangement_fingerprint(example.arrangement("B11"))
    assert first == second


def test_companion_swap_pairs_share_fingerprints(example):
    assert arrangement_fingerprint(example.arrangement("B11")) == arrangement_fingerprint(
        example.arrangement("B21")
    )
    assert arrangement_fingerprint(example.arrangement("B22")) == arrangement_fingerprint(
        example.arrangement("B12")
    )


def test_lined_up_pair_fingerprint_lists_eight_simple_points():
    fingerprint = arrangement_fingerprint([lined_up_quartic(), CONIC])
    lines = fingerprint.splitlines()
    assert lines[0] == "pair (2,4):"
    assert lines[1:] == ["  point mult=1 quartic=smooth incidence=[]"] * 8


def test_fingerprint_splits_a_class_by_the_components_through_it():
    # D meets CONIC where t^2 = 3 or 5: one class of four non-K-rational
    # points, of which the line x = 3 passes through the two with t^2 = 3.
    conic_d = curve("X^2 - 7*X*Z + 15*Z^2 - T^2")
    fingerprint = arrangement_fingerprint([CONIC, conic_d, curve("X - 3*Z")])
    through_both = "pair (1,2):\n" + "  point mult=1 quartic=off incidence=[2]\n" * 2
    assert fingerprint == (
        through_both
        + through_both
        + "pair (2,2):\n"
        + "  point mult=1 quartic=off incidence=[1]\n" * 2
        + "  point mult=1 quartic=off incidence=[]\n"
        + "  point mult=1 quartic=off incidence=[]"
    )


def test_fingerprint_separates_different_local_geometry(example):
    # Cbar meets C0 tangentially at the cusp but meets C1 transversely there,
    # so these two arrangements genuinely differ in this invariant.
    assert arrangement_fingerprint(example.arrangement("D0")) != arrangement_fingerprint(
        example.arrangement("D1")
    )


# -- the pair memo -------------------------------------------------------------


def fresh_arrangement(example, name):
    """Copies of an arrangement's curves, with empty caches."""
    return [PlaneCurve(c.form) for c in example.arrangement(name)]


def test_second_fingerprint_reads_every_pair_from_the_memo(example, monkeypatch):
    calls = []

    def counting(p, q):
        calls.append((p, q))
        return resultant_t(p, q)

    monkeypatch.setattr(curves, "resultant_t", counting)
    comps = fresh_arrangement(example, "B11")
    first = arrangement_fingerprint(comps)
    computed = len(calls)
    second = arrangement_fingerprint(comps)
    assert computed >= 3
    assert len(calls) == computed
    assert second.encode() == first.encode()


def test_second_fingerprint_reads_every_record_from_the_memo(example, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return _t_on_class(*args)

    quartic, line, conic = fresh_arrangement(example, "B11")
    first = arrangement_fingerprint([quartic, line, conic])
    monkeypatch.setattr(curves, "_t_on_class", counting)
    second = arrangement_fingerprint([quartic, line, conic])
    assert second.encode() == first.encode()
    assert not calls


def test_second_fingerprint_renders_nothing_and_compares_only_equal_degrees(example, monkeypatch):
    calls = {"render": 0, "is_proportional": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    b11 = fresh_arrangement(example, "B11")  # Q + line + conic
    d0 = fresh_arrangement(example, "D0")  # Q + conic + conic
    first = [arrangement_fingerprint(b11), arrangement_fingerprint(d0)]
    monkeypatch.setattr(curves._ClassRecord, "render", counting("render", curves._ClassRecord.render))
    monkeypatch.setattr(TriForm, "is_proportional", counting("is_proportional", TriForm.is_proportional))
    assert arrangement_fingerprint(b11) == first[0]
    assert calls == {"render": 0, "is_proportional": 0}
    assert arrangement_fingerprint(d0) == first[1]
    assert calls["render"] == 0 and calls["is_proportional"] <= 1


def test_proportional_components_are_refused_at_any_position():
    conic, line = curve("X*Z - T^2"), curve("X - 3*Z")
    for comps in ([conic, PlaneCurve(conic.form.scale(2)), line],
                  [line, conic, PlaneCurve(line.form.scale(3))]):
        with pytest.raises(PreconditionError, match="arrangement components must be distinct"):
            arrangement_fingerprint(comps)


def test_records_memo_is_keyed_by_the_other_components():
    # The line x = 3 passes through two of the four points where the conics
    # meet and x = 9 through none, so the pair's records depend on the line.
    conic, conic_d = curve("X*Z - T^2"), curve("X^2 - 7*X*Z + 15*Z^2 - T^2")
    through = arrangement_fingerprint([conic, conic_d, curve("X - 3*Z")])
    missing = arrangement_fingerprint([conic, conic_d, curve("X - 9*Z")])
    fresh = [curve("X*Z - T^2"), curve("X^2 - 7*X*Z + 15*Z^2 - T^2"), curve("X - 9*Z")]
    assert missing == arrangement_fingerprint(fresh) != through


def test_rescaled_curve_gets_its_own_memo_entry(example):
    quartic, line, conic = fresh_arrangement(example, "B11")
    doubled = PlaneCurve(conic.form.scale(2))
    first = arrangement_fingerprint([quartic, line, conic])
    second = arrangement_fingerprint([quartic, line, doubled])
    assert second == first
    assert conic.form in quartic._pair_cache and doubled.form in quartic._pair_cache
    assert quartic._pair_cache[conic.form] is not quartic._pair_cache[doubled.form]


def test_equal_form_built_another_way_hits_the_pair_memo():
    # the memo key hashes the parsed form first, and the lookup a form that
    # computes its own hash
    conic = curve("X*Z - T^2")
    parsed = curve("X^2 - 7*X*Z + 15*Z^2 - T^2")
    homogenized = PlaneCurve(TriForm.homogenize(parse_bipoly("x^2 - 7*x + 15 - t^2"), 2))
    arrangement_fingerprint([conic, parsed])
    assert curves._pair_classes(conic, homogenized) is conic._pair_cache[parsed.form]
    assert len(conic._pair_cache) == 1


def test_pair_sharing_a_component_raises_on_every_call():
    a = curve("(X*Z - T^2)*(X - Z)")
    b = curve("(X - Z)*(T - Z)")
    for _ in range(2):
        with pytest.raises(PreconditionError):
            arrangement_fingerprint([a, b])
    assert not a._pair_cache


# -- splitting classes at the quartic's singular points -------------------------


def pair_classes_splitting_every_root(a, b):
    """Every K-rational root split off every class: the finest split, as reference."""
    pair = curves._pair_intersection(a, b)
    pieces = []
    for factor, mult in pair.factors:
        roots, residual = poly.k_rational_roots(factor)
        pieces.extend((Poly((-root, 1)), mult) for root, _m in roots)
        if residual.degree >= 1:
            pieces.append((residual, mult))
    return pair._replace(factors=tuple(pieces)), {}


# Quartics with K-rational nodes and a line through two of them, which meets
# the quartic there and nowhere else; the third curve passes through no node.
NODAL_ARRANGEMENTS = [
    ("X^2*Z^2 - (T^2 - 2*Z^2)^2", "X", "X - Z"),
    ("(X*Z - T^2)*(X*Z - 2*T^2 + Z^2)", "X - Z", "X - 2*Z"),
]


def assert_split_matches_reference(make_components, monkeypatch):
    fingerprint = arrangement_fingerprint(make_components())
    with monkeypatch.context() as patched:
        patched.setattr(curves, "_pair_classes", pair_classes_splitting_every_root)
        reference = arrangement_fingerprint(make_components())
    assert fingerprint.encode() == reference.encode()
    return fingerprint


def test_pair_off_the_quartic_reads_its_kind_where_they_meet():
    # the two lines meet at the node (sqrt(2), 0), where the quartic is the probe
    fingerprint = arrangement_fingerprint(
        [curve("X^2*Z^2 - (T^2 - 2*Z^2)^2"), curve("X"), curve("T - X - r2*Z")]
    )
    assert fingerprint.startswith("pair (1,1):\n  point mult=1 quartic=node incidence=[4]\n")


def test_point_sharing_its_sheared_root_with_a_node_stays_smooth():
    # The line x = -1 misses the nodes (+-1, 1) and (+-i*sqrt(2), -2).  Under
    # the certifying shear x -> x + t its point (-1, -1) has the sheared root
    # x - t = 0 of the node (1, 1), at another t.
    quartic = curve("(X*Z - T^2)*(T^2 + X^2 - 2*Z^2)")
    fingerprint = arrangement_fingerprint([quartic, curve("X + Z")])
    assert fingerprint == "pair (1,4):\n" + "\n".join(["  point mult=1 quartic=smooth incidence=[]"] * 4)


@pytest.mark.parametrize("name", ARRANGEMENT_NAMES)
def test_bundled_fingerprint_matches_the_full_root_split(example, name, monkeypatch):
    assert_split_matches_reference(lambda: fresh_arrangement(example, name), monkeypatch)


@pytest.mark.parametrize("texts", NODAL_ARRANGEMENTS)
def test_nodal_fingerprint_matches_the_full_root_split(texts, monkeypatch):
    fingerprint = assert_split_matches_reference(lambda: [curve(t) for t in texts], monkeypatch)
    assert "pair (1,4):\n" + "  point mult=2 quartic=node incidence=[]\n" * 2 in fingerprint + "\n"


# -- evaluating a probe on a class -----------------------------------------------


def t_on_class_by_expansion(p, s10, s11, modulus):
    """The full sum of c_k (-s10)^k s11^(d-k), reduced once at the end."""
    d = p.degree_x
    acc = Poly.zero()
    for k in range(d + 1):
        acc = acc + p.coeff_x(k) * (-s10) ** k * s11 ** (d - k)
    return acc % modulus


# numerators -9..9 over 1..4: every list below is drawn in full, and
# st.fractions costs about eight times as much to draw
small_rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
small_elems = st.builds(
    FieldElem, small_rationals, small_rationals, small_rationals, small_rationals
)


# Lists are drawn in full and cut afterwards, and a modulus's last coefficient
# is read as 1 when drawn zero rather than filtered, so that every case makes
# the same draws: see `small_form_texts`.
def fixed_lists(elements, max_size, min_size=0):
    """Lists of min_size..max_size values of `elements`, from max_size draws.
    Built with st.builds, whose label names its parts, as every `.map` has
    one label and copies between maps of different lengths overrun."""
    return st.builds(
        lambda values, size: list(values[:size]),
        st.tuples(*[elements] * max_size), st.integers(min_size, max_size),
    )


polys = st.builds(Poly, fixed_lists(small_elems, 4))
moduli = st.builds(
    lambda cs: Poly(cs[:-1] + [cs[-1] or FieldElem.from_rational(1)]),
    fixed_lists(small_elems, 4, min_size=2),
)


@settings(max_examples=60, deadline=None)
@given(st.builds(BiPoly, fixed_lists(polys, 5)), polys, polys, moduli)
def test_t_on_class_matches_the_direct_expansion(p, s10, s11, modulus):
    assert _t_on_class(p, s10, s11, modulus) == t_on_class_by_expansion(p, s10, s11, modulus)


def test_each_sheared_probe_is_built_once_per_component_and_shear(example, monkeypatch):
    # One arrangements pass refines 27 classes' worth of probes: 9 arrangements,
    # 3 pairs each, one other component per pair.  They come from 17 distinct
    # (component, shear) pairs, so only 17 are built.
    keys = sorted({key for name in ARRANGEMENT_NAMES for key in ARRANGEMENTS[name]})
    fresh = {key: PlaneCurve(example.curve(key).form) for key in keys}
    expected = [arrangement_fingerprint(example.arrangement(name)) for name in ARRANGEMENT_NAMES]
    builds, lookups = [], []
    shear_x, sheared_probe = BiPoly.shear_x, curves._sheared_probe

    def counting_shear(f, k):
        if sys._getframe(1).f_code is sheared_probe.__code__:
            builds.append(k)
        return shear_x(f, k)

    def counting_probe(curve, shear):
        lookups.append((curve, shear))
        return sheared_probe(curve, shear)

    monkeypatch.setattr(BiPoly, "shear_x", counting_shear)
    monkeypatch.setattr(curves, "_sheared_probe", counting_probe)
    for name, fingerprint in zip(ARRANGEMENT_NAMES, expected):
        components = [fresh[key] for key in ARRANGEMENTS[name]]
        assert arrangement_fingerprint(components).encode() == fingerprint.encode()
    assert len(lookups) == 27
    assert len(set(lookups)) == len(builds) == 17
    assert sum(len(c._probe_cache) for c in fresh.values()) == 17
