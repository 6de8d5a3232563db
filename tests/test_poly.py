"""Polynomials, rational functions, and forms over Q(sqrt(2), i)."""

import pytest
from hypothesis import given, settings, strategies as st

from contactconics import (
    BiPoly,
    FieldElem,
    ONE,
    Poly,
    RatFunc,
    TriForm,
    parse_bipoly,
    parse_field_elem,
    parse_poly,
    parse_triform,
)
from contactconics.field import I, SQRT2
from contactconics.poly import (
    k_rational_roots,
    poly_gcd,
    poly_is_square,
    resultant_t,
    squarefree_decomposition,
)

small_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=4)
small_elems = st.builds(FieldElem, small_rationals, small_rationals, small_rationals, small_rationals)
polys = st.lists(small_elems, min_size=0, max_size=4).map(Poly)


@given(polys, polys)
def test_arithmetic_results_have_no_trailing_zero(p, q):
    results = [p + q, p - q, -p, p * q, p.scale(0), p.shift_up(2)]
    if not q.is_zero():
        results.extend(p.divmod(q))
    for r in results:
        assert r == Poly(r.coeffs)
        assert not r.coeffs or not r.coeffs[-1].is_zero()


def test_poly_basics():
    p = parse_poly("t^2 - 3*t + 2")
    assert p.degree == 2
    assert p.eval(FieldElem.from_rational(1)).is_zero()
    assert p.eval(FieldElem.from_rational(2)).is_zero()
    assert p.derivative() == parse_poly("2*t - 3")
    assert Poly.from_roots([ONE, FieldElem.from_rational(2)]).monic() == p.monic()


@given(polys, polys, polys)
@settings(max_examples=60)
def test_poly_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert (p * q) * r == p * (q * r)


@given(polys, polys)
@settings(max_examples=60)
def test_divmod_identity(p, q):
    if q.is_zero():
        return
    quotient, remainder = p.divmod(q)
    assert quotient * q + remainder == p
    assert remainder.is_zero() or remainder.degree < q.degree


@given(polys, polys)
@settings(max_examples=40)
def test_gcd_divides_both(p, q):
    if p.is_zero() and q.is_zero():
        with pytest.raises(Exception):
            poly_gcd(p, q)
        return
    g = poly_gcd(p, q)
    assert (p % g).is_zero()
    assert (q % g).is_zero()


def test_squarefree_decomposition_recovers_multiplicities():
    p = parse_poly("t - 1") ** 3 * parse_poly("t + 2")
    parts = squarefree_decomposition(p)
    by_power = {power: factor.monic() for factor, power in parts if factor.degree > 0}
    assert by_power[3] == parse_poly("t - 1")
    assert by_power[1] == parse_poly("t + 2")


@given(polys)
@settings(max_examples=40, deadline=None)
def test_poly_is_square_round_trip(p):
    root = poly_is_square(p * p)
    assert root is not None
    assert root * root == p * p


def test_k_rational_roots_finds_field_roots():
    p = Poly.from_roots([SQRT2, SQRT2, I]) * parse_poly("t^2 - 3")
    roots, residual = k_rational_roots(p)
    as_dict = {root: order for root, order in roots}
    assert as_dict[SQRT2] == 2
    assert as_dict[I] == 1
    assert residual.monic() == parse_poly("t^2 - 3")


def test_k_rational_roots_finds_roots_of_a_quartic_norm_factor():
    # 1 + r2 + i generates K, so its norm factor over Q is an irreducible quartic
    p = parse_poly("(t - 1 - r2 - i)*(t - 3)*(t^2 - 3)")
    roots, residual = k_rational_roots(p)
    assert roots == [(parse_field_elem("1 + r2 + i"), 1), (FieldElem.from_rational(3), 1)]
    assert residual == parse_poly("t^2 - 3")


def test_ratfunc_normalization_and_arithmetic():
    half = RatFunc(parse_poly("t^2 - 1"), parse_poly("2*t - 2"))
    assert half == RatFunc(parse_poly("t + 1"), parse_poly("2"))
    assert half.to_str() == "1/2*t + 1/2"
    quotient = RatFunc(parse_poly("1"), parse_poly("t"))
    assert (quotient + quotient) * RatFunc.from_poly(parse_poly("t")) == RatFunc.constant(2)
    with pytest.raises(ZeroDivisionError):
        RatFunc(parse_poly("1"), Poly.zero())


def test_bipoly_substitutions():
    f = parse_bipoly("x^2 - t^3 + t*x")
    assert f.degree_x == 2
    assert f.degree_t == 3
    assert f.total_degree == 3
    assert f.shift_x(1).eval_x(0) == f.eval_x(ONE)
    assert f.subs_x_poly(parse_poly("t")) == parse_poly("t^2 - t^3 + t^2")
    assert f.swap_vars().swap_vars() == f


def test_resultant_vanishes_iff_common_root():
    f = parse_bipoly("x - t")
    g = parse_bipoly("x^2 - t^2")
    res = resultant_t(f, g)
    assert res.is_zero() or res.degree >= 0
    h = parse_bipoly("x - t + 1")
    res2 = resultant_t(h, parse_bipoly("x - t"))
    assert not res2.is_zero()


def test_triform_homogenize_dehomogenize_round_trip():
    chart = parse_bipoly("x^3 + t^2*x + 1")
    form = TriForm.homogenize(chart, 3)
    assert form.dehomogenize() == chart
    assert form.degree == 3


def test_triform_substitute_identity_and_scaling():
    form = parse_triform("T^2 - X*Z")
    t_img = parse_triform("T")
    x_img = parse_triform("X")
    z_img = parse_triform("Z")
    assert form.substitute((t_img, x_img, z_img)) == form
    swapped = form.substitute((t_img, z_img, x_img))
    assert swapped == parse_triform("T^2 - X*Z")  # X*Z is symmetric
    moved = form.substitute((parse_triform("T + X"), x_img, z_img))
    assert moved == parse_triform("T^2 + 2*T*X + X^2 - X*Z")


def test_triform_partials_satisfy_euler_relation():
    form = parse_triform("T^3 + X^2*Z - 2*T*X*Z")
    euler = (
        form.partial(0) * parse_triform("T")
        + form.partial(1) * parse_triform("X")
        + form.partial(2) * parse_triform("Z")
    )
    scaled = TriForm(form.degree, {key: value * 3 for key, value in form.terms.items()})
    assert euler == scaled


def test_infinity_form_reads_top_coefficients():
    form = TriForm.homogenize(parse_bipoly("x^2 - t^3"), 3)
    binary = form.infinity_form()
    assert binary.degree == 3
