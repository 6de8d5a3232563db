"""The shared text grammar for field elements, polynomials, and forms."""

from fractions import Fraction

import pytest

from contactconics import (
    FieldElem,
    ParseError,
    PreconditionError,
    parse_bipoly,
    parse_field_elem,
    parse_point,
    parse_poly,
    parse_ratfunc,
    parse_section,
    parse_triform,
)
from contactconics.field import I, SQRT2
from contactconics.parsing import MAX_DEGREE, MAX_EXPONENT, MAX_INTEGER_BITS, MAX_NESTING


def test_field_elem_grammar():
    assert parse_field_elem("1/2") == FieldElem.from_rational(Fraction(1, 2))
    assert parse_field_elem("r2") == SQRT2
    assert parse_field_elem("i") == I
    assert parse_field_elem("r2*i") == SQRT2 * I
    assert parse_field_elem("-(1 - r2)^2") == -(FieldElem.from_rational(1) - SQRT2) ** 2
    assert parse_field_elem("2^3/4") == FieldElem.from_rational(2)


def test_poly_grammar():
    p = parse_poly("t^3 - 3/2*t + r2")
    assert p.degree == 3
    assert p.coeff(1) == FieldElem.from_rational(Fraction(-3, 2))
    assert p.coeff(0) == SQRT2
    assert parse_poly("(t - 1)*(t + 1)") == parse_poly("t^2 - 1")


def test_ratfunc_grammar():
    f = parse_ratfunc("(t^2 - 1)/(t - 1)")
    assert f == parse_ratfunc("t + 1")
    assert parse_ratfunc("1/t + 1/t") == parse_ratfunc("2/t")


def test_bipoly_grammar():
    f = parse_bipoly("x^3 + (t^2 - 3/2*t)*x^2 + (t^2 - t^3)*x + 1/8*t^2*(t - 1)^2")
    assert f.degree_x == 3
    assert f.coeff_x(2) == parse_poly("t^2 - 3/2*t")


def test_triform_grammar_requires_homogeneous():
    form = parse_triform("Z^2*X^2 + 2*Z^2*X*T + Z^2*T^2 + 2*T*X^2*Z - 2*T^2*X*Z - 4*T^2*X^2")
    assert form.degree == 4
    with pytest.raises(ParseError):
        parse_triform("T^2 + X")


def test_point_and_section_grammar():
    point = parse_point("[-1, 1, -1]")
    assert point == (-FieldElem.from_rational(1), FieldElem.from_rational(1), -FieldElem.from_rational(1))
    pair = parse_section("(t, 1/4*(r2*t^2 + r2*t))")
    assert pair is not None
    assert pair[0] == parse_ratfunc("t")
    assert parse_section("O") is None


MALFORMED = [
    (parse_bipoly, "t +", None),
    (parse_bipoly, "x^", None),
    (parse_point, "[1, 2]", None),
    (parse_bipoly, "(t, )", None),
    (parse_bipoly, "q + 1", None),
    (parse_bipoly, "1//2", None),
    # a complete input followed by more tokens, once per reader
    (parse_field_elem, "1 2", "trailing input"),
    (parse_poly, "t t", "trailing input"),
    (parse_ratfunc, "1/t t", "trailing input"),
    (parse_bipoly, "x t", "trailing input"),
    (parse_triform, "T X", "trailing input"),
    (parse_point, "[1, 2, 3] 4", "trailing input"),
    (parse_section, "(t, t) t", "trailing input"),
]


@pytest.mark.parametrize("reader, bad, message", MALFORMED, ids=[bad for _, bad, _ in MALFORMED])
def test_malformed_inputs_raise_parse_error(reader, bad, message):
    with pytest.raises(ParseError, match=message):
        reader(bad)


def test_variables_are_scoped_per_parser():
    with pytest.raises(ParseError):
        parse_poly("x + 1")  # univariate polynomials use t
    with pytest.raises(ParseError):
        parse_triform("t*X*Z")  # forms use uppercase T, X, Z


def test_inputs_at_the_budgets_parse():
    assert parse_poly(f"t^{MAX_EXPONENT}").degree == MAX_EXPONENT
    assert parse_triform(f"(T + X + Z)^{MAX_DEGREE}").degree == MAX_DEGREE
    assert parse_field_elem(str(2**MAX_INTEGER_BITS - 1)) == FieldElem.from_rational(
        2**MAX_INTEGER_BITS - 1
    )
    assert parse_poly("(" * MAX_NESTING + "t" + ")" * MAX_NESTING) == parse_poly("t")
    assert parse_poly("-" * 5000 + "t") == parse_poly("t")


@pytest.mark.parametrize(
    "text, limit",
    [
        (f"t^{MAX_EXPONENT + 1}", str(MAX_EXPONENT)),
        ("1" + "0" * 5000, str(MAX_INTEGER_BITS)),
        (str(2**MAX_INTEGER_BITS), str(MAX_INTEGER_BITS)),
        ("*".join(["99999"] * 60), str(MAX_INTEGER_BITS)),
        (f"(t^{MAX_DEGREE})*t", str(MAX_DEGREE)),
        (f"((t + 1)^{MAX_DEGREE})^{MAX_DEGREE}", str(MAX_DEGREE)),
        ("(" * (MAX_NESTING + 1) + "t" + ")" * (MAX_NESTING + 1), str(MAX_NESTING)),
    ],
)
def test_inputs_over_a_budget_name_the_limit(text, limit):
    with pytest.raises(PreconditionError, match=f"budget of {limit}"):
        parse_poly(text)
