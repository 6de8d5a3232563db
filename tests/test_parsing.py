"""The shared text grammar for field elements, polynomials, and forms."""

from fractions import Fraction

import pytest
from hypothesis import event, example, given, settings, strategies as st

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
from contactconics import parsing
from contactconics.field import I, ONE, SQRT2, ZERO
from contactconics.parsing import MAX_DEGREE, MAX_EXPONENT, MAX_INTEGER_BITS, MAX_NESTING
from contactconics.poly import BiPoly, RatFunc, TriForm


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
    (parse_point, "[0, 0, 0]", r"\[0, 0, 0\] is not a projective point"),
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


def test_a_sum_of_small_fractions_stays_under_the_coefficient_budget():
    # the product of the denominators 2..79 has over 256 bits; their lcm does not
    text = " + ".join(f"1/{k}*T^2" for k in range(2, 80))
    expected = FieldElem.from_rational(sum(Fraction(1, k) for k in range(2, 80)))
    assert parse_triform(text) == TriForm(2, {(2, 0, 0): expected})


# -- the kernel parser against the exponent-tuple reference ---------------------
#
# The reference is the evaluator the parser used before it computed on the
# polynomial kernel: a dict from exponent tuples to field elements, with its
# own sum, product and power, checked against the budgets on every value it
# builds.  It shares the tokenizer and the recursive descent, which only
# combine values by their operators, and replaces the values.


class _ReferenceBudgetError(PreconditionError):
    """A budget refusal of the reference, which also says whether the value it
    refused breaks both the degree and the coefficient budget."""

    def __init__(self, message, terms):
        super().__init__(message)
        self.breaks_both = any(sum(key) > MAX_DEGREE for key in terms) and any(
            _over_bits(value) for value in terms.values()
        )


def _over_bits(value):
    integers = (value.n0, value.n1, value.n2, value.n3, value.d)
    return max(abs(n).bit_length() for n in integers) > MAX_INTEGER_BITS


class _MultiPoly:
    """Exponent-vector keyed polynomial over K."""

    def __init__(self, nvars, terms):
        self.nvars = nvars
        self.terms = {k: v for k, v in terms.items() if not v.is_zero()}
        for key, value in self.terms.items():
            if sum(key) > MAX_DEGREE:
                raise _ReferenceBudgetError(
                    f"degree exceeds the input budget of {MAX_DEGREE}", self.terms
                )
            if _over_bits(value):
                raise _ReferenceBudgetError(
                    f"coefficient exceeds the input budget of {MAX_INTEGER_BITS} bits", self.terms
                )

    @classmethod
    def constant(cls, nvars, value):
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars, index):
        return cls(nvars, {tuple(1 if k == index else 0 for k in range(nvars)): ONE})

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(all(e == 0 for e in key) for key in self.terms)

    def constant_value(self):
        return self.terms.get((0,) * self.nvars, ZERO)

    def __add__(self, other):
        out = dict(self.terms)
        for key, value in other.terms.items():
            out[key] = out.get(key, ZERO) + value
        return _MultiPoly(self.nvars, out)

    def __neg__(self):
        return _MultiPoly(self.nvars, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                key = tuple(a + b for a, b in zip(k1, k2))
                out[key] = out.get(key, ZERO) + v1 * v2
        return _MultiPoly(self.nvars, out)

    def __pow__(self, exponent):
        result = _MultiPoly.constant(self.nvars, ONE)
        for _ in range(exponent):
            result = result * self
        return result


class _ReferenceFrac:
    """Numerator/denominator pair; a constant denominator is folded at once."""

    def __init__(self, num, den):
        if den.is_constant() and den.constant_value() != ONE:
            num = num * _MultiPoly.constant(num.nvars, den.constant_value().inv())
            den = _MultiPoly.constant(den.nvars, ONE)
        self.num = num
        self.den = den

    def __add__(self, other):
        return _ReferenceFrac(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        return _ReferenceFrac(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self):
        return _ReferenceFrac(-self.num, self.den)

    def __mul__(self, other):
        return _ReferenceFrac(self.num * other.num, self.den * other.den)

    def divide(self, other, pos):
        if other.num.is_zero():
            raise ParseError(f"division by zero at position {pos}")
        return _ReferenceFrac(self.num * other.den, self.den * other.num)

    def __pow__(self, exponent):
        return _ReferenceFrac(self.num**exponent, self.den**exponent)


class _ReferenceParser(parsing._Parser):
    def parse_primary(self):
        n = len(self.variables)
        token = self.current
        one = _MultiPoly.constant(n, ONE)
        if token.kind == "int":
            self.advance()
            return _ReferenceFrac(_MultiPoly.constant(n, FieldElem.from_rational(int(token.text))), one)
        if token.kind == "name" and token.text in ("r2", "i"):
            self.advance()
            return _ReferenceFrac(_MultiPoly.constant(n, SQRT2 if token.text == "r2" else I), one)
        if token.kind == "name" and token.text in self.variables:
            self.advance()
            return _ReferenceFrac(_MultiPoly.variable(n, self.variables.index(token.text)), one)
        return super().parse_primary()  # the parenthesis and every refusal


def _reference_parse(text, variables):
    parser = _ReferenceParser(text, variables)
    value = parser.parse_expression()
    parser.expect_end()
    return value


def _require_constant_den(value, what):
    if not value.den.is_constant():
        raise ParseError(f"{what} must not contain division by a variable expression")
    return value.num


def _reference_poly(m):
    return BiPoly.from_terms(((e, 0), coeff) for (e,), coeff in m.terms.items()).coeff_x(0)


def _reference_ratfunc(value):
    return RatFunc(_reference_poly(value.num), _reference_poly(value.den))


def _reference_triform(text):
    num = _require_constant_den(_reference_parse(text, ("T", "X", "Z")), "a form")
    if num.is_zero():
        raise ParseError("the zero form has no degree")
    degrees = {sum(key) for key in num.terms}
    if len(degrees) != 1:
        raise ParseError(f"form is not homogeneous (term degrees {sorted(degrees)})")
    return TriForm(degrees.pop(), dict(num.terms))


def _reference_point(text):
    parser = _ReferenceParser(text, ())
    parser.expect("[")
    coords = []
    for k in range(3):
        coords.append(_require_constant_den(parser.parse_expression(), "a coordinate").constant_value())
        if k < 2:
            parser.expect(",")
    parser.expect("]")
    parser.expect_end()
    if all(c.is_zero() for c in coords):
        raise ParseError("[0, 0, 0] is not a projective point")
    return tuple(coords)


def _reference_section(text):
    if text.strip() == "O":
        return None
    parser = _ReferenceParser(text, ("t",))
    parser.expect("(")
    first = parser.parse_expression()
    parser.expect(",")
    second = parser.parse_expression()
    parser.expect(")")
    parser.expect_end()
    return _reference_ratfunc(first), _reference_ratfunc(second)


REFERENCE_READERS = {
    parse_field_elem: lambda text: _require_constant_den(
        _reference_parse(text, ()), "a field element"
    ).constant_value(),
    parse_poly: lambda text: _reference_poly(
        _require_constant_den(_reference_parse(text, ("t",)), "a polynomial")
    ),
    parse_ratfunc: lambda text: _reference_ratfunc(_reference_parse(text, ("t",))),
    parse_bipoly: lambda text: BiPoly.from_terms(
        _require_constant_den(_reference_parse(text, ("t", "x")), "a polynomial in t and x").terms.items()
    ),
    parse_triform: _reference_triform,
    parse_point: _reference_point,
    parse_section: _reference_section,
}

# 255-, 256- and 257-bit literals, around the coefficient budget
_WIDE = [2**254 + 1, 2**255 - 19, 2**256 - 1, 2**256, 2**257 - 1]
_small = st.integers(0, 12).map(str)
_wide = st.sampled_from(_WIDE).map(str)
_atom = st.one_of(
    _small,
    _small,
    st.sampled_from(["r2", "i"]),
    _wide,
    st.sampled_from(tuple(f"{wide}*{unit}" for wide in _WIDE for unit in ("r2", "i", "i*r2"))),
)

# Each expression makes the same draws whatever values it draws, and chooses
# among them afterwards.  Hypothesis mutates a test case by copying one part
# of it over another part drawn by the same strategy, and discards the case
# as invalid when the copy asks for more draws than the case holds; with
# fixed draws, no copy does.  So the tree recurses by a plain call, each of
# its nodes draws every value any of its shapes needs, and every branch of
# `_atom` is one draw.


def _leaf(draw, names):
    """One time in fifty the unknown name y; otherwise an atom, or, over
    names, a name raised to a power up to 13 (two times in four), an atom
    or a name."""
    unknown, atom = draw(st.integers(0, 49)) == 0, draw(_atom)
    if names:
        power = draw(st.sampled_from(tuple(f"{name}^{k}" for name in names for k in range(14))))
        atom = [power, power, atom, draw(st.sampled_from(names))][draw(st.integers(0, 3))]
    return "y" if unknown else atom


def _expression_text(draw, names, depth):
    """The text of a tree of operators below the given depth, and its first
    leaf, which a node that draws itself a leaf returns."""
    if depth == 3:
        leaf = _leaf(draw, names)
        return leaf, leaf
    left, leaf = _expression_text(draw, names, depth + 1)
    right, _ = _expression_text(draw, names, depth + 1)
    is_leaf = draw(st.integers(0, 3)) == 0
    shape = draw(st.sampled_from(["+", "-", "*", "/", "^", "(/)^", "-()", "nest"]))
    power, quotient_power = draw(st.integers(0, 13)), draw(st.sampled_from([0, 0, 1, 2, 13]))
    levels = draw(st.sampled_from([1, 1, 1, 2, parsing.MAX_NESTING, parsing.MAX_NESTING + 1]))
    if is_leaf:
        return leaf, leaf
    if shape in "+-*/":
        return f"{left} {shape} {right}", leaf
    if shape == "^":
        return f"({left})^{power}", leaf
    if shape == "(/)^":
        return f"({left}/({right}))^{quotient_power}", leaf
    if shape == "-()":
        return f"-({left})", leaf
    return "(" * levels + left + ")" * levels, leaf


@st.composite
def _expression(draw, names):
    """An expression text over the names, with r2, i and wide literals, an
    unknown name now and then, the five operators, exponents up to 13, and
    quotients raised to a power, three operators deep at most."""
    return _expression_text(draw, names, 0)[0]


@st.composite
def _reader_and_text(draw):
    reader = draw(st.sampled_from(list(REFERENCE_READERS)))
    if reader is parse_field_elem:
        text = draw(_expression(()))
    elif reader in (parse_poly, parse_ratfunc):
        text = draw(_expression(("t",)))
    elif reader is parse_bipoly:
        text = draw(_expression(("t", "x")))
    elif reader is parse_triform:
        text = draw(_expression(("T", "X", "Z")))
    elif reader is parse_point:
        text = "[" + ", ".join(draw(_expression(())) for _ in range(3)) + "]"
    else:
        text = draw(st.one_of(
            st.just(" O "),
            st.builds(lambda x, y: f"({x}, {y})", _expression(("t",)), _expression(("t",))),
        ))
    return reader, text + draw(st.sampled_from([""] * 12 + [" t", " )", ", 1", "^", " 2"]))


def _outcome(reader, text):
    try:
        return "value", reader(text)
    except Exception as error:  # the class and the message are compared
        return "error", error


# (W + t^12)*(2 + t) with W = 2^256 - 1: the product's first term, 2*W, is
# over the coefficient budget and its last, t^13, over the degree budget
_BOTH_BUDGETS = f"({2**256 - 1} + t^12)*(2 + t)"


@settings(deadline=None)
@given(_reader_and_text())
@example((parse_poly, _BOTH_BUDGETS))
def test_the_kernel_parser_matches_the_exponent_tuple_reference(case):
    """Every reader gives the reference's value, or its exception class and
    message.  One difference is allowed: when the first value that breaks a
    budget breaks both the degree and the coefficient budget, the kernel
    parser names the degree, and the reference the limit its first broken
    term breaks.  Such a case is reported as a hypothesis event."""
    reader, text = case
    kind, got = _outcome(reader, text)
    expected_kind, expected = _outcome(REFERENCE_READERS[reader], text)
    assert kind == expected_kind, (got, expected)
    if kind == "value":
        assert got == expected
        return
    if isinstance(expected, _ReferenceBudgetError) and expected.breaks_both:
        assert (type(got), str(got)) == (
            PreconditionError, f"degree exceeds the input budget of {MAX_DEGREE}"
        )
        if str(got) != str(expected):
            event("one value broke both the degree and the coefficient budget")
        return
    assert (type(got), str(got)) == (
        PreconditionError if isinstance(expected, _ReferenceBudgetError) else type(expected),
        str(expected),
    )
