"""Text grammar for exact field and polynomial data.

The grammar is deliberately small: integer literals, the constants r2
(the square root of two) and i, named variables, the operators + - * /
^, and parentheses.  Multiplication is always explicit.  Points are
bracketed coordinate triples, sections are pairs ``(x(t), y(t))`` or the
letter ``O`` for the zero section.

Every reader here raises ParseError with a position on malformed input,
so stored fixture data is validated byte-by-byte when reloaded.  Input
over one of the budgets below raises PreconditionError naming the limit,
before any expensive arithmetic runs: every value built is checked.

Values are `poly` kernel charts, as a numerator over a denominator kept
until the reader returns.  Only the rational-function readers accept
division by an expression in a variable.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import ParseError, PreconditionError
from .field import FieldElem, ONE, SQRT2, ZERO, I
from .poly import BiPoly, Poly, RatFunc, TriForm

_OPERATORS = set("+-*/^(),[]")

# Input budgets.  The paper's curves are quartics, conics and lines with
# small coefficients: the bundled example uses exponents up to 4 and
# integers of three digits.  A degree of 12 leaves room for the degree-8
# images of the quadratic transformation and is the largest degree the
# polynomial layer is sized for (see `poly`).  Two curves of degree 12 meet
# in 144 points, and the square-free step on a resultant of that degree
# does not finish in minutes, so two curves of one arrangement may meet in
# at most 64 points, as two degree-8 images do.
MAX_EXPONENT = 12  # largest exponent literal after ^
MAX_DEGREE = 12  # largest total degree of a numerator or denominator
MAX_INTEGER_BITS = 256  # largest numerator or denominator of any coefficient
MAX_NESTING = 32  # deepest parenthesis nesting
MAX_PAIR_BEZOUT = 64  # largest product of the degrees of two curves in one arrangement
_MAX_LITERAL_DIGITS = len(str(1 << MAX_INTEGER_BITS))


class _Token(NamedTuple):
    kind: str  # "int" | "name" | an operator character | "end"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    k = 0
    while k < len(text):
        ch = text[k]
        if ch.isspace():
            k += 1
            continue
        if "0" <= ch <= "9":  # str.isdigit also takes '²' and other scripts' digits
            start = k
            while k < len(text) and "0" <= text[k] <= "9":
                k += 1
            if k - start > _MAX_LITERAL_DIGITS:
                raise PreconditionError(
                    f"integer literal at position {start} exceeds the input budget "
                    f"of {MAX_INTEGER_BITS} bits"
                )
            tokens.append(_Token("int", text[start:k], start))
            continue
        if ch.isalpha():
            start = k
            while k < len(text) and (text[k].isalnum() or text[k] == "_"):
                k += 1
            tokens.append(_Token("name", text[start:k], start))
            continue
        if ch in _OPERATORS:
            tokens.append(_Token(ch, ch, k))
            k += 1
            continue
        raise ParseError(f"unexpected character {ch!r} at position {k}")
    tokens.append(_Token("end", "", len(text)))
    return tokens


# A polynomial value is held as its nonzero homogeneous parts, a dict from
# degree to the part's chart: t and T read as the chart's t, x and X as its
# x, and Z as 1, so the degree budget is the largest key.
_Parts = dict[int, BiPoly]
_T = BiPoly.from_poly_in_t(Poly((ZERO, ONE)))
_VARIABLES = {"t": _T, "T": _T, "x": BiPoly.variable_x(), "X": BiPoly.variable_x(),
              "Z": BiPoly.from_poly_in_t(Poly.constant(ONE))}


def _fits(p: Poly) -> bool:
    """Whether each coefficient has integers within the budget; a coefficient's
    reduced integers never exceed p's common ones, read first."""
    bound = p._den
    for comp in p._num:
        if comp:
            bound = max(bound, max(comp), -min(comp))
    if bound.bit_length() <= MAX_INTEGER_BITS:
        return True
    return all(
        max(abs(n).bit_length() for n in (c.n0, c.n1, c.n2, c.n3, c.d)) <= MAX_INTEGER_BITS
        for c in p.coeffs
    )


def _value(parts: _Parts) -> _Parts:
    """The nonzero parts, checked against the degree and coefficient budgets."""
    value = {degree: part for degree, part in parts.items() if part}
    if value and max(value) > MAX_DEGREE:
        raise PreconditionError(f"degree exceeds the input budget of {MAX_DEGREE}")
    if not all(_fits(col) for part in value.values() for col in part.coeffs):
        raise PreconditionError(f"coefficient exceeds the input budget of {MAX_INTEGER_BITS} bits")
    return value


def _constant(c: FieldElem) -> _Parts:
    return _value({0: BiPoly.from_poly_in_t(Poly.constant(c))})


def _add(a: _Parts, b: _Parts) -> _Parts:
    out = dict(a)
    for degree, part in b.items():
        out[degree] = out[degree] + part if degree in out else part
    return _value(out)


def _mul(a: _Parts, b: _Parts) -> _Parts:
    out: _Parts = {}
    for d, p in a.items():
        for e, q in b.items():
            out[d + e] = out[d + e] + p * q if d + e in out else p * q
    return _value(out)


def _power(a: _Parts, exponent: int) -> _Parts:
    result = _constant(ONE)
    for _ in range(exponent):
        result = _mul(result, a)
    return result


def _times(a: _Parts | None, b: _Parts | None) -> _Parts | None:
    """a * b, where None stands for 1."""
    if a is None:
        return b
    return a if b is None else _mul(a, b)


def _sum(value: _Parts) -> BiPoly:
    return sum(value.values(), BiPoly.zero())


def _in_t(value: _Parts) -> Poly:
    return _sum(value).coeff_x(0)


class _Frac:
    """Numerator/denominator pair; division is deferred to the reader.  A
    denominator of None stands for 1.

    A constant denominator is folded into the numerator at once, so a sum of
    terms with rational coefficients keeps reduced coefficients rather than
    the product of every term's denominator, which outgrows the coefficient
    budget on the text that `TriForm.to_str` writes for a product of forms.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: _Parts, den: _Parts | None = None):
        if den is not None and den.keys() == {0}:
            c = den[0].coeff_x(0).coeff(0)
            num = num if c == ONE else _mul(num, _constant(c.inv()))
            den = None
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("_Frac is immutable")

    def __add__(self, other: "_Frac") -> "_Frac":
        num = _add(_times(self.num, other.den), _times(other.num, self.den))
        return _Frac(num, _times(self.den, other.den))

    def __sub__(self, other: "_Frac") -> "_Frac":
        return self + -other

    def __neg__(self) -> "_Frac":
        return _Frac(_value({d: BiPoly.zero() - p for d, p in self.num.items()}), self.den)

    def __mul__(self, other: "_Frac") -> "_Frac":
        return _Frac(_mul(self.num, other.num), _times(self.den, other.den))

    def divide(self, other: "_Frac", pos: int) -> "_Frac":
        if not other.num:
            raise ParseError(f"division by zero at position {pos}")
        return _Frac(_times(self.num, other.den), _times(self.den, other.num))

    def __pow__(self, exponent: int) -> "_Frac":
        num = _power(self.num, exponent)  # first: its refusal is the one reported
        return _Frac(num, None if self.den is None else _power(self.den, exponent))


class _Parser:
    def __init__(self, text: str, variables: Sequence[str]):
        self.variables = tuple(variables)
        self.tokens = _tokenize(text)
        self.k = 0
        self.depth = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.k]

    def advance(self) -> _Token:
        token = self.tokens[self.k]
        self.k += 1
        return token

    def expect(self, kind: str) -> _Token:
        if self.current.kind != kind:
            raise ParseError(
                f"expected {kind!r} at position {self.current.pos}, found {self.current.text!r}"
            )
        return self.advance()

    def expect_end(self) -> None:
        if self.current.kind != "end":
            raise ParseError(f"trailing input at position {self.current.pos}")

    def parse_expression(self) -> _Frac:
        value = self.parse_term()
        while self.current.kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.parse_term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_term(self) -> _Frac:
        value = self.parse_unary()
        while self.current.kind in ("*", "/"):
            token = self.advance()
            rhs = self.parse_unary()
            value = value * rhs if token.kind == "*" else value.divide(rhs, token.pos)
        return value

    def parse_unary(self) -> _Frac:
        negate = False
        while self.current.kind == "-":
            self.advance()
            negate = not negate
        value = self.parse_power()
        return -value if negate else value

    def parse_power(self) -> _Frac:
        base = self.parse_primary()
        if self.current.kind == "^":
            self.advance()
            token = self.expect("int")
            exponent = int(token.text)
            if exponent > MAX_EXPONENT:
                raise PreconditionError(
                    f"exponent {exponent} at position {token.pos} exceeds the input "
                    f"budget of {MAX_EXPONENT}"
                )
            return base**exponent
        return base

    def parse_primary(self) -> _Frac:
        token = self.current
        if token.kind == "int":
            self.advance()
            return _Frac(_constant(FieldElem.from_rational(int(token.text))))
        if token.kind == "name":
            self.advance()
            if token.text == "r2":
                return _Frac(_constant(SQRT2))
            if token.text == "i":
                return _Frac(_constant(I))
            if token.text in self.variables:
                return _Frac({1: _VARIABLES[token.text]})
            raise ParseError(
                f"unknown name {token.text!r} at position {token.pos}"
                f" (variables here: {', '.join(self.variables) or 'none'})"
            )
        if token.kind == "(":
            if self.depth == MAX_NESTING:
                raise PreconditionError(
                    f"parentheses at position {token.pos} exceed the input budget "
                    f"of {MAX_NESTING} levels"
                )
            self.advance()
            self.depth += 1
            value = self.parse_expression()
            self.expect(")")
            self.depth -= 1
            return value
        raise ParseError(f"unexpected token {token.text!r} at position {token.pos}")


def _parse(text: str, variables: Sequence[str]) -> _Frac:
    """The value of the whole text as one expression."""
    parser = _Parser(text, variables)
    value = parser.parse_expression()
    parser.expect_end()
    return value


def _numerator(value: _Frac, what: str) -> _Parts:
    if value.den is not None:
        raise ParseError(f"{what} must not contain division by a variable expression")
    return value.num


def _ratfunc(value: _Frac) -> RatFunc:
    return RatFunc(_in_t(value.num), None if value.den is None else _in_t(value.den))


def parse_field_elem(text: str) -> FieldElem:
    """Read one element of K, e.g. ``3/4 + 1/2*r2 - i*r2``."""
    return _in_t(_parse(text, ()).num).coeff(0)  # without variables, every divisor is constant


def parse_poly(text: str) -> Poly:
    """Read a univariate polynomial in t."""
    return _in_t(_numerator(_parse(text, ("t",)), "a polynomial"))


def parse_ratfunc(text: str) -> RatFunc:
    """Read a rational function in t."""
    return _ratfunc(_parse(text, ("t",)))


def parse_bipoly(text: str) -> BiPoly:
    """Read a polynomial in t and x."""
    return _sum(_numerator(_parse(text, ("t", "x")), "a polynomial in t and x"))


def parse_triform(text: str) -> TriForm:
    """Read a homogeneous form in T, X, Z; inhomogeneous input is rejected."""
    parts = _numerator(_parse(text, ("T", "X", "Z")), "a form")
    if not parts:
        raise ParseError("the zero form has no degree")
    if len(parts) != 1:
        raise ParseError(f"form is not homogeneous (term degrees {sorted(parts)})")
    ((degree, chart),) = parts.items()
    return TriForm.homogenize(chart, degree)


def parse_point(text: str) -> tuple[FieldElem, FieldElem, FieldElem]:
    """Read a projective point ``[a, b, c]`` with coordinates in K."""
    parser = _Parser(text, ())
    parser.expect("[")
    coords: list[FieldElem] = []
    for separator in (",", ",", "]"):
        coords.append(_in_t(parser.parse_expression().num).coeff(0))
        parser.expect(separator)
    parser.expect_end()
    if all(c.is_zero() for c in coords):
        raise ParseError("[0, 0, 0] is not a projective point")
    return coords[0], coords[1], coords[2]


def parse_section(text: str) -> tuple[RatFunc, RatFunc] | None:
    """Read a section ``(x(t), y(t))``, or ``O`` for the zero section."""
    stripped = text.strip()
    if stripped == "O":
        return None
    parser = _Parser(text, ("t",))
    parser.expect("(")
    first = parser.parse_expression()
    parser.expect(",")
    second = parser.parse_expression()
    parser.expect(")")
    parser.expect_end()
    return _ratfunc(first), _ratfunc(second)
