"""Text grammar for exact field and polynomial data.

The grammar is deliberately small: integer literals, the constants r2
(the square root of two) and i, named variables, the operators + - * /
^, and parentheses.  Multiplication is always explicit.  Points are
bracketed coordinate triples, sections are pairs ``(x(t), y(t))`` or the
letter ``O`` for the zero section.

Every reader here raises ParseError with a position on malformed input,
so stored fixture data is validated byte-by-byte when reloaded.  Input
over one of the budgets below raises PreconditionError naming the limit,
before any expensive arithmetic runs.
"""

from __future__ import annotations

from fractions import Fraction
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
        if ch.isdigit():
            start = k
            while k < len(text) and text[k].isdigit():
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


class _MultiPoly:
    """Internal accumulator: exponent-vector keyed polynomial over K."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[tuple[int, ...], FieldElem]):
        self.nvars = nvars
        self.terms = {k: v for k, v in terms.items() if not v.is_zero()}
        for key, value in self.terms.items():
            if sum(key) > MAX_DEGREE:
                raise PreconditionError(f"degree exceeds the input budget of {MAX_DEGREE}")
            integers = (value.n0, value.n1, value.n2, value.n3, value.d)
            if max(abs(n).bit_length() for n in integers) > MAX_INTEGER_BITS:
                raise PreconditionError(
                    f"coefficient exceeds the input budget of {MAX_INTEGER_BITS} bits"
                )

    @classmethod
    def constant(cls, nvars: int, value: FieldElem) -> "_MultiPoly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "_MultiPoly":
        key = tuple(1 if k == index else 0 for k in range(nvars))
        return cls(nvars, {key: ONE})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in key) for key in self.terms)

    def constant_value(self) -> FieldElem:
        return self.terms.get((0,) * self.nvars, ZERO)

    def __add__(self, other: "_MultiPoly") -> "_MultiPoly":
        out = dict(self.terms)
        for key, value in other.terms.items():
            out[key] = out.get(key, ZERO) + value
        return _MultiPoly(self.nvars, out)

    def __neg__(self) -> "_MultiPoly":
        return _MultiPoly(self.nvars, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "_MultiPoly") -> "_MultiPoly":
        return self + (-other)

    def __mul__(self, other: "_MultiPoly") -> "_MultiPoly":
        out: dict[tuple[int, ...], FieldElem] = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                key = tuple(a + b for a, b in zip(k1, k2))
                out[key] = out.get(key, ZERO) + v1 * v2
        return _MultiPoly(self.nvars, out)

    def __pow__(self, exponent: int) -> "_MultiPoly":
        result = _MultiPoly.constant(self.nvars, ONE)
        for _ in range(exponent):
            result = result * self
        return result


class _Frac:
    """Numerator/denominator pair; division is deferred to conversion time."""

    __slots__ = ("num", "den")

    def __init__(self, num: _MultiPoly, den: _MultiPoly):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("_Frac is immutable")

    def __add__(self, other: "_Frac") -> "_Frac":
        return _Frac(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "_Frac") -> "_Frac":
        return _Frac(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self) -> "_Frac":
        return _Frac(-self.num, self.den)

    def __mul__(self, other: "_Frac") -> "_Frac":
        return _Frac(self.num * other.num, self.den * other.den)

    def divide(self, other: "_Frac", pos: int) -> "_Frac":
        if other.num.is_zero():
            raise ParseError(f"division by zero at position {pos}")
        return _Frac(self.num * other.den, self.den * other.num)

    def __pow__(self, exponent: int) -> "_Frac":
        return _Frac(self.num**exponent, self.den**exponent)


class _Parser:
    def __init__(self, text: str, variables: Sequence[str]):
        self.text = text
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
        n = len(self.variables)
        token = self.current
        if token.kind == "int":
            self.advance()
            value = FieldElem.from_rational(Fraction(int(token.text)))
            return _Frac(_MultiPoly.constant(n, value), _MultiPoly.constant(n, ONE))
        if token.kind == "name":
            self.advance()
            if token.text == "r2":
                return _Frac(_MultiPoly.constant(n, SQRT2), _MultiPoly.constant(n, ONE))
            if token.text == "i":
                return _Frac(_MultiPoly.constant(n, I), _MultiPoly.constant(n, ONE))
            if token.text in self.variables:
                index = self.variables.index(token.text)
                return _Frac(_MultiPoly.variable(n, index), _MultiPoly.constant(n, ONE))
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


def _require_constant_den(value: _Frac, what: str) -> _MultiPoly:
    if not value.den.is_constant():
        raise ParseError(f"{what} must not contain division by a variable expression")
    den = value.den.constant_value()
    scaled = value.num * _MultiPoly.constant(value.num.nvars, den.inv())
    return scaled


def _to_poly(m: _MultiPoly) -> Poly:
    """The univariate polynomial with the accumulator's coefficients."""
    coeffs = [ZERO] * (max((e for (e,) in m.terms), default=-1) + 1)
    for (e,), coeff in m.terms.items():
        coeffs[e] = coeff
    return Poly(coeffs)


def _to_ratfunc(value: _Frac) -> RatFunc:
    den = _to_poly(value.den)
    if den.is_zero():
        raise ParseError("zero denominator")
    return RatFunc(_to_poly(value.num), den)


def parse_field_elem(text: str) -> FieldElem:
    """Read one element of K, e.g. ``3/4 + 1/2*r2 - i*r2``."""
    parser = _Parser(text, ())
    value = parser.parse_expression()
    parser.expect_end()
    num = _require_constant_den(value, "a field element")
    return num.constant_value()


def parse_poly(text: str, var: str = "t") -> Poly:
    """Read a univariate polynomial in the named variable."""
    parser = _Parser(text, (var,))
    value = parser.parse_expression()
    parser.expect_end()
    return _to_poly(_require_constant_den(value, "a polynomial"))


def parse_ratfunc(text: str, var: str = "t") -> RatFunc:
    """Read a rational function in the named variable."""
    parser = _Parser(text, (var,))
    value = parser.parse_expression()
    parser.expect_end()
    return _to_ratfunc(value)


def parse_bipoly(text: str) -> BiPoly:
    """Read a polynomial in t and x."""
    parser = _Parser(text, ("t", "x"))
    value = parser.parse_expression()
    parser.expect_end()
    num = _require_constant_den(value, "a polynomial in t and x")
    return BiPoly.from_terms(num.terms.items())


def parse_triform(text: str) -> TriForm:
    """Read a homogeneous form in T, X, Z; inhomogeneous input is rejected."""
    parser = _Parser(text, ("T", "X", "Z"))
    value = parser.parse_expression()
    parser.expect_end()
    num = _require_constant_den(value, "a form")
    if num.is_zero():
        raise ParseError("the zero form has no degree")
    degrees = {sum(key) for key in num.terms}
    if len(degrees) != 1:
        raise ParseError(f"form is not homogeneous (term degrees {sorted(degrees)})")
    degree = degrees.pop()
    return TriForm(degree, dict(num.terms))


def parse_point(text: str) -> tuple[FieldElem, FieldElem, FieldElem]:
    """Read a projective point ``[a, b, c]`` with coordinates in K."""
    parser = _Parser(text, ())
    parser.expect("[")
    coords: list[FieldElem] = []
    for k in range(3):
        value = parser.parse_expression()
        num = _require_constant_den(value, "a coordinate")
        coords.append(num.constant_value())
        if k < 2:
            parser.expect(",")
    parser.expect("]")
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
    return _to_ratfunc(first), _to_ratfunc(second)
