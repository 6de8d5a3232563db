"""Arithmetic in Q(sqrt(2), i): exact axioms, conjugation, square roots."""

import os
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import contactconics
from contactconics import FieldElem, ONE, ZERO
from contactconics.field import I, SQRT2

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
coordinates = st.tuples(rationals, rationals, rationals, rationals)
elements = st.builds(FieldElem, rationals, rationals, rationals, rationals)


class RefElem:
    """Reference model: c0 + c1*r2 + c2*i + c3*i*r2 with four Fraction coordinates."""

    def __init__(self, coords):
        self.c = tuple(Fraction(x) for x in coords)

    def __add__(self, other):
        return RefElem(x + y for x, y in zip(self.c, other.c))

    def __sub__(self, other):
        return RefElem(x - y for x, y in zip(self.c, other.c))

    def __mul__(self, other):
        a0, a1, a2, a3 = self.c
        b0, b1, b2, b3 = other.c
        return RefElem((
            a0 * b0 + 2 * a1 * b1 - a2 * b2 - 2 * a3 * b3,
            a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
            a0 * b2 + a2 * b0 + 2 * (a1 * b3 + a3 * b1),
            a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1,
        ))

    def inv(self):
        """Cofactor over the norm: the product of the three other conjugates."""
        c0, c1, c2, c3 = self.c
        cofactor = (
            RefElem((c0, -c1, c2, -c3)) * RefElem((c0, c1, -c2, -c3))
            * RefElem((c0, -c1, -c2, c3))
        )
        norm = (self * cofactor).c[0]
        return RefElem(x / norm for x in cofactor.c)

    def sort_key(self):
        return tuple((x.numerator, x.denominator) for x in self.c)

    def is_lex_positive(self):
        for x in self.c:
            if x:
                return x > 0
        return False

    def __str__(self):
        terms = []
        for coeff, unit in zip(self.c, ("", "r2", "i", "i*r2")):
            if not coeff:
                continue
            mag = abs(coeff)
            body = str(mag) if not unit else unit if mag == 1 else f"{mag}*{unit}"
            terms.append(("-" if coeff < 0 else "+", body))
        if not terms:
            return "0"
        out = ("-" if terms[0][0] == "-" else "") + terms[0][1]
        for sign, body in terms[1:]:
            out += f" {sign} {body}"
        return out


def assert_matches(value: FieldElem, ref: RefElem):
    assert value.coords == ref.c
    assert value.d > 0
    assert gcd(value.n0, value.n1, value.n2, value.n3, value.d) == 1
    assert value.sort_key() == ref.sort_key()
    assert value.is_lex_positive() == ref.is_lex_positive()
    assert str(value) == str(ref)


@given(coordinates, coordinates)
def test_arithmetic_matches_fraction_reference(x, y):
    a, b = FieldElem(*x), FieldElem(*y)
    ra, rb = RefElem(x), RefElem(y)
    assert_matches(a, ra)
    assert_matches(a + b, ra + rb)
    assert_matches(a - b, ra - rb)
    assert_matches(-a, RefElem(-c for c in x))
    assert_matches(a * b, ra * rb)
    if b:
        assert_matches(b.inv(), rb.inv())
        assert_matches(a / b, ra * rb.inv())
        # a value reached two ways has one canonical form, hence one hash
        assert (a * b) / b == a
        assert hash((a * b) / b) == hash(a)


@given(coordinates, st.integers(-20, 20))
def test_mixed_operands_are_canonical(x, k):
    a = FieldElem(*x)
    for value, ref in (
        (a + k, RefElem(x) + RefElem((k, 0, 0, 0))),
        (k - a, RefElem((k, 0, 0, 0)) - RefElem(x)),
        (a * Fraction(k, 7), RefElem(x) * RefElem((Fraction(k, 7), 0, 0, 0))),
    ):
        assert_matches(value, ref)
    assert FieldElem.from_rational(Fraction(k, 6)) == FieldElem(Fraction(k, 6))
    assert hash(FieldElem.from_rational(Fraction(k, 6))) == hash(FieldElem(Fraction(k, 6)))


def from_coordinates(n0, n1, n2, n3, d):
    """(n0 + n1*r2 + n2*i + n3*i*r2) / d, built by the constructor from Fractions."""
    return FieldElem(*(Fraction(n, d) for n in (n0, n1, n2, n3)))


def general_sum(a, b, sign):
    """The four-coordinate sum (sign 1) or difference (sign -1) over a.d * b.d."""
    return from_coordinates(
        *(x * b.d + sign * y * a.d for x, y in zip(
            (a.n0, a.n1, a.n2, a.n3), (b.n0, b.n1, b.n2, b.n3))),
        a.d * b.d,
    )


def general_product(a, b):
    a0, a1, a2, a3 = a.n0, a.n1, a.n2, a.n3
    b0, b1, b2, b3 = b.n0, b.n1, b.n2, b.n3
    return from_coordinates(
        a0 * b0 + 2 * (a1 * b1 - a3 * b3) - a2 * b2,
        a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
        a0 * b2 + a2 * b0 + 2 * (a1 * b3 + a3 * b1),
        a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1,
        a.d * b.d,
    )


def general_inverse(a):
    a0, a1, a2, a3, d = a.n0, a.n1, a.n2, a.n3, a.d
    p = a0 * a0 + 2 * a1 * a1 + a2 * a2 + 2 * a3 * a3
    q = 2 * (a0 * a1 + a2 * a3)
    return from_coordinates(
        d * (a0 * p - 2 * a1 * q), d * (a1 * p - a0 * q),
        d * (2 * a3 * q - a2 * p), d * (a2 * q - a3 * p), p * p - 2 * q * q,
    )


def assert_canonical_and_equal(value, expected):
    assert value.__class__ is FieldElem
    assert value.d > 0
    assert gcd(value.n0, value.n1, value.n2, value.n3, value.d) == 1
    assert value == expected
    assert hash(value) == hash(expected)


rational_elems = st.builds(FieldElem, rationals)
small_ints = st.integers(-50, 50)
# both fast-path branches: rational pairs, int operands on either side, and
# rational against irrational on either side
OPERAND_PAIRS = {
    "rational": (rational_elems, rational_elems),
    "int-left": (small_ints, st.one_of(rational_elems, elements)),
    "int-right": (st.one_of(rational_elems, elements), small_ints),
    "rational-irrational": (rational_elems, elements),
    "irrational-rational": (elements, rational_elems),
}


@pytest.mark.parametrize("kind", sorted(OPERAND_PAIRS))
@given(data=st.data())
def test_rational_fast_path_matches_the_general_formula(kind, data):
    left, right = OPERAND_PAIRS[kind]
    x, y = data.draw(left), data.draw(right)
    a, b = FieldElem.coerce(x), FieldElem.coerce(y)
    assert_canonical_and_equal(a, FieldElem(x) if isinstance(x, int) else x)
    assert_canonical_and_equal(x + y, general_sum(a, b, 1))
    assert_canonical_and_equal(x - y, general_sum(a, b, -1))
    assert_canonical_and_equal(x * y, general_product(a, b))
    for value in (a, b):
        if value:
            assert_canonical_and_equal(value.inv(), general_inverse(value))
    if a.is_rational() and b.is_rational():
        assert (a - a) is ZERO and (a * ZERO) is ZERO


@given(elements)
def test_sign_flips_are_canonical_without_a_gcd(a):
    """Negation and the conjugations skip the gcd: each result still equals,
    and hashes like, the constructor's element on the same coordinates."""
    n0, n1, n2, n3, d = a.n0, a.n1, a.n2, a.n3, a.d
    assert_canonical_and_equal(-a, from_coordinates(-n0, -n1, -n2, -n3, d))
    assert_canonical_and_equal(a.conj_sqrt2(), from_coordinates(n0, -n1, n2, -n3, d))
    assert_canonical_and_equal(a.conj_i(), from_coordinates(n0, n1, -n2, -n3, d))

def test_constants():
    assert ZERO.is_zero()
    assert ONE.as_rational() == 1
    assert SQRT2 * SQRT2 == FieldElem.from_rational(2)
    assert I * I == FieldElem.from_rational(-1)
    assert (SQRT2 * I) ** 2 == FieldElem.from_rational(-2)


def test_coercion_and_rationals():
    assert FieldElem.coerce(3) == FieldElem.from_rational(3)
    assert FieldElem.coerce(Fraction(2, 7)).as_rational() == Fraction(2, 7)
    assert FieldElem.from_rational(5).is_rational()
    assert not SQRT2.is_rational()
    assert SQRT2.is_real()
    assert not I.is_real()


def test_only_exact_values_are_elements():
    with pytest.raises(TypeError, match="not a rational value: 0.5"):
        FieldElem(0.5)
    with pytest.raises(ValueError, match="is not rational"):
        I.as_rational()
    assert (ONE == "1") is False


@given(elements, elements, elements)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(elements)
def test_additive_structure(a):
    assert a + ZERO == a
    assert a + (-a) == ZERO
    assert a - a == ZERO


@given(elements)
def test_multiplicative_inverse(a):
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inv()
    else:
        assert a * a.inv() == ONE
        assert (ONE / a) * a == ONE


@given(elements)
def test_conjugations_are_involutions(a):
    assert a.conj_sqrt2().conj_sqrt2() == a
    assert a.conj_i().conj_i() == a
    assert a.conj_sqrt2().conj_i() == a.conj_i().conj_sqrt2()


def norm_to_q(a: FieldElem) -> Fraction:
    """Reference: p**2 - 2*q**2 over d**4, where p + q*r2 = A**2 + B**2 for
    a = (A + B*i)/d, so the norm needs no product in K."""
    p = a.n0**2 + 2 * a.n1**2 + a.n2**2 + 2 * a.n3**2
    q = 2 * (a.n0 * a.n1 + a.n2 * a.n3)
    return Fraction(p * p - 2 * q * q, a.d**4)


@given(elements)
def test_norm_is_rational_product_of_conjugates(a):
    product = ONE
    for conjugate in a.conjugates():
        product = product * conjugate
    assert product.is_rational()
    assert product.as_rational() == norm_to_q(a)


@given(elements)
def test_lex_sign_trichotomy(a):
    if a.is_zero():
        assert not a.is_lex_positive()
        assert not (-a).is_lex_positive()
    else:
        assert a.is_lex_positive() != (-a).is_lex_positive()


@settings(deadline=None, max_examples=30)
@given(elements)
def test_square_root_round_trip(a):
    square = a * a
    root = square.sqrt()
    assert root is not None
    assert root * root == square
    assert root.is_zero() or root.is_lex_positive()


def test_sqrt_of_non_square_is_none():
    assert FieldElem.from_rational(3).sqrt() is None
    assert (SQRT2 + ONE).sqrt() is None
    # 1 + 2i: A^2 + B^2 = 5 has no root in Q(r2)
    assert (ONE + I + I).sqrt() is None
    # 1 + i: X^2 = (1 + r2)/2 has no root in Q(r2)
    assert (ONE + I).sqrt() is None


def test_pow_negative_exponent():
    assert SQRT2 ** -2 == FieldElem.from_rational(Fraction(1, 2))


def test_str_round_trip_examples():
    from contactconics import parse_field_elem

    for text in ("0", "1", "-3/2", "r2", "i", "1/2*r2*i", "1 + r2 - 2*i"):
        value = parse_field_elem(text)
        assert parse_field_elem(str(value)) == value
    # hypothesis reprs a filtered strategy's elements only when the filter
    # rejects a draw, so the repr is pinned here
    assert repr(ONE + SQRT2) == "FieldElem(1 + r2)"


def _to_sympy(value: FieldElem):
    import sympy

    r2 = sympy.sqrt(2)
    c0, c1, c2, c3 = (sympy.Rational(c.numerator, c.denominator) for c in value.coords)
    return c0 + c1 * r2 + c2 * sympy.I + c3 * sympy.I * r2


def _sympy_is_square(value: FieldElem) -> bool:
    """Whether w**2 - value has a linear factor over QQ<sqrt(2), i>."""
    import sympy

    w = sympy.Symbol("w")
    poly = sympy.Poly(w**2 - _to_sympy(value), w, extension=[sympy.sqrt(2), sympy.I])
    return any(factor.degree() == 1 for factor, _ in poly.factor_list()[1])


@settings(deadline=None, max_examples=15)
@given(elements, st.sampled_from([ONE, SQRT2, I, ONE + SQRT2, ONE + I, FieldElem(3)]))
def test_sqrt_agrees_with_sympy_factoring(a, twist):
    square = a * a
    root = square.sqrt()
    # a square by construction, so sympy is asked only about the twisted value
    assert root is not None and root * root == square
    if twist != ONE:
        value = square * twist
        root = value.sqrt()
        assert (root is not None) == _sympy_is_square(value)
        if root is not None:
            assert root * root == value


def test_sqrt_of_non_rational_squares():
    half = FieldElem(Fraction(1, 2))
    assert (I + I).sqrt() ** 2 == I + I
    assert I.sqrt() ** 2 == I
    assert I.sqrt() in ((ONE + I) * SQRT2 * half, -(ONE + I) * SQRT2 * half)
    assert (FieldElem(3) + SQRT2 + SQRT2).sqrt() in (ONE + SQRT2, -ONE - SQRT2)
    assert FieldElem(-2).sqrt() == SQRT2 * I
    assert FieldElem(Fraction(1, 2)).sqrt() == SQRT2 * half
    assert SQRT2.sqrt() is None
    assert (SQRT2 * I).sqrt() is None


def test_sqrt_does_not_import_sympy():
    src = Path(contactconics.__file__).resolve().parent.parent
    code = (
        "import sys\n"
        "from contactconics.field import FieldElem, I, SQRT2\n"
        "for value in (FieldElem(2), FieldElem(-3), I, SQRT2 + I, (SQRT2 + I) * (SQRT2 + I)):\n"
        "    value.sqrt()\n"
        "print('sympy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert out.stdout.strip() == "False"
