"""Exact arithmetic in the degree-4 number field K = Q(r2, i).

Elements are stored on the fixed Q-basis {1, r2, i, i*r2}, where
r2**2 = 2, i**2 = -1 and (i*r2)**2 = -2, as four integer numerators
n0..n3 over one positive common denominator d.  One gcd of all five
integers normalizes the form on construction, so every value is canonical
and equality is structural.

Most values in this application are rational (n1 = n2 = n3 = 0).  When
both operands are, sums, differences, products and inverses take a fast
path: one numerator over one denominator, reduced by a two-argument gcd,
and a zero result is the shared ZERO.  The result is the same canonical
element the general formula gives.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Union

RatLike = Union[int, Fraction]
ElemLike = Union[int, Fraction, "FieldElem"]


def _rat(value: RatLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"not a rational value: {value!r}")


class FieldElem:
    """Element (n0 + n1*r2 + n2*i + n3*i*r2) / d of K = Q(r2, i).

    The denominator d is positive and gcd(n0, n1, n2, n3, d) == 1.  Every
    operation returns a new element and none writes to an existing one, so
    equality and hashing can read the fields.
    """

    __slots__ = ("n0", "n1", "n2", "n3", "d")

    def __init__(
        self, c0: RatLike = 0, c1: RatLike = 0, c2: RatLike = 0, c3: RatLike = 0
    ):
        coords = [_rat(c) for c in (c0, c1, c2, c3)]
        d = lcm(*(c.denominator for c in coords))
        # reduced fractions over the lcm of their denominators are already canonical
        self.n0, self.n1, self.n2, self.n3 = (c.numerator * (d // c.denominator) for c in coords)
        self.d = d

    @classmethod
    def from_rational(cls, value: RatLike) -> "FieldElem":
        if value.__class__ is int:
            return _rational(value, 1)
        value = _rat(value)
        return _rational(value.numerator, value.denominator)

    @classmethod
    def coerce(cls, value: ElemLike) -> "FieldElem":
        if isinstance(value, FieldElem):
            return value
        return cls.from_rational(value)

    @property
    def c0(self) -> Fraction:
        return Fraction(self.n0, self.d)

    @property
    def c1(self) -> Fraction:
        return Fraction(self.n1, self.d)

    @property
    def c2(self) -> Fraction:
        return Fraction(self.n2, self.d)

    @property
    def c3(self) -> Fraction:
        return Fraction(self.n3, self.d)

    @property
    def coords(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        d = self.d
        return (
            Fraction(self.n0, d), Fraction(self.n1, d),
            Fraction(self.n2, d), Fraction(self.n3, d),
        )

    def is_zero(self) -> bool:
        return not (self.n0 or self.n1 or self.n2 or self.n3)

    def is_rational(self) -> bool:
        return not (self.n1 or self.n2 or self.n3)

    def is_real(self) -> bool:
        return not (self.n2 or self.n3)

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.n0, self.d)

    def __bool__(self) -> bool:
        return bool(self.n0 or self.n1 or self.n2 or self.n3)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not FieldElem:
            return NotImplemented
        return (
            self.n0 == other.n0 and self.n1 == other.n1 and self.n2 == other.n2
            and self.n3 == other.n3 and self.d == other.d
        )

    def __hash__(self) -> int:
        return hash((self.n0, self.n1, self.n2, self.n3, self.d))

    def __add__(self, other: ElemLike) -> "FieldElem":
        if other.__class__ is not FieldElem:
            other = FieldElem.coerce(other)
        ad, bd = self.d, other.d
        if not (self.n1 or self.n2 or self.n3 or other.n1 or other.n2 or other.n3):
            if ad == bd:
                return _reduced(self.n0 + other.n0, ad)
            return _reduced(self.n0 * bd + other.n0 * ad, ad * bd)
        if ad == bd:
            return _make(
                self.n0 + other.n0, self.n1 + other.n1,
                self.n2 + other.n2, self.n3 + other.n3, ad,
            )
        return _make(
            self.n0 * bd + other.n0 * ad, self.n1 * bd + other.n1 * ad,
            self.n2 * bd + other.n2 * ad, self.n3 * bd + other.n3 * ad, ad * bd,
        )

    __radd__ = __add__

    def __sub__(self, other: ElemLike) -> "FieldElem":
        if other.__class__ is not FieldElem:
            other = FieldElem.coerce(other)
        ad, bd = self.d, other.d
        if not (self.n1 or self.n2 or self.n3 or other.n1 or other.n2 or other.n3):
            if ad == bd:
                return _reduced(self.n0 - other.n0, ad)
            return _reduced(self.n0 * bd - other.n0 * ad, ad * bd)
        if ad == bd:
            return _make(
                self.n0 - other.n0, self.n1 - other.n1,
                self.n2 - other.n2, self.n3 - other.n3, ad,
            )
        return _make(
            self.n0 * bd - other.n0 * ad, self.n1 * bd - other.n1 * ad,
            self.n2 * bd - other.n2 * ad, self.n3 * bd - other.n3 * ad, ad * bd,
        )

    def __rsub__(self, other: ElemLike) -> "FieldElem":
        return FieldElem.coerce(other) - self

    def __neg__(self) -> "FieldElem":
        return _canonical(-self.n0, -self.n1, -self.n2, -self.n3, self.d)

    def __mul__(self, other: ElemLike) -> "FieldElem":
        if other.__class__ is not FieldElem:
            other = FieldElem.coerce(other)
        a0, a1, a2, a3 = self.n0, self.n1, self.n2, self.n3
        b0, b1, b2, b3 = other.n0, other.n1, other.n2, other.n3
        if not (a1 or a2 or a3 or b1 or b2 or b3):
            return _reduced(a0 * b0, self.d * other.d)
        return _make(
            a0 * b0 + 2 * (a1 * b1 - a3 * b3) - a2 * b2,
            a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
            a0 * b2 + a2 * b0 + 2 * (a1 * b3 + a3 * b1),
            a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1,
            self.d * other.d,
        )

    __rmul__ = __mul__

    def conj_sqrt2(self) -> "FieldElem":
        """Galois conjugate sending r2 to -r2."""
        return _canonical(self.n0, -self.n1, self.n2, -self.n3, self.d)

    def conj_i(self) -> "FieldElem":
        """Galois conjugate sending i to -i."""
        return _canonical(self.n0, self.n1, -self.n2, -self.n3, self.d)

    def conjugates(self) -> tuple["FieldElem", "FieldElem", "FieldElem", "FieldElem"]:
        """The four Galois conjugates, identity first."""
        return (self, self.conj_sqrt2(), self.conj_i(), self.conj_sqrt2().conj_i())

    def _norm_to_sqrt2(self) -> tuple[int, int]:
        """(p, q) with p + q*r2 = A**2 + B**2, where self = (A + B*i)/d."""
        a0, a1, a2, a3 = self.n0, self.n1, self.n2, self.n3
        return a0 * a0 + 2 * a1 * a1 + a2 * a2 + 2 * a3 * a3, 2 * (a0 * a1 + a2 * a3)

    def norm_to_q(self) -> Fraction:
        """Product of the four Galois conjugates, always rational."""
        p, q = self._norm_to_sqrt2()
        return Fraction(p * p - 2 * q * q, self.d ** 4)

    def inv(self) -> "FieldElem":
        """1/x = d*(A - B*i)*(p - q*r2) / (p**2 - 2*q**2) for x = (A + B*i)/d.

        Here p + q*r2 = A**2 + B**2 is positive in both real embeddings of
        Q(r2) for x != 0, so p**2 - 2*q**2 is positive.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        a0, a1, a2, a3, d = self.n0, self.n1, self.n2, self.n3, self.d
        if not (a1 or a2 or a3):
            # a0/d is in lowest terms, so d/a0 is too once its sign is moved up
            return _rational(d, a0) if a0 > 0 else _rational(-d, -a0)
        p, q = self._norm_to_sqrt2()
        return _make(
            d * (a0 * p - 2 * a1 * q),
            d * (a1 * p - a0 * q),
            d * (2 * a3 * q - a2 * p),
            d * (a2 * q - a3 * p),
            p * p - 2 * q * q,
        )

    def __truediv__(self, other: ElemLike) -> "FieldElem":
        return self * FieldElem.coerce(other).inv()

    def __pow__(self, exponent: int) -> "FieldElem":
        if exponent < 0:
            return self.inv() ** (-exponent)
        result = ONE
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def is_lex_positive(self) -> bool:
        """Canonical sign: first nonzero coordinate is positive. False for zero."""
        for n in (self.n0, self.n1, self.n2, self.n3):
            if n:
                return n > 0
        return False

    def sort_key(self) -> tuple:
        """(numerator, denominator) of each coordinate in lowest terms."""
        d = self.d
        key = []
        for n in (self.n0, self.n1, self.n2, self.n3):
            g = gcd(n, d)
            key.append((n // g, d // g))
        return tuple(key)

    def sqrt(self) -> "FieldElem | None":
        """A square root in K, or None if the element is not a square in K.

        Writing self = A + B*i with A, B in Q(r2), a root X + Y*i has
        X**2 - Y**2 = A and 2*X*Y = B, so (X**2 + Y**2)**2 = A**2 + B**2.
        For B != 0, X**2 + Y**2 is positive in both real embeddings of Q(r2),
        so it is the root of A**2 + B**2 with positive rational part, the
        one `_real_sqrt` returns; then X**2 = (A + X**2 + Y**2)/2.
        """
        if self.is_zero():
            return ZERO
        if self.is_real():
            root = _real_sqrt(self)
            if root is not None:
                return root
            root = _real_sqrt(-self)
            return None if root is None else root * I
        a = _make(self.n0, self.n1, 0, 0, self.d)
        b = _make(self.n2, self.n3, 0, 0, self.d)
        s = _real_sqrt(a * a + b * b)
        if s is None:
            return None
        x = _real_sqrt((a + s) * HALF)
        if not x:
            return None
        return x + b * (x + x).inv() * I

    def __str__(self) -> str:
        terms = []
        for coeff, unit in zip(self.coords, ("", "r2", "i", "i*r2")):
            if not coeff:
                continue
            sign = "-" if coeff < 0 else "+"
            mag = abs(coeff)
            if not unit:
                body = str(mag)
            elif mag == 1:
                body = unit
            else:
                body = f"{mag}*{unit}"
            terms.append((sign, body))
        if not terms:
            return "0"
        first_sign, first_body = terms[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in terms[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:
        return f"FieldElem({self})"


_new = object.__new__


def _make(n0: int, n1: int, n2: int, n3: int, d: int) -> FieldElem:
    """The element (n0 + n1*r2 + n2*i + n3*i*r2) / d for d > 0, in lowest terms."""
    if d != 1:
        g = gcd(n0, n1, n2, n3, d)
        if g != 1:
            n0 //= g
            n1 //= g
            n2 //= g
            n3 //= g
            d //= g
    return _canonical(n0, n1, n2, n3, d)


def _canonical(n0: int, n1: int, n2: int, n3: int, d: int) -> FieldElem:
    """The element (n0 + n1*r2 + n2*i + n3*i*r2) / d for d > 0 and
    gcd(n0, n1, n2, n3, d) == 1.  Negation and the conjugations only flip
    signs of a canonical element's numerators, so they build through here."""
    elem = _new(FieldElem)
    elem.n0 = n0
    elem.n1 = n1
    elem.n2 = n2
    elem.n3 = n3
    elem.d = d
    return elem


def _rational(n: int, d: int) -> FieldElem:
    """The rational n/d for d > 0 and gcd(n, d) == 1."""
    if not n:
        return ZERO
    elem = _new(FieldElem)
    elem.n0 = n
    elem.n1 = elem.n2 = elem.n3 = 0
    elem.d = d
    return elem


def _reduced(n: int, d: int) -> FieldElem:
    """The rational n/d for d > 0, in lowest terms; the shared ZERO for n == 0."""
    if not n:
        return ZERO
    if d != 1:
        g = gcd(n, d)
        if g != 1:
            n //= g
            d //= g
    return _rational(n, d)


ZERO = FieldElem()
ONE = FieldElem.from_rational(1)
HALF = FieldElem.from_rational(Fraction(1, 2))
SQRT2 = FieldElem(0, 1, 0, 0)
I = FieldElem(0, 0, 1, 0)


def _exact_isqrt(n: int) -> int | None:
    """The integer r >= 0 with r*r == n, or None."""
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None


def _real_sqrt(value: FieldElem) -> FieldElem | None:
    """A square root in Q(r2) of value in Q(r2), or None if there is none.

    With value = (P + Q*r2)/d**2, a root (u + v*r2)/d has u**2 + 2*v**2 = P
    and 2*u*v = Q, so (u**2 - 2*v**2)**2 = P**2 - 2*Q**2 =: n**2 and
    u**2 = (P +- n)/2.  Writing u = m/2 gives the root (m**2 + 2*Q*r2)/(2*m*d).
    The root returned has a positive rational part, or is r*r2 with r > 0
    when value is rational.
    """
    d = value.d
    big_p, big_q = value.n0 * d, value.n1 * d
    if big_q == 0:
        r = _exact_isqrt(big_p)
        if r is not None:
            return _make(r, 0, 0, 0, d)
        # 2*P = r**2 gives the root (r/2)*r2
        r = _exact_isqrt(2 * big_p)
        return None if r is None else _make(0, r, 0, 0, 2 * d)
    n = _exact_isqrt(big_p * big_p - 2 * big_q * big_q)
    if n is None:
        return None
    for m_squared in (2 * (big_p + n), 2 * (big_p - n)):
        m = _exact_isqrt(m_squared)
        if m:
            return _make(m * m, 2 * big_q, 0, 0, 2 * m * d)
    return None
