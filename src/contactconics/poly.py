"""Polynomial algebra over K = Q(r2, i).

Dense univariate polynomials (Poly), rational functions (RatFunc),
polynomials in x with Poly coefficients (BiPoly), and homogeneous
trivariate forms in T, X, Z (TriForm).  Everything is exact; algorithms
are the classical ones: monic Euclid for gcd over the field, Yun for
square-free decomposition, and the Brown-Traub subresultant remainder
sequence for elimination, from which `chain_resultant` reads every
resultant (Cohen, GTM 138, Alg. 3.3.7).

All degrees appearing in this application are small (at most 12), so the
dense representation is the simple and adequate choice.

A Poly is `FieldElem`'s canonical form lifted to the whole polynomial:
integer numerators over one positive common denominator, one list of
numerators per basis component of K (1, r2, i, i*r2), index equal to
degree.  A polynomial with rational coefficients keeps one list, any other
all four.  Every result is normalized by one gcd of its numerators and
denominator, so equality is structural.  Arithmetic runs on the integers:
a product is one integer convolution per pair of components, `divmod` is
fraction-free long division by the divisor made monic, and `eval` is
Horner's rule on numerators with the powers of the point's denominator.
A coefficient of K is an int when rational and a 4-tuple of ints
otherwise; `coeffs` reads the coefficients as FieldElems for the code
outside this kernel.

A TriForm of degree d is stored as its chart f(t, x) = F(t, x, 1), a
BiPoly, so forms run on the same integer kernel.  `binary_form` reads
F(T, X, 0) at X = 1 off the chart's terms of total degree d, and `terms`
reads the coefficients as FieldElems by exponents.

Substitutions are coefficient maps, not compositions.  The charts X = 1
and T = 1 of a form move each term by its exponents alone
(`TriForm.dehomogenize`).  The shears x -> x + k*t and shifts x -> x + c
of a BiPoly are one translate kernel, and the Taylor shift t -> t + c of a
Poly uses the same binomial rows (`_translate_rows`; von zur Gathen and
Gerhard, ISSAC 1997, at these degrees the plain binomial form).

Roots in K (`k_rational_roots`) come from factoring over Q: the orbit norm
of p, the product of its distinct Galois conjugates, is rational, and
`_rational_factors`, the package's one use of sympy, factors it over QQ.
Quartic factors are split over K by Trager's shifted norm.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm
from typing import Iterable, Sequence

from .errors import IntegrityError, PreconditionError
from .field import FieldElem, ONE, ZERO, ElemLike, _make, _reduced


def _elem(value) -> FieldElem:
    return FieldElem.coerce(value)


def _scalar(value: FieldElem):
    """The numerators of a FieldElem: an int when rational, else a 4-tuple."""
    if value.n1 or value.n2 or value.n3:
        return (value.n0, value.n1, value.n2, value.n3)
    return value.n0


def _kmul(a: tuple, b: tuple) -> tuple:
    """The product of two elements of Z[r2, i] given by their coordinates."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 + 2 * (a1 * b1 - a3 * b3) - a2 * b2,
        a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
        a0 * b2 + a2 * b0 + 2 * (a1 * b3 + a3 * b1),
        a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1,
    )


def _smul(a, b):
    """The product of two scalars, each an int or a 4-tuple."""
    if a.__class__ is int:
        return a * b if b.__class__ is int else tuple(a * c for c in b)
    return tuple(c * b for c in a) if b.__class__ is int else _kmul(a, b)


def _axpy(out: list[list[int]], a, x: Sequence[list[int]], shift: int) -> None:
    """out += a * x * t**shift, on component lists; a is an int or a 4-tuple.

    `out` has four components whenever a or x is not rational.
    """
    if a.__class__ is int:
        for o, comp in zip(out, x):
            for k, c in enumerate(comp, shift):
                o[k] += a * c
        return
    if len(x) == 1:
        for o, m in zip(out, a):
            if m:
                for k, c in enumerate(x[0], shift):
                    o[k] += m * c
        return
    for k, b in enumerate(zip(*x), shift):
        for o, c in zip(out, _kmul(a, b)):
            o[k] += c


def _zeros(width: int, parts: int) -> list[list[int]]:
    return [[0] * width for _ in range(parts)]


def _poly(num: list[list[int]], den: int) -> "Poly":
    """The polynomial num/den for den > 0, in canonical form: no irrational
    components that are all zero, no trailing zero coefficient, and
    gcd(numerators, den) == 1.  The lists of num are consumed."""
    if len(num) == 4 and not (any(num[1]) or any(num[2]) or any(num[3])):
        num = num[:1]
    if len(num) == 1:
        a = num[0]
        while a and not a[-1]:
            a.pop()
        if not a:
            den = 1
        elif den != 1:
            g = gcd(den, *a)
            if g != 1:
                den //= g
                num = [[c // g for c in a]]
    else:
        a0, a1, a2, a3 = num
        while not (a0[-1] or a1[-1] or a2[-1] or a3[-1]):
            for comp in num:
                comp.pop()
        if den != 1:
            g = gcd(den, *a0, *a1, *a2, *a3)
            if g != 1:
                den //= g
                num = [[c // g for c in comp] for comp in num]
    p = _new(Poly)
    _set_num(p, tuple(num))
    _set_den(p, den)
    return p


class Poly:
    """Dense univariate polynomial over K; coefficient index equals degree.

    `_num` holds the integer numerators, one list per basis component of K
    (one list when every coefficient is rational), and `_den` their positive
    common denominator, in the canonical form of `_poly`.
    """

    __slots__ = ("_num", "_den")

    def __new__(cls, coeffs: Iterable[ElemLike] = ()):
        items = [_elem(c) for c in coeffs]
        den = 1
        for c in items:
            if den % c.d:
                den = lcm(den, c.d)
        # canonical elements over the lcm of their denominators share no factor with it
        scaled = [(den // c.d, c) for c in items]
        num = [[m * c.n0 for m, c in scaled]]
        if any(c.n1 or c.n2 or c.n3 for c in items):
            num += [[m * c.n1 for m, c in scaled], [m * c.n2 for m, c in scaled],
                    [m * c.n3 for m, c in scaled]]
        return _poly(num, den)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def zero(cls) -> "Poly":
        return _poly([[]], 1)

    @classmethod
    def constant(cls, value: ElemLike) -> "Poly":
        v = _elem(value)
        if v.n1 or v.n2 or v.n3:
            return _poly([[v.n0], [v.n1], [v.n2], [v.n3]], v.d)
        return _poly([[v.n0]], v.d)

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self._num[0]) - 1

    def is_zero(self) -> bool:
        return not self._num[0]

    def is_constant(self) -> bool:
        return len(self._num[0]) <= 1

    def __bool__(self) -> bool:
        return bool(self._num[0])

    @property
    def coeffs(self) -> tuple[FieldElem, ...]:
        """The coefficients as FieldElems, constant term first."""
        num, den = self._num, self._den
        if len(num) == 1:
            return tuple(_reduced(c, den) for c in num[0])
        return tuple(_make(c0, c1, c2, c3, den) for c0, c1, c2, c3 in zip(*num))

    @property
    def lc(self) -> FieldElem:
        return self.coeff(len(self._num[0]) - 1)

    def coeff(self, k: int) -> FieldElem:
        num = self._num
        if not 0 <= k < len(num[0]):
            return ZERO
        if len(num) == 1:
            return _reduced(num[0][k], self._den)
        return _make(num[0][k], num[1][k], num[2][k], num[3][k], self._den)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash((self._den, *map(tuple, self._num)))

    @staticmethod
    def _coerce(other) -> "Poly | None":
        """A constant Poly for a number, else None; callers take a Poly as it is."""
        if isinstance(other, (int, Fraction, FieldElem)):
            return Poly.constant(other)
        return None

    def __add__(self, other) -> "Poly":
        rhs = other if other.__class__ is Poly else Poly._coerce(other)
        if rhs is None:
            return NotImplemented
        return _combine(self, rhs, 1)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        rhs = other if other.__class__ is Poly else Poly._coerce(other)
        if rhs is None:
            return NotImplemented
        return _combine(self, rhs, -1)

    def __neg__(self) -> "Poly":
        return _poly([[-c for c in comp] for comp in self._num], self._den)

    def __mul__(self, other) -> "Poly":
        rhs = other if other.__class__ is Poly else Poly._coerce(other)
        if rhs is None:
            return NotImplemented
        x, y = self._num, rhs._num
        if not x[0] or not y[0]:
            return Poly.zero()
        width = len(x[0]) + len(y[0]) - 1
        if len(x) == 1 and len(y) == 1:
            out = [0] * width
            right = [(j, b) for j, b in enumerate(y[0]) if b]
            for i, a in enumerate(x[0]):
                if a:
                    for j, b in right:
                        out[i + j] += a * b
            return _poly([out], self._den * rhs._den)
        if len(x) == 1:
            x, y = y, x
        # x is not rational: one row of x's coefficients per coefficient of y
        out = _zeros(width, 4)
        for j in range(len(y[0])):
            b = _coefficient(y, j)
            if b:
                _axpy(out, b, x, j)
        return _poly(out, self._den * rhs._den)

    __rmul__ = __mul__

    def scale(self, value: ElemLike) -> "Poly":
        v = _elem(value)
        num = self._num
        if not num[0]:
            return self
        a = _scalar(v)
        if a.__class__ is int and len(num) == 1:
            return _poly([[a * c for c in num[0]]], self._den * v.d)
        out = _zeros(len(num[0]), 4)
        _axpy(out, a, num, 0)
        return _poly(out, self._den * v.d)

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise ValueError("negative polynomial power")
        result = None
        base = self
        n = exponent
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return Poly.constant(ONE) if result is None else result

    def shift_up(self, k: int) -> "Poly":
        """Multiply by t**k."""
        if self.is_zero():
            return self
        return _poly([[0] * k + comp for comp in self._num], self._den)

    def divmod(self, divisor: "Poly") -> tuple["Poly", "Poly"]:
        (quotient, den), (rem, rem_den) = self._division(divisor)
        return _poly(quotient, den), _poly(rem, rem_den)

    def __mod__(self, divisor: "Poly") -> "Poly":
        return _poly(*self._division(divisor)[1])

    def exact_div(self, divisor: "Poly") -> "Poly":
        (quotient, den), (rem, _rem_den) = self._division(divisor)
        if any(any(comp) for comp in rem):
            raise ValueError("division is not exact")
        return _poly(quotient, den)

    def _division(self, divisor: "Poly") -> tuple[tuple[list, int], tuple[list, int]]:
        """The numerators and denominators of the quotient and the remainder."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if len(self._num[0]) < len(divisor._num[0]):
            return ([[]], 1), ([comp[:] for comp in self._num], self._den)
        negated, e, sign = _monic_numerators(divisor)
        quotient, rem, power = _long_division(self._num, negated, e)
        # the quotient by the monic divisor is Q*e/(E*D); by the divisor, that over its lc
        den = self._den * power
        if sign:
            # lc = sign*e/D' for a rational divisor
            factor = sign * divisor._den
            quotient = [[factor * c for c in comp] for comp in quotient]
        else:
            inverse = divisor.lc.inv()
            scaled = _zeros(len(quotient[0]), 4)
            _axpy(scaled, _smul(_scalar(inverse), e), quotient, 0)
            quotient, den = scaled, den * inverse.d
        return (quotient, den), (rem, self._den * power)

    def monic(self) -> "Poly":
        num = self._num
        if not num[0]:
            return self
        lead = num[0][-1]
        if len(num) == 1:
            if lead == self._den:
                return self
            # (N/D) / (lead/D) = N/lead, with the sign moved to the numerators
            if lead < 0:
                return _poly([[-c for c in num[0]]], -lead)
            return _poly([list(num[0])], lead)
        if lead == self._den and not (num[1][-1] or num[2][-1] or num[3][-1]):
            return self
        return self.scale(self.lc.inv())

    def derivative(self) -> "Poly":
        return _poly([[k * c for k, c in enumerate(comp) if k] for comp in self._num], self._den)

    def eval(self, point: ElemLike) -> FieldElem:
        """The value at the point, by Horner's rule on the numerators: with
        point = x/w and degree n, sum_k a_k x**k w**(n - k) over den * w**n."""
        v = _elem(point)
        num, den = self._num, self._den
        n = len(num[0]) - 1
        if n < 1 or not v:
            return self.coeff(0)
        w = v.d
        x = _scalar(v)
        scale = 1
        if len(num) == 1 and x.__class__ is int:
            a = num[0]
            acc = a[n]
            for k in range(n - 1, -1, -1):
                scale *= w
                acc = acc * x + a[k] * scale
            return _reduced(acc, den * scale)
        x = (x, 0, 0, 0) if x.__class__ is int else x
        if len(num) == 1:
            num = (num[0], *_zeros(n + 1, 3))
        acc = _coefficient(num, n)
        for k in range(n - 1, -1, -1):
            scale *= w
            acc = tuple(m + c * scale for m, c in zip(_kmul(acc, x), _coefficient(num, k)))
        return _make(*acc, den * scale)

    def shift_argument(self, offset: ElemLike) -> "Poly":
        """p(t + offset), by the binomial Taylor shift of each term."""
        c = _elem(offset)
        num = self._num
        n = len(num[0]) - 1
        if not c or n < 1:
            return self
        rows, power = _translate_rows(c, ZERO, n)
        out = _zeros(n + 1, 4 if len(num) == 4 or not c.is_rational() else 1)
        for k in range(n + 1):
            term = [comp[k:k + 1] for comp in num]
            for p, _r, w in rows[k]:
                _axpy(out, w, term, p)
        return _poly(out, self._den * power)

    def reverse(self, degree: int) -> "Poly":
        """s**degree * p(1/s), for the chart at infinity."""
        if degree < self.degree:
            raise ValueError("reversal degree below polynomial degree")
        pad = degree + 1 - len(self._num[0])
        return _poly([(comp + [0] * pad)[::-1] for comp in self._num], self._den)

    def ord_at(self, root: ElemLike) -> int:
        """Multiplicity of the given root (0 if not a root)."""
        if self.is_zero():
            raise ValueError("order of the zero polynomial")
        linear = Poly((-_elem(root), ONE))
        order = 0
        current = self
        while True:
            quotient, rem = current.divmod(linear)
            if not rem.is_zero():
                return order
            order += 1
            current = quotient

    def ord_at_zero(self) -> int:
        if self.is_zero():
            raise ValueError("order of the zero polynomial")
        num = self._num
        return next(k for k in range(len(num[0])) if any(comp[k] for comp in num))

    def is_rational(self) -> bool:
        return len(self._num) == 1

    def to_str(self, var: str = "t") -> str:
        coeffs = self.coeffs
        return _render(
            (coeffs[k], var if k == 1 else f"{var}^{k}" if k else "")
            for k in range(len(coeffs) - 1, -1, -1)
        )

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"Poly({self.to_str()})"


# object creation and the slot setters, which bypass the __setattr__ that
# refuses assignment
_new = object.__new__
_set_num = Poly._num.__set__
_set_den = Poly._den.__set__


def _coefficient(num: Sequence[list[int]], k: int):
    """Coefficient k of component lists: an int for one list, else a 4-tuple."""
    if len(num) == 1:
        return num[0][k]
    return (num[0][k], num[1][k], num[2][k], num[3][k])


def _combine(p: Poly, q: Poly, sign: int) -> Poly:
    """p + sign*q over the lcm of the two denominators."""
    x, y = p._num, q._num
    if not y[0]:
        return p
    if not x[0] and sign == 1:
        return q
    dx, dy = p._den, q._den
    if dx == dy:
        den, mx, my = dx, 1, sign
    else:
        g = gcd(dx, dy)
        den, mx, my = dx // g * dy, dy // g, sign * (dx // g)
    width = max(len(x[0]), len(y[0]))
    if len(x) != len(y):
        x, y = (x + ([], [], []), y) if len(x) == 1 else (x, y + ([], [], []))
    out = []
    for a, b in zip(x, y):
        if mx != 1:
            a = [mx * v for v in a]
        if my != 1:
            b = [my * v for v in b]
        if len(a) < len(b):
            a, b = b, a
        c = [u + v for u, v in zip(a, b)]
        c += a[len(b):]
        c += [0] * (width - len(c))
        out.append(c)
    return _poly(out, den)


def _monic_numerators(divisor: Poly) -> tuple[tuple[list[int], ...], int, int]:
    """The divisor made monic, M = B/e with integer numerators B and e > 0,
    as (-B without its top term, e, sign of the divisor's lc or 0).

    A rational divisor b/D' gives B = sign*b and e = |lead of b|, not
    reduced; any other is made monic by the inverse of its lc.
    """
    num = divisor._num
    if len(num) == 1:
        lead = num[0][-1]
        if lead > 0:
            return ([-c for c in num[0][:-1]],), lead, 1
        return (num[0][:-1],), -lead, -1
    monic = divisor.monic()
    return tuple([-c for c in comp[:-1]] for comp in monic._num), monic._den, 0


def _long_division(
    num: tuple[list[int], ...], negated: tuple[list[int], ...], e: int
) -> tuple[list, list, int]:
    """Fraction-free long division of numerators A by a monic M = B/e, given
    -B without its top term (e).

    With E = e**s for the s = deg A - deg B + 1 steps, E*A = Q*B + R: each
    quotient coefficient is the top of the remainder divided exactly by e,
    and the top term it cancels is never read again.  Returns (Q, R, E); so
    A/D = Q*e/(E*D) * M + R/(E*D).
    """
    d = len(negated[0])
    steps = len(num[0]) - d
    power = e**steps
    if len(num) == 1 and len(negated) == 1:
        b = negated[0]
        a = [c * power for c in num[0]] if power != 1 else num[0][:]
        q = [0] * steps
        for k in range(steps - 1, -1, -1):
            c = q[k] = a[k + d] // e
            if c:
                for j, v in enumerate(b, k):
                    a[j] += c * v
        del a[d:]
        return [q], [a], power
    rem = [[c * power for c in comp] for comp in num]
    rem += [[0] * len(rem[0]) for _ in range(4 - len(rem))]
    quotient = _zeros(steps, 4)
    for k in range(steps - 1, -1, -1):
        for comp, q in zip(rem, quotient):
            q[k] = comp[k + d] // e
        _axpy(rem, _coefficient(quotient, k), negated, k)
    return quotient, [comp[:d] for comp in rem], power


def _render(terms: Iterable[tuple[FieldElem, str]]) -> str:
    """Terms (coefficient, monomial text), highest first, as one sum; the
    constant monomial is the empty text and zero coefficients are left out."""
    out = ""
    for coeff, monomial in terms:
        if not coeff:
            continue
        if not monomial:
            body = str(coeff)
        elif coeff == ONE:
            body = monomial
        elif coeff == -ONE:
            body = f"-{monomial}"
        else:
            text = str(coeff)
            body = f"({text})*{monomial}" if " " in text else f"{text}*{monomial}"
        if not out:
            out = body
        elif body.startswith("-"):
            out += f" - {body[1:]}"
        else:
            out += f" + {body}"
    return out or "0"


def _translate_rows(c0: FieldElem, c1: FieldElem, n: int) -> tuple[list[list[tuple]], int]:
    """The terms of (x + c0 + c1*t)**j for j = 0..n, on integer numerators.

    With c0 = u0/v and c1 = u1/v over a common v, the rows are those of
    v**(n - j) * (v*x + u0 + u1*t)**j = v**n * (x + c0 + c1*t)**j.  rows[j]
    lists (p, r, w) with that product equal to sum w * x**p * t**r, where
    w = C(j, p) * C(j - p, r) * v**(n - j + p) * u0**(j - p - r) * u1**r is
    an int or a 4-tuple; zero terms are left out.  Returns (rows, v**n).
    """
    v = lcm(c0.d, c1.d)
    u0, u1 = _scalar(c0 * v), _scalar(c1 * v)
    u0_powers, u1_powers, v_powers = [1], [1], [1]
    for _ in range(n):
        u0_powers.append(_smul(u0_powers[-1], u0))
        u1_powers.append(_smul(u1_powers[-1], u1))
        v_powers.append(v_powers[-1] * v)
    rows = []
    for j in range(n + 1):
        row = []
        for p in range(j + 1):
            m = j - p
            # a shift (u1 = 0) keeps only r = 0, a shear (u0 = 0) only r = m
            for r in range(m + 1) if u0 and u1 else (m,) if u1 else (0,):
                w = _smul(u0_powers[m - r], u1_powers[r])
                if w and (w.__class__ is int or any(w)):
                    scale = comb(j, p) * comb(m, r) * v_powers[n - j + p]
                    row.append((p, r, _smul(scale, w)))
        rows.append(row)
    return rows, v_powers[n]


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor; gcd(p, 0) is monic(p)."""
    if p.is_zero() and q.is_zero():
        raise PreconditionError("gcd of two zero polynomials")
    # Keeping every remainder monic bounds the coefficients (each is a ratio
    # of subresultants); the raw remainder sequence blows up exponentially.
    a, b = p.monic(), q.monic()
    while not b.is_zero():
        a, b = b, (a % b).monic()
    return a


def poly_gcd_many(polys: Sequence[Poly]) -> Poly:
    acc = Poly.zero()
    for p in polys:
        if p.is_zero():
            continue
        acc = poly_gcd(acc, p)
        if acc.is_constant():
            break
    if acc.is_zero():
        raise PreconditionError("gcd of all-zero family")
    return acc


def squarefree_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Yun decomposition p = lc * prod f_k**k with the f_k monic, square-free, coprime."""
    if p.is_zero():
        raise PreconditionError("square-free decomposition of zero")
    f = p.monic()
    if f.degree < 1:
        return []
    fp = f.derivative()
    a = poly_gcd(f, fp)
    b = f.exact_div(a)
    c = fp.exact_div(a)
    d = c - b.derivative()
    out: list[tuple[Poly, int]] = []
    k = 1
    while b.degree >= 1:
        a = poly_gcd(b, d)
        if a.degree >= 1:
            out.append((a, k))
        b = b.exact_div(a)
        c = d.exact_div(a)
        d = c - b.derivative()
        k += 1
    return out


def poly_is_square(p: Poly) -> Poly | None:
    """Return q with q**2 = p, or None; exercises the K-square test on the lc."""
    if p.is_zero():
        return Poly.zero()
    lc_root = p.lc.sqrt()
    if lc_root is None:
        return None
    root = Poly.constant(lc_root)
    for factor, mult in squarefree_decomposition(p):
        if mult % 2:
            return None
        root = root * factor ** (mult // 2)
    return root


class RatFunc:
    """Quotient of polynomials in canonical form: monic denominator, coprime."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        den = den if den is not None else Poly.constant(ONE)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if not num.is_zero():
            common = poly_gcd(num, den)
            if common.degree >= 1:
                num = num.exact_div(common)
                den = den.exact_div(common)
        else:
            den = Poly.constant(ONE)
        lc_inv = den.lc.inv()
        object.__setattr__(self, "num", num.scale(lc_inv))
        object.__setattr__(self, "den", den.scale(lc_inv))

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    @classmethod
    def _reduced(cls, num: Poly, den: Poly) -> "RatFunc":
        """Build from a fraction already in lowest terms, skipping the gcd."""
        self = object.__new__(cls)
        if num.is_zero():
            object.__setattr__(self, "num", num)
            object.__setattr__(self, "den", Poly.constant(ONE))
            return self
        lc_inv = den.lc.inv()
        object.__setattr__(self, "num", num.scale(lc_inv))
        object.__setattr__(self, "den", den.scale(lc_inv))
        return self

    @classmethod
    def from_poly(cls, p: Poly) -> "RatFunc":
        return cls._reduced(p, Poly.constant(ONE))

    @classmethod
    def constant(cls, value: ElemLike) -> "RatFunc":
        return cls._reduced(Poly.constant(value), Poly.constant(ONE))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def as_poly(self) -> Poly:
        if not self.is_polynomial():
            raise ValueError(f"{self} is not polynomial")
        return self.num

    def __eq__(self, other) -> bool:
        return isinstance(other, RatFunc) and self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __add__(self, other: "RatFunc") -> "RatFunc":
        # Henrici's algorithm: with both operands in lowest terms, only the
        # denominators' common part can cancel, so the gcds stay small.
        if self.num.is_zero():
            return other
        if other.num.is_zero():
            return self
        if self.den.degree == 0 or other.den.degree == 0:
            num = self.num * other.den + other.num * self.den
            return RatFunc._reduced(num, self.den * other.den)
        g = poly_gcd(self.den, other.den)
        if g.degree == 0:
            num = self.num * other.den + other.num * self.den
            return RatFunc._reduced(num, self.den * other.den)
        left = self.den.exact_div(g)
        right = other.den.exact_div(g)
        num = self.num * right + other.num * left
        h = poly_gcd(num, g)
        if h.degree == 0:
            return RatFunc._reduced(num, left * other.den)
        return RatFunc._reduced(num.exact_div(h), left * other.den.exact_div(h))

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __neg__(self) -> "RatFunc":
        return RatFunc._reduced(-self.num, self.den)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        if self.num.is_zero() or other.num.is_zero():
            return RatFunc._reduced(Poly.zero(), Poly.constant(ONE))
        mine, its = self.num, other.num
        den_mine, den_its = self.den, other.den
        if mine.degree >= 1 and den_its.degree >= 1:
            g = poly_gcd(mine, den_its)
            if g.degree >= 1:
                mine = mine.exact_div(g)
                den_its = den_its.exact_div(g)
        if its.degree >= 1 and den_mine.degree >= 1:
            g = poly_gcd(its, den_mine)
            if g.degree >= 1:
                its = its.exact_div(g)
                den_mine = den_mine.exact_div(g)
        return RatFunc._reduced(mine * its, den_mine * den_its)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return self * RatFunc._reduced(other.den, other.num)

    def to_str(self, var: str = "t") -> str:
        if self.is_polynomial():
            return self.num.to_str(var)
        return f"({self.num.to_str(var)}) / ({self.den.to_str(var)})"

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"RatFunc({self.to_str()})"


class BiPoly:
    """Polynomial in x whose coefficients are Poly in t; index equals x-degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Poly] = ()):
        items = list(coeffs)
        while items and items[-1].is_zero():
            items.pop()
        object.__setattr__(self, "coeffs", tuple(items))

    def __setattr__(self, name, value):
        raise AttributeError("BiPoly is immutable")

    @classmethod
    def zero(cls) -> "BiPoly":
        return cls(())

    @classmethod
    def from_poly_in_t(cls, p: Poly) -> "BiPoly":
        return cls((p,))

    @classmethod
    def variable_x(cls) -> "BiPoly":
        return cls((Poly.zero(), Poly.constant(ONE)))

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[tuple[int, int], FieldElem]]) -> "BiPoly":
        """The sum of c * t**i * x**j over exponent-keyed terms ((i, j), c)."""
        cols: dict[int, dict[int, FieldElem]] = {}
        for (i, j), coeff in terms:
            cols.setdefault(j, {})[i] = coeff
        out = []
        for j in range(max(cols, default=-1) + 1):
            col = cols.get(j, {})
            coeffs = [ZERO] * (max(col, default=-1) + 1)
            for i, coeff in col.items():
                coeffs[i] = coeff
            out.append(Poly(coeffs))
        return cls(out)

    @property
    def degree_x(self) -> int:
        return len(self.coeffs) - 1

    @property
    def degree_t(self) -> int:
        return max((c.degree for c in self.coeffs), default=-1)

    @property
    def total_degree(self) -> int:
        return max((k + c.degree for k, c in enumerate(self.coeffs) if not c.is_zero()), default=-1)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def lc_x(self) -> Poly:
        return self.coeffs[-1] if self.coeffs else Poly.zero()

    def coeff_x(self, k: int) -> Poly:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Poly.zero()

    def __eq__(self, other) -> bool:
        return isinstance(other, BiPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "BiPoly") -> "BiPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return BiPoly(out)

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        a, b = self.coeffs, other.coeffs
        out = list(a) + [Poly.zero()] * (len(b) - len(a))
        for k, c in enumerate(b):
            out[k] = out[k] - c
        return BiPoly(out)

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        if self.is_zero() or other.is_zero():
            return BiPoly.zero()
        out = [Poly.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        right = [(j, b) for j, b in enumerate(other.coeffs) if b]
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in right:
                    out[i + j] = out[i + j] + a * b
        return BiPoly(out)

    def eval_t(self, point: ElemLike) -> Poly:
        """Substitute a value for t, leaving a Poly in x."""
        return Poly(tuple(c.eval(point) for c in self.coeffs))

    def eval_x(self, point: ElemLike) -> Poly:
        """Substitute a value for x, leaving a Poly in t."""
        p = _elem(point)
        if not p:
            return self.coeff_x(0)
        acc = Poly.zero()
        for c in reversed(self.coeffs):
            acc = acc.scale(p) + c
        return acc

    def eval_point(self, t0: ElemLike, x0: ElemLike) -> FieldElem:
        return self.eval_x(x0).eval(t0)

    def shear_x(self, k: ElemLike) -> "BiPoly":
        """Substitute x -> x + k*t."""
        return self._translate_x(ZERO, _elem(k))

    def shift_t(self, offset: ElemLike) -> "BiPoly":
        """Substitute t -> t + offset."""
        return BiPoly(tuple(c.shift_argument(offset) for c in self.coeffs))

    def shift_x(self, offset: ElemLike) -> "BiPoly":
        """Substitute x -> x + offset."""
        return self._translate_x(_elem(offset), ZERO)

    def _translate_x(self, c0: FieldElem, c1: FieldElem) -> "BiPoly":
        """Substitute x -> x + c0 + c1*t, expanding each term c*t**i*x**j by
        the binomial terms of (x + c0 + c1*t)**j, on the numerators of the
        columns over their common denominator."""
        cols = self.coeffs
        if len(cols) <= 1 or not (c0 or c1):
            return self
        rows, power = _translate_rows(c0, c1, len(cols) - 1)
        den = lcm(*(col._den for col in cols))
        irrational = not (c0.is_rational() and c1.is_rational())
        parts = 4 if irrational or any(len(col._num) == 4 for col in cols) else 1
        width = self.degree_t + len(cols)
        out = [_zeros(width, parts) for _ in cols]
        for j, col in enumerate(cols):
            if col._num[0]:
                m = den // col._den
                for p, r, w in rows[j]:
                    _axpy(out[p], _smul(w, m), col._num, r)
        return BiPoly(_poly(row, den * power) for row in out)

    def swap_vars(self) -> "BiPoly":
        """Exchange the roles of t and x."""
        cols = self.coeffs
        den = lcm(*(col._den for col in cols))
        parts = 4 if any(len(col._num) == 4 for col in cols) else 1
        out = [_zeros(len(cols), parts) for _ in range(self.degree_t + 1)]
        for j, col in enumerate(cols):
            m = den // col._den
            for part, comp in enumerate(col._num):
                for i, value in enumerate(comp):
                    out[i][part][j] = m * value
        return BiPoly(_poly(row, den) for row in out)

    def derivative_x(self) -> "BiPoly":
        return BiPoly(tuple(c.scale(k) for k, c in enumerate(self.coeffs) if k))

    def divide_x_power(self, k: int) -> "BiPoly":
        """Exact division by x**k."""
        if any(not c.is_zero() for c in self.coeffs[:k]):
            raise ValueError("not divisible by the requested x power")
        return BiPoly(self.coeffs[k:])

    def divide_t_power(self, k: int) -> "BiPoly":
        out = []
        for c in self.coeffs:
            if c.is_zero():
                out.append(c)
                continue
            if c.ord_at_zero() < k:
                raise ValueError("not divisible by the requested t power")
            out.append(_poly([comp[k:] for comp in c._num], c._den))
        return BiPoly(out)

    def subs_x_times_t(self) -> "BiPoly":
        """Substitute x -> t*x."""
        return BiPoly(tuple(c.shift_up(k) for k, c in enumerate(self.coeffs)))

    def content_t(self) -> Poly:
        """Monic gcd of the t-coefficients."""
        return poly_gcd_many([c for c in self.coeffs if not c.is_zero()])

    def __repr__(self) -> str:
        return f"BiPoly({self.coeffs!r})"


def bipoly_pseudo_rem(a: BiPoly, b: BiPoly) -> BiPoly:
    """Pseudo-remainder in x: lc(b)^(deg a - deg b + 1) * a = q*b + r."""
    if b.is_zero():
        raise ZeroDivisionError("pseudo-division by zero")
    d = b.degree_x
    lc_b = b.lc_x
    lower = b.coeffs[:-1]
    rem = list(a.coeffs)
    steps = max(0, len(rem) - d)
    for _ in range(steps):
        if len(rem) <= d:
            rem = [c * lc_b for c in rem]
            continue
        # rem*lc(b) - top*b*x^k, whose top term cancels
        top = rem.pop()
        k = len(rem) - d
        rem = [c * lc_b if j < k else c * lc_b - top * lower[j - k] for j, c in enumerate(rem)]
        while rem and rem[-1].is_zero():
            rem.pop()
    return BiPoly(rem)


def resultant_t(p: BiPoly, q: BiPoly) -> tuple[Poly, list[BiPoly]]:
    """Resultant eliminating t, a polynomial in x, with the chain it was read from.

    The chain is `subresultant_chain` of the swapped inputs, so its entries
    are polynomials in t with coefficients in x.
    """
    chain = subresultant_chain(p.swap_vars(), q.swap_vars())
    return chain_resultant(chain), chain


def subresultant_chain(p: BiPoly, q: BiPoly) -> list[BiPoly]:
    """Brown-Traub subresultant polynomial remainder sequence in x.

    The sequence starts with the two inputs in the order given; the
    remainders follow, from the input of higher x-degree first.  The last
    entry is a gcd in K(t)[x], and `chain_resultant` reads the resultant of
    the inputs from the sequence.
    """
    if p.is_zero() or q.is_zero():
        raise PreconditionError("subresultant chain of a zero polynomial")
    chain = [p, q]
    a, b = (p, q) if p.degree_x >= q.degree_x else (q, p)
    g = Poly.constant(ONE)
    h = Poly.constant(ONE)
    while b.degree_x >= 1:
        delta = a.degree_x - b.degree_x
        rem = bipoly_pseudo_rem(a, b)
        if rem.is_zero():
            break
        divisor = g * h**delta
        rem = BiPoly(tuple(c.exact_div(divisor) for c in rem.coeffs))
        chain.append(rem)
        a, b = b, rem
        g = a.lc_x
        if delta >= 1:
            h = (g**delta).exact_div(h ** (delta - 1))
    return chain


def chain_resultant(chain: list[BiPoly]) -> Poly:
    """Resultant in x of the chain's two inputs, in their order, sign included.

    Cohen, GTM 138, Alg. 3.3.7.  The resultant is 0 unless the chain ends
    in an x-constant B.  Otherwise the sign and h of the algorithm are
    replayed from the chain's degrees and leading coefficients, and with A
    the entry before B the resultant is sign * B^deg(A) / h^(deg(A) - 1):
    B itself after a normal last step, the step-3 correction after an
    abnormal one, and B^deg(A) when an input is itself x-constant.
    """
    first, second, *rest = chain
    sign = 1
    if first.degree_x < second.degree_x:
        first, second = second, first
        if first.degree_x % 2 and second.degree_x % 2:
            sign = -1
    steps = [first, second, *rest]
    last = steps[-1]
    if last.degree_x > 0:
        return Poly.zero()
    h = Poly.constant(ONE)
    for a, b in zip(steps, steps[1:-1]):
        if a.degree_x % 2 and b.degree_x % 2:
            sign = -sign
        delta = a.degree_x - b.degree_x
        if delta >= 1:
            h = (b.lc_x**delta).exact_div(h ** (delta - 1))
    d = steps[-2].degree_x
    value = last.coeff_x(0) ** d
    if d > 1:
        value = value.exact_div(h ** (d - 1))
    return value if sign > 0 else -value


class TriForm:
    """Homogeneous form F in T, X, Z of a given degree d, stored as its chart
    f(t, x) = F(t, x, 1): the term c*T^a*X^b*Z^(d-a-b) is c*t^a*x^b of `chart`.
    A form is immutable, so it computes its hash and its canonical scaling
    once, at the first call; proportionality is equality of canonical forms."""

    __slots__ = ("degree", "chart", "_hash", "_canonical")

    def __init__(self, degree: int, terms: dict[tuple[int, int, int], ElemLike]):
        for key in terms:
            if sum(key) != degree or min(key) < 0:
                raise ValueError(f"monomial {key} violates homogeneity of degree {degree}")
        chart = BiPoly.from_terms(((a, b), v) for (a, b, _c), v in terms.items())
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "chart", chart)

    def __setattr__(self, name, value):
        raise AttributeError("TriForm is immutable")

    @property
    def terms(self) -> dict[tuple[int, int, int], FieldElem]:
        """The nonzero coefficients by exponents (a, b, c), ascending; a new dict."""
        d, cols = self.degree, self.chart.coeffs
        pairs = [((a, b, d - a - b), c)
                 for b, col in enumerate(cols) for a, c in enumerate(col.coeffs)]
        return dict(sorted(pair for pair in pairs if pair[1]))

    def is_zero(self) -> bool:
        return not self.chart

    def coeff(self, key: tuple[int, int, int]) -> FieldElem:
        a, b, _c = key
        return self.chart.coeff_x(b).coeff(a) if sum(key) == self.degree else ZERO

    def __eq__(self, other) -> bool:
        same_degree = isinstance(other, TriForm) and self.degree == other.degree
        return same_degree and self.chart == other.chart

    def __hash__(self) -> int:
        if not hasattr(self, "_hash"):
            object.__setattr__(self, "_hash", hash((self.degree, self.chart)))
        return self._hash

    def __add__(self, other: "TriForm") -> "TriForm":
        if self.degree != other.degree:
            raise ValueError("degree mismatch in form addition")
        return _form(self.degree, self.chart + other.chart)

    def __mul__(self, other: "TriForm") -> "TriForm":
        return _form(self.degree + other.degree, self.chart * other.chart)

    def scale(self, value: ElemLike) -> "TriForm":
        v = _elem(value)
        return _form(self.degree, BiPoly(col.scale(v) for col in self.chart.coeffs))

    def eval(self, point: Sequence[ElemLike]) -> FieldElem:
        """The value at (T, X, Z): Z^d * f(T/Z, X/Z) off the line Z = 0, and
        the binary form on it."""
        t, x, z = (_elem(v) for v in point)
        d = self.degree
        if not z:
            if not x:
                return self.binary_form().coeff(d) * t**d
            return self.binary_form().eval(t / x) * x**d
        if z != ONE:
            return self.eval((t / z, x / z, ONE)) * z**d
        acc = ZERO
        for col in reversed(self.chart.coeffs):
            acc = acc * x + col.eval(t)
        return acc

    def partial(self, index: int) -> "TriForm":
        """Partial derivative with respect to T (0), X (1) or Z (2); d/dZ
        multiplies the term t^a*x^b of the chart by d - a - b."""
        d, cols = self.degree, self.chart.coeffs
        if index == 0:
            chart = BiPoly(col.derivative() for col in cols)
        elif index == 1:
            chart = self.chart.derivative_x()
        else:
            chart = BiPoly(
                _poly([[(d - a - b) * c for a, c in enumerate(row)] for row in col._num], col._den)
                for b, col in enumerate(cols)
            )
        return _form(max(d - 1, 0), chart)

    def substitute(self, images: Sequence["TriForm"]) -> "TriForm":
        """Substitute forms of a common degree d for (T, X, Z); output degree is
        d*degree.  Each term is a product from one table of powers per image."""
        img_t, img_x, img_z = images
        d = img_t.degree
        if img_x.degree != d or img_z.degree != d:
            raise ValueError("substitution images must share one degree")
        terms = self.terms
        pt, px, pz = tables = [[TriForm(0, {(0, 0, 0): ONE})] for _ in images]
        for k, (powers, image) in enumerate(zip(tables, images)):
            for _ in range(max((key[k] for key in terms), default=0)):
                powers.append(powers[-1] * image)
        acc = BiPoly.zero()
        for (a, b, c), coeff in terms.items():
            acc = acc + (pt[a] * px[b] * pz[c]).scale(coeff).chart
        return _form(self.degree * d, acc)

    def min_exponents(self) -> tuple[int, int, int]:
        if self.is_zero():
            raise ValueError("zero form has no exponent support")
        cols = self.chart.coeffs
        a = min(col.ord_at_zero() for col in cols if col)
        b = next(j for j, col in enumerate(cols) if col)
        return a, b, self.degree - self.chart.total_degree

    def divide_monomial(self, exponents: tuple[int, int, int]) -> "TriForm":
        """Exact division by T^a*X^b*Z^c."""
        a, b, c = exponents
        if self.chart.total_degree + c > self.degree:
            raise ValueError("not divisible by the requested Z power")
        chart = self.chart.divide_x_power(b) if b else self.chart
        return _form(self.degree - a - b - c, chart.divide_t_power(a) if a else chart)

    def dehomogenize(self, chart: int = 2) -> BiPoly:
        """The chart where coordinate `chart` is 1, in the other two coordinates
        in order: (t, x) = (T/Z, X/Z) for Z = 1, the stored chart, (T/X, Z/X)
        for X = 1 and (X/T, Z/T) for T = 1, where each term moves by its
        exponents alone.
        """
        if chart == 2:
            return self.chart
        u, v = (k for k in range(3) if k != chart)
        return BiPoly.from_terms(((key[u], key[v]), coeff) for key, coeff in self.terms.items())

    @classmethod
    def homogenize(cls, p: BiPoly, degree: int) -> "TriForm":
        """Inverse chart map: t = T/Z, x = X/Z, cleared to the given degree."""
        if p.total_degree > degree:
            raise ValueError("degree too small to homogenize")
        return _form(degree, p)

    def binary_form(self) -> Poly:
        """F(T, X, 0) at X = 1, indexed by the exponent of T: the coefficient
        of T^a is that of t^a*x^(d - a) in the chart."""
        d, chart = self.degree, self.chart
        return Poly(chart.coeff_x(d - a).coeff(a) for a in range(d + 1))

    def canonical_scaled(self) -> "TriForm":
        """Divide by the coefficient of the lexicographically largest monomial:
        the top t-coefficient of the last column of the largest t-degree.
        Computed once; a form whose pivot is 1 is its own canonical form."""
        if not hasattr(self, "_canonical"):
            pivot = ONE
            if self.chart:
                top = self.chart.degree_t
                pivot = next(col for col in reversed(self.chart.coeffs) if col.degree == top).lc
            object.__setattr__(self, "_canonical", self if pivot == ONE else self.scale(pivot.inv()))
        return self._canonical

    def is_proportional(self, other: "TriForm") -> bool:
        """Same degree and equal canonical forms: both sides are divided by
        the coefficient of the same top monomial, so the test is exact."""
        return self.degree == other.degree and self.canonical_scaled() == other.canonical_scaled()

    def to_str(self) -> str:
        return _render(
            (coeff, "*".join(v if e == 1 else f"{v}^{e}" for e, v in zip(key, "TXZ") if e))
            for key, coeff in reversed(self.terms.items())
        )

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"TriForm({self.to_str()})"


def _form(degree: int, chart: BiPoly) -> TriForm:
    """The form of the given degree with the chart, of at most that total degree."""
    form = _new(TriForm)
    object.__setattr__(form, "degree", degree)
    object.__setattr__(form, "chart", chart)
    return form


def kth_subresultant_coeffs(chain: list[BiPoly], x_degree: int) -> BiPoly | None:
    """First chain element of the requested x-degree, if any."""
    for item in chain:
        if item.degree_x == x_degree:
            return item
    return None


def k_rational_roots(p: Poly) -> tuple[list[tuple[FieldElem, int]], Poly]:
    """All roots of p in K with multiplicities, plus the rootless residual factor.

    Roots are located through the orbit norm of p factored over Q: the
    product of its distinct Galois conjugates, which is p itself when p is
    rational, two conjugates over a quadratic subfield, four otherwise.  A
    root in K has degree 1, 2 or 4 over Q: quadratic factors are tested
    against Q(r2), Q(i), Q(i*r2), and quartic factors are split over K by a
    shifted norm.  The residual is monic.
    """
    if p.is_zero():
        raise PreconditionError("roots of the zero polynomial")
    if p.degree == 0:
        return [], Poly.constant(ONE)
    roots: list[tuple[FieldElem, int]] = []
    remaining = p.monic()
    for candidate in _k_root_candidates(remaining):
        mult = remaining.ord_at(candidate)
        if mult > 0:
            roots.append((candidate, mult))
            remaining = remaining.exact_div(Poly((-candidate, ONE)) ** mult)
    roots.sort(key=lambda item: item[0].sort_key())
    return roots, remaining.monic()


def _k_root_candidates(p: Poly) -> list[FieldElem]:
    """The roots in K of the rational factors of p's orbit norm.  Distinct
    irreducible factors have distinct roots, so no candidate repeats."""
    candidates: list[FieldElem] = []
    for factor in _rational_factors(_orbit_norm(p)):
        if factor.degree == 1:
            candidates.append(-factor.coeff(0))
        elif factor.degree == 2:
            candidates.extend(_quadratic_roots_in_k(factor))
        elif factor.degree == 4:
            candidates.extend(_quartic_roots_in_k(factor))
    return candidates


def _orbit_norm(p: Poly) -> Poly:
    """The product of the distinct Galois conjugates of p, a rational polynomial."""
    norm = Poly.constant(ONE)
    for conjugate in dict.fromkeys(map(Poly, zip(*(c.conjugates() for c in p.coeffs)))):
        norm = norm * conjugate
    if not norm.is_rational():
        raise IntegrityError("norm polynomial must be rational")
    return norm


def _rational_factors(n: Poly) -> list[Poly]:
    """The monic irreducible factors over Q of a rational n, each once: the
    package's one use of sympy, a dense ``Poly.factor_list`` over QQ."""
    from sympy import QQ, Poly as DensePoly, Symbol

    dense = DensePoly.from_list([QQ(c.n0, c.d) for c in reversed(n.coeffs)], Symbol("t"), domain=QQ)
    return [
        Poly(Fraction(int(c.numerator), int(c.denominator)) for c in reversed(factor.rep.to_list())).monic()
        for factor, _mult in dense.factor_list()[1]
    ]


def _quadratic_roots_in_k(q: Poly) -> list[FieldElem]:
    """The roots in K of a monic rational quadratic, if its discriminant is a square there."""
    c, b, _ = q.coeffs
    root = (b * b - c * 4).sqrt()
    if root is None:
        return []
    return [(root - b) / 2, (-root - b) / 2]


def _quartic_roots_in_k(h: Poly) -> list[FieldElem]:
    """The roots in K of a monic irreducible rational quartic h, by Trager's
    shifted norm (Trager, SYMSAC 1976; Cohen, GTM 138, section 3.6).

    theta = r2 + i generates K, and g = h(t - s*theta) has the roots
    alpha_j + s*theta.  Once the orbit norm N(g) is square-free, each
    rational factor H of N(g) is the norm of the factor gcd(g, H) of g over
    K, so a quartic H gives a linear factor t - beta and the root
    beta - s*theta.  Two of the 16 roots alpha_j + s*sigma(theta) of N(g)
    are equal only for sigma != tau, and each of those 96 pairs for one s
    at most, so at most 96 of the first 97 shifts fail.
    """
    for s in range(1, 98):
        shift = FieldElem(0, s, s)
        g = h.shift_argument(-shift)
        norm = _orbit_norm(g)
        if poly_gcd(norm, norm.derivative()).degree == 0:
            return [
                -poly_gcd(g, factor).coeff(0) - shift
                for factor in _rational_factors(norm) if factor.degree == 4
            ]
    raise IntegrityError("no shift of the quartic within 97 has a square-free norm")
