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

Substitutions are coefficient maps, not compositions.  A chart of a form
moves each term by its exponents alone (`TriForm.dehomogenize`).  The
shears x -> x + k*t and shifts x -> x + c of a BiPoly are one translate
kernel, and the Taylor shift t -> t + c of a Poly uses the same binomial
rows (`_translate_rows`; von zur Gathen and Gerhard, ISSAC 1997, at these
degrees the plain binomial form).  `TriForm.eval` reads one table of
powers per coordinate.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Callable, Iterable, Sequence

from .errors import IntegrityError, PreconditionError
from .field import FieldElem, ONE, ZERO, ElemLike


def _elem(value) -> FieldElem:
    return FieldElem.coerce(value)


class Poly:
    """Dense univariate polynomial; coefficient index equals degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[ElemLike] = ()):
        items = [_elem(c) for c in coeffs]
        while items and items[-1].is_zero():
            items.pop()
        object.__setattr__(self, "coeffs", tuple(items))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def _trusted(cls, items: list[FieldElem]) -> "Poly":
        """A Poly on FieldElems taken as they are; trailing zeros are stripped."""
        while items and items[-1].is_zero():
            items.pop()
        p = object.__new__(cls)
        object.__setattr__(p, "coeffs", tuple(items))
        return p

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def constant(cls, value: ElemLike) -> "Poly":
        return cls((value,))

    @classmethod
    def variable(cls) -> "Poly":
        return cls((ZERO, ONE))

    @classmethod
    def from_roots(cls, roots: Sequence[ElemLike]) -> "Poly":
        result = cls.constant(ONE)
        for root in roots:
            result = result * cls((-_elem(root), ONE))
        return result

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def lc(self) -> FieldElem:
        return self.coeffs[-1] if self.coeffs else ZERO

    def coeff(self, k: int) -> FieldElem:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else ZERO

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    @staticmethod
    def _coerce(other) -> "Poly | None":
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction, FieldElem)):
            return Poly.constant(other)
        return None

    def __add__(self, other) -> "Poly":
        rhs = Poly._coerce(other)
        if rhs is None:
            return NotImplemented
        a, b = self.coeffs, rhs.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return Poly._trusted(out)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        rhs = Poly._coerce(other)
        if rhs is None:
            return NotImplemented
        a, b = self.coeffs, rhs.coeffs
        out = list(a) + [ZERO] * (len(b) - len(a))
        for k, c in enumerate(b):
            out[k] = out[k] - c
        return Poly._trusted(out)

    def __neg__(self) -> "Poly":
        return Poly._trusted([-c for c in self.coeffs])

    def __mul__(self, other) -> "Poly":
        rhs = Poly._coerce(other)
        if rhs is None:
            return NotImplemented
        if self.is_zero() or rhs.is_zero():
            return Poly.zero()
        out = [ZERO] * (len(self.coeffs) + len(rhs.coeffs) - 1)
        right = [(j, b) for j, b in enumerate(rhs.coeffs) if b]
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in right:
                out[i + j] = out[i + j] + a * b
        return Poly._trusted(out)

    __rmul__ = __mul__

    def scale(self, value: ElemLike) -> "Poly":
        v = _elem(value)
        return Poly._trusted([c * v for c in self.coeffs])

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise ValueError("negative polynomial power")
        result = Poly.constant(ONE)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift_up(self, k: int) -> "Poly":
        """Multiply by t**k."""
        if self.is_zero():
            return self
        return Poly._trusted([ZERO] * k + list(self.coeffs))

    def divmod(self, divisor: "Poly") -> tuple["Poly", "Poly"]:
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quotient = [ZERO] * max(0, self.degree - divisor.degree + 1)
        rem = list(self.coeffs)
        inv_lc = divisor.lc.inv()
        d = divisor.degree
        # the top term cancels exactly, so only the nonzero lower terms are subtracted
        lower = [(j, c) for j, c in enumerate(divisor.coeffs[:-1]) if c]
        while len(rem) > d:
            k = len(rem) - 1 - d
            factor = rem.pop() * inv_lc
            quotient[k] = factor
            for j, c in lower:
                rem[k + j] = rem[k + j] - factor * c
            while rem and not rem[-1]:
                rem.pop()
        return Poly._trusted(quotient), Poly._trusted(rem)

    def __mod__(self, divisor: "Poly") -> "Poly":
        return self.divmod(divisor)[1]

    def exact_div(self, divisor: "Poly") -> "Poly":
        quotient, rem = self.divmod(divisor)
        if not rem.is_zero():
            raise ValueError("division is not exact")
        return quotient

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(self.lc.inv())

    def derivative(self) -> "Poly":
        return Poly(tuple(c * k for k, c in enumerate(self.coeffs) if k))

    def eval(self, point: ElemLike) -> FieldElem:
        p = _elem(point)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * p + c
        return acc

    def shift_argument(self, offset: ElemLike) -> "Poly":
        """p(t + offset), by the binomial Taylor shift of each term."""
        c = _elem(offset)
        if not c or len(self.coeffs) <= 1:
            return self
        rows = _translate_rows(c, ZERO, self.degree)
        out = [ZERO] * len(self.coeffs)
        for k, a in enumerate(self.coeffs):
            if a:
                for p, _r, w in rows[k]:
                    out[p] = out[p] + a * w
        return Poly._trusted(out)

    def reverse(self, degree: int) -> "Poly":
        """s**degree * p(1/s), for the chart at infinity."""
        if degree < self.degree:
            raise ValueError("reversal degree below polynomial degree")
        out = [ZERO] * (degree + 1)
        for k, c in enumerate(self.coeffs):
            out[degree - k] = c
        return Poly(out)

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
        for k, c in enumerate(self.coeffs):
            if not c.is_zero():
                return k
        raise AssertionError

    def is_rational(self) -> bool:
        return all(c.is_rational() for c in self.coeffs)

    def map_coeffs(self, fn: Callable[[FieldElem], FieldElem]) -> "Poly":
        return Poly(tuple(fn(c) for c in self.coeffs))

    def to_str(self, var: str = "t") -> str:
        if self.is_zero():
            return "0"
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coeff(k)
            if c.is_zero():
                continue
            if k == 0:
                body = _coeff_str(c, standalone=True)
            else:
                power = var if k == 1 else f"{var}^{k}"
                if c == ONE:
                    body = power
                elif c == -ONE:
                    body = f"-{power}"
                else:
                    body = f"{_coeff_str(c)}*{power}"
            terms.append(body)
        out = terms[0]
        for term in terms[1:]:
            if term.startswith("-"):
                out += f" - {term[1:]}"
            else:
                out += f" + {term}"
        return out

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"Poly({self.to_str()})"


def _coeff_str(c: FieldElem, standalone: bool = False) -> str:
    text = str(c)
    if " " in text and not standalone:
        return f"({text})"
    return text


def _translate_rows(
    c0: FieldElem, c1: FieldElem, n: int
) -> list[list[tuple[int, int, FieldElem]]]:
    """The terms of (x + c0 + c1*t)**j for j = 0..n, read from binomial rows.

    rows[j] lists (p, r, w) with (x + c0 + c1*t)**j = sum w * x**p * t**r,
    where w = C(j, p) * C(j - p, r) * c0**(j - p - r) * c1**r; zero terms
    are left out.
    """
    c0_powers, c1_powers = [ONE], [ONE]
    for _ in range(n):
        c0_powers.append(c0_powers[-1] * c0)
        c1_powers.append(c1_powers[-1] * c1)
    rows = []
    for j in range(n + 1):
        row = []
        for p in range(j + 1):
            m = j - p
            for r in range(m + 1):
                w = c0_powers[m - r] * c1_powers[r]
                if w:
                    row.append((p, r, w * (comb(j, p) * comb(m, r))))
        rows.append(row)
    return rows


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor; gcd(p, 0) is monic(p)."""
    if p.is_zero() and q.is_zero():
        raise PreconditionError("gcd of two zero polynomials")
    # Keeping every remainder monic bounds the coefficients (each is a ratio
    # of subresultants); the raw remainder sequence blows up exponentially.
    a = p.monic() if not p.is_zero() else p
    b = q.monic() if not q.is_zero() else q
    while not b.is_zero():
        a, b = b, a % b
        if not b.is_zero():
            b = b.monic()
    return a


def poly_gcd_many(polys: Sequence[Poly]) -> Poly:
    acc = Poly.zero()
    for p in polys:
        if p.is_zero():
            continue
        acc = poly_gcd(acc, p) if not acc.is_zero() else p.monic()
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
    if not (root * root == p):
        return None
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
        if num.is_zero():
            return RatFunc._reduced(Poly.zero(), Poly.constant(ONE))
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
        return self + (-other)

    def __neg__(self) -> "BiPoly":
        return BiPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        if self.is_zero() or other.is_zero():
            return BiPoly.zero()
        out = [Poly.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return BiPoly(out)

    def scale_poly(self, p: Poly) -> "BiPoly":
        return BiPoly(tuple(c * p for c in self.coeffs))

    def eval_t(self, point: ElemLike) -> Poly:
        """Substitute a value for t, leaving a Poly in x."""
        return Poly(tuple(c.eval(point) for c in self.coeffs))

    def eval_x(self, point: ElemLike) -> Poly:
        """Substitute a value for x, leaving a Poly in t."""
        p = _elem(point)
        acc = Poly.zero()
        for c in reversed(self.coeffs):
            acc = acc.scale(p) + c
        return acc

    def eval_point(self, t0: ElemLike, x0: ElemLike) -> FieldElem:
        return self.eval_x(x0).eval(t0)

    def subs_x_poly(self, p: Poly) -> Poly:
        """Substitute x = p(t)."""
        acc = Poly.zero()
        for c in reversed(self.coeffs):
            acc = acc * p + c
        return acc

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
        the binomial terms of (x + c0 + c1*t)**j."""
        if len(self.coeffs) <= 1 or not (c0 or c1):
            return self
        rows = _translate_rows(c0, c1, self.degree_x)
        width = self.degree_t + len(self.coeffs)
        out = [[ZERO] * width for _ in self.coeffs]
        for j, col in enumerate(self.coeffs):
            for i, a in enumerate(col.coeffs):
                if a:
                    for p, r, w in rows[j]:
                        row = out[p]
                        row[i + r] = row[i + r] + a * w
        return BiPoly(Poly._trusted(row) for row in out)

    def swap_vars(self) -> "BiPoly":
        """Exchange the roles of t and x."""
        rows = len(self.coeffs)
        cols = self.degree_t + 1
        out = [[ZERO] * rows for _ in range(cols)]
        for j, c in enumerate(self.coeffs):
            for i, value in enumerate(c.coeffs):
                out[i][j] = value
        return BiPoly(tuple(Poly(row) for row in out))

    def derivative_x(self) -> "BiPoly":
        return BiPoly(tuple(c.scale(k) for k, c in enumerate(self.coeffs) if k))

    def divide_x_power(self, k: int) -> "BiPoly":
        """Exact division by x**k."""
        if any(not c.is_zero() for c in self.coeffs[:k]):
            raise ValueError("not divisible by the requested x power")
        return BiPoly(self.coeffs[k:])

    def shift_x_power(self, k: int) -> "BiPoly":
        """Multiply by x**k."""
        if self.is_zero():
            return self
        return BiPoly((Poly.zero(),) * k + self.coeffs)

    def divide_t_power(self, k: int) -> "BiPoly":
        out = []
        for c in self.coeffs:
            if c.is_zero():
                out.append(c)
                continue
            if c.ord_at_zero() < k:
                raise ValueError("not divisible by the requested t power")
            out.append(Poly(c.coeffs[k:]))
        return BiPoly(out)

    def subs_x_times_t(self) -> "BiPoly":
        """Substitute x -> t*x."""
        return BiPoly(tuple(c.shift_up(k) for k, c in enumerate(self.coeffs)))

    def content_t(self) -> Poly:
        """Monic gcd of the t-coefficients."""
        return poly_gcd_many([c for c in self.coeffs if not c.is_zero()])

    def to_str(self, var_t: str = "t", var_x: str = "x") -> str:
        if self.is_zero():
            return "0"
        terms = []
        for k in range(self.degree_x, -1, -1):
            c = self.coeff_x(k)
            if c.is_zero():
                continue
            body = c.to_str(var_t)
            if k == 0:
                terms.append(body)
                continue
            power = var_x if k == 1 else f"{var_x}^{k}"
            if c == Poly.constant(ONE):
                terms.append(power)
            elif c == Poly.constant(-ONE):
                terms.append(f"-{power}")
            else:
                wrapped = body if (" " not in body and "/" not in body) else f"({body})"
                terms.append(f"{wrapped}*{power}")
        out = terms[0]
        for term in terms[1:]:
            if term.startswith("-"):
                out += f" - {term[1:]}"
            else:
                out += f" + {term}"
        return out

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"BiPoly({self.to_str()})"


def bipoly_pseudo_rem(a: BiPoly, b: BiPoly) -> BiPoly:
    """Pseudo-remainder in x: lc(b)^(deg a - deg b + 1) * a = q*b + r."""
    if b.is_zero():
        raise ZeroDivisionError("pseudo-division by zero")
    d = b.degree_x
    lc_b = b.lc_x
    rem = a
    steps = max(0, a.degree_x - d + 1)
    for _ in range(steps):
        if rem.degree_x < d:
            rem = rem.scale_poly(lc_b)
            continue
        k = rem.degree_x - d
        top = rem.lc_x
        rem = rem.scale_poly(lc_b) - b.scale_poly(top).shift_x_power(k)
    return rem


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
    """Homogeneous form in T, X, Z with exponent-keyed coefficients."""

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms: dict[tuple[int, int, int], ElemLike]):
        cleaned: dict[tuple[int, int, int], FieldElem] = {}
        for key, value in terms.items():
            a, b, c = key
            if a + b + c != degree or min(a, b, c) < 0:
                raise ValueError(f"monomial {key} violates homogeneity of degree {degree}")
            coeff = _elem(value)
            if not coeff.is_zero():
                cleaned[key] = coeff
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", dict(sorted(cleaned.items())))

    def __setattr__(self, name, value):
        raise AttributeError("TriForm is immutable")

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, key: tuple[int, int, int]) -> FieldElem:
        return self.terms.get(key, ZERO)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TriForm)
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.degree, tuple(self.terms.items())))

    def __add__(self, other: "TriForm") -> "TriForm":
        if self.degree != other.degree:
            raise ValueError("degree mismatch in form addition")
        out = dict(self.terms)
        for key, value in other.terms.items():
            out[key] = out.get(key, ZERO) + value
        return TriForm(self.degree, out)

    def __sub__(self, other: "TriForm") -> "TriForm":
        return self + (-other)

    def __neg__(self) -> "TriForm":
        return TriForm(self.degree, {k: -v for k, v in self.terms.items()})

    def __mul__(self, other: "TriForm") -> "TriForm":
        out: dict[tuple[int, int, int], FieldElem] = {}
        for (a1, b1, c1), v1 in self.terms.items():
            for (a2, b2, c2), v2 in other.terms.items():
                key = (a1 + a2, b1 + b2, c1 + c2)
                out[key] = out.get(key, ZERO) + v1 * v2
        return TriForm(self.degree + other.degree, out)

    def scale(self, value: ElemLike) -> "TriForm":
        v = _elem(value)
        return TriForm(self.degree, {k: c * v for k, c in self.terms.items()})

    def __pow__(self, exponent: int) -> "TriForm":
        result = TriForm(0, {(0, 0, 0): ONE})
        for _ in range(exponent):
            result = result * self
        return result

    def eval(self, point: Sequence[ElemLike]) -> FieldElem:
        """The value at (T, X, Z), from one table of powers per coordinate."""
        tables = []
        for value in point:
            value = _elem(value)
            powers = [ONE]
            for _ in range(self.degree):
                powers.append(powers[-1] * value)
            tables.append(powers)
        pt, px, pz = tables
        acc = ZERO
        for (a, b, c), coeff in self.terms.items():
            monomial = pt[a] * px[b] * pz[c]
            if monomial:
                acc = acc + coeff * monomial
        return acc

    def partial(self, index: int) -> "TriForm":
        """Partial derivative with respect to T (0), X (1) or Z (2)."""
        out: dict[tuple[int, int, int], FieldElem] = {}
        for key, coeff in self.terms.items():
            e = key[index]
            if e == 0:
                continue
            new_key = list(key)
            new_key[index] = e - 1
            out[tuple(new_key)] = coeff * e
        return TriForm(max(self.degree - 1, 0), out)

    def substitute(self, images: Sequence["TriForm"]) -> "TriForm":
        """Substitute forms of a common degree d for (T, X, Z); output degree is d*degree."""
        img_t, img_x, img_z = images
        d = img_t.degree
        if img_x.degree != d or img_z.degree != d:
            raise ValueError("substitution images must share one degree")
        result = TriForm(self.degree * d, {})
        for (a, b, c), coeff in self.terms.items():
            term = img_t**a * img_x**b * img_z**c
            result = result + term.scale(coeff)
        return result

    def min_exponents(self) -> tuple[int, int, int]:
        if self.is_zero():
            raise ValueError("zero form has no exponent support")
        keys = list(self.terms)
        return tuple(min(k[i] for k in keys) for i in range(3))

    def divide_monomial(self, exponents: tuple[int, int, int]) -> "TriForm":
        a0, b0, c0 = exponents
        out = {
            (a - a0, b - b0, c - c0): v
            for (a, b, c), v in self.terms.items()
        }
        return TriForm(self.degree - a0 - b0 - c0, out)

    def dehomogenize(self, chart: int = 2) -> BiPoly:
        """The chart where coordinate `chart` is 1, in the other two coordinates
        in order: (t, x) = (T/Z, X/Z) for Z = 1, (T/X, Z/X) for X = 1 and
        (X/T, Z/T) for T = 1.  Each term moves by its exponents alone.
        """
        u, v = (k for k in range(3) if k != chart)
        return BiPoly.from_terms(((key[u], key[v]), coeff) for key, coeff in self.terms.items())

    @classmethod
    def homogenize(cls, p: BiPoly, degree: int) -> "TriForm":
        """Inverse chart map: t = T/Z, x = X/Z, cleared to the given degree."""
        terms: dict[tuple[int, int, int], FieldElem] = {}
        for b, col in enumerate(p.coeffs):
            for a, coeff in enumerate(col.coeffs):
                if coeff.is_zero():
                    continue
                c = degree - a - b
                if c < 0:
                    raise ValueError("degree too small to homogenize")
                terms[(a, b, c)] = coeff
        return cls(degree, terms)

    def infinity_form(self) -> "TriForm":
        """F(T, X, 0): the terms free of Z."""
        return TriForm(self.degree, {k: v for k, v in self.terms.items() if k[2] == 0})

    def canonical_scaled(self) -> "TriForm":
        """Divide by the coefficient of the lexicographically largest monomial."""
        if self.is_zero():
            return self
        key = max(self.terms)
        return self.scale(self.terms[key].inv())

    def is_proportional(self, other: "TriForm") -> bool:
        """Same degree, same support, and a_k * b_p == b_k * a_p for every
        monomial k against one pivot monomial p."""
        if self.degree != other.degree or self.terms.keys() != other.terms.keys():
            return False
        if not self.terms:
            return True
        pivot = next(iter(self.terms))
        a_p, b_p = self.terms[pivot], other.terms[pivot]
        return all(a * b_p == other.terms[k] * a_p for k, a in self.terms.items())

    def to_str(self) -> str:
        if self.is_zero():
            return "0"
        terms = []
        for key in sorted(self.terms, reverse=True):
            coeff = self.terms[key]
            parts = []
            for e, var in zip(key, ("T", "X", "Z")):
                if e == 1:
                    parts.append(var)
                elif e > 1:
                    parts.append(f"{var}^{e}")
            monomial = "*".join(parts) if parts else "1"
            if not parts:
                body = _coeff_str(coeff, standalone=True)
            elif coeff == ONE:
                body = monomial
            elif coeff == -ONE:
                body = f"-{monomial}"
            else:
                body = f"{_coeff_str(coeff)}*{monomial}"
            terms.append(body)
        out = terms[0]
        for term in terms[1:]:
            if term.startswith("-"):
                out += f" - {term[1:]}"
            else:
                out += f" + {term}"
        return out

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"TriForm({self.to_str()})"


def kth_subresultant_coeffs(chain: list[BiPoly], x_degree: int) -> BiPoly | None:
    """First chain element of the requested x-degree, if any."""
    for item in chain:
        if item.degree_x == x_degree:
            return item
    return None


def k_rational_roots(p: Poly) -> tuple[list[tuple[FieldElem, int]], Poly]:
    """All roots of p in K with multiplicities, plus the rootless residual factor.

    Roots are located through the rational norm of p (product of the four
    Galois-conjugate polynomials) factored over Q; quadratic factors are
    tested against the quadratic subfields Q(r2), Q(i), Q(i*r2) and
    quartic factors against K itself.  The residual is monic.

    sympy receives the norm as a dense polynomial over QQ, built from the
    integer numerators and denominators of its coefficients, and factors it
    through ``Poly.factor_list``; linear and quadratic factors are read back
    as Fractions, so this path builds no sympy expression.
    """
    if p.is_zero():
        raise PreconditionError("roots of the zero polynomial")
    if p.degree == 0:
        return [], Poly.constant(ONE)
    candidates = _k_root_candidates(p)
    roots: list[tuple[FieldElem, int]] = []
    remaining = p.monic()
    for candidate in candidates:
        mult = remaining.ord_at(candidate)
        if mult > 0:
            roots.append((candidate, mult))
            remaining = remaining.exact_div(
                Poly((-candidate, ONE)) ** mult
            )
    roots.sort(key=lambda item: item[0].sort_key())
    return roots, remaining.monic()


def _k_root_candidates(p: Poly) -> list[FieldElem]:
    from sympy import QQ, Poly as DensePoly, Symbol

    norm = Poly.constant(ONE)
    for conj in (lambda c: c, FieldElem.conj_sqrt2, FieldElem.conj_i,
                 lambda c: c.conj_sqrt2().conj_i()):
        norm = norm * p.map_coeffs(conj)
    if not norm.is_rational():
        raise IntegrityError("norm polynomial must be rational")
    t = Symbol("t")
    dense = DensePoly.from_list([QQ(c.n0, c.d) for c in reversed(norm.coeffs)], t, domain=QQ)
    candidates: list[FieldElem] = []
    seen: set = set()
    for factor, _mult in dense.factor_list()[1]:
        degree = factor.degree()
        if degree == 4:
            candidates.extend(_quartic_roots_in_k(factor, t))
        elif degree <= 2:
            coeffs = [Fraction(int(c.numerator), int(c.denominator)) for c in factor.rep.to_list()]
            if degree == 1:
                candidates.append(FieldElem.from_rational(-coeffs[1] / coeffs[0]))
            else:
                candidates.extend(_quadratic_roots_in_k(*coeffs))
    out = []
    for c in candidates:
        key = c.coords
        if key not in seen:
            seen.add(key)
            out.append(c)
    return out


def _quadratic_roots_in_k(a2: Fraction, a1: Fraction, a0: Fraction) -> list[FieldElem]:
    root = FieldElem.from_rational(a1 * a1 - 4 * a2 * a0).sqrt()
    if root is None:
        return []
    half = FieldElem.from_rational(Fraction(1, 2) / a2)
    minus_a1 = FieldElem.from_rational(-a1)
    return [(minus_a1 + root) * half, (minus_a1 - root) * half]


def _quartic_roots_in_k(factor, t) -> list[FieldElem]:
    import sympy

    out = []
    extended = sympy.Poly(factor, t, extension=[sympy.sqrt(2), sympy.I])
    for linear, _ in extended.factor_list()[1]:
        if linear.degree() == 1:
            root_expr = sympy.expand(-linear.nth(0) / linear.nth(1))
            try:
                out.append(_from_sympy(root_expr))
            except ValueError:
                continue
    return out


def _from_sympy(expr) -> FieldElem:
    import sympy

    expanded = sympy.expand(expr)
    r2 = sympy.sqrt(2)
    coords = [Fraction(0)] * 4
    basis = {1: 0, r2: 1, sympy.I: 2, sympy.I * r2: 3}
    for monom, coeff in expanded.as_coefficients_dict().items():
        if monom not in basis:
            raise ValueError(f"expression {expr} is not in Q(r2, i)")
        rational = sympy.Rational(coeff)
        coords[basis[monom]] = Fraction(int(rational.p), int(rational.q))
    return FieldElem(*coords)
