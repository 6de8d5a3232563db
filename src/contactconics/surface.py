"""Rational elliptic surface y^2 = x^3 + a2(t) x^2 + a4(t) x + a6(t) over K(t).

The model is read off a normalized plane quartic, sections form the
Mordell-Weil group under the chord-tangent law, and the singular fibers are
located and classified exactly from valuations of the discriminant.
"""

from __future__ import annotations

from typing import NamedTuple

from .curves import PlaneCurve
from .errors import (
    IntegrityError,
    PreconditionError,
    UnsupportedSectionError,
)
from .field import ONE, ZERO, FieldElem
from .poly import (
    BiPoly,
    Poly,
    RatFunc,
    TriForm,
    k_rational_roots,
    poly_gcd,
    poly_is_square,
    squarefree_decomposition,
)

_X_DEGREE_LIMIT = 2
_Y_DEGREE_LIMIT = 3
_WALK_LIMIT = 64


class _Infinity:
    """Marker for the place t = infinity."""

    __slots__ = ()

    def __str__(self) -> str:
        return "inf"

    def __repr__(self) -> str:
        return "inf"


INFINITY = _Infinity()


class WeierstrassModel:
    """y^2 = x^3 + a2 x^2 + a4 x + a6 with polynomial coefficients in t.

    Models are equal when their coefficients are; the `_mirror` cache of
    `at_infinity` takes no part in equality.
    """

    __slots__ = ("a2", "a4", "a6", "_mirror")

    def __init__(self, a2: Poly, a4: Poly, a6: Poly):
        object.__setattr__(self, "a2", a2)
        object.__setattr__(self, "a4", a4)
        object.__setattr__(self, "a6", a6)
        object.__setattr__(self, "_mirror", None)
        bounds = ((self.a2, 2), (self.a4, 4), (self.a6, 6))
        for coeff, bound in bounds:
            if coeff.degree > bound:
                raise PreconditionError(
                    f"coefficient degree {coeff.degree} exceeds the rational-surface bound {bound}"
                )
        if self.discriminant().is_zero():
            raise PreconditionError("the discriminant vanishes identically (singular model)")

    def __setattr__(self, name, value):
        raise AttributeError("WeierstrassModel is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeierstrassModel)
            and (self.a2, self.a4, self.a6) == (other.a2, other.a4, other.a6)
        )

    def __repr__(self) -> str:
        return f"WeierstrassModel(a2={self.a2!r}, a4={self.a4!r}, a6={self.a6!r})"

    def cubic(self) -> BiPoly:
        """Right-hand side as a polynomial in (t, x)."""
        return BiPoly((self.a6, self.a4, self.a2, Poly.constant(ONE)))

    def discriminant(self) -> Poly:
        """Discriminant of the fiber cubic, as a polynomial in t."""
        a2, a4, a6 = self.a2, self.a4, self.a6
        return (
            a2 * a4 * a6 * 18
            - a2 * a2 * a2 * a6 * 4
            + a2 * a2 * a4 * a4
            - a4 * a4 * a4 * 4
            - a6 * a6 * 27
        )

    def c4(self) -> Poly:
        return self.a2 * self.a2 * 16 - self.a4 * 48

    def at_infinity(self) -> "WeierstrassModel":
        """Same surface in the chart s = 1/t, (x, y) -> (x/s^2, y/s^3), built once."""
        if self._mirror is None:
            mirror = WeierstrassModel(self.a2.reverse(2), self.a4.reverse(4), self.a6.reverse(6))
            object.__setattr__(self, "_mirror", mirror)
        return self._mirror

    def contains(self, x: RatFunc, y: RatFunc) -> bool:
        rhs = (
            x * x * x
            + RatFunc.from_poly(self.a2) * x * x
            + RatFunc.from_poly(self.a4) * x
            + RatFunc.from_poly(self.a6)
        )
        return (y * y - rhs).is_zero()

    def __str__(self) -> str:
        return f"y^2 = {self.cubic().to_str()}"


def from_quartic(quartic: PlaneCurve) -> WeierstrassModel:
    """Read the Weierstrass model off a quartic whose chart is a monic cubic in x."""
    chart = quartic.form.dehomogenize()
    lead = chart.coeff_x(3)
    if chart.degree_x != 3 or lead.degree != 0:
        raise PreconditionError(
            "the affine chart is not a monic cubic in x; normalize the curve first "
            "(move the distinguished tangency to [0:1:0] so the chart reads "
            "x^3 + a2(t) x^2 + a4(t) x + a6(t))"
        )
    scale = lead.lc.inv()
    return WeierstrassModel(
        chart.coeff_x(2) * scale,
        chart.coeff_x(1) * scale,
        chart.coeff_x(0) * scale,
    )


class Section:
    """A section of the surface: the zero section, or (x(t), y(t)) on the model.

    Coordinates are checked against the Weierstrass equation on construction;
    the group-law operations skip the check because the chord-tangent formulas
    stay on the curve identically (re-verifying them squares the coordinate
    degrees at every step).

    `n * P` (`__rmul__`) is double-and-add over the bits of |n|, on -P when
    n < 0.  It doubles only while higher bits remain, so for n != 0 it makes
    bit_length(n) - 1 doublings and popcount(n) - 1 additions with neither
    operand zero: `2 * P` is one doubling and `1 * P` none.
    """

    __slots__ = ("model", "x", "y")

    def __init__(
        self,
        model: WeierstrassModel,
        x: RatFunc | None,
        y: RatFunc | None,
        validate: bool = True,
    ):
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if (self.x is None) != (self.y is None):
            raise PreconditionError("a section needs both coordinates or neither")
        if validate and self.x is not None and not self.model.contains(self.x, self.y):
            raise PreconditionError("the point does not satisfy the Weierstrass equation")

    def __setattr__(self, name, value):
        raise AttributeError("Section is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Section)
            and (self.model, self.x, self.y) == (other.model, other.x, other.y)
        )

    def __repr__(self) -> str:
        return f"Section(model={self.model!r}, x={self.x!r}, y={self.y!r})"

    @classmethod
    def zero(cls, model: WeierstrassModel) -> "Section":
        return cls(model, None, None)

    @classmethod
    def from_xy(cls, model: WeierstrassModel, x, y) -> "Section":
        x = x if isinstance(x, RatFunc) else RatFunc.from_poly(x if isinstance(x, Poly) else Poly.constant(x))
        y = y if isinstance(y, RatFunc) else RatFunc.from_poly(y if isinstance(y, Poly) else Poly.constant(y))
        return cls(model, x, y)

    @property
    def is_zero(self) -> bool:
        return self.x is None

    def __neg__(self) -> "Section":
        if self.is_zero:
            return self
        return Section(self.model, self.x, -self.y, validate=False)

    def __add__(self, other: "Section") -> "Section":
        if self.model != other.model:
            raise PreconditionError("sections live on different models")
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        a2 = RatFunc.from_poly(self.model.a2)
        a4 = RatFunc.from_poly(self.model.a4)
        if self.x == other.x:
            if (self.y + other.y).is_zero():
                return Section.zero(self.model)
            three = RatFunc.constant(3)
            two = RatFunc.constant(2)
            slope = (three * self.x * self.x + two * a2 * self.x + a4) / (two * self.y)
        else:
            slope = (other.y - self.y) / (other.x - self.x)
        x3 = slope * slope - a2 - self.x - other.x
        y3 = -(self.y + slope * (x3 - self.x))
        return Section(self.model, x3, y3, validate=False)

    def __sub__(self, other: "Section") -> "Section":
        return self + (-other)

    def __rmul__(self, count: int) -> "Section":
        if count < 0:
            return (-count) * (-self)
        result = Section.zero(self.model)
        doubling = self
        while count:
            if count & 1:
                result = result + doubling
            count >>= 1
            if count:
                doubling = doubling + doubling
        return result

    def __str__(self) -> str:
        if self.is_zero:
            return "O"
        return f"({self.x.to_str()}, {self.y.to_str()})"


def section_to_plane_curve(point: Section) -> PlaneCurve:
    """The line or conic x = x(t), homogenized."""
    if point.is_zero:
        raise PreconditionError("the zero section has no affine chart curve")
    if not point.x.is_polynomial():
        raise UnsupportedSectionError("section x-coordinate is not polynomial")
    profile = point.x.as_poly()
    if profile.degree > _X_DEGREE_LIMIT:
        raise UnsupportedSectionError(
            f"section x-degree {profile.degree} exceeds the line/conic stratum"
        )
    chart = BiPoly.variable_x() - BiPoly.from_poly_in_t(profile)
    return PlaneCurve(TriForm.homogenize(chart, max(1, profile.degree)))


def plane_curve_to_sections(model: WeierstrassModel, curve: PlaneCurve) -> tuple[Section, Section]:
    """Lift a curve of the form x = x(t) to its two sections (s+, s-)."""
    chart = curve.form.dehomogenize()
    lead = chart.coeff_x(1)
    if chart.degree_x != 1 or lead.degree != 0:
        raise PreconditionError("the curve is not of the form x = x(t) in the chart")
    profile = chart.coeff_x(0) * (-lead.lc.inv())
    if curve.degree != max(1, profile.degree):
        raise PreconditionError("the curve contains the line at infinity")
    if profile.degree > _X_DEGREE_LIMIT:
        raise PreconditionError(f"curve of degree {profile.degree} is beyond the conic stratum")
    value = (
        profile * profile * profile
        + model.a2 * profile * profile
        + model.a4 * profile
        + model.a6
    )
    root = poly_is_square(value)
    if root is None:
        raise PreconditionError(
            "the fiber cubic does not evaluate to a square along the curve; "
            "the curve does not lift to sections"
        )
    if not root.is_zero() and not root.lc.is_lex_positive():
        root = -root
    plus = Section.from_xy(model, profile, root)
    return plus, -plus


class FiberInfo(NamedTuple):
    """One singular fiber: place, Kodaira symbol, component count, Euler number."""

    location: FieldElem | _Infinity
    kodaira: str
    m_v: int
    euler: int

    def __str__(self) -> str:
        return f"{self.kodaira} at t = {self.location}"


class FiberCollection:
    """Reducible/K-rational fibers plus the aggregate Euler mass of the rest."""

    __slots__ = ("fibers", "residual_euler")

    def __init__(self, fibers: tuple[FiberInfo, ...], residual_euler: int):
        object.__setattr__(self, "fibers", fibers)
        object.__setattr__(self, "residual_euler", residual_euler)

    def __setattr__(self, name, value):
        raise AttributeError("FiberCollection is immutable")

    def __iter__(self):
        return iter(self.fibers)

    def __len__(self) -> int:
        return len(self.fibers)

    def __getitem__(self, index: int) -> FiberInfo:
        return self.fibers[index]


def _classify_valuations(location, ord_delta: int, ord_c4: int) -> FiberInfo:
    if ord_c4 == 0:
        return FiberInfo(location, f"I{ord_delta}", ord_delta, ord_delta)
    if ord_delta == 2:
        return FiberInfo(location, "II", 1, 2)
    if ord_delta == 3:
        return FiberInfo(location, "III", 2, 3)
    if ord_delta == 4 and ord_c4 >= 2:
        return FiberInfo(location, "IV", 3, 4)
    raise PreconditionError(
        f"fiber at {location} has valuations (ord delta, ord c4) = "
        f"({ord_delta}, {ord_c4}) outside the supported types I_n, II, III, IV"
    )


def classify_fibers(model: WeierstrassModel) -> FiberCollection:
    """Locate K-rational singular fibers exactly; report the rest by Euler mass."""
    delta = model.discriminant()
    c4 = model.c4()
    roots, residual = k_rational_roots(delta)
    fibers = []
    for location, ord_delta in sorted(roots, key=lambda pair: pair[0].sort_key()):
        ord_c4 = 10**9 if c4.is_zero() else c4.ord_at(location)
        fibers.append(_classify_valuations(location, ord_delta, ord_c4))

    mirror = model.at_infinity()
    delta_inf = mirror.discriminant()
    ord_inf = delta_inf.ord_at_zero()
    if ord_inf >= 1:
        c4_inf = mirror.c4()
        ord_c4_inf = 10**9 if c4_inf.is_zero() else c4_inf.ord_at_zero()
        fibers.append(_classify_valuations(INFINITY, ord_inf, ord_c4_inf))

    for factor, power in squarefree_decomposition(residual):
        if power == 1:
            continue
        if power == 2 and (c4 % factor).is_zero():
            continue  # type II fibers survive the aggregate report
        raise PreconditionError(
            "the discriminant has a repeated factor without K-rational roots; "
            "a reducible fiber sits at a non-K-rational place"
        )

    residual_euler = residual.degree
    total = sum(fiber.euler for fiber in fibers) + residual_euler
    if total != 12:
        raise IntegrityError(f"fiber Euler numbers sum to {total}, not 12")
    return FiberCollection(tuple(fibers), residual_euler)


def _repeated_root(cubic: Poly) -> FieldElem:
    """The repeated root of a fiber cubic with non-squarefree factorization."""
    common = poly_gcd(cubic, cubic.derivative())
    if common.degree < 1:
        raise IntegrityError("reducible fiber without a repeated Weierstrass root")
    while common.degree > 1:
        common = poly_gcd(common, common.derivative())
    return -common.coeffs[0]


def _strict(p: Poly) -> Poly:
    """Strict transform of a germ through the blow-up centre: exact division by t."""
    if p.is_zero():
        return p
    if not p.coeffs[0].is_zero():
        raise IntegrityError("strict transform of a curve missing the center")
    return Poly(p.coeffs[1:])


def _blow_up(
    surface: BiPoly, a: FieldElem, *germs: tuple[Poly, Poly]
) -> tuple[BiPoly, list[tuple[Poly, Poly]]]:
    """Blow up y^2 = surface(t, x) once at (t, x, y) = (0, a, 0).

    Substitutes x -> a + t*x1, y -> t*y1 and divides the right-hand side by
    t^2; each section germ (x(t), y(t)) through the centre becomes its strict
    transform ((x - a)/t, y/t).
    """
    strict = [(_strict(x - a), _strict(y)) for x, y in germs]
    try:
        blown = surface.shift_x(a).subs_x_times_t().divide_t_power(2)
    except ValueError:
        raise IntegrityError("blow-up centre is not a singular point of the surface") from None
    return blown, strict


def _germ(point: Section, place: FieldElem | _Infinity) -> tuple[BiPoly, Poly, Poly]:
    """The surface y^2 = cubic(t, x) and the section's (x, y), centred at a place.

    A K-place p moves to t = 0 by t -> t + p.  The chart at t = infinity is
    s = 1/t, (x, y) -> (s^2 x, s^3 y); a section reaches it only from the
    stratum deg x <= 2, deg y <= 3, which misses the zero section everywhere.
    """
    if not (point.x.is_polynomial() and point.y.is_polynomial()):
        raise UnsupportedSectionError("local fiber geometry needs polynomial section coordinates")
    x, y = point.x.as_poly(), point.y.as_poly()
    if isinstance(place, _Infinity):
        if x.degree > _X_DEGREE_LIMIT or y.degree > _Y_DEGREE_LIMIT:
            raise UnsupportedSectionError(
                "section leaves the stratum (deg x <= 2, deg y <= 3) with P.O = 0 "
                "and a chart at infinity"
            )
        return point.model.at_infinity().cubic(), x.reverse(2), y.reverse(3)
    return point.model.cubic().shift_t(place), x.shift_argument(place), y.shift_argument(place)


def _component_walk(
    surface: BiPoly, a: FieldElem, x: Poly, y: Poly, count: int, depth: int
) -> int:
    """Blow up at (0, a, 0) until the section separates from the fiber's singular point."""
    if depth > count:
        raise IntegrityError("component walk exceeded the fiber component count")
    blown, [(x1, y1)] = _blow_up(surface, a, (x, y))
    exceptional = blown.eval_t(ZERO)
    a1 = x1.eval(ZERO)
    b = y1.eval(ZERO)
    if exceptional.is_zero():
        raise IntegrityError("degenerate exceptional locus in component walk")
    if exceptional.degree == 2:
        c2, c1 = exceptional.coeffs[2], exceptional.coeffs[1]
        c0 = exceptional.coeffs[0]
        if (c1 * c1 - c2 * c0 * 4).is_zero():
            # Two lines y^2 = c2 (x - crossing)^2 meeting at (crossing, 0), so
            # a1 == crossing forces b = 0.
            crossing = -c1 / (c2 * 2)
            if a1 == crossing:
                return _component_walk(blown, crossing, x1, y1, count, depth + 1)
            branch = b / (a1 - crossing)
            return depth if branch.is_lex_positive() else count - depth
        return depth  # irreducible exceptional conic
    if exceptional.degree == 1:
        return depth  # smooth exceptional parabola
    return depth if b.is_lex_positive() else count - depth  # two parallel lines


def component_index(point: Section, fiber: FiberInfo) -> int:
    """Which fiber component the section meets, as a residue mod m_v."""
    if point.is_zero or fiber.m_v == 1:
        return 0
    surface, x, y = _germ(point, fiber.location)
    singular_x = _repeated_root(surface.eval_t(ZERO))
    if x.eval(ZERO) != singular_x or not y.eval(ZERO).is_zero():
        return 0
    return _component_walk(surface, singular_x, x, y, fiber.m_v, 1)


def _meeting_walk(surface: BiPoly, xp: Poly, yp: Poly, xq: Poly, yq: Poly, depth: int) -> int:
    """Intersection order at t = 0 of two section germs on y^2 = surface(t, x)."""
    if depth > _WALK_LIMIT:
        raise IntegrityError("section intersection walk failed to terminate")
    a = xp.eval(ZERO)
    b = yp.eval(ZERO)
    if a != xq.eval(ZERO) or b != yq.eval(ZERO):
        return 0
    if not b.is_zero():
        return (xp - xq).ord_at_zero()
    if not surface.derivative_x().eval_point(ZERO, a).is_zero():
        return (yp - yq).ord_at_zero()
    # The fiber is singular at (a, 0).  A section germ there forces the surface
    # to be singular too (at t = 0, 2 y y' = F_t + F_x x' reads 0 = F_t), so
    # pass to strict transforms; _blow_up checks that the centre is singular.
    blown, [(xi_p, eta_p), (xi_q, eta_q)] = _blow_up(surface, a, (xp, yp), (xq, yq))
    return _meeting_walk(blown, xi_p, eta_p, xi_q, eta_q, depth + 1)


def _local_order(left: Section, right: Section, place: FieldElem | _Infinity) -> int:
    """Local P.Q at one place, on the smooth model; 0 against the zero section."""
    if left.is_zero or right.is_zero:
        _germ(right if left.is_zero else left, INFINITY)
        return 0  # the stratum misses the zero section everywhere
    surface, xp, yp = _germ(left, place)
    _, xq, yq = _germ(right, place)
    return _meeting_walk(surface, xp, yp, xq, yq, 0)
