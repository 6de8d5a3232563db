"""Projective plane curves over K: singularities, intersections, contact.

The geometric layer: singular-point detection and node/cusp
classification, Fulton's recursive intersection multiplicity, the
standard quadratic (Cremona) transformation, the weak-contact test with
its shear/subresultant certificate, tangent-line case classification,
and canonical arrangement fingerprints.

Intersection points are handled as square-free factor classes of an
eliminating resultant, never as numerical approximations; evenness of
multiplicities (the weak-contact condition) is a statement about factor
multiplicities.  The weak-contact test and the fingerprints read these
classes from one routine, `_pair_intersection`: it tries a fixed range of
shears x -> x + k*t and keeps the first whose degree-1 subresultant
certifies one point per resultant root.  When none of them does, the
pair is refused with a PreconditionError that says only that; for a
quartic and a smooth conic one always does (see `_MAX_SHEAR`).

Forms restricted to a line are `TriForm`s: the line at infinity is the
part of a form free of Z, and any other line is reached by substituting
a parametrization.  The tangent-line case reads the contact order at the
point from `intersection_multiplicity` and the root multiplicities of
the restricted quartic from its square-free decomposition.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    InfiniteMultiplicityError,
    IntegrityError,
    NotKRationalError,
    PreconditionError,
)
from .field import FieldElem, ONE, ZERO, ElemLike
from .parsing import MAX_DEGREE
from .poly import (
    BiPoly,
    Poly,
    TriForm,
    chain_resultant,
    k_rational_roots,
    kth_subresultant_coeffs,
    poly_gcd,
    poly_gcd_many,
    resultant_t,
    squarefree_decomposition,
    subresultant_chain,
)

# Singularity kinds.
NODE = "node"
CUSP = "cusp"
SMOOTH = "smooth"
OTHER = "other"

# Conic types 1..6 of a two-node one-cusp quartic: how many nodes the conic
# passes through and whether it passes through the cusp.
CONIC_TYPE_TABLE: dict[int, tuple[int, bool]] = {
    1: (0, True),
    2: (1, False),
    3: (1, True),
    4: (2, False),
    5: (2, True),
    6: (0, False),
}

# Tangent-line cases: simple, bitangent-or-4-fold, through-cusp, through-node.
CASE_S = "s"
CASE_B = "b"
CASE_SC = "sc"
CASE_SN = "sn"


class PlanePoint:
    """Projective point with the canonical representative (last nonzero coordinate 1)."""

    __slots__ = ("coords",)

    def __init__(self, t: ElemLike, x: ElemLike, z: ElemLike):
        coords = tuple(FieldElem.coerce(v) for v in (t, x, z))
        if all(c.is_zero() for c in coords):
            raise PreconditionError("[0, 0, 0] is not a projective point")
        for k in (2, 1, 0):
            if not coords[k].is_zero():
                inv = coords[k].inv()
                coords = tuple(c * inv for c in coords)
                break
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("PlanePoint is immutable")

    @property
    def chart(self) -> int:
        """Index of the last nonzero (canonically 1) coordinate."""
        for k in (2, 1, 0):
            if not self.coords[k].is_zero():
                return k
        raise AssertionError

    def __eq__(self, other) -> bool:
        return isinstance(other, PlanePoint) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def sort_key(self):
        return tuple(c.sort_key() for c in self.coords)

    def __str__(self) -> str:
        return "[" + ", ".join(str(c) for c in self.coords) + "]"

    def __repr__(self) -> str:
        return f"PlanePoint({self})"


def _local_coords(point: PlanePoint) -> tuple[int, FieldElem, FieldElem]:
    chart = point.chart
    t0, x0, z0 = point.coords
    if chart == 2:
        return chart, t0, x0
    if chart == 1:
        return chart, t0, z0
    return chart, x0, z0


def _local_at_origin(form: TriForm, point: PlanePoint) -> BiPoly:
    """The curve in an affine chart containing the point, translated to the origin."""
    chart, u0, v0 = _local_coords(point)
    return form.dehomogenize(chart).shift_t(u0).shift_x(v0)


def _graded_parts(g: BiPoly) -> dict[int, dict[tuple[int, int], FieldElem]]:
    parts: dict[int, dict[tuple[int, int], FieldElem]] = {}
    for j, col in enumerate(g.coeffs):
        for i, coeff in enumerate(col.coeffs):
            if not coeff.is_zero():
                parts.setdefault(i + j, {})[(i, j)] = coeff
    return parts


class PlaneCurve:
    """Reduced projective plane curve, defined by a square-free TriForm.

    Curves are equal when their forms are proportional, and hash as the
    canonical scaling their form keeps.  A curve caches its singular
    points; in `_pair_cache` its intersection with each other curve it has
    been paired with, with the class records refined from it and their
    fingerprint block (see `_pair_classes`); and in `_probe_cache`, keyed
    by the shear, its sheared chart as a class probe (see `_sheared_probe`).
    """

    __slots__ = ("form", "_singular_cache", "_pair_cache", "_probe_cache")

    def __init__(self, form: TriForm):
        if form.is_zero() or form.degree < 1:
            raise PreconditionError("a plane curve needs a nonzero form of positive degree")
        if not _form_is_squarefree(form):
            raise PreconditionError("curve form is not square-free (non-reduced curve)")
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "_singular_cache", None)
        object.__setattr__(self, "_pair_cache", {})
        object.__setattr__(self, "_probe_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("PlaneCurve is immutable")

    @property
    def degree(self) -> int:
        return self.form.degree

    def contains(self, point: PlanePoint) -> bool:
        return self.form.eval(point.coords).is_zero()

    def __eq__(self, other) -> bool:
        return isinstance(other, PlaneCurve) and self.form.is_proportional(other.form)

    def __hash__(self) -> int:
        return hash(self.form.canonical_scaled())

    def multiplicity_at(self, point: PlanePoint) -> int:
        local = _local_at_origin(self.form, point)
        parts = _graded_parts(local)
        return min(parts) if parts else 0

    def tangent_line(self, point: PlanePoint) -> "PlaneCurve":
        """Tangent line at a smooth point, from the gradient."""
        if not self.contains(point):
            raise PreconditionError(f"{point} is not on the curve")
        grads = [self.form.partial(k).eval(point.coords) for k in range(3)]
        if all(g.is_zero() for g in grads):
            raise PreconditionError(f"{point} is a singular point; no unique tangent line")
        return PlaneCurve(_combine_forms([grads], _TXZ)[0])

    def singular_points(self) -> list[tuple[PlanePoint, str]]:
        """All singular points with classification; they must all be K-rational."""
        if self._singular_cache is None:
            records = _singular_points(self.form)
            object.__setattr__(self, "_singular_cache", tuple(records))
        return list(self._singular_cache)

    def __str__(self) -> str:
        return str(self.form)

    def __repr__(self) -> str:
        return f"PlaneCurve({self.form})"


def _form_is_squarefree(form: TriForm) -> bool:
    mins = form.min_exponents()
    if max(mins) >= 2:
        return False
    core = form.divide_monomial(mins)
    if core.degree == 0:
        return True
    g = core.dehomogenize()
    if g.degree_x <= 0:
        # pure polynomial in t: square-free iff its t-part is
        return all(m == 1 for _f, m in squarefree_decomposition(g.coeff_x(0)))
    content = g.content_t()
    if content.degree >= 1 and any(m > 1 for _f, m in squarefree_decomposition(content)):
        return False
    primitive = BiPoly(tuple(c.exact_div(content) for c in g.coeffs))
    # the discriminant is nonzero iff the chain ends in an x-constant
    return subresultant_chain(primitive, primitive.derivative_x())[-1].degree_x == 0


def _line_coefficients(line: PlaneCurve) -> tuple[FieldElem, FieldElem, FieldElem]:
    if line.degree != 1:
        raise PreconditionError("expected a line (degree-1 curve)")
    f = line.form
    return f.coeff((1, 0, 0)), f.coeff((0, 1, 0)), f.coeff((0, 0, 1))


# ---------------------------------------------------------------------------
# Fulton's intersection multiplicity


def _fulton(f: BiPoly, g: BiPoly, limit: int) -> int:
    """Intersection multiplicity of f and g at the origin (Fulton's algorithm).

    Each step keeps the multiplicity and shortens a restriction to x = 0,
    and each division by x adds at least 1.  Curves with no common component
    meet at most `limit` times (their Bezout number), so a count beyond it
    means a common component through the origin.
    """
    total = 0
    while True:
        if not f.eval_point(0, 0).is_zero() or not g.eval_point(0, 0).is_zero():
            return total
        a = f.eval_x(0)  # restriction to the line x = 0
        b = g.eval_x(0)
        if a.is_zero() and b.is_zero():
            raise InfiniteMultiplicityError("both curves contain the line x = 0 through the point")
        if b.is_zero() or (not a.is_zero() and a.degree > b.degree):
            f, g, a, b = g, f, b, a
        if a.is_zero():
            # f = x * h; I(x, g) is the t-order of g on the line x = 0
            total += b.ord_at(ZERO)
            if total > limit:
                raise InfiniteMultiplicityError("curves share a common component through the point")
            f = f.divide_x_power(1)
            continue
        # reduce the restriction degree of g using f
        factor = b.lc / a.lc
        shift = b.degree - a.degree
        g = g - BiPoly(tuple(c.shift_up(shift).scale(factor) for c in f.coeffs))
        if g.is_zero():
            raise InfiniteMultiplicityError("curves share a common component through the point")


def intersection_multiplicity(f: PlaneCurve, g: PlaneCurve, point: PlanePoint) -> int:
    """Fulton multiplicity of two curves at a point (0 if the point misses one)."""
    return _fulton(
        _local_at_origin(f.form, point), _local_at_origin(g.form, point), f.degree * g.degree
    )


# ---------------------------------------------------------------------------
# Singular points


def _singular_points(form: TriForm) -> list[tuple[PlanePoint, str]]:
    # The points at infinity come first: their check refuses a curve that
    # contains Z = 0, and the affine elimination needs directions off it.
    points = _infinity_singular_points(form) + _affine_singular_points(form)
    records = [(point, _classify_singular_point(form, point)) for point in points]
    records.sort(key=lambda item: item[0].sort_key())
    return records


def _polar_directions(form: TriForm) -> list[tuple[int, int]]:
    """The first two points [u_t : u_x : 0] off the curve among [0 : 1 : 0],
    [1 : 0 : 0], [1 : 1 : 0], [1 : -1 : 0], [1 : 2 : 0], ...

    F(T, X, 0) is a nonzero binary form of degree d, so at most d of the
    first d + 2 candidates lie on the curve.
    """
    candidates = [(0, 1), (1, 0)]
    for k in range(1, (form.degree + 1) // 2 + 1):
        candidates += [(1, k), (1, -k)]
    return [u for u in candidates if form.eval((u[0], u[1], 0))][:2]


def _affine_singular_points(form: TriForm) -> list[PlanePoint]:
    """Affine singular points by one Jacobian elimination; those at infinity
    are the zeros of the gradient there (`_infinity_singular_points`).

    With u, v two points at infinity off the curve, the affine singular
    points are the common zeros of f and its polars D_u f = u_t*f_t +
    u_x*f_x and D_v f.  A curve shares no component with its polar from a
    point off it, line components included, so both resultants in x are
    nonzero.  The t-coordinates are the K-roots of their gcd, and over each
    the x-coordinates are the K-roots of the gcd of the three slices; a
    non-K factor of the gcd goes to `_residual_is_singular`.  So lines
    through one K-point at infinity, such as T^2 - 3*Z^2 or X^2 - 3*Z^2,
    are answered (a node at infinity), not refused.
    """
    f = form.dehomogenize()
    f_t, f_x = form.partial(0), form.partial(1)
    polars = [
        (f_t.scale(u_t) + f_x.scale(u_x)).dehomogenize() for u_t, u_x in _polar_directions(form)
    ]
    chain_u = subresultant_chain(f, polars[0])
    r_u = chain_resultant(chain_u)
    r_v = chain_resultant(subresultant_chain(f, polars[1]))
    if r_u.is_zero() or r_v.is_zero():
        raise IntegrityError("a curve shares a component with its polar from a point off it")
    t_roots, residual = k_rational_roots(poly_gcd(r_u, r_v))
    points: list[PlanePoint] = []
    for t0, _m in t_roots:
        g = poly_gcd_many([p.eval_t(t0) for p in (f, *polars)])
        if g.degree < 1:
            continue
        x_roots, x_residual = k_rational_roots(g)
        if x_residual.degree >= 1:
            raise NotKRationalError("singular point with non-K x-coordinate detected")
        points.extend(PlanePoint(t0, x0, ONE) for x0, _mx in x_roots)
    if residual.degree >= 1 and _residual_is_singular(f, polars[1], chain_u, residual):
        raise NotKRationalError(
            f"possible singular point over the residual factor {residual}"
        )
    return points


def _residual_is_singular(
    f: BiPoly, polar_v: BiPoly, chain_u: list[BiPoly], residual: Poly
) -> bool:
    """Whether some root of the residual t-factor can support a singular point.

    For each square-free residual piece rho, the unique common x of f and
    its polar D_u f over roots of rho is read off the degree-1 subresultant
    of their chain `chain_u`; the point is singular iff the other polar D_v f
    also vanishes there.  Degenerate chains are reported as possibly-singular
    (conservative).
    """
    s1 = kth_subresultant_coeffs(chain_u, 1)
    if s1 is None:
        return True
    s11 = s1.coeff_x(1)
    s10 = s1.coeff_x(0)
    for rho, _m in squarefree_decomposition(residual):
        if (f.lc_x % rho).is_zero():
            return True
        if poly_gcd(rho, s11).degree >= 1:
            return True
        reduced = _t_on_class(polar_v, s10, s11, rho)
        if reduced.is_zero() or poly_gcd(rho, reduced).degree >= 1:
            return True
    return False


def _refuse_line_at_infinity(form: TriForm) -> None:
    if form.binary_form().is_zero():
        raise PreconditionError("curve contains the line at infinity in this frame")


def _infinity_singular_points(form: TriForm) -> list[PlanePoint]:
    _refuse_line_at_infinity(form)
    # Setting Z = 0 commutes with d/dT and d/dX and turns dF/dZ into the
    # coefficient of Z, so the gradient at Z = 0 is read from three partials.
    # By Euler, d*F(T, X, 0) = T*F_T + X*F_X at Z = 0, so one is nonzero.
    common_points, residual_degree = _binary_common_roots([form.partial(k) for k in range(3)])
    if residual_degree > 0:
        raise NotKRationalError("possible non-K singular point on the line at infinity")
    out = []
    for t0, x0 in common_points:
        point = PlanePoint(t0, x0, ZERO)
        if form.eval(point.coords).is_zero():
            out.append(point)
    return out


def _binary_common_roots(
    forms: Sequence[TriForm],
) -> tuple[list[tuple[FieldElem, FieldElem]], int]:
    """Common roots [t : x] on the line Z = 0 of forms whose binary forms
    F(T, X, 0) are not all zero; K-rational ones plus residual degree."""
    binaries = [(form.binary_form(), form.degree) for form in forms]
    g = poly_gcd_many([binary for binary, _d in binaries])
    points: list[tuple[FieldElem, FieldElem]] = []
    residual_degree = 0
    if g.degree >= 1:
        roots, residual = k_rational_roots(g)
        points.extend((r, ONE) for r, _m in roots)
        residual_degree = residual.degree
    # [1 : 0] is a common root iff no binary form has a T^degree term
    if all(binary.degree < d for binary, d in binaries):
        points.append((ONE, ZERO))
    return points, residual_degree


def _classify_singular_point(form: TriForm, point: PlanePoint) -> str:
    local = _local_at_origin(form, point)
    parts = _graded_parts(local)
    m = min(parts)
    if m != 2:
        return OTHER if m > 2 else SMOOTH
    quad = parts[2]
    a = quad.get((2, 0), ZERO)
    b = quad.get((1, 1), ZERO)
    c = quad.get((0, 2), ZERO)
    disc = b * b - a * c * 4
    if not disc.is_zero():
        return NODE
    # double tangent direction; line alpha*u + beta*v with the cone = const*(line)^2
    if not a.is_zero():
        alpha, beta = ONE, b / (a * 2)
    else:
        alpha, beta = ZERO, ONE
    direction = (beta, -alpha)
    cubic = parts.get(3, {})
    du, dv = direction
    value = ZERO
    for (i, j), coeff in cubic.items():
        value = value + coeff * du**i * dv**j
    return CUSP if not value.is_zero() else OTHER


# ---------------------------------------------------------------------------
# Linear maps of the plane and the standard quadratic transformation

# The coordinate forms T, X and Z.
_TXZ = (
    TriForm(1, {(1, 0, 0): ONE}),
    TriForm(1, {(0, 1, 0): ONE}),
    TriForm(1, {(0, 0, 1): ONE}),
)


def _combine_forms(
    matrix: Sequence[Sequence[FieldElem]], forms: Sequence[TriForm]
) -> tuple[TriForm, ...]:
    """The forms sum_j M[i][j]*F_j, one per row i of the matrix."""
    zero = TriForm(forms[0].degree, {})
    return tuple(sum((f.scale(c) for c, f in zip(row, forms)), zero) for row in matrix)


def _apply(matrix: Sequence[Sequence[FieldElem]], point: PlanePoint) -> PlanePoint:
    """The point M*p."""
    return PlanePoint(*(sum((m * c for m, c in zip(row, point.coords)), ZERO) for row in matrix))


def _matrix_inverse_3x3(n: Sequence[Sequence[FieldElem]]) -> list[list[FieldElem]]:
    det = (
        n[0][0] * (n[1][1] * n[2][2] - n[1][2] * n[2][1])
        - n[0][1] * (n[1][0] * n[2][2] - n[1][2] * n[2][0])
        + n[0][2] * (n[1][0] * n[2][1] - n[1][1] * n[2][0])
    )
    if det.is_zero():
        raise PreconditionError("the three lines are concurrent")
    inv_det = det.inv()
    cof = [
        [
            (n[(i + 1) % 3][(j + 1) % 3] * n[(i + 2) % 3][(j + 2) % 3]
             - n[(i + 1) % 3][(j + 2) % 3] * n[(i + 2) % 3][(j + 1) % 3])
            for j in range(3)
        ]
        for i in range(3)
    ]
    # adjugate = transpose of cofactors
    return [[cof[j][i] * inv_det for j in range(3)] for i in range(3)]


_SIGMA = (
    TriForm(2, {(0, 1, 1): ONE}),  # X*Z
    TriForm(2, {(1, 0, 1): ONE}),  # T*Z
    TriForm(2, {(1, 1, 0): ONE}),  # T*X
)


def cremona_transform(
    curve: PlaneCurve, triangle: tuple[PlaneCurve, PlaneCurve, PlaneCurve]
) -> PlaneCurve:
    """Standard quadratic transformation with the given triangle of fundamental lines.

    The result is expressed in the frame where the triangle is the
    coordinate triangle {T=0, X=0, Z=0}; monomial (fundamental-line)
    factors are divided out to their maximal exponent.  An image of degree
    0, left by a curve made of fundamental lines, is refused, and so is one
    above the input budget `MAX_DEGREE`, before its square-free test, which
    grows steeply with the degree.
    """
    n = [list(_line_coefficients(line)) for line in triangle]
    images = _combine_forms(_matrix_inverse_3x3(n), _SIGMA)
    # the map is dominant, so no nonzero form vanishes under it
    raw = curve.form.substitute(images)
    image = raw.divide_monomial(raw.min_exponents())
    if image.degree == 0:
        raise PreconditionError(
            "the image has degree 0: the curve is made of fundamental lines of the "
            "triangle, which the quadratic transformation contracts to points"
        )
    if image.degree > MAX_DEGREE:
        raise PreconditionError(
            f"the image has degree {image.degree}, which exceeds the input budget of {MAX_DEGREE}"
        )
    return PlaneCurve(image)


def cremona_point(
    triangle: tuple[PlaneCurve, PlaneCurve, PlaneCurve], point: PlanePoint
) -> PlanePoint:
    """Image of a point off the triangle vertices under the quadratic map."""
    n = [list(_line_coefficients(line)) for line in triangle]
    _matrix_inverse_3x3(n)  # validates non-concurrency
    q = _apply(n, point).coords
    image = (q[1] * q[2], q[0] * q[2], q[0] * q[1])
    if all(c.is_zero() for c in image):
        raise PreconditionError("the quadratic map is undefined at a triangle vertex")
    return PlanePoint(image[0], image[1], image[2])


# ---------------------------------------------------------------------------
# Weak contact


class ContactClass(NamedTuple):
    """One intersection-point class: a square-free factor of the shear resultant."""

    factor: str
    degree: int
    multiplicity: int


class InfinityContact(NamedTuple):
    point: PlanePoint
    multiplicity: int


class ContactCertificate(NamedTuple):
    is_weak: bool
    shear: int  # the shear x -> x + shear*t whose subresultant certified the classes
    classes: tuple[ContactClass, ...]
    infinity: tuple[InfinityContact, ...]
    bezout_total: int

    def __bool__(self) -> bool:
        return self.is_weak


# Shears x -> x + k*t are tried for k = 0, 1, -1, ..., _MAX_SHEAR, -_MAX_SHEAR:
# 43 shears.  For a quartic and a smooth conic at most 42 can fail, so one
# always certifies (a curve that contains the line Z = 0 is refused before).
# - A shear is admissible when [1 : k : 0] lies on neither curve, which makes
#   both t-leading coefficients nonzero constants.  The quartic and the conic
#   each meet Z = 0 in at most 4 and 2 points: at most 6 values of k.
# - With the conic of t-degree <= 2, the degree-1 chain element is the first
#   pseudo-remainder, equal to +-S_1 (Brown-Traub).  So s11 vanishes at a
#   resultant root exactly when two common points line up in the direction
#   [1 : k : 0], or a line in that direction meets both curves with
#   multiplicity >= 2 at a common point.
# - The at most 8 affine common points line up in at most C(8, 2) = 28
#   directions.  A line meets the smooth conic twice at a point only along its
#   tangent: at most 8 more directions.
# So at most 6 + 28 + 8 = 42 values of k fail.
_MAX_SHEAR = 21


def _shear_values() -> Iterable[int]:
    yield 0
    for k in range(1, _MAX_SHEAR + 1):
        yield k
        yield -k


def _t_on_class(p: BiPoly, s10: Poly, s11: Poly, modulus: Poly) -> Poly:
    """Evaluate the main variable at -s10/s11 modulo the class factor.

    The input's coefficients are polynomials in the variable of s10, s11
    and the modulus.  Returns the numerator sum_k c_k (-s10)^k s11^(d-k)
    reduced mod the factor.  It is computed by homogeneous Horner from the
    top coefficient, reducing after every step, so the full powers of s10
    and s11 are never formed.
    """
    d = p.degree_x
    neg_s10 = (-s10) % modulus
    s11 = s11 % modulus
    acc = p.coeff_x(d) % modulus
    power = Poly.constant(ONE)  # s11^(d - k) mod the factor
    for k in range(d - 1, -1, -1):
        power = (power * s11) % modulus
        acc = (acc * neg_s10 + p.coeff_x(k) * power) % modulus
    return acc


class _PairIntersection(NamedTuple):
    """Where two curves meet, from one certified shear.

    The affine points are the roots of the resultant of the sheared charts,
    grouped by the square-free `factors` with their multiplicities.  Over
    each root the degree-1 subresultant s11*t + s10 vanishes at exactly one
    point, t = -s10/s11 (s10 = s11 = 0 when there are no affine points).
    """

    infinity: tuple[InfinityContact, ...]
    shear: int
    factors: tuple[tuple[Poly, int], ...]
    s10: Poly
    s11: Poly


def _pair_intersection(a: PlaneCurve, b: PlaneCurve) -> _PairIntersection:
    """Common points at infinity, and the affine ones under the first certifying shear.

    A pair in which a curve contains the line Z = 0 is refused first: every
    shear would be skipped for it.
    """
    _refuse_line_at_infinity(a.form)
    _refuse_line_at_infinity(b.form)
    points, residual_degree = _binary_common_roots((a.form, b.form))
    if residual_degree > 0:
        raise NotKRationalError(
            "the curves meet the line at infinity at a non-K-rational point"
        )
    contacts = []
    for t0, x0 in points:
        point = PlanePoint(t0, x0, ZERO)
        contacts.append(InfinityContact(point, intersection_multiplicity(a, b, point)))
    infinity = tuple(sorted(contacts, key=lambda r: r.point.sort_key()))
    inf_total = sum(r.multiplicity for r in infinity)
    bezout = a.degree * b.degree
    f = a.form.dehomogenize()
    g = b.form.dehomogenize()
    for k in _shear_values():
        if a.form.eval((ONE, k, ZERO)).is_zero() or b.form.eval((ONE, k, ZERO)).is_zero():
            continue
        ft = f.shear_x(k)
        gt = g.shear_x(k)
        # The resultant is never zero: a common component meets Z = 0, and
        # the pass at infinity above has refused such a pair already.
        resultant, chain = resultant_t(ft, gt)
        if resultant.degree + inf_total != bezout:
            raise IntegrityError(
                f"intersection count audit failed: {resultant.degree} affine + "
                f"{inf_total} at infinity != {bezout}"
            )
        if resultant.degree == 0:
            return _PairIntersection(infinity, k, (), Poly.zero(), Poly.zero())
        factors = tuple(squarefree_decomposition(resultant))
        s1 = kth_subresultant_coeffs(chain, 1)
        if s1 is None:
            continue
        s11 = s1.coeff_x(1)
        if s11.is_zero() or any(poly_gcd(factor, s11).degree >= 1 for factor, _m in factors):
            continue
        return _PairIntersection(infinity, k, factors, s1.coeff_x(0), s11)
    raise PreconditionError(
        f"no shear x -> x + k*t with |k| <= {_MAX_SHEAR} certifies one common point "
        "over each root of the resultant"
    )


def is_weak_contact(q: PlaneCurve, c: PlaneCurve) -> ContactCertificate:
    """Decide whether every intersection point of q and c has even multiplicity.

    Affine points are grouped into square-free factor classes of the
    resultant eliminating t after a shear x -> x + k*t; the first shear
    whose subresultant certificate guarantees one intersection point per
    resultant root is used, and one always exists (see `_MAX_SHEAR`); a
    curve that contains the line Z = 0 is refused.  Points on the line
    Z = 0 are handled separately through Fulton's algorithm.
    """
    if q.degree != 4:
        raise PreconditionError("weak contact is defined against a quartic")
    if c.degree != 2:
        raise PreconditionError("the contact curve must be a conic")
    if c.singular_points():
        raise PreconditionError("the conic must be smooth")
    pair = _pair_intersection(q, c)
    is_weak = all(mult % 2 == 0 for _f, mult in pair.factors) and all(
        r.multiplicity % 2 == 0 for r in pair.infinity
    )
    return ContactCertificate(
        is_weak=is_weak,
        shear=pair.shear,
        classes=tuple(
            ContactClass(factor.to_str("x"), factor.degree, mult)
            for factor, mult in pair.factors
        ),
        infinity=pair.infinity,
        bezout_total=q.degree * c.degree,
    )


def contact_conic_type(q: PlaneCurve, c: PlaneCurve) -> int:
    """Type 1..6 from which singular points of the quartic lie on the conic."""
    records = q.singular_points()
    nodes = [p for p, kind in records if kind == NODE]
    cusps = [p for p, kind in records if kind == CUSP]
    if len(nodes) != 2 or len(cusps) != 1:
        raise PreconditionError("conic types require a two-node one-cusp quartic")
    pattern = (sum(1 for p in nodes if c.contains(p)), c.contains(cusps[0]))
    return next(t for t, needed in CONIC_TYPE_TABLE.items() if needed == pattern)


# ---------------------------------------------------------------------------
# Tangent-line case classification


def classify_tangent_case(q: PlaneCurve, z: PlanePoint) -> str:
    """Position case of the tangent line at a smooth point: s, b, sc or sn."""
    line = q.tangent_line(z)
    records = q.singular_points()
    for p, kind in records:
        if line.contains(p):
            if kind == CUSP:
                return CASE_SC
            if kind == NODE:
                return CASE_SN
    # The contact order along the line at a point is I(q, line; point).
    if intersection_multiplicity(q, line, z) < 2:
        raise IntegrityError("tangent line has contact order below 2")
    # The line is a bitangent or a 4-fold tangent exactly when q restricted
    # to it is a square: every root, [1 : 0] included, has even multiplicity.
    pullback = q.form.substitute(_line_images(line)).binary_form()
    multiplicities = [m for _f, m in squarefree_decomposition(pullback)]
    multiplicities.append(q.degree - pullback.degree)
    return CASE_B if all(m % 2 == 0 for m in multiplicities) else CASE_S


def _line_images(line: PlaneCurve) -> tuple[TriForm, TriForm, TriForm]:
    """Forms sending [T : X] to T*p + X*q for two points p, q spanning the line."""
    a, b, c = _line_coefficients(line)
    if not c.is_zero():
        inv = c.inv()
        p, q = (ONE, ZERO, -a * inv), (ZERO, ONE, -b * inv)
    elif not b.is_zero():
        inv = b.inv()
        p, q = (ONE, -a * inv, ZERO), (ZERO, ZERO, ONE)
    else:
        p, q = (ZERO, ONE, ZERO), (ZERO, ZERO, ONE)
    return _combine_forms([(p[k], q[k], ZERO) for k in range(3)], _TXZ)


# ---------------------------------------------------------------------------
# Arrangement fingerprints


class _ClassRecord(NamedTuple):
    degree: int  # number of points in the class (Galois-orbit size)
    multiplicity: int
    quartic_kind: str
    incidence: tuple[int, ...]

    def render(self) -> str:
        """One line per point; orbit structure is not a topological invariant."""
        inc = ",".join(str(d) for d in self.incidence)
        return (
            f"point mult={self.multiplicity} "
            f"quartic={self.quartic_kind} incidence=[{inc}]"
        )


def arrangement_fingerprint(components: Sequence[PlaneCurve]) -> str:
    """Canonical intersection-combinatorics record of a curve arrangement.

    For every unordered pair of components, every intersection point
    class is recorded as (factor degree, intersection multiplicity,
    singularity kind of the quartic component there, degrees of the
    other components through the class), all sorted into a canonical
    byte-comparable text.  This captures necessary conditions for two
    arrangements to share a combinatorial type, not a proof of it.
    Components must be distinct; only those of equal degree are compared,
    through their forms' cached canonical scalings.  Each pair's block of
    text is memoized (see `_pair_entry`).
    """
    comps = list(components)
    if any(p.degree == q.degree and p == q for p, q in combinations(comps, 2)):
        raise PreconditionError("arrangement components must be distinct")
    quartics = [c for c in comps if c.degree == 4]
    quartic = quartics[0] if len(quartics) == 1 else None
    blocks = []
    for a, b in combinations(range(len(comps)), 2):
        others = [c for k, c in enumerate(comps) if k not in (a, b)]
        blocks.append(_pair_entry(comps[a], comps[b], others, quartic))
    return "\n".join(sorted(blocks))


def _pair_entry(
    a: PlaneCurve,
    b: PlaneCurve,
    others: Sequence[PlaneCurve],
    quartic: PlaneCurve | None,
) -> str:
    """The pair's sorted `pair (d1,d2): ...` block of the fingerprint,
    memoized in its `_pair_cache` entry.

    The memo keeps the block under the exact forms of the other components,
    since the refinement depends on nothing else, and the split of the
    pair's classes at the quartic's singular points under the quartic's form
    alone (None without a quartic).  Both kinds of entry belong to the pair,
    so they share its one memo: a split's key is a form or None and a
    block's key is a tuple, so they never collide."""
    pair, memo = _pair_classes(a, b)
    # The quartic is the one degree-4 curve among the pair and the others,
    # so with the pair fixed, the others' forms fix it too.
    key = tuple(d.form for d in others)
    if key in memo:
        return memo[key]
    quartic_form = None if quartic is None else quartic.form
    if quartic_form not in memo:
        memo[quartic_form] = _split_at_singular_points(pair, quartic)
    records: list[_ClassRecord] = []
    for contact in pair.infinity:
        incidence = tuple(sorted(d.degree for d in others if d.contains(contact.point)))
        kind = _quartic_kind_at_point(quartic, contact.point)
        records.append(_ClassRecord(1, contact.multiplicity, kind, incidence))
    records.extend(_refine_classes(pair, memo[quartic_form], others, quartic, a, b))
    lines = sorted(line for r in records for line in [r.render()] * r.degree)
    low, high = sorted((a.degree, b.degree))
    body = "".join(f"\n  {line}" for line in lines) if lines else " none"
    memo[key] = f"pair ({low},{high}):{body}"
    return memo[key]


def _pair_classes(a: PlaneCurve, b: PlaneCurve) -> tuple[_PairIntersection, dict]:
    """The pair's intersection and the memo of its blocks and splits (see
    `_pair_entry`).

    The result is memoized on `a`, keyed by b's form under exact equality: a
    rescaled form is a different key, because s10 and s11 depend on the
    scaling.  A pair that raises is not memoized and raises again.
    """
    cached = a._pair_cache.get(b.form)
    if cached is None:
        cached = (_pair_intersection(a, b), {})
        a._pair_cache[b.form] = cached
    return cached


def _quartic_kind_at_point(quartic: PlaneCurve | None, point: PlanePoint) -> str:
    if quartic is None or not quartic.contains(point):
        return "off"
    return next((kind for p, kind in quartic.singular_points() if p == point), SMOOTH)


def _split_at_singular_points(
    pair: _PairIntersection, quartic: PlaneCurve | None
) -> tuple[tuple[Poly, int, str], ...]:
    """The pair's affine classes with each affine singular point of the
    quartic on them split off as a class of its own, each with the quartic's
    kind at its points if they lie on it.

    singular_points raises unless every singular point is K-rational, so
    once they are split off, the other points on the quartic are smooth.
    """
    shear, s10, s11 = pair.shear, pair.s10, pair.s11
    pieces = [(factor, mult, SMOOTH) for factor, mult in pair.factors]
    singular = quartic.singular_points() if quartic is not None else []
    for point, kind in singular:
        t0, x0, z0 = point.coords
        if z0.is_zero():
            continue
        root = x0 - FieldElem.coerce(shear) * t0
        for k, (factor, mult, _kind) in enumerate(pieces):
            if not factor.eval(root).is_zero():
                continue
            # over this root the pair meets at one point, t = -s10/s11
            den = s11.eval(root)
            if den.is_zero():
                raise IntegrityError("certified class lost its unique t-coordinate")
            if -s10.eval(root) / den == t0:
                linear = Poly((-root, ONE))
                pieces[k] = (linear, mult, kind)
                if factor.degree >= 2:
                    pieces.append((factor.exact_div(linear), mult, SMOOTH))
            break
    return tuple(pieces)


def _refine_classes(
    pair: _PairIntersection,
    pieces: Sequence[tuple[Poly, int, str]],
    others: Sequence[PlaneCurve],
    quartic: PlaneCurve | None,
    a: PlaneCurve,
    b: PlaneCurve,
) -> list[_ClassRecord]:
    """Split the pieces of the pair's affine classes (see
    `_split_at_singular_points`) so that each lies on or off every other
    component.
    """
    shear, s10, s11 = pair.shear, pair.s10, pair.s11
    if not pieces:
        return []
    probes = [(comp.degree, _sheared_probe(comp, shear)) for comp in others]

    # One pass per probe: split every piece into the part on the probe's
    # component and the cofactor, so afterwards each piece lies wholly on or
    # wholly off every probe seen so far.
    refined = [(f, m, kind, ()) for f, m, kind in pieces]
    for deg, probe in probes:
        next_pieces: list[tuple[Poly, int, str, tuple[int, ...]]] = []
        for factor, mult, kind, incidence in refined:
            value = _t_on_class(probe, s10, s11, factor)
            on = factor if value.is_zero() else poly_gcd(factor, value)
            if on.degree >= 1:
                next_pieces.append((on, mult, kind, incidence + (deg,)))
            if on.degree < factor.degree:
                next_pieces.append((factor.exact_div(on), mult, kind, incidence))
        refined = next_pieces

    # a quartic off the pair is the only degree-4 component among the probes
    quartic_in_pair = quartic is not None and (quartic == a or quartic == b)
    records: list[_ClassRecord] = []
    for factor, mult, kind, incidence in refined:
        if quartic is None or not (quartic_in_pair or 4 in incidence):
            kind = "off"
        records.append(_ClassRecord(factor.degree, mult, kind, tuple(sorted(incidence))))
    return records


def _sheared_probe(curve: PlaneCurve, shear: int) -> BiPoly:
    """The curve's chart under x -> x + shear*t, with t as the main variable,
    memoized on the curve by the shear."""
    probe = curve._probe_cache.get(shear)
    if probe is None:
        probe = curve.form.dehomogenize().shear_x(shear).swap_vars()
        curve._probe_cache[shear] = probe
    return probe
