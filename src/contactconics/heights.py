"""Height pairing on sections: chi = 1, intersection numbers, fiber corrections.

The pairing is <P, Q> = chi + P.O + Q.O - P.Q - sum_v contr_v(P, Q), with the
diagonal case <P, P> = 2 chi + 2 P.O - sum_v contr_v(P).  Section-section
intersections are taken on the smooth model: at a singular Weierstrass point
the walk follows strict transforms until the sections separate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import IntegrityError, PreconditionError, UnsupportedSectionError
from .field import ZERO
from .poly import BiPoly, Poly, k_rational_roots, poly_gcd, squarefree_decomposition
from .surface import (
    FiberCollection,
    Section,
    WeierstrassModel,
    _X_DEGREE_LIMIT,
    _Y_DEGREE_LIMIT,
    _blow_up,
    classify_fibers,
    component_index,
)

_WALK_LIMIT = 64


def component_contribution(count: int, i: int, j: int) -> Fraction:
    """Correction term for components i and j of a fiber with `count` components."""
    low, high = min(i, j), max(i, j)
    if low < 0 or high >= count:
        raise PreconditionError(
            f"component indices ({i}, {j}) out of range for a {count}-component fiber"
        )
    if low == 0:
        return Fraction(0)
    return Fraction(low * (count - high), count)


@dataclass(frozen=True, slots=True)
class HeightContext:
    """Model data shared by every height computation."""

    model: WeierstrassModel
    fibers: FiberCollection
    chi: int = 1

    @classmethod
    def for_model(cls, model: WeierstrassModel) -> "HeightContext":
        return cls(model, classify_fibers(model))


def _stratum_pair(point: Section) -> tuple[Poly, Poly]:
    if not (point.x.is_polynomial() and point.y.is_polynomial()):
        raise UnsupportedSectionError("intersection numbers need polynomial sections")
    x, y = point.x.as_poly(), point.y.as_poly()
    if x.degree > _X_DEGREE_LIMIT or y.degree > _Y_DEGREE_LIMIT:
        raise UnsupportedSectionError(
            "section leaves the stratum (deg x <= 2, deg y <= 3) with P.O = 0"
        )
    return x, y


def _local_order(surface: BiPoly, xp: Poly, yp: Poly, xq: Poly, yq: Poly, depth: int) -> int:
    """Intersection order of two section germs meeting at the origin of the base."""
    if depth > _WALK_LIMIT:
        raise IntegrityError("section intersection walk failed to terminate")
    a = xp.eval(ZERO)
    b = yp.eval(ZERO)
    if not b.is_zero():
        return (xp - xq).ord_at_zero()
    gradient_x = surface.derivative_x().eval_point(ZERO, a)
    if not gradient_x.is_zero():
        return (yp - yq).ord_at_zero()
    if not surface.derivative_t().eval_point(ZERO, a).is_zero():
        raise UnsupportedSectionError(
            "sections meet at the singular point of an irreducible fiber"
        )
    # Singular surface point: pass to strict transforms.
    blown, [(xi_p, eta_p), (xi_q, eta_q)] = _blow_up(surface, a, (xp, yp), (xq, yq))
    if xi_p.eval(ZERO) != xi_q.eval(ZERO) or eta_p.eval(ZERO) != eta_q.eval(ZERO):
        return 0
    return _local_order(blown, xi_p, eta_p, xi_q, eta_q, depth + 1)


def _stripped_order_sum(target: Poly, factor: Poly) -> int:
    """Sum of root orders of target over all roots of the square-free factor."""
    if target.is_zero():
        raise IntegrityError("sections agree to infinite order at a meeting place")
    total = 0
    current = target
    while True:
        common = poly_gcd(current, factor)
        if common.degree < 1:
            return total
        total += common.degree
        current = current.exact_div(common)


def section_intersection(left: Section, right: Section) -> int:
    """P.Q over all places, on the smooth model."""
    if left == right:
        raise PreconditionError("self-intersection is handled through chi, not P.Q")
    if left.is_zero or right.is_zero:
        _stratum_pair(right if left.is_zero else left)
        return 0  # the stratum misses the zero section everywhere
    if left.model != right.model:
        raise PreconditionError("sections live on different models")
    xp, yp = _stratum_pair(left)
    xq, yq = _stratum_pair(right)
    model = left.model
    cubic = model.cubic()

    x_diff = xp - xq
    y_diff = yp - yq
    locus = y_diff.monic() if x_diff.is_zero() else poly_gcd(x_diff, y_diff)
    total = 0
    if locus.degree >= 1:
        roots, residual = k_rational_roots(locus)
        for location, _ in roots:
            total += _local_order(
                cubic.shift_t(location),
                xp.shift_argument(location),
                yp.shift_argument(location),
                xq.shift_argument(location),
                yq.shift_argument(location),
                0,
            )
        if residual.degree >= 1:
            total += _residual_orders(model, residual, yp, x_diff, y_diff)

    # The chart at infinity.
    mirror = model.at_infinity()
    mx_p, my_p = xp.reverse(2), yp.reverse(3)
    mx_q, my_q = xq.reverse(2), yq.reverse(3)
    if mx_p.eval(ZERO) == mx_q.eval(ZERO) and my_p.eval(ZERO) == my_q.eval(ZERO):
        total += _local_order(mirror.cubic(), mx_p, my_p, mx_q, my_q, 0)
    return total


def _residual_orders(
    model: WeierstrassModel,
    residual: Poly,
    y_left: Poly,
    x_diff: Poly,
    y_diff: Poly,
) -> int:
    """Meeting orders over non-K-rational places; only smooth fibers are supported."""
    delta = model.discriminant()
    total = 0
    for part, _ in squarefree_decomposition(residual):
        if poly_gcd(part, delta).degree >= 1:
            raise UnsupportedSectionError(
                "sections meet over a non-K-rational place with a singular fiber"
            )
        vanishing = poly_gcd(part, y_left) if not y_left.is_zero() else part
        if vanishing.degree >= 1:
            total += _stripped_order_sum(y_diff, vanishing)
        separated = part.exact_div(vanishing) if vanishing.degree >= 1 else part
        if separated.degree >= 1:
            total += _stripped_order_sum(x_diff, separated)
    return total


def height(left: Section, right: Section, ctx: HeightContext) -> Fraction:
    """The pairing <P, Q> as an exact rational."""
    if left.is_zero or right.is_zero:
        return Fraction(0)
    chi = Fraction(ctx.chi)
    if left == right:
        value = 2 * chi + 2 * section_intersection(left, Section.zero(ctx.model))
        for fiber in ctx.fibers:
            index = component_index(left, fiber)
            value -= component_contribution(fiber.m_v, index, index)
        return value
    value = (
        chi
        + section_intersection(left, Section.zero(ctx.model))
        + section_intersection(right, Section.zero(ctx.model))
        - section_intersection(left, right)
    )
    for fiber in ctx.fibers:
        value -= component_contribution(
            fiber.m_v, component_index(left, fiber), component_index(right, fiber)
        )
    return value


def gram_matrix(basis: list[Section], ctx: HeightContext) -> list[list[Fraction]]:
    """Symmetric positive-definite matrix of pairwise heights."""
    size = len(basis)
    matrix = [[Fraction(0)] * size for _ in range(size)]
    for row in range(size):
        for col in range(row, size):
            value = height(basis[row], basis[col], ctx)
            matrix[row][col] = value
            matrix[col][row] = value
    _require_positive_definite(
        matrix,
        "height Gram matrix is not positive definite; "
        "the basis or the model data is inconsistent",
    )
    return matrix


def _require_positive_definite(
    matrix: Sequence[Sequence[Fraction]], message: str
) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Factor a symmetric matrix as L·D·Lᵀ over Q, requiring every pivot positive.

    Returns the pivots d (the diagonal of D) and the unit lower-triangular
    L, so that matrix[r][c] = sum_k L[r][k]·d[k]·L[c][k] and
    xᵀ·matrix·x = sum_k d[k]·(x_k + sum_{r>k} L[r][k]·x_r)².  Raises
    IntegrityError(message) at the first pivot <= 0, before dividing by it.
    The leading principal minors are the products d[0]·…·d[k], so every
    pivot is positive exactly when every leading minor is, i.e. when the
    matrix is positive definite.
    """
    size = len(matrix)
    pivots: list[Fraction] = []
    lower = [[Fraction(int(r == c)) for c in range(size)] for r in range(size)]
    for k in range(size):
        pivot = matrix[k][k] - sum(
            (lower[k][j] ** 2 * pivots[j] for j in range(k)), Fraction(0)
        )
        if pivot <= 0:
            raise IntegrityError(message)
        pivots.append(pivot)
        for r in range(k + 1, size):
            lower[r][k] = (
                matrix[r][k]
                - sum((lower[r][j] * lower[k][j] * pivots[j] for j in range(k)), Fraction(0))
            ) / pivot
    return pivots, lower
