"""Height pairing on sections: chi = 1, intersection numbers, fiber corrections.

The pairing is <P, Q> = chi + P.O + Q.O - P.Q - sum_v contr_v(P, Q), with the
diagonal case <P, P> = 2 chi + 2 P.O - sum_v contr_v(P).  The local terms,
component indices and P.Q at K-rational places and at infinity, come from the
one blow-up walk in `surface`; this module adds the orders over places that
are not K-rational.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import IntegrityError, PreconditionError, UnsupportedSectionError
from .poly import Poly, k_rational_roots, poly_gcd, squarefree_decomposition
from .surface import (
    INFINITY,
    FiberCollection,
    Section,
    WeierstrassModel,
    _local_order,
    classify_fibers,
    component_index,
)

# chi, the Euler characteristic of the structure sheaf, is 1: deg a_i <= i
# (checked by WeierstrassModel) makes every model a rational elliptic surface.
_CHI = Fraction(1)


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


class HeightContext(NamedTuple):
    """Model data shared by every height computation."""

    model: WeierstrassModel
    fibers: FiberCollection

    @classmethod
    def for_model(cls, model: WeierstrassModel) -> "HeightContext":
        return cls(model, classify_fibers(model))


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
        return _local_order(left, right, INFINITY)
    if left.model != right.model:
        raise PreconditionError("sections live on different models")
    total = _local_order(left, right, INFINITY)  # refuses sections off the stratum
    xp, yp = left.x.as_poly(), left.y.as_poly()
    x_diff = xp - right.x.as_poly()
    y_diff = yp - right.y.as_poly()
    locus = poly_gcd(x_diff, y_diff)
    if locus.degree >= 1:
        roots, residual = k_rational_roots(locus)
        for location, _ in roots:
            total += _local_order(left, right, location)
        if residual.degree >= 1:
            total += _residual_orders(left.model, residual, yp, x_diff, y_diff)
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
    if left == right:
        value = 2 * _CHI + 2 * section_intersection(left, Section.zero(ctx.model))
        for fiber in ctx.fibers:
            index = component_index(left, fiber)
            value -= component_contribution(fiber.m_v, index, index)
        return value
    value = (
        _CHI
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
