"""Height pairing on sections: chi = 1, intersection numbers, fiber corrections.

The pairing is <P, Q> = chi + P.O + Q.O - P.Q - sum_v contr_v(P, Q).  The
component indices behind the local terms come from the blow-up walk in
`surface`.  Every intersection number comes from three standard facts
(Shioda, "On the Mordell-Weil lattices", 1990; Schuett-Shioda,
Mordell-Weil Lattices, 2019, ch. 6):

- P.P = -chi, so the diagonal <P, P> = 2 chi + 2 P.O - sum_v contr_v(P, P)
  is the same formula.
- P.O is read off the pole orders of x(P) (see `_zero_intersection`), so
  no root is found.
- Translation by -Q is an automorphism of the smooth model that takes Q to
  O, so P.Q = (P - Q).O.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import IntegrityError, PreconditionError
from .surface import Section, classify_fibers, component_index

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


def _zero_intersection(point: Section) -> int:
    """P.O over all places, read off x = num/den in lowest terms.

    P meets O where x has a pole, with half the pole's order, counted with
    the place's degree: the finite places give deg(den)/2.  The chart
    s = 1/t, (x, y) -> (s^2 x, s^3 y) at t = infinity (chi = 1) turns x into
    s^2 x, whose pole at s = 0 has order deg(num) - deg(den) - 2 when that
    is positive.  The Weierstrass equation makes every pole order even.

    Half the pole order is the local P.O only on a model that is minimal at
    the place, infinity included.  Every model here is: after x -> x - a2/3,
    which moves no pole, a non-minimal place forces ord a_i >= i for every
    i, and under deg a_i <= i that makes the model a constant curve up to
    the scaling x -> (t - v)^2 x (or with constant a_i, when the place is
    infinity).  Every section of it is then constant in the scaled chart,
    so deg(den) = 0 and deg(num) <= 2, and P.O = 0 either way.
    """
    x = point.x
    return (x.den.degree + max(0, x.num.degree - x.den.degree - 2)) // 2


def section_intersection(left: Section, right: Section) -> int:
    """P.Q over all places, on the smooth model: (P - Q).O."""
    if left == right:
        raise PreconditionError("self-intersection is handled through chi, not P.Q")
    return _zero_intersection(left + (-right))


def height(left: Section, right: Section) -> Fraction:
    """The pairing <P, Q> as an exact rational, on the model both sections lie on."""
    if left.is_zero or right.is_zero:
        return Fraction(0)
    same = left == right
    value = (
        _CHI
        + _zero_intersection(left)
        + _zero_intersection(right)
        - (-_CHI if same else section_intersection(left, right))
    )
    for fiber in classify_fibers(left.model):
        index = component_index(left, fiber)
        value -= component_contribution(
            fiber.m_v, index, index if same else component_index(right, fiber)
        )
    return value


def gram_matrix(basis: list[Section]) -> list[list[Fraction]]:
    """Symmetric positive-definite matrix of pairwise heights."""
    size = len(basis)
    matrix = [[Fraction(0)] * size for _ in range(size)]
    for row in range(size):
        for col in range(row, size):
            value = height(basis[row], basis[col])
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
