"""Polynomials, rational functions, and forms over Q(sqrt(2), i)."""

import ast
import functools
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import contactconics
from contactconics import (
    BiPoly,
    FieldElem,
    IntegrityError,
    ONE,
    PreconditionError,
    Poly,
    RatFunc,
    TriForm,
    ZERO,
    parse_bipoly,
    parse_field_elem,
    parse_poly,
    parse_triform,
)
from contactconics import poly
from contactconics.field import I, SQRT2
from contactconics.poly import (
    bipoly_pseudo_rem,
    chain_resultant,
    k_rational_roots,
    poly_gcd,
    poly_gcd_many,
    poly_is_square,
    resultant_t,
    squarefree_decomposition,
    subresultant_chain,
)

small_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=4)
small_elems = st.builds(FieldElem, small_rationals, small_rationals, small_rationals, small_rationals)
polys = st.lists(small_elems, min_size=0, max_size=4).map(Poly)


@given(polys, polys)
def test_arithmetic_results_have_no_trailing_zero(p, q):
    results = [p + q, p - q, -p, p * q, p.scale(0), p.shift_up(2)]
    if not q.is_zero():
        results.extend(p.divmod(q))
    for r in results:
        assert r == Poly(r.coeffs)
        assert not r.coeffs or not r.coeffs[-1].is_zero()


def poly_from_roots(roots) -> Poly:
    """Reference: the product of the linear factors t - root."""
    result = Poly.constant(ONE)
    for root in roots:
        result = result * Poly((-root, ONE))
    return result


def test_poly_basics():
    p = parse_poly("t^2 - 3*t + 2")
    assert p.degree == 2
    assert p.eval(FieldElem.from_rational(1)).is_zero()
    assert p.eval(FieldElem.from_rational(2)).is_zero()
    assert p.derivative() == parse_poly("2*t - 3")
    assert poly_from_roots([ONE, FieldElem.from_rational(2)]).monic() == p.monic()


T_PLUS_ONE = Poly((1, 1))
X_PLUS_ONE = BiPoly((Poly((1,)), Poly((1,))))
LINE = TriForm(1, {(1, 0, 0): 1})
CONIC_FORM = TriForm(2, {(1, 1, 0): 1})

MISUSE = [
    (lambda: T_PLUS_ONE ** -1, ValueError, "negative polynomial power"),
    (lambda: T_PLUS_ONE.divmod(Poly.zero()), ZeroDivisionError, "polynomial division by zero"),
    (lambda: T_PLUS_ONE.exact_div(Poly((0, 1))), ValueError, "division is not exact"),
    (lambda: parse_poly("t^2").reverse(1), ValueError, "reversal degree below polynomial degree"),
    (lambda: Poly.zero().ord_at(1), ValueError, "order of the zero polynomial"),
    (lambda: Poly.zero().ord_at_zero(), ValueError, "order of the zero polynomial"),
    (lambda: poly_gcd_many([Poly.zero()]), PreconditionError, "gcd of all-zero family"),
    (lambda: squarefree_decomposition(Poly.zero()), PreconditionError, "square-free decomposition of zero"),
    (lambda: k_rational_roots(Poly.zero()), PreconditionError, "roots of the zero polynomial"),
    (lambda: RatFunc(Poly((1,)), T_PLUS_ONE).as_poly(), ValueError, r"\(1\) / \(t \+ 1\) is not polynomial"),
    (lambda: RatFunc.constant(1) / RatFunc(Poly.zero()), ZeroDivisionError, "division by zero rational function"),
    (lambda: X_PLUS_ONE.divide_x_power(1), ValueError, "not divisible by the requested x power"),
    (lambda: X_PLUS_ONE.divide_t_power(1), ValueError, "not divisible by the requested t power"),
    (lambda: bipoly_pseudo_rem(X_PLUS_ONE, BiPoly.zero()), ZeroDivisionError, "pseudo-division by zero"),
    (lambda: subresultant_chain(BiPoly.zero(), X_PLUS_ONE), PreconditionError, "chain of a zero polynomial"),
    (lambda: TriForm(2, {(1, 0, 0): 1}), ValueError, r"monomial \(1, 0, 0\) violates homogeneity of degree 2"),
    (lambda: LINE + CONIC_FORM, ValueError, "degree mismatch in form addition"),
    (lambda: LINE.substitute((LINE, LINE, CONIC_FORM)), ValueError, "images must share one degree"),
    (lambda: TriForm(2, {}).min_exponents(), ValueError, "zero form has no exponent support"),
    (lambda: TriForm.homogenize(parse_bipoly("t^2"), 1), ValueError, "degree too small to homogenize"),
    (lambda: T_PLUS_ONE + "t", TypeError, "unsupported operand"),
    (lambda: T_PLUS_ONE - "t", TypeError, "unsupported operand"),
    (lambda: T_PLUS_ONE * 0.5, TypeError, "unsupported operand"),
]


@pytest.mark.parametrize("call, error, message", MISUSE, ids=[m for _, _, m in MISUSE])
def test_calls_outside_the_domain_raise(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_printers_write_zero_and_unit_coefficients():
    assert Poly.zero().to_str() == "0"
    assert parse_poly("-t^2 - t").to_str() == "-t^2 - t"
    assert TriForm(1, {}).to_str() == "0"
    assert TriForm(0, {(0, 0, 0): 3}).to_str() == "3"


def test_poly_is_square_refuses_non_squares():
    assert poly_is_square(parse_poly("3*t^2")) is None  # 3 is no square in K
    assert poly_is_square(parse_poly("t^3")) is None  # odd multiplicity


@given(polys, polys, polys)
@settings(max_examples=60)
def test_poly_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert (p * q) * r == p * (q * r)


@given(polys, polys)
@settings(max_examples=60)
def test_divmod_identity(p, q):
    if q.is_zero():
        return
    quotient, remainder = p.divmod(q)
    assert quotient * q + remainder == p
    assert remainder.is_zero() or remainder.degree < q.degree


@given(polys, polys)
@settings(max_examples=40)
def test_gcd_divides_both(p, q):
    if p.is_zero() and q.is_zero():
        with pytest.raises(Exception):
            poly_gcd(p, q)
        return
    g = poly_gcd(p, q)
    assert (p % g).is_zero()
    assert (q % g).is_zero()


def test_squarefree_decomposition_recovers_multiplicities():
    p = parse_poly("t - 1") ** 3 * parse_poly("t + 2")
    parts = squarefree_decomposition(p)
    by_power = {power: factor.monic() for factor, power in parts if factor.degree > 0}
    assert by_power[3] == parse_poly("t - 1")
    assert by_power[1] == parse_poly("t + 2")


@given(polys)
@settings(max_examples=40, deadline=None)
def test_poly_is_square_round_trip(p):
    root = poly_is_square(p * p)
    assert root is not None
    assert root * root == p * p


def test_k_rational_roots_finds_field_roots():
    p = poly_from_roots([SQRT2, SQRT2, I]) * parse_poly("t^2 - 3")
    roots, residual = k_rational_roots(p)
    as_dict = {root: order for root, order in roots}
    assert as_dict[SQRT2] == 2
    assert as_dict[I] == 1
    assert residual.monic() == parse_poly("t^2 - 3")


def test_k_rational_roots_finds_roots_of_a_quartic_norm_factor():
    # 1 + r2 + i generates K, so its norm factor over Q is an irreducible quartic
    p = parse_poly("(t - 1 - r2 - i)*(t - 3)*(t^2 - 3)")
    roots, residual = k_rational_roots(p)
    assert roots == [(parse_field_elem("1 + r2 + i"), 1), (FieldElem.from_rational(3), 1)]
    assert residual == parse_poly("t^2 - 3")


# Generators of Q(r2), Q(i), Q(i*r2) and K, so that the norm of each planted
# linear factor splits over Q into linear, quadratic and quartic factors.
root_directions = st.sampled_from([
    FieldElem.from_rational(1), SQRT2, I, I * SQRT2, SQRT2 + I, ONE + SQRT2 + I * SQRT2,
    FieldElem(0, Fraction(1, 2), 0, Fraction(1, 2)),  # zeta_8 = (r2 + i*r2)/2
])
planted_roots = st.builds(
    lambda a, b, g: FieldElem.from_rational(a) + FieldElem.from_rational(b) * g,
    small_rationals, small_rationals.filter(bool), root_directions,
)
# Monic cofactors with no root in K: sqrt(3), sqrt(-3) and 2^(1/3) lie outside Q(zeta_8).
rootless = st.sampled_from(["1", "t^2 - 3", "t^2 + t + 1", "t^3 - 2"]).map(parse_poly)


@given(
    st.lists(st.tuples(planted_roots, st.integers(1, 3)), max_size=3,
             unique_by=lambda item: item[0]),
    small_elems.filter(lambda c: not c.is_zero()),
    rootless,
)
@settings(max_examples=20, deadline=None)
def test_k_rational_roots_recovers_planted_roots(planted, lead, cofactor):
    p = Poly.constant(lead) * cofactor
    for root, mult in planted:
        p = p * poly_from_roots([root] * mult)
    roots, residual = k_rational_roots(p)
    assert roots == sorted(planted, key=lambda item: item[0].sort_key())
    assert residual == cofactor


def test_k_rational_roots_is_exact_at_hundred_bit_coefficients():
    numerator, denominator = 2**100 + 277, 2**100 - 3
    p = parse_poly(f"{denominator}*t^2 - {numerator}*t")
    roots, residual = k_rational_roots(p)
    assert roots == [(FieldElem.from_rational(0), 1),
                     (FieldElem.from_rational(Fraction(numerator, denominator)), 1)]
    assert residual == Poly.constant(ONE)


def test_k_rational_roots_refuses_an_irrational_norm(monkeypatch):
    monkeypatch.setattr(FieldElem, "conj_i", lambda c: c)
    with pytest.raises(IntegrityError, match="norm polynomial must be rational"):
        k_rational_roots(parse_poly("t - i"))


# -- K-roots against sympy's extension factoring ---------------------------------
#
# The reference is the route k_rational_roots took before it split quartic
# factors by a shifted norm: the product of all four conjugates of p factored
# over QQ, linear and quadratic factors read back as Fractions, and each
# quartic factor factored by sympy over Q(sqrt(2), i), its linear factors
# read back from sympy expressions.

# The Galois group of K as coefficient maps, and the subgroups fixing K,
# Q(r2), Q(i), Q(i*r2) and Q, by their indices into it.
galois = (lambda c: c, FieldElem.conj_sqrt2, FieldElem.conj_i,
          lambda c: c.conj_sqrt2().conj_i())
fixing_subgroups = ((0,), (0, 2), (0, 1), (0, 3), (0, 1, 2, 3))
THETA = SQRT2 + I


def ref_norm(p: Poly) -> Poly:
    """The product of the four Galois conjugates of p."""
    norm = Poly.constant(ONE)
    for conj in galois:
        norm = norm * Poly(conj(c) for c in p.coeffs)
    return norm


def ref_from_sympy(expr) -> FieldElem:
    import sympy

    r2 = sympy.sqrt(2)
    basis = {1: 0, r2: 1, sympy.I: 2, sympy.I * r2: 3}
    coords = [Fraction(0)] * 4
    for monom, coeff in sympy.expand(expr).as_coefficients_dict().items():
        rational = sympy.Rational(coeff)
        coords[basis[monom]] = Fraction(int(rational.p), int(rational.q))
    return FieldElem(*coords)


@functools.lru_cache(maxsize=None)
def ref_quartic_roots_in_k(factor, t) -> list[FieldElem]:
    import sympy

    extended = sympy.Poly(factor, t, extension=[sympy.sqrt(2), sympy.I])
    return [ref_from_sympy(-linear.nth(0) / linear.nth(1))
            for linear, _ in extended.factor_list()[1] if linear.degree() == 1]


def ref_quadratic_roots_in_k(a2, a1, a0) -> list[FieldElem]:
    root = FieldElem.from_rational(a1 * a1 - 4 * a2 * a0).sqrt()
    if root is None:
        return []
    half = FieldElem.from_rational(Fraction(1, 2) / a2)
    minus_a1 = FieldElem.from_rational(-a1)
    return [(minus_a1 + root) * half, (minus_a1 - root) * half]


def ref_k_rational_roots(p: Poly):
    import sympy

    t = sympy.Symbol("t")
    norm = ref_norm(p)
    dense = sympy.Poly.from_list([sympy.QQ(c.n0, c.d) for c in reversed(norm.coeffs)], t,
                                 domain=sympy.QQ)
    candidates = []
    for factor, _ in dense.factor_list()[1]:
        coeffs = [Fraction(int(c.numerator), int(c.denominator)) for c in factor.rep.to_list()]
        if factor.degree() == 1:
            candidates.append(FieldElem.from_rational(-coeffs[1] / coeffs[0]))
        elif factor.degree() == 2:
            candidates.extend(ref_quadratic_roots_in_k(*coeffs))
        elif factor.degree() == 4:
            candidates.extend(ref_quartic_roots_in_k(factor, t))
    roots, remaining = [], p.monic()
    for candidate in dict.fromkeys(candidates):
        mult = remaining.ord_at(candidate)
        if mult:
            roots.append((candidate, mult))
            remaining = remaining.exact_div(Poly((-candidate, ONE)) ** mult)
    return sorted(roots, key=lambda item: item[0].sort_key()), remaining.monic()


@st.composite
def orbit_polys(draw):
    """A polynomial with coefficients in K, Q(r2), Q(i), Q(i*r2) or Q.

    Each factor is t - r over the images of a planted root r under the
    subgroup fixing the field, so over Q a factor is the root's minimal
    polynomial, which is quartic when r generates K.  The rational cofactor
    may hold a quartic that splits over K or one that does not.
    """
    group = draw(st.sampled_from(fixing_subgroups))
    p = Poly.constant(draw(small_elems.filter(bool)))
    planted = st.lists(st.tuples(planted_roots, st.integers(1, 2)), min_size=1, max_size=2)
    for root, mult in draw(planted):
        orbit = dict.fromkeys(galois[k](root) for k in group)
        p = p * poly_from_roots(orbit) ** mult
    cofactor = draw(st.sampled_from(
        ["1", "t^4 + 1", "t^4 - 2*t^2 + 9", "t^4 - 3", "t^4 + 2", "t^2 - 3", "t^3 - 2"]))
    return p * parse_poly(cofactor)


@given(orbit_polys())
@settings(deadline=None)
def test_k_rational_roots_matches_the_sympy_extension_reference(p):
    assert k_rational_roots(p) == ref_k_rational_roots(p)


@pytest.fixture
def factored(monkeypatch):
    """The polynomials k_rational_roots hands to sympy, in order."""
    calls = []
    rational_factors = poly._rational_factors
    monkeypatch.setattr(poly, "_rational_factors", lambda n: (calls.append(n), rational_factors(n))[1])
    return calls


@pytest.mark.parametrize("text, members", [
    ("t^4 + 1", 1),
    ("t^2 - r2", 2),
    ("t^2 - i", 2),
    ("t^2 - i*r2", 2),
    ("(t - r2 - i)*(t - 3)", 4),
])
def test_the_orbit_norm_multiplies_the_distinct_conjugates(factored, text, members):
    p = parse_poly(text)
    assert k_rational_roots(p) == ref_k_rational_roots(p)
    assert factored[0].degree == members * p.degree


@pytest.mark.parametrize("text, shift", [("t^4 + 1", 1), ("t^4 - 2*t^2 + 9", 2)])
def test_the_shift_search_takes_the_first_square_free_norm(factored, text, shift):
    h = parse_poly(text)
    roots, residual = k_rational_roots(h)
    assert len(roots) == 4 and residual == Poly.constant(ONE)
    norms = [ref_norm(h.shift_argument(-THETA * s)) for s in range(1, shift + 1)]
    assert [poly_gcd(n, n.derivative()).degree > 0 for n in norms] == [True] * (shift - 1) + [False]
    # one factorization of the norm, h itself, and one at the square-free shift:
    # a shift whose norm has a repeated factor makes none
    assert factored == [h, norms[-1]]


def sympy_scopes(node, scope):
    """The scope of every import of sympy and every name or string naming it."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}"
        names = []
        if isinstance(child, ast.Import):
            names = [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom):
            names = [child.module or ""]
        elif isinstance(child, ast.Name):
            names = [child.id]
        elif isinstance(child, ast.Attribute):
            names = [child.attr]
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            names = [child.value]
        if any(name == "sympy" or name.startswith("sympy.") for name in names):
            yield inner
        yield from sympy_scopes(child, inner)


def test_sympy_is_named_only_in_rational_factors():
    package = Path(contactconics.__file__).parent
    scopes = set()
    for path in sorted(package.glob("*.py")):
        scopes.update(sympy_scopes(ast.parse(path.read_text()), path.stem))
    assert scopes == {"poly._rational_factors"}


def test_ratfunc_normalization_and_arithmetic():
    half = RatFunc(parse_poly("t^2 - 1"), parse_poly("2*t - 2"))
    assert half == RatFunc(parse_poly("t + 1"), parse_poly("2"))
    assert half.to_str() == "1/2*t + 1/2"
    quotient = RatFunc(parse_poly("1"), parse_poly("t"))
    assert (quotient + quotient) * RatFunc.from_poly(parse_poly("t")) == RatFunc.constant(2)
    with pytest.raises(ZeroDivisionError):
        RatFunc(parse_poly("1"), Poly.zero())


def subs_x_poly(f: BiPoly, p: Poly) -> Poly:
    """Reference: f(t, p(t)), by Horner in x."""
    acc = Poly.zero()
    for c in reversed(f.coeffs):
        acc = acc * p + c
    return acc


def test_bipoly_substitutions():
    f = parse_bipoly("x^2 - t^3 + t*x")
    assert f.degree_x == 2
    assert f.degree_t == 3
    assert f.total_degree == 3
    assert f.shift_x(1).eval_x(0) == f.eval_x(ONE)
    assert subs_x_poly(f, parse_poly("t")) == parse_poly("t^2 - t^3 + t^2")
    assert f.swap_vars().swap_vars() == f


def sylvester_resultant(p: BiPoly, q: BiPoly) -> Poly:
    """Oracle: the Sylvester determinant eliminating x, by Laplace expansion.

    The expansion runs down the rows, memoized on the set of columns still
    free, so it needs no division and shares nothing with the chain.
    """
    m, n = p.degree_x, q.degree_x
    size = m + n
    rows = [[p.coeff_x(m - (col - shift)) for col in range(size)] for shift in range(n)]
    rows += [[q.coeff_x(n - (col - shift)) for col in range(size)] for shift in range(m)]
    minors = {}

    def minor(row: int, free: int) -> Poly:
        if row == size:
            return Poly.constant(1)
        if free not in minors:
            total = Poly.zero()
            sign = 1
            for col in range(size):
                if not free >> col & 1:
                    continue
                entry = rows[row][col]
                if not entry.is_zero():
                    term = entry * minor(row + 1, free & ~(1 << col))
                    total = total + term if sign > 0 else total - term
                sign = -sign
            minors[free] = total
        return minors[free]

    return minor(0, (1 << size) - 1)


def test_resultant_vanishes_iff_common_root():
    res, _chain = resultant_t(parse_bipoly("x - t"), parse_bipoly("x^2 - t^2"))
    assert res == Poly.zero()
    f, g = parse_bipoly("x - t + 1"), parse_bipoly("x - t")
    res2, _chain = resultant_t(f, g)
    assert res2 == sylvester_resultant(f.swap_vars(), g.swap_vars()) == Poly.constant(1)


def test_chain_resultant_after_abnormal_steps():
    # x^3 + t against x: the only step drops the degree by 2
    f, g = parse_bipoly("x^3 + t"), parse_bipoly("x")
    assert chain_resultant(subresultant_chain(f, g)) == parse_poly("-t")
    assert chain_resultant(subresultant_chain(g, f)) == parse_poly("t")
    # the last step drops the degree from 2 to 0, so the chain ends in t^2
    # while the resultant is t^3: the step-3 correction is needed
    f, g = parse_bipoly("x^3 + t*x + 1"), parse_bipoly("t*x^2 + t^2")
    chain = subresultant_chain(f, g)
    assert chain[-1] == parse_bipoly("t^2")
    assert chain_resultant(chain) == parse_poly("t^3") == sylvester_resultant(f, g)


def test_chain_resultant_with_an_x_constant_side():
    c, f = parse_bipoly("t + 2"), parse_bipoly("x^3 + t*x")
    assert chain_resultant(subresultant_chain(c, f)) == parse_poly("t + 2") ** 3
    assert chain_resultant(subresultant_chain(f, c)) == parse_poly("t + 2") ** 3
    c2 = parse_bipoly("t^2 - 1")
    assert chain_resultant(subresultant_chain(c, c2)) == Poly.constant(1)


small_ints = st.integers(-3, 3)
t_polys = st.lists(small_ints, max_size=3).map(Poly)
elem_t_polys = st.lists(small_elems, max_size=2).map(Poly)


def x_polys(max_degree: int):
    """BiPolys of x-degree 0..max_degree with a nonzero top coefficient."""
    return st.builds(
        lambda low, top: BiPoly(low + [top]),
        st.lists(st.one_of(t_polys, elem_t_polys), max_size=max_degree),
        st.one_of(t_polys, elem_t_polys).filter(lambda c: not c.is_zero()),
    )


@st.composite
def resultant_pairs(draw):
    """Random pairs, pairs with a shared factor, and abnormal sequences."""
    kind = draw(st.sampled_from(("random", "shared", "abnormal")))
    if kind == "shared":
        common = draw(x_polys(2))
        return draw(x_polys(1)) * common, draw(x_polys(1)) * common
    p, q = draw(x_polys(3)), draw(x_polys(3))
    if kind == "abnormal":
        # p = q*quotient + rem with rem two or more x-degrees below q
        rem = draw(x_polys(max(q.degree_x - 2, 0)))
        p = q * draw(x_polys(1)) + rem
    return p, q


@given(resultant_pairs())
@settings(max_examples=60, deadline=None)
def test_chain_resultant_matches_the_sylvester_determinant(pair):
    p, q = pair
    for a, b in ((p, q), (q, p)):
        if a.is_zero() or b.is_zero():
            continue
        chain = subresultant_chain(a, b)
        assert chain[:2] == [a, b]
        assert chain_resultant(chain) == sylvester_resultant(a, b)
        res, t_chain = resultant_t(a.swap_vars(), b.swap_vars())
        assert t_chain == chain
        assert res == sylvester_resultant(a, b)


def test_triform_homogenize_dehomogenize_round_trip():
    chart = parse_bipoly("x^3 + t^2*x + 1")
    form = TriForm.homogenize(chart, 3)
    assert form.dehomogenize() == chart
    assert form.degree == 3


def test_triform_substitute_identity_and_scaling():
    form = parse_triform("T^2 - X*Z")
    t_img = parse_triform("T")
    x_img = parse_triform("X")
    z_img = parse_triform("Z")
    assert form.substitute((t_img, x_img, z_img)) == form
    swapped = form.substitute((t_img, z_img, x_img))
    assert swapped == parse_triform("T^2 - X*Z")  # X*Z is symmetric
    moved = form.substitute((parse_triform("T + X"), x_img, z_img))
    assert moved == parse_triform("T^2 + 2*T*X + X^2 - X*Z")


def test_triform_partials_satisfy_euler_relation():
    form = parse_triform("T^3 + X^2*Z - 2*T*X*Z")
    euler = (
        form.partial(0) * parse_triform("T")
        + form.partial(1) * parse_triform("X")
        + form.partial(2) * parse_triform("Z")
    )
    scaled = TriForm(form.degree, {key: value * 3 for key, value in form.terms.items()})
    assert euler == scaled


def test_infinity_form_reads_top_coefficients():
    # F = X^2*Z - T^3 + 2*T*X^2 - 5*T^2*X, so F(T, 1, 0) = -T^3 - 5*T^2 + 2*T
    form = TriForm.homogenize(parse_bipoly("x^2 - t^3 + 2*t*x^2 - 5*t^2*x"), 3)
    binary = form.binary_form()
    expected = [FieldElem.from_rational(c) for c in (0, 2, -5, -1, 0)]
    assert [binary.coeff(a) for a in range(5)] == expected
    assert binary == parse_poly("-t^3 - 5*t^2 + 2*t")
    assert TriForm(2, {(0, 0, 2): 7}).binary_form().is_zero()
    assert TriForm(0, {(0, 0, 0): 7}).binary_form() == Poly.constant(7)


# -- substitutions as coefficient maps, against composition oracles ---------------


def horner_translate_x(f: BiPoly, c0, c1) -> BiPoly:
    """Oracle: x -> x + c0 + c1*t by Horner's rule over BiPoly products."""
    shift = BiPoly((Poly((c0, c1)), Poly.constant(ONE)))
    acc = BiPoly.zero()
    for c in reversed(f.coeffs):
        acc = acc * shift + BiPoly.from_poly_in_t(c)
    return acc


def compose(p: Poly, inner: Poly) -> Poly:
    """Oracle: p(inner) by Horner's rule over Poly products."""
    acc = Poly.zero()
    for c in reversed(p.coeffs):
        acc = acc * inner + Poly.constant(c)
    return acc


def assert_canonical(f: BiPoly):
    assert not f.coeffs or not f.coeffs[-1].is_zero()
    for col in f.coeffs:
        assert col == Poly(col.coeffs)


# Elements of K over denominators 1..4, half of them rational.
digits = st.integers(-6, 6)
k_elems = st.one_of(
    st.builds(lambda n, d: FieldElem(Fraction(n, d)), digits, st.integers(1, 4)),
    st.builds(
        lambda ns, d: FieldElem(*(Fraction(n, d) for n in ns)),
        st.tuples(digits, digits, digits, digits), st.integers(1, 4),
    ),
)
k_polys = st.lists(k_elems, max_size=3).map(Poly)
bipolys = st.lists(k_polys, max_size=5).map(BiPoly)
shift_values = st.one_of(st.integers(-3, 3), k_elems)


@given(bipolys, shift_values, shift_values)
@settings(deadline=None)
def test_shears_and_shifts_match_horner_composition(f, k, c):
    sheared, shifted = f.shear_x(k), f.shift_x(c)
    assert sheared == horner_translate_x(f, ZERO, FieldElem.coerce(k))
    assert shifted == horner_translate_x(f, FieldElem.coerce(c), ZERO)
    both = f._translate_x(FieldElem.coerce(c), FieldElem.coerce(k))
    assert both == horner_translate_x(f, FieldElem.coerce(c), FieldElem.coerce(k))
    for result in (sheared, shifted, both):
        assert_canonical(result)


@given(st.lists(k_elems, max_size=6).map(Poly), shift_values, bipolys)
@settings(deadline=None)
def test_taylor_shift_matches_composition(p, c, f):
    line = Poly((c, ONE))
    shifted = p.shift_argument(c)
    assert shifted == compose(p, line)
    assert shifted == Poly(shifted.coeffs)
    assert f.shift_t(c) == BiPoly(tuple(compose(col, line) for col in f.coeffs))


@st.composite
def triforms(draw, degree=None):
    """Forms of degree 0..4 with up to five terms, the zero form included."""
    d = draw(st.integers(0, 4)) if degree is None else degree
    keys = [(a, b, d - a - b) for a in range(d + 1) for b in range(d + 1 - a)]
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=5))
    return TriForm(d, {key: draw(k_elems) for key in chosen})


# (T, X, Z) -> images whose chart Z = 1 is the chart where the coordinate is 1
CHART_IMAGES = {
    2: ("T", "X", "Z"),
    1: ("T", "Z", "X"),
    0: ("Z", "T", "X"),
}


@given(triforms())
@settings(deadline=None)
def test_chart_permutation_matches_substitution(form):
    for chart, names in CHART_IMAGES.items():
        images = tuple(parse_triform(name) for name in names)
        expected = form.substitute(images).dehomogenize()
        assert form.dehomogenize(chart) == expected
        assert_canonical(form.dehomogenize(chart))


@given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), k_elems, max_size=6))
def test_from_terms_matches_a_sum_of_monomials(terms):
    expected = BiPoly.zero()
    for (i, j), coeff in terms.items():
        expected = expected + BiPoly([Poly.zero()] * j + [Poly.constant(coeff).shift_up(i)])
    built = BiPoly.from_terms(terms.items())
    assert built == expected
    assert_canonical(built)


@given(triforms(), st.tuples(shift_values, shift_values, shift_values))
@settings(deadline=None)
def test_power_table_eval_matches_per_term_powers(form, point):
    pt, px, pz = (FieldElem.coerce(v) for v in point)
    expected = ZERO
    for (a, b, c), coeff in form.terms.items():
        expected = expected + coeff * pt**a * px**b * pz**c
    assert form.eval(point) == expected


@st.composite
def form_pairs(draw):
    """Rescaled copies, copies with a term moved or dropped, unrelated forms,
    zero forms and degree mismatches."""
    f = draw(triforms())
    kind = draw(st.sampled_from(("scaled", "perturbed", "unrelated", "zero", "degree")))
    if kind == "scaled":
        g = f.scale(draw(k_elems.filter(bool)))
    elif kind == "perturbed" and f.terms:
        # one coefficient of a rescaled copy moved, so mostly the same support
        key = draw(st.sampled_from(sorted(f.terms)))
        g = f.scale(draw(k_elems.filter(bool))) + TriForm(f.degree, {key: draw(k_elems)})
    elif kind == "zero":
        g = TriForm(f.degree, {})
    elif kind == "degree":
        g = draw(triforms(degree=(f.degree + 1) % 5))
    else:
        g = draw(triforms(degree=f.degree))
    return (f, g) if draw(st.booleans()) else (g, f)


@given(form_pairs())
@settings(deadline=None)
def test_is_proportional_matches_the_dict_reference(pair):
    f, g = pair
    expected = ref_is_proportional(as_ref(f), as_ref(g))
    assert ref_is_proportional(as_ref(g), as_ref(f)) == expected
    assert TriForm(g.degree, g.terms).is_proportional(TriForm(f.degree, f.terms)) == expected
    # the first call computes both canonical forms, the later calls read them
    assert f.is_proportional(g) == expected
    for form in (f, g, f.canonical_scaled(), g.canonical_scaled()):
        hash(form)
    assert f.is_proportional(g) == g.is_proportional(f) == expected
    if expected:
        assert hash(f.canonical_scaled()) == hash(g.canonical_scaled())


def test_is_proportional_edge_cases():
    f = parse_triform("T^2 - X*Z")
    zero2, zero3 = TriForm(2, {}), TriForm(3, {})
    assert f.is_proportional(f.scale(SQRT2 + I))
    assert not f.is_proportional(parse_triform("T^2 - X*Z + Z^2"))  # wider support
    assert not f.is_proportional(parse_triform("T^2 - 2*X*Z"))  # same support
    # proportional on every monomial but the last one checked
    g = parse_triform("T^2 - X*Z + Z^2")
    assert not g.is_proportional(parse_triform("2*T^2 - X*Z + Z^2"))
    assert not parse_triform("2*T^2 - X*Z + Z^2").is_proportional(g)
    assert not f.is_proportional(zero2) and not zero2.is_proportional(f)
    assert zero2.is_proportional(zero2) and not zero2.is_proportional(zero3)
    assert not f.is_proportional(parse_triform("T^2*Z - X*Z^2"))
    # a rational column against an irrational one: -i*(i*X + T) = X - i*T
    assert parse_triform("i*X + T").is_proportional(parse_triform("X - i*T"))
    assert parse_triform("X - i*T").is_proportional(parse_triform("i*X + T"))
    # the pivot is the top monomial T*X, not T*Z of the same T-degree
    assert parse_triform("2*T*X + 4*T*Z").canonical_scaled() == parse_triform("T*X + 2*T*Z")


# -- the integer kernel against a coefficient-by-coefficient reference ----------
#
# The reference works on tuples of FieldElems, one per coefficient, constant
# term first and with no trailing zero: the representation Poly had before
# it kept integer numerators over one denominator.


def ref_trim(coeffs) -> tuple:
    out = list(coeffs)
    while out and out[-1].is_zero():
        out.pop()
    return tuple(out)


def ref_add(a, b):
    n = max(len(a), len(b))
    pad = lambda c: list(c) + [ZERO] * (n - len(c))
    return ref_trim(x + y for x, y in zip(pad(a), pad(b)))


def ref_neg(a):
    return tuple(-c for c in a)


def ref_mul(a, b):
    if not a or not b:
        return ()
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return ref_trim(out)


def ref_scale(a, v):
    return ref_trim(c * v for c in a)


def ref_divmod(a, b):
    inv = b[-1].inv()
    quotient = [ZERO] * max(0, len(a) - len(b) + 1)
    rem = list(a)
    while len(rem) >= len(b):
        factor = rem[-1] * inv
        k = len(rem) - len(b)
        quotient[k] = factor
        for j, c in enumerate(b):
            rem[k + j] = rem[k + j] - factor * c
        rem = list(ref_trim(rem))
    return ref_trim(quotient), tuple(rem)


def ref_monic(a):
    return ref_scale(a, a[-1].inv()) if a else ()


def ref_eval(a, x):
    acc = ZERO
    for c in reversed(a):
        acc = acc * x + c
    return acc


def ref_shift(a, c):
    """a(t + c), composed by Horner's rule."""
    acc = ()
    for coeff in reversed(a):
        acc = ref_add(ref_mul(acc, (c, ONE)), (coeff,))
    return acc


def ref_derivative(a):
    return ref_trim(c * k for k, c in enumerate(a) if k)


def ref_ord_at(a, root):
    order = 0
    while True:
        quotient, rem = ref_divmod(a, (-root, ONE))
        if rem:
            return order
        order, a = order + 1, quotient


def ref_gcd(a, b):
    a, b = ref_monic(a), ref_monic(b)
    while b:
        a, b = b, ref_monic(ref_divmod(a, b)[1])
    return a


def ref_squarefree(p):
    """Yun's algorithm, step for step as `squarefree_decomposition`."""
    f = ref_monic(p)
    if len(f) < 2:
        return []
    fp = ref_derivative(f)
    a = ref_gcd(f, fp)
    b, c = ref_divmod(f, a)[0], ref_divmod(fp, a)[0]
    d = ref_add(c, ref_neg(ref_derivative(b)))
    out, k = [], 1
    while len(b) >= 2:
        a = ref_gcd(b, d)
        if len(a) >= 2:
            out.append((a, k))
        b, c = ref_divmod(b, a)[0], ref_divmod(d, a)[0]
        d = ref_add(c, ref_neg(ref_derivative(b)))
        k += 1
    return out


# Coefficients with r2, i and i*r2 parts over denominators 1..6, rational
# ones, and zeros, which make sparse and constant polynomials likely.
kernel_digits = st.integers(-9, 9)
kernel_elems = st.one_of(
    st.just(ZERO),
    st.builds(lambda n, d: FieldElem(Fraction(n, d)), kernel_digits, st.integers(1, 6)),
    st.builds(
        lambda ns, d: FieldElem(*(Fraction(n, d) for n in ns)),
        st.tuples(kernel_digits, kernel_digits, kernel_digits, kernel_digits),
        st.integers(1, 6),
    ),
)
# Degree -1 (the zero polynomial) up to 12, all-rational half of the time.
kernel_coeffs = st.one_of(
    st.lists(st.builds(lambda n, d: FieldElem(Fraction(n, d)), kernel_digits, st.integers(1, 6)),
             max_size=13),
    st.lists(kernel_elems, max_size=13),
)
nonzero_kernel_elems = kernel_elems.filter(bool)


@given(kernel_coeffs, kernel_coeffs, nonzero_kernel_elems)
@settings(deadline=None)
def test_kernel_matches_the_coefficientwise_reference(a, b, v):
    p, q = Poly(a), Poly(b)
    a, b = ref_trim(a), ref_trim(b)
    assert p.coeffs == a and Poly(p.coeffs) == p
    assert p.is_rational() == all(c.is_rational() for c in a)
    assert (p + q).coeffs == ref_add(a, b)
    assert (p - q).coeffs == ref_add(a, ref_neg(b))
    assert (-p).coeffs == ref_neg(a)
    assert (p * q).coeffs == ref_mul(a, b)
    assert p.scale(v).coeffs == ref_scale(a, v)
    assert p.monic().coeffs == ref_monic(a)
    assert p.derivative().coeffs == ref_derivative(a)
    assert p.eval(v) == ref_eval(a, v) and p.eval(ZERO) == ref_eval(a, ZERO)
    assert p.shift_argument(v).coeffs == ref_shift(a, v)
    if b:
        quotient, rem = p.divmod(q)
        assert (quotient.coeffs, rem.coeffs) == ref_divmod(a, b)
        assert (p % q) == rem


@given(kernel_coeffs.filter(any), nonzero_kernel_elems, st.integers(0, 3))
@settings(deadline=None)
def test_ord_at_matches_the_reference(a, root, mult):
    p = Poly(a) * Poly((-root, ONE)) ** mult
    assert p.ord_at(root) == ref_ord_at(p.coeffs, root) >= mult
    assert p.ord_at(ZERO) == p.ord_at_zero() == ref_ord_at(p.coeffs, ZERO)


small_kernel_coeffs = st.lists(kernel_elems, max_size=7)


@given(small_kernel_coeffs, small_kernel_coeffs, small_kernel_coeffs)
@settings(deadline=None)
def test_gcd_matches_the_reference(a, b, c):
    p, q = Poly(a) * Poly(c), Poly(b) * Poly(c)
    if p.is_zero() and q.is_zero():
        return
    assert poly_gcd(p, q).coeffs == ref_gcd(p.coeffs, q.coeffs)


@given(st.lists(st.lists(kernel_elems, min_size=1, max_size=3), min_size=1, max_size=3))
@settings(deadline=None)
def test_squarefree_decomposition_matches_the_reference(factors):
    # factor k of the product appears to the power k: degree at most 2+4+6
    p = Poly.constant(ONE)
    for k, coeffs in enumerate(factors, 1):
        p = p * Poly(coeffs) ** k
    if p.is_zero():
        return
    got = [(factor.coeffs, mult) for factor, mult in squarefree_decomposition(p)]
    assert got == ref_squarefree(p.coeffs)


@given(kernel_coeffs, kernel_coeffs.filter(any), nonzero_kernel_elems)
@settings(deadline=None)
def test_equal_polynomials_built_along_different_paths_are_equal(a, b, v):
    p, q = Poly(a), Poly(b)
    paths = [
        Poly(p.coeffs),
        p + q - q,
        (p * q).exact_div(q),
        p.scale(v).scale(v.inv()),
        p.shift_argument(v).shift_argument(-v),
        -(-p),
        p.shift_up(2).divmod(Poly((0, 0, 1)))[0],
    ]
    for r in paths:
        assert r == p and hash(r) == hash(p)
    # the four conjugates add up to four times the rational part, a rational polynomial
    conjugates = [Poly(f(c) for c in p.coeffs) for f in (
        FieldElem.conj_sqrt2, FieldElem.conj_i, lambda c: c.conj_sqrt2().conj_i())]
    total = p + conjugates[0] + conjugates[1] + conjugates[2]
    rational = Poly(FieldElem(4 * c.coords[0]) for c in p.coeffs)
    assert total == rational and hash(total) == hash(rational) and total.is_rational()


# -- forms on their chart against a dict reference ---------------------------
#
# The reference keeps a form as its degree and a dict from exponents (a, b, c)
# of T^a*X^b*Z^c to nonzero FieldElems, in ascending order: the representation
# TriForm had before it kept its chart f(t, x) = F(t, x, 1).


def ref_form(degree, terms):
    cleaned = {key: FieldElem.coerce(v) for key, v in terms.items() if v}
    return degree, dict(sorted(cleaned.items()))


def ref_form_add(f, g):
    out = dict(f[1])
    for key, value in g[1].items():
        out[key] = out.get(key, ZERO) + value
    return ref_form(f[0], out)


def ref_form_mul(f, g):
    out = {}
    for (a1, b1, c1), v1 in f[1].items():
        for (a2, b2, c2), v2 in g[1].items():
            key = (a1 + a2, b1 + b2, c1 + c2)
            out[key] = out.get(key, ZERO) + v1 * v2
    return ref_form(f[0] + g[0], out)


def ref_form_scale(f, v):
    return ref_form(f[0], {key: c * v for key, c in f[1].items()})


def ref_form_partial(f, index):
    out = {}
    for key, coeff in f[1].items():
        if key[index]:
            lowered = list(key)
            lowered[index] -= 1
            out[tuple(lowered)] = coeff * key[index]
    return ref_form(max(f[0] - 1, 0), out)


def ref_form_substitute(f, images):
    result = ref_form(f[0] * images[0][0], {})
    for key, coeff in f[1].items():
        term = ref_form(0, {(0, 0, 0): ONE})
        for image, e in zip(images, key):
            for _ in range(e):
                term = ref_form_mul(term, image)
        result = ref_form_add(result, ref_form_scale(term, coeff))
    return result


def ref_form_eval(f, point):
    t, x, z = (FieldElem.coerce(v) for v in point)
    acc = ZERO
    for (a, b, c), coeff in f[1].items():
        acc = acc + coeff * t**a * x**b * z**c
    return acc


def ref_chart_terms(f, chart):
    """The chart where coordinate `chart` is 1, as {(i, j): c} for c*t^i*x^j."""
    u, v = (k for k in range(3) if k != chart)
    return {(key[u], key[v]): c for key, c in f[1].items()}


def bipoly_terms(p: BiPoly):
    return {(i, j): c for j, col in enumerate(p.coeffs) for i, c in enumerate(col.coeffs) if c}


def ref_min_exponents(f):
    return tuple(min(key[k] for key in f[1]) for k in range(3))


def ref_divide_monomial(f, exponents):
    shifted = {tuple(e - m for e, m in zip(key, exponents)): c for key, c in f[1].items()}
    return ref_form(f[0] - sum(exponents), shifted)


def ref_canonical_scaled(f):
    return ref_form_scale(f, f[1][max(f[1])].inv()) if f[1] else f


def ref_is_proportional(f, g):
    if f[0] != g[0] or f[1].keys() != g[1].keys():
        return False
    if not f[1]:
        return True
    pivot = next(iter(f[1]))
    a_p, b_p = f[1][pivot], g[1][pivot]
    return all(a * b_p == g[1][key] * a_p for key, a in f[1].items())


def ref_form_str(f):
    def coeff_str(c, standalone=False):
        text = str(c)
        return f"({text})" if " " in text and not standalone else text

    terms = []
    for key in sorted(f[1], reverse=True):
        coeff = f[1][key]
        parts = [var if e == 1 else f"{var}^{e}" for e, var in zip(key, "TXZ") if e]
        monomial = "*".join(parts)
        if not parts:
            body = coeff_str(coeff, standalone=True)
        elif coeff == ONE:
            body = monomial
        elif coeff == -ONE:
            body = f"-{monomial}"
        else:
            body = f"{coeff_str(coeff)}*{monomial}"
        terms.append(body)
    if not terms:
        return "0"
    out = terms[0]
    for term in terms[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


def as_ref(form: TriForm):
    """A TriForm read through `terms`, which must come in ascending order."""
    assert list(form.terms) == sorted(form.terms)
    return form.degree, form.terms


@st.composite
def ref_forms(draw, degree=None):
    """(degree, terms) of degree 0..4 with up to seven terms, whose
    coefficients have r2, i and i*r2 parts and denominators, zeros included."""
    d = draw(st.integers(0, 4)) if degree is None else degree
    keys = [(a, b, d - a - b) for a in range(d + 1) for b in range(d + 1 - a)]
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=7))
    return d, {key: draw(kernel_elems) for key in chosen}


@st.composite
def form_cases(draw):
    f = draw(ref_forms())
    g = draw(ref_forms(degree=f[0]))
    h = draw(ref_forms(degree=draw(st.integers(0, 2))))
    e = draw(st.integers(0, 2))
    images = tuple(draw(ref_forms(degree=e)) for _ in range(3))
    return f, g, h, images


@given(form_cases(), nonzero_kernel_elems, kernel_elems, kernel_elems, nonzero_kernel_elems)
@settings(deadline=None)
def test_forms_match_the_dict_reference(case, v, t, x, w):
    f, g, h, images = case
    F, G, H = TriForm(*f), TriForm(*g), TriForm(*h)
    f, g, h = ref_form(*f), ref_form(*g), ref_form(*h)
    assert as_ref(F) == f and list(F.terms.items()) == list(f[1].items())
    assert as_ref(F + G) == ref_form_add(f, g)
    assert as_ref(F * H) == ref_form_mul(f, h)
    assert as_ref(F.scale(v)) == ref_form_scale(f, v)
    for index in range(3):
        assert as_ref(F.partial(index)) == ref_form_partial(f, index)
    refs = tuple(ref_form(*image) for image in images)
    substituted = F.substitute(tuple(TriForm(*image) for image in images))
    assert as_ref(substituted) == ref_form_substitute(f, refs)
    # off Z = 0, on it with X != 0, and at [1 : 0 : 0]
    for point in ((t, x, w), (t, w, ZERO), (w, ZERO, ZERO)):
        assert F.eval(point) == ref_form_eval(f, point)
    for chart in range(3):
        assert bipoly_terms(F.dehomogenize(chart)) == ref_chart_terms(f, chart)
    assert F.to_str() == ref_form_str(f)
    assert as_ref(F.canonical_scaled()) == ref_canonical_scaled(f)
    if f[1]:
        mins = F.min_exponents()
        assert mins == ref_min_exponents(f)
        assert as_ref(F.divide_monomial(mins)) == ref_divide_monomial(f, mins)
        # a rescaled copy, the same with one coefficient moved, and g
        key = sorted(f[1])[len(f[1]) // 2]
        moved = F.scale(v) + TriForm(F.degree, {key: w})
        for other in (F.scale(v), moved, G, TriForm(F.degree + 1, {})):
            o = as_ref(other)
            assert F.is_proportional(other) == ref_is_proportional(f, o)
            assert other.is_proportional(F) == ref_is_proportional(o, f)


@given(ref_forms(), ref_forms())
@settings(deadline=None)
def test_equal_forms_built_four_ways_are_equal_and_hash_equal(f, g):
    f, g = ref_form(*f), ref_form(*g)
    product = ref_form_mul(f, g)
    chart = BiPoly.zero()
    for (a, b, _c), coeff in product[1].items():
        chart = chart + BiPoly([Poly.zero()] * b + [Poly.constant(coeff).shift_up(a)])

    def build():
        built = [
            TriForm(*product),
            TriForm.homogenize(chart, product[0]),
            TriForm(*f) * TriForm(*g),
        ]
        if product[1]:
            built.append(parse_triform(built[0].to_str()))
        return built

    # a form's hash is computed at its first call and cached: hash each form
    # twice, one set first to last and a fresh set last to first
    forward, backward = build(), build()
    hashes = [hash(form) for form in forward] + [hash(form) for form in reversed(backward)]
    hashes += [hash(form) for form in forward + backward]
    assert len(set(hashes)) == 1
    for form in forward:
        assert form == forward[0] and forward[0] == form
        assert as_ref(form) == product


def test_divide_monomial_refuses_a_monomial_that_does_not_divide():
    form = parse_triform("T^2*X + X*Z^2")
    assert form.divide_monomial((0, 1, 0)) == parse_triform("T^2 + Z^2")
    for exponents, power in (((1, 1, 0), "t"), ((0, 2, 0), "x"), ((0, 1, 1), "Z")):
        with pytest.raises(ValueError, match=f"not divisible by the requested {power} power"):
            form.divide_monomial(exponents)
