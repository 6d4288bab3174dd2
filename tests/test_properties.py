"""Property tests of the product and bracket kernels, with sympy as an
independent oracle, and of the brackets' invariance under the canonical
maps of ``separation``.  Hypothesis runs derandomized and without an
example database, so every run draws the same examples."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from phasealg import (
    PhaseContext,
    PhasePoly,
    jacobi_transform,
    moyal_bracket,
    poisson_bracket,
    two_body_transform,
)

# On a failure hypothesis's pytest plugin imports libcst to suggest an
# @example patch, and libcst's import raises this third-party deprecation;
# under filterwarnings=error that would hide the falsifying example behind
# an INTERNALERROR.
pytestmark = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

CONTEXTS = [PhaseContext(dof, hbar=Fraction(3, 2)) for dof in (1, 2, 3)]
COEFFS = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def polys(ctx: PhaseContext, max_exp: int = 3, max_terms: int = 5):
    exps = st.tuples(*[st.integers(0, max_exp)] * ctx.nvars)
    return st.dictionaries(exps, COEFFS, max_size=max_terms).map(lambda t: PhasePoly(ctx, t))


def low_degree_polys(ctx: PhaseContext, degree: int = 2):
    """Polynomials of total degree <= ``degree``."""

    def exps(indices):
        out = [0] * ctx.nvars
        for i in indices:
            out[i] += 1
        return tuple(out)

    monomials = st.lists(st.integers(0, ctx.nvars - 1), max_size=degree).map(exps)
    return st.dictionaries(monomials, COEFFS, max_size=6).map(lambda t: PhasePoly(ctx, t))


def operands(count: int, low: bool = False):
    """``count`` polynomials on one context drawn from D = 1..3; with
    ``low`` the first has total degree <= 2."""

    def on(ctx):
        first = low_degree_polys(ctx) if low else polys(ctx)
        return st.tuples(first, *[polys(ctx)] * (count - 1))

    return st.sampled_from(CONTEXTS).flatmap(on)


def to_sympy(p: PhasePoly):
    names = [p.ctx.var_name(i) for i in range(p.ctx.nvars)]
    syms = sympy.symbols(names)
    expr = sympy.Integer(0)
    for exps, c in p.term_items():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, e in zip(syms, exps):
            term *= s**e
        expr += term
    return expr, syms


def same(p: PhasePoly, expr) -> bool:
    return sympy.expand(to_sympy(p)[0] - expr) == 0


@PROPERTY
@given(operands(2))
def test_product_matches_sympy(pair):
    a, b = pair
    assert same(a * b, to_sympy(a)[0] * to_sympy(b)[0])


def small_operands(count: int):
    """``count`` polynomials on one context with D <= 2, exponents <= 2."""
    return st.sampled_from(CONTEXTS[:2]).flatmap(
        lambda ctx: st.tuples(*[polys(ctx, max_exp=2, max_terms=4)] * count))


@PROPERTY
@given(small_operands(2))
def test_sums_match_sympy(pair):
    a, b = pair
    ea, eb = to_sympy(a)[0], to_sympy(b)[0]
    assert same(a + b, ea + eb)
    assert same(a - b, ea - eb)
    assert same(3 - a, 3 - ea)   # __rsub__
    assert (a - a).is_zero() and a - a == 0


@PROPERTY
@given(small_operands(2))
def test_sums_that_cancel_match_sympy(pair):
    """Sums whose terms cancel, wholly or in part, drop the zero terms."""
    a, b = pair
    eb = to_sympy(b)[0]
    assert same(a + (b - a), eb)
    assert same((b + a) + -a, eb)
    assert a + (b - a) == b and (b + a) + -a == b   # term maps equal: no zero kept
    assert (a + -a).is_zero()


@PROPERTY
@given(small_operands(1), st.data())
def test_derivatives_match_sympy_diff(single, data):
    (a,) = single
    expr, syms = to_sympy(a)
    i = data.draw(st.integers(0, a.ctx.nvars - 1))
    want = sympy.diff(expr, syms[i])
    assert same(a.partial_derivative(i), want)
    assert same(a.partial_derivative(a.ctx.var_name(i)), want)
    order = data.draw(st.tuples(*[st.integers(0, 3)] * a.ctx.nvars))
    want = expr
    for sym, k in zip(syms, order):
        want = sympy.diff(want, sym, k)
    assert same(a.derivative_multi(order), want)


@PROPERTY
@given(small_operands(1), st.data())
def test_substitute_matches_sympy_subs(single, data):
    """Images over a D <= 2 target; an image may be plus or minus the first
    one, so that terms of the result cancel."""
    (a,) = single
    target = data.draw(st.sampled_from(CONTEXTS[:2]))
    images = {}
    for i in range(a.ctx.nvars):
        copy = i and data.draw(st.sampled_from([None, 1, -1]))
        images[i] = images[0] * copy if copy else data.draw(polys(target, max_exp=1, max_terms=3))
    expr, syms = to_sympy(a)
    want = expr.subs({s: to_sympy(images[i])[0] for i, s in enumerate(syms)}, simultaneous=True)
    assert same(a.substitute(images, target), sympy.expand(want))


def test_substitute_cancels_terms():
    ctx = PhaseContext(1)
    q, p = PhasePoly.variable(ctx, "q1"), PhasePoly.variable(ctx, "p1")
    f = q**2 - p**2
    assert f.substitute({0: q, 1: q}, ctx).is_zero()
    assert f.substitute({0: q + p, 1: q - p}, ctx) == 4 * q * p


@PROPERTY
@given(operands(2))
def test_poisson_matches_sympy_diff(pair):
    a, b = pair
    (ea, syms), (eb, _) = to_sympy(a), to_sympy(b)
    d = a.ctx.dof
    want = sum(
        (sympy.diff(ea, q) * sympy.diff(eb, p) - sympy.diff(ea, p) * sympy.diff(eb, q)
         for q, p in zip(syms[:d], syms[d:])),
        sympy.Integer(0),
    )
    assert same(poisson_bracket(a, b), want)


@PROPERTY
@given(operands(3))
def test_poisson_antisymmetry_leibniz_jacobi(triple):
    a, b, c = triple
    assert poisson_bracket(a, b) == -poisson_bracket(b, a)
    assert poisson_bracket(a * b, c) == a * poisson_bracket(b, c) + b * poisson_bracket(a, c)
    jacobi = (
        poisson_bracket(a, poisson_bracket(b, c))
        + poisson_bracket(b, poisson_bracket(c, a))
        + poisson_bracket(c, poisson_bracket(a, b))
    )
    assert jacobi.is_zero()


@PROPERTY
@given(operands(3))
def test_moyal_antisymmetry_jacobi(triple):
    a, b, c = triple
    assert moyal_bracket(a, b) == -moyal_bracket(b, a)
    jacobi = (
        moyal_bracket(a, moyal_bracket(b, c))
        + moyal_bracket(b, moyal_bracket(c, a))
        + moyal_bracket(c, moyal_bracket(a, b))
    )
    assert jacobi.is_zero()


@PROPERTY
@given(operands(2, low=True))
def test_moyal_equals_poisson_at_degree_two(pair):
    low, other = pair
    assert moyal_bracket(low, other) == poisson_bracket(low, other)
    assert moyal_bracket(other, low) == poisson_bracket(other, low)


@pytest.mark.parametrize("hbar", [1, Fraction(3, 2)], ids=["hbar-1", "hbar-3/2"])
@settings(PROPERTY, max_examples=20)
@given(st.data())
def test_moyal_matches_bidifferential_series(hbar, data):
    """The Moyal bracket equals the series sum over odd k of
    (-1)^((k-1)/2) (hbar/2)^(k-1) / k! Pi^k, with
    Pi = sum_i (d_qi^A d_pi^B - d_pi^A d_qi^B) applied k times to A(x) B(y)
    in sympy and y then set to x.  Degree <= 4 stops the series at k = 3."""
    ctx = PhaseContext(data.draw(st.sampled_from([1, 2])), hbar=hbar)
    a, b = data.draw(st.tuples(*[low_degree_polys(ctx, 4)] * 2))
    (ea, xs), (eb, _) = to_sympy(a), to_sympy(b)
    ys = sympy.symbols([f"y{i}" for i in range(ctx.nvars)])
    d = ctx.dof
    term = ea * eb.subs(dict(zip(xs, ys)), simultaneous=True)
    want = sympy.Integer(0)
    half = sympy.Rational(ctx.hbar.numerator, 2 * ctx.hbar.denominator)
    for k in range(1, 4):
        term = sum(
            (sympy.diff(term, xs[i], ys[d + i]) - sympy.diff(term, xs[d + i], ys[i])
             for i in range(d)),
            sympy.Integer(0),
        )
        if k % 2:
            want += (-1) ** ((k - 1) // 2) * half ** (k - 1) / sympy.factorial(k) * term
    assert same(moyal_bracket(a, b), want.subs(dict(zip(ys, xs)), simultaneous=True))


@pytest.mark.parametrize("hbar", [1, Fraction(3, 2), Fraction(2, 7)],
                         ids=["hbar-1", "hbar-3/2", "hbar-2/7"])
def test_moyal_groenewold_reference_values(hbar):
    """{q^3, p^3}_M = 9 q^2 p^2 - (3/2) hbar^2 and
    {q^4, p^4}_M = 16 q^3 p^3 - 24 hbar^2 q p (Groenewold 1946)."""
    ctx = PhaseContext(1, hbar=hbar)
    q, p = PhasePoly.variable(ctx, "q1"), PhasePoly.variable(ctx, "p1")
    h2 = Fraction(hbar) ** 2
    assert moyal_bracket(q**3, p**3) == 9 * q**2 * p**2 - Fraction(3, 2) * h2
    assert moyal_bracket(q**4, p**4) == 16 * q**3 * p**3 - 24 * h2 * q * p


MASSES = st.fractions(min_value=Fraction(1, 6), max_value=6, max_denominator=6)
CANONICAL_MAPS = st.one_of(
    st.builds(two_body_transform, MASSES, MASSES, d=st.integers(1, 2)),
    st.builds(jacobi_transform, st.lists(MASSES, min_size=3, max_size=3), d=st.integers(1, 2)),
)


@pytest.mark.parametrize(
    "bracket, hbar",
    [(poisson_bracket, 1), (moyal_bracket, 1), (moyal_bracket, Fraction(3, 2))],
    ids=["poisson", "moyal-hbar-1", "moyal-hbar-3/2"],
)
@PROPERTY
@given(CANONICAL_MAPS, st.data())
def test_brackets_invariant_under_canonical_maps(bracket, hbar, cmap, data):
    """Rewriting f and g in the new variables, then bracketing, equals
    bracketing, then rewriting: the maps are linear and symplectic."""
    old = PhaseContext(cmap.old_context().dof, hbar=hbar)
    new = PhaseContext(old.dof, hbar=hbar)
    images = cmap.old_variable_images(new)
    f, g = data.draw(st.tuples(*[low_degree_polys(old, 3)] * 2))

    def rewrite(p):
        return p.substitute(images, new)

    assert bracket(rewrite(f), rewrite(g)) == rewrite(bracket(f, g))
