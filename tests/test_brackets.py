import math
import random
from fractions import Fraction
from itertools import product

import pytest

from conftest import kernel_cases, random_poly
from phasealg import (
    ContextMismatchError,
    PhaseContext,
    PhasePoly,
    moyal_bracket,
    poisson_bracket,
)


def brute_force_moyal(a: PhasePoly, b: PhasePoly) -> PhasePoly:
    """Slow reference: enumerate every bidifferential term independently."""
    ctx = a.ctx
    d = ctx.dof
    hbar = ctx.hbar
    out = PhasePoly.zero(ctx)
    top = min(a.total_degree(), b.total_degree())
    k = 1
    while k <= top:
        coeff_k = Fraction((-1) ** ((k - 1) // 2), math.factorial(k)) * (
            Fraction(hbar, 2) ** (k - 1)
        )
        for orders in product(range(k + 1), repeat=2 * d):
            if sum(orders) != k:
                continue
            s, t = orders[:d], orders[d:]
            da = a.derivative_multi(tuple(s) + tuple(t))
            if da.is_zero():
                continue
            db = b.derivative_multi(tuple(t) + tuple(s))
            if db.is_zero():
                continue
            weight = math.factorial(k)
            for o in orders:
                weight //= math.factorial(o)
            out = out + da * db * (coeff_k * weight * (-1) ** sum(t))
        k += 2
    return out


def derivative_product_poisson(a: PhasePoly, b: PhasePoly) -> PhasePoly:
    """Reference: the bracket as a sum of products of partial derivatives."""
    ctx = a.ctx
    result = PhasePoly.zero(ctx)
    for i in range(ctx.dof):
        qi, pi = i, ctx.dof + i
        da_q = a.partial_derivative(qi)
        da_p = a.partial_derivative(pi)
        if not da_q.is_zero():
            db_p = b.partial_derivative(pi)
            if not db_p.is_zero():
                result = result + da_q * db_p
        if not da_p.is_zero():
            db_q = b.partial_derivative(qi)
            if not db_q.is_zero():
                result = result - da_p * db_q
    return result


@pytest.fixture
def ctx():
    return PhaseContext(2)


def test_canonical_relations(ctx):
    q1 = PhasePoly.variable(ctx, "q1")
    p1 = PhasePoly.variable(ctx, "p1")
    q2 = PhasePoly.variable(ctx, "q2")
    p2 = PhasePoly.variable(ctx, "p2")
    assert poisson_bracket(q1, p1) == 1
    assert poisson_bracket(p1, q1) == -1
    assert poisson_bracket(q1, p2) == 0
    assert poisson_bracket(q1, q2) == 0
    assert poisson_bracket(p1, p2) == 0
    assert poisson_bracket(q2, p2) == 1


def test_bracket_with_constant_vanishes(ctx):
    c = PhasePoly.constant(ctx, Fraction(7, 3))
    f = PhasePoly.variable(ctx, "q1") ** 3 + PhasePoly.variable(ctx, "p2")
    assert poisson_bracket(c, f).is_zero()
    assert poisson_bracket(f, c).is_zero()
    assert moyal_bracket(c, f).is_zero()


def test_poisson_axioms_randomized():
    rng = random.Random(4242)
    ctx = PhaseContext(3)
    for _ in range(150):
        a = random_poly(rng, ctx, max_degree=4)
        b = random_poly(rng, ctx, max_degree=4)
        c = random_poly(rng, ctx, max_degree=4)
        ab = poisson_bracket(a, b)
        assert ab == -poisson_bracket(b, a)
        assert poisson_bracket(a + b, c) == poisson_bracket(a, c) + poisson_bracket(b, c)
        assert poisson_bracket(a * b, c) == a * poisson_bracket(b, c) + b * poisson_bracket(a, c)
        jac = (
            poisson_bracket(a, poisson_bracket(b, c))
            + poisson_bracket(b, poisson_bracket(c, a))
            + poisson_bracket(c, poisson_bracket(a, b))
        )
        assert jac.is_zero()


def test_hamilton_equations_sphere_fixture():
    ctx = PhaseContext(3)
    h = PhasePoly.zero(ctx)
    u = PhasePoly.constant(ctx, -1)
    v = PhasePoly.zero(ctx)
    for i in range(3):
        qi = PhasePoly.variable(ctx, i)
        pi = PhasePoly.variable(ctx, 3 + i)
        h = h + pi * pi / 2
        u = u + qi * qi
        v = v + qi * pi
    assert poisson_bracket(h, u) == v * -2
    assert poisson_bracket(h, v) == h * -2
    assert poisson_bracket(u, v) == u * 2 + 2


def test_moyal_equals_poisson_at_low_degree():
    rng = random.Random(11)
    ctx = PhaseContext(2)
    for _ in range(200):
        low = random_poly(rng, ctx, max_degree=2)
        other = random_poly(rng, ctx, max_degree=5)
        assert moyal_bracket(low, other) == poisson_bracket(low, other)
        assert moyal_bracket(other, low) == poisson_bracket(other, low)


def test_moyal_reference_values():
    ctx = PhaseContext(1)
    q = PhasePoly.variable(ctx, "q1")
    p = PhasePoly.variable(ctx, "p1")
    assert moyal_bracket(p, q) == -1
    assert moyal_bracket(q, p) == 1
    assert moyal_bracket(q**2, p**2) == q * p * 4
    expected = q**2 * p**2 * 9 - Fraction(3, 2)
    assert moyal_bracket(q**3, p**3) == expected
    assert poisson_bracket(q**3, p**3) == q**2 * p**2 * 9


def test_moyal_hbar_dependence():
    ctx2 = PhaseContext(1, hbar=2)
    q = PhasePoly.variable(ctx2, "q1")
    p = PhasePoly.variable(ctx2, "p1")
    assert moyal_bracket(q**3, p**3) == q**2 * p**2 * 9 - 6
    ctx0 = PhaseContext(1, hbar=0)
    q0 = PhasePoly.variable(ctx0, "q1")
    p0 = PhasePoly.variable(ctx0, "p1")
    assert moyal_bracket(q0**3, p0**3) == poisson_bracket(q0**3, p0**3)
    half = PhaseContext(1, hbar=Fraction(1, 2))
    qh = PhasePoly.variable(half, "q1")
    ph = PhasePoly.variable(half, "p1")
    assert moyal_bracket(qh**3, ph**3) == qh**2 * ph**2 * 9 - Fraction(3, 8)


def test_moyal_against_brute_force_oracle():
    rng = random.Random(31415)
    for dof, hbar in ((1, 1), (2, 1), (1, Fraction(3, 2)), (2, 3), (3, 0), (3, Fraction(-2, 7))):
        ctx = PhaseContext(dof, hbar=hbar)
        for _ in range(60):
            a = random_poly(rng, ctx, max_degree=4, max_terms=4)
            b = random_poly(rng, ctx, max_degree=4, max_terms=4)
            assert moyal_bracket(a, b) == brute_force_moyal(a, b)


def test_moyal_axioms_randomized():
    rng = random.Random(2718)
    ctx = PhaseContext(1)
    for _ in range(60):
        a = random_poly(rng, ctx, max_degree=3, max_terms=4)
        b = random_poly(rng, ctx, max_degree=3, max_terms=4)
        c = random_poly(rng, ctx, max_degree=3, max_terms=4)
        assert moyal_bracket(a, b) == -moyal_bracket(b, a)
        assert moyal_bracket(a + b, c) == moyal_bracket(a, c) + moyal_bracket(b, c)
        jac = (
            moyal_bracket(a, moyal_bracket(b, c))
            + moyal_bracket(b, moyal_bracket(c, a))
            + moyal_bracket(c, moyal_bracket(a, b))
        )
        assert jac.is_zero()


def test_context_mismatch(ctx):
    other = PhaseContext(1)
    with pytest.raises(ContextMismatchError):
        poisson_bracket(PhasePoly.variable(ctx, "q1"), PhasePoly.variable(other, "q1"))
    with pytest.raises(ContextMismatchError):
        moyal_bracket(PhasePoly.variable(ctx, "q1"), PhasePoly.variable(other, "q1"))


def test_poisson_agrees_with_derivative_products():
    for a, b in kernel_cases(1618, dofs=(1, 2, 3, 4), randoms=12):
        assert poisson_bracket(a, b) == derivative_product_poisson(a, b)


def test_moyal_agrees_with_brute_force_on_kernel_cases():
    hbars = (0, 1, Fraction(3, 2), Fraction(-2, 7))
    for a, b in kernel_cases(2718, dofs=(1, 2), hbars=hbars, randoms=6, max_degree=4):
        assert moyal_bracket(a, b) == brute_force_moyal(a, b)
