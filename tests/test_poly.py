import random
import re
from fractions import Fraction

import numpy
import pytest

from conftest import kernel_cases, random_poly
from phasealg import (
    ContextMismatchError,
    PhaseContext,
    PhasePoly,
    close_algebra,
    find_center,
    format_poly,
    moyal_bracket,
    partial_derivative,
    poisson_bracket,
)
from phasealg.cli import load_problem


def dense_product(a: PhasePoly, b: PhasePoly) -> PhasePoly:
    """Reference: the product over exponent tuples, one Fraction per term pair."""
    terms: dict[tuple[int, ...], Fraction] = {}
    for e1, c1 in a.term_items():
        for e2, c2 in b.term_items():
            exps = tuple(x + y for x, y in zip(e1, e2))
            terms[exps] = terms.get(exps, Fraction(0)) + c1 * c2
    return PhasePoly(a.ctx, terms)


@pytest.fixture
def ctx():
    return PhaseContext(2)


def test_zero_and_constant(ctx):
    z = PhasePoly.zero(ctx)
    assert z.is_zero() and z.is_constant()
    assert z.total_degree() == -1
    assert z.num_terms() == 0
    c = PhasePoly.constant(ctx, Fraction(3, 4))
    assert c.is_constant() and not c.is_zero()
    assert c.constant_value() == Fraction(3, 4)
    assert c.total_degree() == 0
    assert PhasePoly.constant(ctx, 0) == z


def test_variable_constructors(ctx):
    q1 = PhasePoly.variable(ctx, "q1")
    assert q1 == PhasePoly.variable(ctx, 0)
    assert PhasePoly.variable(ctx, "x1") == q1
    p2 = PhasePoly.variable(ctx, "p2")
    assert p2 == PhasePoly.variable(ctx, 3)
    assert p2.total_degree() == 1
    with pytest.raises(ValueError):
        PhasePoly.variable(ctx, "q3")
    with pytest.raises(ValueError):
        PhasePoly.variable(ctx, 4)


def test_no_stored_zero_coefficients(ctx):
    q = PhasePoly.variable(ctx, "q1")
    diff = q - q
    assert diff.is_zero()
    assert diff.num_terms() == 0
    mixed = q + PhasePoly.constant(ctx, 1) - q
    assert mixed.num_terms() == 1


def test_term_ordering_graded_lex(ctx):
    # q1^2 outranks q1*p2 outranks q2, then constants
    p = (
        PhasePoly.monomial(ctx, (0, 1, 0, 0), 5)
        + PhasePoly.monomial(ctx, (2, 0, 0, 0), 1)
        + PhasePoly.monomial(ctx, (1, 0, 0, 1), 2)
        + PhasePoly.constant(ctx, 7)
    )
    monos = p.monomials()
    assert monos == ((2, 0, 0, 0), (1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 0, 0))


def test_arithmetic_examples(ctx):
    q1 = PhasePoly.variable(ctx, "q1")
    p1 = PhasePoly.variable(ctx, "p1")
    s = (q1 + p1) * (q1 - p1)
    assert s == q1 * q1 - p1 * p1
    assert (q1 + 1) * (q1 + 1) == q1**2 + q1 * 2 + 1
    assert q1 * Fraction(1, 2) + q1 * Fraction(1, 2) == q1
    assert (q1 * 6) / 3 == q1 * 2
    with pytest.raises(ZeroDivisionError):
        q1 / 0


def test_scalar_equality(ctx):
    assert PhasePoly.constant(ctx, 5) == 5
    assert PhasePoly.constant(ctx, Fraction(1, 3)) == Fraction(1, 3)
    assert PhasePoly.zero(ctx) == 0
    assert PhasePoly.variable(ctx, "q1") != 0


def test_pow_square_and_multiply(ctx):
    base = PhasePoly.variable(ctx, "q1") + PhasePoly.variable(ctx, "p2")
    expanded = PhasePoly.constant(ctx, 1)
    for _ in range(5):
        expanded = expanded * base
    assert base**5 == expanded
    assert base**0 == 1
    with pytest.raises(ValueError):
        base ** (-1)


def test_ring_axioms_randomized():
    rng = random.Random(20260818)
    ctx = PhaseContext(2)
    for _ in range(200):
        a = random_poly(rng, ctx, max_degree=3)
        b = random_poly(rng, ctx, max_degree=3)
        c = random_poly(rng, ctx, max_degree=3)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == 0
        assert a * 1 == a and a * 0 == 0


def test_partial_derivative(ctx):
    q1 = PhasePoly.variable(ctx, "q1")
    p1 = PhasePoly.variable(ctx, "p1")
    f = q1**3 * p1 + q1 * 2 + 5
    assert f.partial_derivative("q1") == q1**2 * p1 * 3 + 2
    assert f.partial_derivative("p1") == q1**3
    assert f.partial_derivative("q2").is_zero()
    assert partial_derivative(f, 0) == f.partial_derivative("q1")
    # d/dq then d/dp commute
    assert f.partial_derivative("q1").partial_derivative("p1") == f.partial_derivative(
        "p1"
    ).partial_derivative("q1")


def test_derivative_multi(ctx):
    q1 = PhasePoly.variable(ctx, "q1")
    f = q1**4
    assert f.derivative_multi((2, 0, 0, 0)) == q1**2 * 12
    assert f.derivative_multi((5, 0, 0, 0)).is_zero()
    assert f.derivative_multi((0, 0, 0, 0)) == f


def test_substitute_linear(ctx):
    target = PhaseContext(2)
    q1 = PhasePoly.variable(ctx, "q1")
    p1 = PhasePoly.variable(ctx, "p1")
    f = q1**2 + p1
    images = {
        0: PhasePoly.variable(target, "q1") + PhasePoly.variable(target, "q2"),
        3: PhasePoly.constant(target, 2),
        1: PhasePoly.zero(target),
        2: PhasePoly.variable(target, "p1") * 2,
    }
    g = f.substitute(images, target)
    t1 = PhasePoly.variable(target, "q1")
    t2 = PhasePoly.variable(target, "q2")
    assert g == (t1 + t2) ** 2 + PhasePoly.variable(target, "p1") * 2
    with pytest.raises(ValueError):
        f.substitute({0: t1}, target)  # p1 image missing
    with pytest.raises(ValueError, match="no image for variable q1$"):
        f.substitute({}, target)  # the lowest-index missing variable is named


def test_substitute_identity_roundtrip():
    rng = random.Random(7)
    ctx = PhaseContext(2)
    images = {i: PhasePoly.variable(ctx, i) for i in range(ctx.nvars)}
    for _ in range(50):
        f = random_poly(rng, ctx)
        assert f.substitute(images, ctx) == f


def test_context_mismatch_rejected():
    a = PhasePoly.variable(PhaseContext(1), "q1")
    b = PhasePoly.variable(PhaseContext(2), "q1")
    with pytest.raises(ContextMismatchError):
        a + b
    with pytest.raises(ContextMismatchError):
        a * b


def test_polynomials_are_immutable_and_unhashable(ctx):
    p = PhasePoly.variable(ctx, "q1")
    with pytest.raises(AttributeError):
        p.ctx = PhaseContext(1)
    with pytest.raises(TypeError):
        hash(p)


def test_total_degree_is_max_over_terms(ctx):
    p = PhasePoly.monomial(ctx, (1, 1, 0, 0)) + PhasePoly.monomial(ctx, (0, 0, 3, 1))
    assert p.total_degree() == 4


def test_mul_agrees_with_dense_product():
    for a, b in kernel_cases(1729, dofs=(1, 2, 3, 4), randoms=12):
        assert a * b == dense_product(a, b)


def test_mul_across_the_two_byte_boundary():
    """Exponent sums of 65535 and 65536 sit on both sides of a 2-byte field;
    q1^65536 in a field one byte too narrow would carry into p1."""
    ctx = PhaseContext(1)
    a = PhasePoly.monomial(ctx, (32768, 32767), Fraction(3, 2)) + PhasePoly.monomial(ctx, (1, 32768), -1)
    b = PhasePoly.monomial(ctx, (32768, 32768)) + PhasePoly.monomial(ctx, (0, 1), 5)
    product = a * b
    assert product == dense_product(a, b)
    assert product.coefficient((65536, 65535)) == Fraction(3, 2)
    assert product.coefficient((32769, 65536)) == -1


def test_mul_rejects_exponents_past_64_bits():
    ctx = PhaseContext(1)
    q_half = PhasePoly.monomial(ctx, (2**63, 0))
    widest = q_half * PhasePoly.monomial(ctx, (2**63 - 1, 1))
    assert widest == PhasePoly.monomial(ctx, (2**64 - 1, 1))
    with pytest.raises(OverflowError, match=rf"^exponent {2**63} \+ {2**63} of q1 does not fit"):
        q_half * q_half


def reference_format_poly(p: PhasePoly) -> str:
    """Reference formatter: magnitudes and signs through ``Fraction`` arithmetic."""
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for exps, coeff in p.term_items():
        factors = []
        for i, e in enumerate(exps):
            if e == 0:
                continue
            name = p.ctx.var_name(i)
            factors.append(name if e == 1 else f"{name}^{e}")
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(parts)


def formatter_cases():
    """Kernel results, small signed constants and monomials, and the
    closures and centre solutions of the bundled problems that close."""
    for a, b in kernel_cases(1729, dofs=(1, 2, 3, 4), hbars=(Fraction(3, 2),), randoms=12):
        yield a * b
        yield poisson_bracket(a, b)
        yield moyal_bracket(a, b)
    ctx = PhaseContext(2)
    for coeff in (1, -1, 2, -2, Fraction(1, 3), Fraction(-5, 3)):
        yield PhasePoly.constant(ctx, coeff)
        yield PhasePoly.monomial(ctx, (1, 0, 2, 0), coeff) - PhasePoly.variable(ctx, "p2")
    for name in ("nsphere", "cm"):
        problem = load_problem(name)
        closure = close_algebra(problem.seeds(problem.context()), bracket_kind=problem.bracket,
                                max_basis=problem.max_basis, max_degree=problem.max_degree)
        yield from (e.poly for e in closure.basis)
        for degree in (problem.center_degree, 4):
            yield from find_center(closure, max_total_degree=degree).solutions


def test_format_poly_matches_reference():
    for p in formatter_cases():
        assert format_poly(p) == reference_format_poly(p)


@pytest.mark.parametrize("exps", [(1.5, 0), (1.0, 0)], ids=["1.5", "1.0"])
def test_non_integer_exponents_are_refused(exps):
    """A float exponent, even a whole one, is refused with the vector named:
    ``q1^1.5`` is no polynomial, and ``q1^1.0`` would compare equal to q1
    while no packed field can hold it."""
    with pytest.raises(ValueError, match=re.escape(f"exponent vector {exps} ")):
        PhasePoly(PhaseContext(1), {exps: 1})


def test_integer_like_exponents_are_stored_as_ints():
    """numpy integers (and bools) index like ints, and are stored as plain
    ints, so the polynomial equals the one built from ints and brackets."""
    ctx = PhaseContext(1)
    q1, p1 = PhasePoly.variable(ctx, "q1"), PhasePoly.variable(ctx, "p1")
    p = PhasePoly(ctx, {(numpy.int64(1), numpy.uint8(0)): 1, (True, numpy.int32(2)): Fraction(1, 2)})
    assert p == q1 + q1 * p1**2 / 2
    assert all(type(e) is int for exps, _ in p.term_items() for e in exps)
    assert poisson_bracket(p, p1) == 1 + p1**2 / 2


def test_canonical_form_is_the_content_and_primitive_part(ctx):
    """Integer numerators over one positive denominator, their gcd with it 1;
    the zero polynomial is no numerator over 1.  Equal values built
    different ways hold the same form."""
    q1, p2 = PhasePoly.variable(ctx, "q1"), PhasePoly.variable(ctx, "p2")
    p = Fraction(2, 3) * q1 - Fraction(4, 9) * p2 + 2
    assert (p._nums, p._den) == ({(1, 0, 0, 0): 6, (0, 0, 0, 1): -4, (0, 0, 0, 0): 18}, 9)
    assert p.term_items() == [((1, 0, 0, 0), Fraction(2, 3)), ((0, 0, 0, 1), Fraction(-4, 9)),
                              ((0, 0, 0, 0), Fraction(2))]
    assert (q1 / 2) * 2 == q1 and ((q1 / 2) * 2)._den == 1
    zero = p - p
    assert (zero._nums, zero._den) == ({}, 1) and zero == PhasePoly.zero(ctx)
    assert p.coefficient((0, 0, 0, 1)) == Fraction(-4, 9) and p.constant_value() == 2
    assert p.coefficient((0, 1, 0, 0)) == 0
