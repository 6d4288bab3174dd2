"""Shared builders for the test suite."""

import random
from fractions import Fraction

from phasealg import AlgebraElement, PhaseContext, PhasePoly, close_algebra, parse_expression


def random_rational(rng: random.Random, span: int = 6) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def random_poly(rng: random.Random, ctx: PhaseContext, max_degree: int = 4, max_terms: int = 5) -> PhasePoly:
    p = PhasePoly.zero(ctx)
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * ctx.nvars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(ctx.nvars)] += 1
        coeff = random_rational(rng)
        if coeff:
            p = p + PhasePoly.monomial(ctx, exps, coeff)
    return p


def sphere_closure(m=1, r0=1, bracket="poisson"):
    """Kinetic energy plus spherical-shell constraint, 3 degrees of freedom."""
    ctx = PhaseContext(3, params={"m": m, "r0": r0})
    seeds = [
        AlgebraElement("H", parse_expression("(p1^2 + p2^2 + p3^2)/(2*m)", ctx)),
        AlgebraElement("U", parse_expression("(q1^2 + q2^2 + q3^2)/r0^2 - 1", ctx)),
    ]
    return close_algebra(seeds, bracket_kind=bracket)


def cm_closure(total_mass=1, x0=0, bracket="poisson"):
    """Free kinetic energy plus the three centre-of-mass constraints."""
    ctx = PhaseContext(3, params={"M": total_mass, "X0": x0})
    seeds = [AlgebraElement("H", parse_expression("(p1^2 + p2^2 + p3^2)/(2*M)", ctx))]
    for i in (1, 2, 3):
        seeds.append(AlgebraElement(f"X{i}", parse_expression(f"q{i} - X0", ctx)))
    return close_algebra(seeds, bracket_kind=bracket)


def edge_operands(ctx: PhaseContext) -> list[PhasePoly]:
    """Zero, constant and linear operands, and monomials whose exponents
    exceed a degree budget of 4 and whose pairwise sums land exactly on
    2^k - 1 and 2^k, where a packed exponent field one bit too narrow
    would carry into its neighbour.  At D=1 a further pair, with maxima
    127/128 against 128/127, lands on 255 and 256, the first byte
    boundary of the packed fields; each of its terms is a power of one
    variable, which keeps its Moyal series short."""
    d = ctx.dof

    def mono(coeff, *powers):
        exps = [0] * ctx.nvars
        for var, e in powers:
            exps[var] = e
        return PhasePoly.monomial(ctx, exps, coeff)

    big = 31 if d == 1 else 7
    edges = [
        PhasePoly.zero(ctx),
        PhasePoly.constant(ctx, Fraction(7, 3)),
        mono(1, (0, 1)) + mono(-2, (2 * d - 1, 1)) + Fraction(1, 2),
        mono(1, (0, big), (d, big + 1)),
        mono(1, (0, big + 2), (d, big)) + mono(Fraction(-3, 5), (d - 1, big + 1)),
    ]
    if d == 1:
        edges += [mono(Fraction(5, 2), (0, 127)) + mono(-3, (1, 128)),
                  mono(1, (0, 128)) + mono(Fraction(-1, 4), (1, 127))]
    return edges


def kernel_cases(seed: int, dofs, hbars=(1,), randoms: int = 8, max_degree: int = 5, max_terms: int = 6):
    """Operand pairs for the packed product and bracket kernels: every
    ordered pair of ``edge_operands`` and ``randoms`` seeded random pairs,
    for each D in ``dofs`` and hbar in ``hbars``."""
    rng = random.Random(seed)
    for dof in dofs:
        for hbar in hbars:
            ctx = PhaseContext(dof, hbar=hbar, max_degree=4)
            edges = edge_operands(ctx)
            for a in edges:
                for b in edges:
                    yield a, b
            for _ in range(randoms):
                yield (random_poly(rng, ctx, max_degree, max_terms),
                       random_poly(rng, ctx, max_degree, max_terms))
