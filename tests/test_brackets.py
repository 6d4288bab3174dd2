import math
import random
from fractions import Fraction
from itertools import accumulate, product
from pathlib import Path

import pytest

from conftest import kernel_cases, random_poly
from phasealg import (
    ContextMismatchError,
    PhaseContext,
    PhasePoly,
    brackets,
    moyal_bracket,
    parse_expression,
    poisson_bracket,
)
from phasealg.poly import _layout, _maxima, _pack, _product_into, _units, _unpack

BENCH = Path(__file__).resolve().parent.parent / "bench"


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


def reference_series(a: PhasePoly, b: PhasePoly, top: int) -> PhasePoly:
    """Reference: the packed kernel with one walk over the slots for each
    odd k <= top, each on A's terms scaled by k's factor and each branch
    ending where the caps of the slots left cannot hold the rest of k."""
    ctx = a.ctx
    dof = ctx.dof
    max_a, max_b = _maxima(a), _maxima(b)
    layout = _layout(ctx, max_a, max_b)
    units = _units(layout)
    terms_a, (den_a,) = _pack([a], layout)
    terms_b, (den_b,) = _pack([b], layout)
    pairs = [(i, dof + i, False) for i in range(dof)] + [(dof + i, i, True) for i in range(dof)]
    slots = [(va, vb, neg, units[va], units[vb], min(max_a[va], max_b[vb]))
             for va, vb, neg in pairs]
    room = list(accumulate(reversed([slot[-1] for slot in slots]), initial=0))[::-1]
    acc: dict[int, int] = {}
    half = ctx.hbar / 2
    last = top - 1 + top % 2
    for k in range(1, top + 1, 2):
        scale = (-1) ** (k // 2) * half.numerator ** (k - 1) * half.denominator ** (last - k)
        scaled = terms_a if scale == 1 else [(key, num * scale, exps) for key, num, exps in terms_a]
        _reference_walk(acc, slots, room, 0, k, scaled, terms_b)
    return _unpack(ctx, acc, layout, den_a * den_b * half.denominator ** max(last - 1, 0))


def _reference_walk(acc, slots, room, slot, left, la, lb):
    if not left:
        _product_into(acc, la, lb)
        return
    if room[slot] < left:
        return
    _reference_walk(acc, slots, room, slot + 1, left, la, lb)
    va, vb, neg, ua, ub, cap = slots[slot]
    for m in range(1, min(left, cap) + 1):
        la = [(k - ua, (-n if neg else n) * (e[va] - m + 1) // m, e) for k, n, e in la if e[va] >= m]
        if not la:
            return
        lb = [(k - ub, n * (e[vb] - m + 1), e) for k, n, e in lb if e[vb] >= m]
        if not lb:
            return
        _reference_walk(acc, slots, room, slot + 1, left - m, la, lb)


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


def test_poisson_across_the_two_byte_boundary():
    """The bracket's exponents land on 65536 in q1 and 65535 in p1, either
    side of a 2-byte field; q1^65536 in a field too narrow would carry into q2."""
    ctx = PhaseContext(2)
    a = PhasePoly.monomial(ctx, (32768, 0, 32768, 0), Fraction(1, 3))
    b = PhasePoly.monomial(ctx, (32769, 0, 32768, 0)) + PhasePoly.monomial(ctx, (0, 1, 0, 0), 2)
    want = PhasePoly.monomial(ctx, (65536, 0, 65535, 0), Fraction(32768 * 32768 - 32768 * 32769, 3))
    assert poisson_bracket(a, b) == want
    assert poisson_bracket(a, b) == derivative_product_poisson(a, b)


def test_moyal_agrees_with_brute_force_on_kernel_cases():
    hbars = (0, 1, Fraction(3, 2), Fraction(-2, 7))
    for a, b in kernel_cases(2718, dofs=(1, 2), hbars=hbars, randoms=6, max_degree=4):
        assert moyal_bracket(a, b) == brute_force_moyal(a, b)


def test_single_walk_matches_per_k_reference():
    hbars = (0, 1, Fraction(3, 2), Fraction(-2, 7))
    for a, b in kernel_cases(1729, dofs=(1, 2, 3), hbars=hbars):
        assert poisson_bracket(a, b) == reference_series(a, b, 1)
        top = 1 if a.ctx.hbar == 0 else min(a.total_degree(), b.total_degree())
        assert moyal_bracket(a, b) == reference_series(a, b, top)


def test_batched_kernel_matches_single_brackets():
    """``brackets._PackedBasis.blocks`` walks every left operand at once, each
    term's packed keys tagged with its index in a field above the top
    exponent field; each block, its nonzero integer numerators read over its
    denominator, must be that term's own bracket, as its term dict.  From
    the same walk ``brackets._brackets_of(s, terms)`` must give each
    ``bracket(s, T)`` as the public bracket does, through ``_unpack``.
    The terms are the left operands of ``kernel_cases`` (mixed denominators
    and degrees, the zero polynomial) and the constant 1, the seeds its
    right operands; at D=1 the 127/128 edge operands drive the
    top field's high bit, right below the tag, and across the byte boundary."""
    hbars = (0, 1, Fraction(3, 2), Fraction(-2, 7))
    for dof, hbar in product((1, 2, 3), hbars):
        cases = list(kernel_cases(3141, dofs=(dof,), hbars=(hbar,), randoms=6))
        lefts = {id(a): a for a, _ in cases}
        rights = {id(b): b for _, b in cases}
        terms = [PhasePoly.constant(cases[0][0].ctx, 1), *lefts.values()]
        for s in rights.values():
            for moyal, bracket in ((False, poisson_bracket), (True, moyal_bracket)):
                blocks, dens = brackets._PackedBasis(s.ctx, moyal, [*terms, s]).blocks(len(terms))
                assert all(type(n) is int and n for block in blocks for n in block.values())
                assert [{e: Fraction(n, den) for e, n in block.items()}
                        for block, den in zip(blocks, dens)] == [bracket(t, s)._terms for t in terms]
                assert brackets._brackets_of(s, terms, moyal) == [bracket(s, t) for t in terms]


def test_moyal_walk_is_not_cubic_in_the_degree(monkeypatch):
    """A D=1 series of 64 odd orders.  A walk per k that tries every m in
    the last slot, where only m = left reaches a product, makes 549,056
    ``_walk`` calls on it, O(top^3); one walk for every k makes 16,641."""
    monkeypatch.syspath_prepend(str(BENCH))
    import oracle

    calls = 0
    walk = brackets._walk

    def counted(*args):
        nonlocal calls
        calls += 1
        return walk(*args)

    monkeypatch.setattr(brackets, "_walk", counted)
    hbar = Fraction(3, 2)
    ctx = PhaseContext(1, hbar=hbar)
    a = PhasePoly.monomial(ctx, (127, 128))
    b = PhasePoly.monomial(ctx, (128, 127))
    out = moyal_bracket(a, b)
    assert calls <= 20_000
    point = oracle.random_point(random.Random(127), 2)
    want = oracle.bracket_at_point(dict(a.term_items()), dict(b.term_items()), 1, "moyal", hbar, point)
    assert oracle.evaluate(out.term_items(), point) == want


def test_packed_basis_widens_and_keeps_every_walk():
    """A ``_PackedBasis`` whose walks need 1-byte, then 2-byte fields widens
    once, re-packing every packed element, and every block of every walk is
    still the per-pair bracket, Poisson and Moyal at hbar 3/2, whose series
    here has terms past the Poisson one."""
    ctx = PhaseContext(2, hbar=Fraction(3, 2), max_degree=400)
    polys = [parse_expression(text, ctx) for text in (
        "q2^3*p2^2 + q1*p1", "q1^100*q2*p2^3 - 2/3*p1^2", "q1^120*q2^3*p2^3",
        "q1^200*q2^4*p2 + 5*p1^3", "q1^30*p1^2*q2^3 - q2")]
    for moyal, bracket in ((False, poisson_bracket), (True, moyal_bracket)):
        walks = brackets._PackedBasis(ctx, moyal, polys)
        sizes = []
        for j in range(1, len(polys)):
            blocks, dens = walks.blocks(j)
            sizes.append(walks.layout.size // ctx.nvars)
            assert [{e: Fraction(n, den) for e, n in block.items()} for block, den
                    in zip(blocks, dens)] == [bracket(polys[i], polys[j])._terms for i in range(j)]
        assert sizes == [1, 1, 2, 2]
    assert moyal_bracket(polys[0], polys[2]) != poisson_bracket(polys[0], polys[2])


def test_moyal_series_stops_at_the_slot_caps(monkeypatch):
    """On ``{q1^n p2, q2^(n+1) p1^3}`` only the slots d/dq1 (x) d/dp1 (cap 3)
    and -d/dp2 (x) d/dq2 (cap 1) are open, so no composition spends more than
    4 derivatives: the series has at most 5 scales (k <= 4), where the
    operands' total degrees alone would allow n + 1, and still equals the
    per-k reference."""
    seen = []
    walk = brackets._walk

    def spy(*args):
        seen.append(len(args[2]))
        return walk(*args)

    monkeypatch.setattr(brackets, "_walk", spy)
    ctx = PhaseContext(2, hbar=Fraction(3, 2), max_degree=4000)
    n = 1000
    a = PhasePoly.monomial(ctx, (n, 0, 0, 1))
    b = PhasePoly.monomial(ctx, (0, n + 1, 3, 0))
    out = moyal_bracket(a, b)
    assert seen and max(seen) <= 5
    monkeypatch.setattr(brackets, "_walk", walk)
    assert out == reference_series(a, b, min(a.total_degree(), b.total_degree()))


@pytest.mark.parametrize("moyal", [False, True], ids=["poisson", "moyal-hbar3/2"])
def test_entries_widen_per_seed_and_keep_every_entry(moyal, monkeypatch):
    """Seeds whose walks against one ansatz need 1-, 2- and then 4-byte
    fields: one ``_PackedBasis`` of the ansatz, walked once per seed, packs
    the ansatz once per layout, and every block, its numerators read over
    its term's denominator, is that term's own bracket with the seed."""
    ctx = PhaseContext(2, hbar=Fraction(3, 2), max_degree=10 ** 6)
    terms = [parse_expression(text, ctx) for text in (
        "q1*p1 + 2/5*q2", "q1^2*p2 - 3/2*p1", "p1^3*q2^2 + 1", "q2*p2^2")]
    seeds = [parse_expression(text, ctx) for text in (
        "q1^2*p1*p2 + 7/3*p2", "q1^300*p1^2 - q2*p2", "q1*p1^70000 + 1/2*q2^3")]
    assert [_layout(ctx, _maxima(*terms), _maxima(s)).size // ctx.nvars for s in seeds] == [1, 2, 4]
    packed = []
    real = brackets._pack

    def spy(polys, layout, first=0):
        packed.append(len(polys))
        return real(polys, layout, first)

    monkeypatch.setattr(brackets, "_pack", spy)
    walks = list(map(brackets._PackedBasis(ctx, moyal, terms).walk, seeds))
    assert packed == [len(terms), 1] * 3
    bracket = moyal_bracket if moyal else poisson_bracket
    for seed, (blocks, dens) in zip(seeds, walks):
        got = [{e: Fraction(n, den) for e, n in block.items()} for block, den in zip(blocks, dens)]
        assert got == [bracket(t, seed)._terms for t in terms]
    # the Moyal series has terms past the Poisson one here
    assert any(moyal_bracket(t, s) != poisson_bracket(t, s) for t in terms for s in seeds)


def test_entries_take_a_layout_only_to_widen(monkeypatch):
    """With the widest seed first, the layout its walk takes holds the two
    later walks: one ``_PackedBasis`` of the ansatz, walked once per seed,
    calls ``_layout`` once and packs the ansatz once, and the later walks
    only compare their exponents with the fields' limit."""
    ctx = PhaseContext(2, max_degree=10 ** 6)
    terms = [parse_expression(text, ctx) for text in ("q1*p1 + 2/5*q2", "q1^2*p2 - 3/2*p1")]
    seeds = [parse_expression(text, ctx) for text in (
        "q1*p1^70000 + 1/2*q2^3", "q1^300*p1^2 - q2*p2", "q1^2*p1*p2 + 7/3*p2")]
    layouts, packed = [], []
    real_layout, real_pack = brackets._layout, brackets._pack

    def spy_layout(ctx, left, right):
        layouts.append(real_layout(ctx, left, right).size // ctx.nvars)
        return real_layout(ctx, left, right)

    def spy_pack(polys, layout, first=0):
        packed.append(len(polys))
        return real_pack(polys, layout, first)

    monkeypatch.setattr(brackets, "_layout", spy_layout)
    monkeypatch.setattr(brackets, "_pack", spy_pack)
    walks = list(map(brackets._PackedBasis(ctx, False, terms).walk, seeds))
    assert layouts == [4]
    assert packed == [len(terms), 1, 1, 1]
    for seed, (blocks, dens) in zip(seeds, walks):
        got = [{e: Fraction(n, den) for e, n in block.items()} for block, den in zip(blocks, dens)]
        assert got == [poisson_bracket(t, seed)._terms for t in terms]
