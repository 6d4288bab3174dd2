import random
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from conftest import cm_closure, sphere_closure
from phasealg import (
    AlgebraElement,
    AnsatzTooLargeError,
    ContextMismatchError,
    PhaseContext,
    PhasePoly,
    close_algebra,
    find_casimir,
    find_center,
    format_poly,
    monomials_up_to_degree,
    moyal_bracket,
    parse_expression,
    poisson_bracket,
    verify_invariant,
)
from phasealg import brackets, invariants
from phasealg.linsolve import nullspace
from phasealg.poly import _grlex_item, _grlex_key, _layout, _maxima


def angular_momentum_square(ctx):
    """Sum over i < j of (q_i p_j - q_j p_i)^2, built term by term."""
    total = PhasePoly.zero(ctx)
    d = ctx.dof
    for i in range(d):
        for j in range(i + 1, d):
            qi = PhasePoly.variable(ctx, i)
            qj = PhasePoly.variable(ctx, j)
            pi = PhasePoly.variable(ctx, d + i)
            pj = PhasePoly.variable(ctx, d + j)
            total = total + (qi * pj - qj * pi) ** 2
    return total


def test_sphere_casimir_exact():
    cl = sphere_closure()
    sols = find_casimir(cl)
    nontrivial = [s for s in sols if not s.trivial]
    assert len(nontrivial) == 1
    sol = nontrivial[0]
    assert sol.generator_names == ("H", "U", "g1")
    assert sol.quadratic == {(0, 1): Fraction(1), (2, 2): Fraction(-1, 2)}
    assert sol.linear == {0: Fraction(1)}
    assert sol.constant == 0
    # H(U + 1) - g1^2/2 is half the squared angular momentum
    assert sol.realization == angular_momentum_square(cl.ctx) / 2
    assert verify_invariant(sol.realization, cl).passed


def test_sphere_casimir_tracks_parameters():
    rng = random.Random(7321)
    for _ in range(3):
        m = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        r0 = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        cl = sphere_closure(m=m, r0=r0)
        sol = [s for s in find_casimir(cl) if not s.trivial][0]
        scale = m * r0 * r0
        assert sol.quadratic[(2, 2)] * scale * scale == -scale / 2
        assert sol.realization == angular_momentum_square(cl.ctx) / (2 * m * r0 * r0)
        report = verify_invariant(sol.realization, cl)
        assert report.passed
        assert len(report.residuals) == 4
        assert all(r.is_zero() for _, r in report.residuals)


def test_cm_casimir_all_trivial():
    cl = cm_closure()
    sols = find_casimir(cl)
    assert len(sols) == 2
    assert all(s.trivial for s in sols)
    # the H - (g1^2+g2^2+g3^2)/2 relation collapses to the zero polynomial
    assert any(s.realization.is_zero() for s in sols)
    assert any(s.realization == 1 for s in sols)


def test_heisenberg_casimir_only_constant():
    ctx = PhaseContext(1)
    cl = close_algebra(
        [
            AlgebraElement("Q", PhasePoly.variable(ctx, "q1")),
            AlgebraElement("P", PhasePoly.variable(ctx, "p1")),
        ]
    )
    sols = find_casimir(cl)
    assert len(sols) == 1
    assert sols[0].trivial
    assert sols[0].realization == 1


def test_sphere_center_contains_angular_momenta():
    cl = sphere_closure()
    center = find_center(cl, max_total_degree=2)
    assert center.degree == 2
    assert len(center.solutions) == 4
    rendered = sorted(format_poly(p) for p in center.solutions)
    assert rendered == [
        "-q1*p2 + q2*p1",
        "-q1*p3 + q3*p1",
        "-q2*p3 + q3*p2",
        "1",
    ]
    assert len(center.nonconstant()) == 3
    for p in center.solutions:
        assert verify_invariant(p, cl).passed


def test_cm_center_is_constants_only():
    cl = cm_closure()
    center = find_center(cl, max_total_degree=2)
    assert len(center.solutions) == 1
    assert center.solutions[0] == 1
    assert center.nonconstant() == ()


def test_monomials_up_to_degree():
    for dof in (1, 2, 3):
        ctx = PhaseContext(dof)
        n = ctx.nvars
        for d in range(5):
            expected = sorted(
                (e for e in product(range(d + 1), repeat=n) if sum(e) <= d),
                key=_grlex_key,
            )
            monos = monomials_up_to_degree(ctx, d)
            assert monos == expected
            assert len(monos) == comb(n + d, d)


def test_center_cap_checked_before_enumeration(monkeypatch):
    def refuse(ctx, degree):
        raise AssertionError("monomials enumerated before the cap check")

    monkeypatch.setattr(invariants, "monomials_up_to_degree", refuse)
    with pytest.raises(AnsatzTooLargeError) as info:
        find_center(cm_closure(), max_total_degree=40)
    assert str(info.value) == "ansatz needs 9366819 monomials, cap is 5000"


def _bracket(closure, a, b):
    """``a`` bracketed with ``b`` under the closure's bracket, one public
    single-pair call."""
    return (moyal_bracket if closure.bracket_kind == "moyal" else poisson_bracket)(a, b)


def _all_basis_rows(terms, closure):
    """Reference rows: ``bracket(T_u, b_k)`` for every non-identity basis
    element ``b_k``, one row per (element, output monomial)."""
    rows = {}
    order = []
    for k, elem in enumerate(closure.basis):
        if elem.is_identity:
            continue
        for u, term in enumerate(terms):
            br = _bracket(closure, term, elem.poly)
            for mono, coeff in br.term_items():
                key = (k, mono)
                row = rows.get(key)
                if row is None:
                    row = rows[key] = {}
                    order.append(key)
                row[u] = row.get(u, Fraction(0)) + coeff
    return [rows[key] for key in order]


def _all_basis_solve(terms, closure):
    """Reference solver on the all-basis rows, same output shape as the
    library's: the first-nonzero-is-1 vector and its polynomial."""
    out = []
    for vec in nullspace(_all_basis_rows(terms, closure), len(terms)):
        lead = next(v for v in vec if v != 0)
        vec = [v / lead for v in vec]
        poly = PhasePoly.zero(closure.ctx)
        for v, term in zip(vec, terms):
            poly = poly + term * v
        out.append((vec, poly))
    return out


def _closure_of(dof, *exprs, bracket="poisson", hbar=1, max_degree=16):
    ctx = PhaseContext(dof, hbar=hbar, max_degree=max_degree)
    seeds = [
        AlgebraElement(f"s{i}", parse_expression(e, ctx)) for i, e in enumerate(exprs)
    ]
    return close_algebra(seeds, bracket_kind=bracket, max_degree=max_degree)


REFERENCE_CLOSURES = {
    "sphere-poisson": lambda: sphere_closure(),
    "sphere-moyal": lambda: sphere_closure(m=2, r0=3, bracket="moyal"),
    "cm-poisson": lambda: cm_closure(total_mass=3, x0=Fraction(1, 2)),
    "cm-moyal": lambda: cm_closure(total_mass=2, x0=1, bracket="moyal"),
    "heisenberg": lambda: _closure_of(1, "q1", "p1"),
    "sp4": lambda: _closure_of(2, "q1^2 + q2^2", "p1^2 + 3*p2^2", "q1*p2"),
    "constant-and-dependent-seeds": lambda: _closure_of(2, "q1*p1", "3", "2*q1*p1", "q2^2"),
    "seed-shifted-by-constant": lambda: _closure_of(1, "q1", "q1 + 1", "p1"),
    "constant-seed-only": lambda: _closure_of(1, "3"),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_CLOSURES))
def test_seed_rows_match_all_basis_rows(name, monkeypatch):
    """Rows from the seeds alone give the same solutions as rows from every
    basis element (Jacobi identity), and the centre passes the full check."""
    cl = REFERENCE_CLOSURES[name]()
    fast = {d: find_center(cl, max_total_degree=d) for d in (1, 2, 3)}
    fast_casimir = find_casimir(cl)
    monkeypatch.setattr(invariants, "_solve", _all_basis_solve)
    for d, center in fast.items():
        assert center == find_center(cl, max_total_degree=d)
        for p in center.solutions:
            assert verify_invariant(p, cl).passed
    assert fast_casimir == find_casimir(cl)


def test_center_degree_zero_is_constant():
    cl = sphere_closure()
    center = find_center(cl, max_total_degree=0)
    assert len(center.solutions) == 1
    assert center.solutions[0] == 1


def test_center_rejects_bad_arguments():
    cl = sphere_closure()
    with pytest.raises(ValueError):
        find_center(cl, max_total_degree=-1)


def test_verify_invariant_failure():
    cl = sphere_closure()
    report = verify_invariant(PhasePoly.variable(cl.ctx, "q1"), cl)
    assert not report.passed
    # {q1, H} = p1/m does not vanish
    failing = dict(report.residuals)
    assert not failing["H"].is_zero()
    assert failing["1"].is_zero()


def test_verify_invariant_context_mismatch():
    cl = sphere_closure()
    other = PhaseContext(3)
    with pytest.raises(ContextMismatchError):
        verify_invariant(PhasePoly.variable(other, "q1"), cl)


def test_casimir_solutions_commute_with_everything():
    rng = random.Random(5150)
    for _ in range(2):
        m = Fraction(rng.randint(1, 5))
        r0 = Fraction(rng.randint(1, 5))
        cl = sphere_closure(m=m, r0=r0)
        for sol in find_casimir(cl):
            assert verify_invariant(sol.realization, cl).passed


def _bracket_rows(terms, closure):
    """Reference rows: one ``_bracket`` per (seed, ansatz term), its
    monomials in ``term_items`` order, keyed by first appearance."""
    seeds = set(closure.seed_names)
    rows = {}
    for k, elem in enumerate(closure.basis):
        if elem.is_identity or elem.name not in seeds:
            continue
        for u, term in enumerate(terms):
            for mono, coeff in _bracket(closure, term, elem.poly).term_items():
                rows.setdefault((k, mono), {})[u] = coeff
    return rows


def _exact_rows(terms, closure):
    """``_rows`` read back exactly: each integer entry over the denominator
    of its row's seed."""
    rows, dens = invariants._rows(terms, closure)
    assert all(type(n) is int for row in rows.values() for n in row.values())
    return {key: {u: Fraction(n, dens[key[0]]) for u, n in row.items()}
            for key, row in rows.items()}


ROW_ORDER_CASES = {
    "cm": (lambda: cm_closure(total_mass=3, x0=Fraction(-2, 5)), range(1, 6)),
    "nsphere": (lambda: sphere_closure(m=Fraction(2, 3), r0=5), range(1, 6)),
    "sphere-moyal": (lambda: sphere_closure(m=2, r0=3, bracket="moyal"), range(1, 4)),
    "heisenberg": (lambda: _closure_of(1, "q1", "p1"), range(1, 5)),
    "sp4": (lambda: _closure_of(2, "q1^2 + q2^2", "p1^2 + 3*p2^2", "q1*p2"), range(1, 4)),
    # hbar = 1: the cubic seed's Moyal brackets differ from Poisson ones
    "moyal-cubic-seed": (lambda: _closure_of(1, "q1^3", "p1", bracket="moyal"), range(1, 5)),
}


def _casimir_terms(closure, monkeypatch):
    """The ansatz ``find_casimir`` hands to ``_solve``: products, generators
    and the constant."""
    seen = []
    with monkeypatch.context() as m:
        m.setattr(invariants, "_solve", lambda terms, cl: seen.append(terms) or [])
        find_casimir(closure)
    (terms,) = seen
    return terms


@pytest.mark.parametrize("name", sorted(ROW_ORDER_CASES))
def test_rows_match_bracket_rows(name, monkeypatch):
    """``_rows`` for the centre ansatz at each degree and for the Casimir
    ansatz, each integer read over its seed's denominator, equals the
    per-bracket reference key for key, value for value and in insertion
    order (``nullspace`` depends on the order), and takes no single
    bracket: every row comes from the batched kernel."""
    build, degrees = ROW_ORDER_CASES[name]
    cl = build()
    ansatzes = [
        [PhasePoly.monomial(cl.ctx, m) for m in monomials_up_to_degree(cl.ctx, d)]
        for d in degrees
    ]
    ansatzes.append(_casimir_terms(cl, monkeypatch))
    single = []

    def spy(real):
        def call(a, b):
            single.append(real.__name__)
            return real(a, b)
        return call

    for terms in ansatzes:
        expected = _bracket_rows(terms, cl)
        with monkeypatch.context() as m:
            for fn in ("poisson_bracket", "moyal_bracket"):
                m.setattr(brackets, fn, spy(getattr(brackets, fn)))
            rows = _exact_rows(terms, cl)
        assert single == []
        assert list(rows) == list(expected)
        assert [list(r.items()) for r in rows.values()] == [
            list(r.items()) for r in expected.values()]


def _seed_block_rows(terms, closure):
    """Reference rows: one ``brackets._PackedBasis`` walk per seed, each in
    the layout of that seed alone, each block sorted as ``_rows`` sorts it."""
    seeds = set(closure.seed_names)
    moyal = closure.bracket_kind == "moyal"
    rows = {}
    for k, elem in enumerate(closure.basis):
        if elem.is_identity or elem.name not in seeds:
            continue
        blocks, dens = brackets._PackedBasis(closure.ctx, moyal, [*terms, elem.poly]).blocks(len(terms))
        for u, (block, den) in enumerate(zip(blocks, dens)):
            for mono, num in sorted(block.items(), key=_grlex_item, reverse=True):
                rows.setdefault((k, mono), {})[u] = Fraction(num, den)
    return rows


HALF3 = Fraction(3, 2)
# q2^300 needs 2-byte packed fields under any ansatz, while q1*p1 and q1^2
# fit 1-byte fields; the closure is {q1*p1, q1^2, q2^300}.
MIXED_WIDTH = ("q1*p1", "q2^300", "q1^2")
SHARED_LAYOUT_CASES = {
    "mixed-width-poisson": lambda: _closure_of(2, *MIXED_WIDTH, max_degree=400),
    "mixed-width-moyal": lambda: _closure_of(
        2, *MIXED_WIDTH, bracket="moyal", hbar=HALF3, max_degree=400),
    "cubic-moyal": lambda: _closure_of(1, "q1^3 + 2*q1*p1", "p1", bracket="moyal", hbar=HALF3),
}


@pytest.mark.parametrize("name", sorted(SHARED_LAYOUT_CASES))
def test_shared_layout_rows_match_per_seed_blocks(name):
    """One packed ansatz, kept in the widest layout its walks have needed so
    far, gives the rows that a walk per seed in its own layout gives, key
    for key, value for value (each integer read over its seed's
    denominator) and in insertion order, also where the seeds' own layouts
    differ in field width, so a later seed walks a layout wider than its
    own."""
    cl = SHARED_LAYOUT_CASES[name]()
    seeds = [e.poly for e in cl.basis if not e.is_identity and e.name in cl.seed_names]
    for degree in (1, 2, 3):
        terms = [PhasePoly.monomial(cl.ctx, m) for m in monomials_up_to_degree(cl.ctx, degree)]
        if name.startswith("mixed-width"):
            widths = {_layout(cl.ctx, _maxima(*terms), _maxima(s)).size for s in seeds}
            assert len(widths) == 2
        rows, expected = _exact_rows(terms, cl), _seed_block_rows(terms, cl)
        assert list(rows) == list(expected)
        assert [list(r.items()) for r in rows.values()] == [
            list(r.items()) for r in expected.values()]


def _spy_on_pack(monkeypatch) -> list[tuple[list, int]]:
    """Spy on the kernel's ``_pack``: the list gets each call's operands and
    first tag."""
    calls = []
    real = brackets._pack

    def spy(polys, layout, first=0):
        calls.append((list(polys), first))
        return real(polys, layout, first)

    monkeypatch.setattr(brackets, "_pack", spy)
    return calls


@pytest.mark.parametrize("search", ["center", "casimir"])
def test_search_packs_its_ansatz_once(search, monkeypatch):
    """One search packs its ansatz once and each seed once, not the
    ansatz once per seed: the kernel's ``_pack`` sees the ansatz in one
    call, then one seed per call."""
    cl = cm_closure(total_mass=3, x0=Fraction(1, 2))
    nseeds = sum(1 for e in cl.basis if not e.is_identity and e.name in cl.seed_names)
    assert nseeds == 4
    calls = _spy_on_pack(monkeypatch)
    if search == "center":
        find_center(cl, max_total_degree=3)
        size = comb(cl.ctx.nvars + 3, 3)
    else:
        find_casimir(cl)
        n = sum(1 for e in cl.basis if not e.is_identity)
        size = n * (n + 1) // 2 + n + 1
    assert [len(polys) for polys, _ in calls] == [size] + [1] * nseeds
    assert [first for _, first in calls] == [0] * (1 + nseeds)


@pytest.mark.parametrize("search, layouts", [("center", 2), ("casimir", 1)])
def test_search_packs_its_ansatz_once_per_layout(search, layouts, monkeypatch):
    """On the mixed-width closure a search packs its ansatz once per layout
    and each seed once: a seed walk that needs wider fields than every
    earlier one re-packs the ansatz before its seed, and any other packs
    only its seed.  The degree-3 centre ansatz fits 1-byte fields against
    q1*p1 and needs 2-byte ones against q2^300; the Casimir ansatz holds
    q2^600 and needs 2-byte fields against every seed."""
    cl = SHARED_LAYOUT_CASES["mixed-width-poisson"]()
    seeds = [e.poly for e in cl.basis if not e.is_identity and e.name in cl.seed_names]
    assert len(seeds) == 3
    calls = _spy_on_pack(monkeypatch)
    find_center(cl, max_total_degree=3) if search == "center" else find_casimir(cl)
    ansatz = calls[0][0]
    want, widest = [], 0
    for seed in seeds:
        size = _layout(cl.ctx, _maxima(*ansatz), _maxima(seed)).size
        if size > widest:
            widest = size
            want.append(len(ansatz))
        want.append(1)
    assert want.count(len(ansatz)) == layouts
    assert [len(polys) for polys, _ in calls] == want
    assert [first for _, first in calls] == [0] * len(want)
