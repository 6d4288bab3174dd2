from collections import deque
from fractions import Fraction

import dataclasses
import itertools
import random
import sys

import pytest

from conftest import cm_closure, random_poly, random_rational, sphere_closure
from phasealg import (
    AlgebraElement,
    EmptySeedError,
    LieClosure,
    NonClosingError,
    PhaseContext,
    PhasePoly,
    brackets,
    close_algebra,
    convention_notes,
    find_casimir,
    find_center,
    jacobi_transform,
    moyal_bracket,
    parse_expression,
    poisson_bracket,
    span_reduce,
    structure_constants,
    verify_canonical,
    verify_invariant,
)
from phasealg.cli import load_problem


def _elements(ctx, exprs):
    return [AlgebraElement(name, parse_expression(text, ctx)) for name, text in exprs]


def test_sphere_closure_trace():
    cl = sphere_closure()
    assert [e.name for e in cl.basis] == ["H", "U", "g1", "1"]
    assert cl.seed_names == ("H", "U")
    assert [e.is_identity for e in cl.basis] == [False, False, False, True]
    ctx = cl.ctx
    assert cl.basis[2].poly == parse_expression("q1*p1 + q2*p2 + q3*p3", ctx)
    assert cl.basis[3].poly == 1
    assert cl.structure == {
        (0, 1, 2): Fraction(-2),
        (0, 2, 0): Fraction(-2),
        (1, 2, 1): Fraction(2),
        (1, 2, 3): Fraction(2),
    }


def test_structure_constant_antisymmetry():
    cl = sphere_closure()
    assert cl.structure_constant(0, 1, 2) == -2
    assert cl.structure_constant(1, 0, 2) == 2
    assert cl.structure_constant(0, 0, 2) == 0
    assert cl.structure_constant(2, 1, 1) == -2


def test_sphere_closure_self_checks():
    cl = sphere_closure()
    assert cl.verify()
    assert cl.check_jacobi_tensor()


def test_verify_rejects_entries_no_bracket_produces():
    """``verify`` compares the whole table: an entry on an index past the
    basis, one keyed with i > j, a changed one and a missing one all fail."""
    cl = sphere_closure()
    n = len(cl.basis)
    for key, value in (((0, 1, n + 3), 1), ((2, 1, 0), 5), ((0, 1, 2), -3)):
        changed = dataclasses.replace(cl, structure={**cl.structure, key: Fraction(value)})
        assert changed.verify() is False, key
    missing = dict(cl.structure)
    del missing[(1, 2, 3)]
    assert dataclasses.replace(cl, structure=missing).verify() is False


def _dense_jacobi(cl):
    """Reference check: the full O(n^5) loop over structure_constant() lookups."""
    n = len(cl.basis)
    c = cl.structure_constant
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for l in range(n):
                    total = Fraction(0)
                    for m in range(n):
                        total += c(i, j, m) * c(m, k, l)
                        total += c(j, k, m) * c(m, i, l)
                        total += c(k, i, m) * c(m, j, l)
                    if total != 0:
                        return False
    return True


def _sp4_closure():
    ctx = PhaseContext(2)
    names = ("q1", "q2", "p1", "p2")
    quadratics = [f"{a}*{b}" for a, b in itertools.combinations_with_replacement(names, 2)]
    return close_algebra(_elements(ctx, [(f"S{i}", e) for i, e in enumerate(quadratics)]))


def test_jacobi_contraction_matches_dense_reference():
    sp4 = _sp4_closure()
    assert len(sp4.basis) == 10
    for cl in (sphere_closure(), cm_closure(), sp4):
        assert cl.check_jacobi_tensor() is True
        assert _dense_jacobi(cl) is True


def test_jacobi_contraction_rejects_broken_constant():
    cl = sphere_closure()
    # {H, g1} = -2H becomes -3H: the (H, U, g1) Jacobi sum no longer cancels
    broken = dict(cl.structure)
    broken[(0, 2, 0)] = Fraction(-3)
    bad = dataclasses.replace(cl, structure=broken)
    assert _dense_jacobi(bad) is False
    assert bad.check_jacobi_tensor() is False


def test_sphere_closure_general_parameters():
    cl = sphere_closure(m=Fraction(3, 2), r0=Fraction(2, 5))
    assert [e.name for e in cl.basis] == ["H", "U", "g1", "1"]
    # {H,U} = -(2/(m r0^2)) g1, {H,g1} = -2H, {U,g1} = 2U + 2
    scale = Fraction(2) / (Fraction(3, 2) * Fraction(2, 5) ** 2)
    assert cl.structure == {
        (0, 1, 2): -scale,
        (0, 2, 0): Fraction(-2),
        (1, 2, 1): Fraction(2),
        (1, 2, 3): Fraction(2),
    }
    assert cl.verify()


def test_cm_closure_trace():
    cl = cm_closure()
    names = [e.name for e in cl.basis]
    assert names == ["H", "X1", "X2", "X3", "g1", "g2", "g3", "1"]
    assert len(cl.basis) == 8
    ctx = cl.ctx
    elements = {e.name: e for e in cl.basis}
    for i in (1, 2, 3):
        assert elements[f"g{i}"].poly == PhasePoly.variable(ctx, f"p{i}")
        # {H, X_i} = -p_i / M, M = 1
        assert cl.structure_constant(0, i, 3 + i) == -1
        # {X_i, p_i} = 1 lands on the identity
        assert cl.structure_constant(i, 3 + i, 7) == 1
    assert cl.identity_index() == 7
    assert cl.verify()
    assert cl.check_jacobi_tensor()


def test_closure_deterministic():
    a = sphere_closure()
    b = sphere_closure()
    assert [e.name for e in a.basis] == [e.name for e in b.basis]
    assert a.structure == b.structure
    assert [e.poly for e in a.basis] == [e.poly for e in b.basis]


def test_new_elements_normalized_to_leading_one():
    cl = cm_closure(total_mass=7)
    # {H, X1} = -p1/7, yet the stored generator is p1 itself
    ctx = cl.ctx
    assert {e.name: e.poly for e in cl.basis}["g1"] == PhasePoly.variable(ctx, "p1")
    assert cl.structure_constant(0, 1, 4) == Fraction(-1, 7)


def test_empty_and_invalid_seeds():
    ctx = PhaseContext(1)
    with pytest.raises(EmptySeedError):
        close_algebra([])
    with pytest.raises(EmptySeedError):
        close_algebra([AlgebraElement("Z", PhasePoly.zero(ctx))])
    q = PhasePoly.variable(ctx, "q1")
    with pytest.raises(ValueError):
        close_algebra([AlgebraElement("A", q), AlgebraElement("A", q * 2)])
    with pytest.raises(ValueError):
        close_algebra([AlgebraElement("1", q)])


def test_dependent_seed_skipped():
    ctx = PhaseContext(1)
    q = PhasePoly.variable(ctx, "q1")
    cl = close_algebra([AlgebraElement("A", q), AlgebraElement("B", q * 2)])
    assert [e.name for e in cl.basis] == ["A"]
    assert cl.structure == {}


def test_constant_seed_becomes_identity():
    ctx = PhaseContext(1)
    cl = close_algebra(
        [
            AlgebraElement("H", PhasePoly.variable(ctx, "p1") ** 2 / 2),
            AlgebraElement("c", PhasePoly.constant(ctx, 5)),
        ]
    )
    assert [e.name for e in cl.basis] == ["H", "c"]
    assert cl.basis[1].is_identity
    assert cl.basis[1].poly == 1
    assert cl.structure == {}


def test_constant_seed_remainder_stored_as_identity():
    # U reduces to the constant 1 against H; the stored element is 1 itself,
    # so {H, P} = 1 must land on U alone, not on U - H
    ctx = PhaseContext(1)
    cl = close_algebra(_elements(ctx, [("H", "q1"), ("U", "q1 + 1"), ("P", "p1")]))
    assert [e.name for e in cl.basis] == ["H", "U", "P"]
    assert [e.is_identity for e in cl.basis] == [False, True, False]
    assert cl.basis[1].poly == 1
    assert cl.structure == {(0, 2, 1): Fraction(1)}
    assert cl.verify()


def test_identity_appears_from_brackets():
    ctx = PhaseContext(1)
    cl = close_algebra(_elements(ctx, [("Q", "q1"), ("P", "p1")]))
    assert [e.name for e in cl.basis] == ["Q", "P", "1"]
    assert cl.basis[2].is_identity
    assert cl.structure == {(0, 1, 2): Fraction(1)}


def test_fresh_names_avoid_seed_collisions():
    ctx = PhaseContext(1)
    # seed named g1 forces generated names to start at g2
    cl = close_algebra(_elements(ctx, [("H", "p1^2/2"), ("g1", "q1^2")]))
    names = [e.name for e in cl.basis]
    assert names.count("g1") == 1
    assert "g2" in names
    assert cl.verify()


def test_non_closing_by_degree():
    ctx = PhaseContext(1, max_degree=64)
    seeds = _elements(ctx, [("H", "p1^2/2 + q1^4/4"), ("X", "q1")])
    with pytest.raises(NonClosingError) as err:
        close_algebra(seeds, max_degree=6)
    assert "max_degree" in str(err.value)
    assert len(err.value.pair) == 2
    assert err.value.basis_size >= 2


def test_non_closing_by_basis_size():
    ctx = PhaseContext(1, max_degree=64)
    seeds = _elements(ctx, [("H", "p1^2/2 + q1^4/4"), ("X", "q1")])
    with pytest.raises(NonClosingError) as err:
        close_algebra(seeds, max_basis=4, max_degree=60)
    assert "max_basis" in str(err.value)


def test_moyal_closure_matches_poisson_on_quadratics():
    ctx = PhaseContext(1)
    exprs = [("A", "q1^2"), ("B", "p1^2"), ("C", "q1*p1")]
    pois = close_algebra(_elements(ctx, exprs), bracket_kind="poisson")
    moy = close_algebra(_elements(ctx, exprs), bracket_kind="moyal")
    assert [e.name for e in pois.basis] == [e.name for e in moy.basis]
    assert pois.structure == moy.structure
    assert moy.bracket_kind == "moyal"
    assert moy.verify()


def test_unknown_bracket_kind():
    ctx = PhaseContext(1)
    with pytest.raises(ValueError):
        close_algebra(_elements(ctx, [("Q", "q1")]), bracket_kind="nonsense")


def test_span_reduce_coordinates():
    cl = sphere_closure()
    ctx = cl.ctx
    target = (
        cl.basis[0].poly * 3
        + cl.basis[1].poly * Fraction(-2, 7)
        + 5
    )
    coords, rem = span_reduce(target, cl.basis)
    assert rem.is_zero()
    assert coords == [Fraction(3), Fraction(-2, 7), Fraction(0), Fraction(5)]
    outside = PhasePoly.variable(ctx, "q1")
    coords, rem = span_reduce(outside, cl.basis)
    assert coords == [Fraction(0)] * 4
    assert rem == outside


def test_span_reduce_handles_dependent_basis():
    ctx = PhaseContext(1)
    q = PhasePoly.variable(ctx, "q1")
    basis = [AlgebraElement("A", q), AlgebraElement("B", q * 2)]
    coords, rem = span_reduce(q * 6, basis)
    assert rem.is_zero()
    assert coords[0] * basis[0].poly + coords[1] * basis[1].poly == q * 6


def test_structure_constants_listing():
    cl = sphere_closure()
    listed = structure_constants(cl)
    assert listed == [
        (0, 1, 2, Fraction(-2)),
        (0, 2, 0, Fraction(-2)),
        (1, 2, 1, Fraction(2)),
        (1, 2, 3, Fraction(2)),
    ]


def test_convention_notes_sign_warning():
    cl = sphere_closure()
    notes = convention_notes(cl)
    assert any("{q1, p1} = +1" in n for n in notes)
    assert any("overall sign" in n for n in notes)


def test_convention_notes_flag_identity_terms():
    # {U, g1} = 2U + 2 spills a constant onto the identity
    cl = sphere_closure()
    notes = convention_notes(cl)
    identity_notes = [n for n in notes if "identity" in n and "{U, g1}" in n]
    assert len(identity_notes) == 1
    assert "coefficient 2" in identity_notes[0]

    cm = cm_closure()
    cm_notes = convention_notes(cm)
    for i in (1, 2, 3):
        hits = [n for n in cm_notes if f"{{X{i}, g{i}}}" in n]
        assert len(hits) == 1
        assert "coefficient 1" in hits[0]


def test_convention_notes_silent_without_identity_terms():
    ctx = PhaseContext(1)
    cl = close_algebra(_elements(ctx, [("A", "q1^2"), ("B", "p1^2"), ("C", "q1*p1")]))
    notes = convention_notes(cl)
    # only the standing sign-convention note, no identity spills
    assert len(notes) == 1


class _ReferenceEchelon:
    """The leading-monomial echelon closure used before ``linsolve.Echelon``.

    Rows are kept unreduced against each other, keyed by leading monomial;
    reducing re-sorts the remainder on every step to find the next hit.
    """

    def __init__(self):
        self.rows = {}

    def reduce(self, p):
        coords = {}
        rem = p
        while not rem.is_zero():
            hit = next((m for m in rem.monomials() if m in self.rows), None)
            if hit is None:
                break
            row_poly, row_coords = self.rows[hit]
            factor = rem.coefficient(hit) / row_poly.coefficient(hit)
            rem = rem - row_poly * factor
            for j, c in row_coords.items():
                new = coords.get(j, Fraction(0)) + factor * c
                if new == 0:
                    coords.pop(j, None)
                else:
                    coords[j] = new
        return coords, rem

    def add(self, reduced, coords):
        head = reduced.monomials()[0]
        assert head not in self.rows, "row not fully reduced"
        self.rows[head] = (reduced, coords)

    def add_input(self, p, key):
        """Store input ``p``'s remainder, with coordinates ``key`` minus those
        of the span part; False if ``p`` lies in the span."""
        coords, rem = self.reduce(p)
        if rem.is_zero():
            return False
        combo = {i: -c for i, c in coords.items()}
        combo[key] = Fraction(1)
        self.add(rem, combo)
        return True


def _reference_span_reduce(p, basis):
    ech = _ReferenceEchelon()
    for j, elem in enumerate(basis):
        ech.add_input(elem.poly, j)
    coords, rem = ech.reduce(p)
    return [coords.get(i, Fraction(0)) for i in range(len(basis))], rem


def _random_span_case(rng, ctx):
    """A basis with dependent entries and constants, and a target that is a
    combination of the basis plus, half the time, something outside it."""
    polys = []
    for _ in range(rng.randint(1, 6)):
        kind = rng.random()
        if kind < 0.15:
            polys.append(PhasePoly.constant(ctx, random_rational(rng) or 1))
        elif kind < 0.35 and polys:
            combo = sum((p * random_rational(rng) for p in rng.sample(polys, min(2, len(polys)))),
                        PhasePoly.zero(ctx))
            polys.append(combo if not combo.is_zero() else polys[0] * 3)
        else:
            p = random_poly(rng, ctx, max_degree=3, max_terms=4)
            polys.append(p if not p.is_zero() else PhasePoly.variable(ctx, 0))
    basis = [AlgebraElement(f"B{i}", p) for i, p in enumerate(polys)]
    target = sum((p * random_rational(rng) for p in polys), PhasePoly.zero(ctx))
    if rng.random() < 0.5:
        target = target + random_poly(rng, ctx, max_degree=3, max_terms=3)
    return target, basis


def test_span_reduce_matches_reference_echelon():
    rng = random.Random(4242)
    outside = 0
    for dof in (1, 2, 3):
        ctx = PhaseContext(dof)
        for _ in range(60):
            target, basis = _random_span_case(rng, ctx)
            coords, rem = span_reduce(target, basis)
            assert (coords, rem) == _reference_span_reduce(target, basis)
            rebuilt = sum((e.poly * c for e, c in zip(basis, coords)), rem)
            assert rebuilt == target
            outside += not rem.is_zero()
    assert 30 < outside < 150


def reference_close(seeds, bracket_kind="poisson", max_basis=32, max_degree=16):
    """Closure as a FIFO queue of pairs, one public bracket per pair:
    admitting element ``idx`` queues (0, idx) ... (idx - 1, idx).  Valid
    seeds only; same basis, structure and ``NonClosingError`` contract as
    ``close_algebra``.  It shares no elimination code with the engine: the
    brackets are reduced by ``_ReferenceEchelon`` in ``PhasePoly``
    arithmetic, each element's coordinates tracked by ``add_input``, as in
    ``_reference_span_reduce``."""
    bracket = {"poisson": poisson_bracket, "moyal": moyal_bracket}[bracket_kind]
    ctx = seeds[0].poly.ctx
    names_seen = {seed.name for seed in seeds}
    fresh = (f"g{k}" for k in itertools.count(1))
    basis, structure, queue = [], {}, deque()
    ech = _ReferenceEchelon()

    def admit(rem, seed=None):
        head = rem.monomials()[0]
        lead, identity = rem.coefficient(head), not any(head)
        if seed and not identity:
            elem = AlgebraElement(seed.name, seed.poly)
        else:
            if seed or identity:
                name = seed.name if seed else "1"
            else:
                name = next(n for n in fresh if n not in names_seen)
                names_seen.add(name)
            scaled = PhasePoly(ctx, {e: c / lead for e, c in rem._terms.items()})
            elem = AlgebraElement(name, scaled, is_identity=identity)
        idx = len(basis)
        basis.append(elem)
        ech.add_input(elem.poly, idx)
        queue.extend((i, idx) for i in range(idx))
        return lead

    for seed in seeds:
        _, rem = ech.reduce(seed.poly)
        if not rem.is_zero():
            admit(rem, seed)
    while queue:
        i, j = queue.popleft()
        br = bracket(basis[i].poly, basis[j].poly)
        pair = (basis[i].name, basis[j].name)
        if br.total_degree() > max_degree:
            raise NonClosingError(
                f"bracket degree {br.total_degree()} exceeds max_degree {max_degree}",
                pair, len(basis))
        coords, rem = ech.reduce(br)
        if not rem.is_zero():
            if len(basis) >= max_basis:
                reason = f"basis size exceeds max_basis {max_basis}"
                raise NonClosingError(reason, pair, len(basis))
            idx = len(basis)
            coords[idx] = admit(rem)
        for k, c in coords.items():
            structure[(i, j, k)] = c
    return LieClosure(tuple(basis), structure, bracket_kind,
                      tuple(seed.name for seed in seeds), ctx)


def _outcome(close, seeds, **options):
    """What a closure run gives: basis names, polynomials, identity flags
    and structure, or the ``NonClosingError`` message, pair and basis size."""
    try:
        cl = close(seeds, **options)
    except NonClosingError as exc:
        return str(exc), exc.pair, exc.basis_size
    return ([(e.name, e.poly._terms, e.is_identity) for e in cl.basis], cl.structure)


def _random_seeds(rng, ctx):
    """One to four seeds: random polynomials, constants, and multiples of an
    earlier seed; a seed is sometimes named like a generated element."""
    polys = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.random()
        if kind < 0.15:
            polys.append(PhasePoly.constant(ctx, random_rational(rng) or 2))
        elif kind < 0.3 and polys:
            polys.append(polys[-1] * (random_rational(rng) or 3))
        else:
            p = random_poly(rng, ctx, max_degree=3, max_terms=3)
            polys.append(p if not p.is_zero() else PhasePoly.variable(ctx, 0))
    names = [f"s{i}" for i in range(len(polys))]
    if rng.random() < 0.2:
        names[rng.randrange(len(names))] = rng.choice(["g1", "g2"])
    return [AlgebraElement(name, p) for name, p in zip(names, polys)]


def _bundled_seeds(name, hbar=None):
    problem = load_problem(name)
    if hbar is not None:
        problem.hbar = Fraction(hbar)
    return problem.seeds(problem.context())


CLOSURE_CASES = {
    "quartic-basis-caps": [
        (_bundled_seeds("quartic"), dict(max_basis=cap, max_degree=12)) for cap in range(4, 17)],
    "quartic-degree-caps": [
        (_bundled_seeds("quartic"), dict(max_basis=40, max_degree=deg)) for deg in range(3, 13)],
    "quartic-moyal": [
        (_bundled_seeds("quartic", hbar), dict(bracket_kind="moyal", max_basis=cap, max_degree=12))
        for hbar in (0, 1, Fraction(3, 2)) for cap in (6, 10, 16)],
    "bundled": [
        (_bundled_seeds(name, hbar), dict(bracket_kind=kind))
        for name in ("nsphere", "cm")
        for kind, hbar in (("poisson", 1), ("moyal", Fraction(3, 2)))],
    "constant-and-dependent": [
        (_elements(PhaseContext(2), pairs), {}) for pairs in (
            [("A", "q1*p1"), ("c", "3"), ("B", "2*q1*p1"), ("C", "q2^2")],
            [("H", "q1"), ("U", "q1 + 1"), ("P", "p1")],
            [("g1", "q1^2"), ("H", "p1^2/2"), ("K", "p1^2 + q1^2")],
        )],
}


@pytest.mark.parametrize("name", sorted(CLOSURE_CASES))
def test_close_algebra_matches_fifo_reference(name):
    for seeds, options in CLOSURE_CASES[name]:
        want = _outcome(reference_close, seeds, **options)
        assert _outcome(close_algebra, seeds, **options) == want


def test_close_algebra_matches_fifo_reference_on_random_seeds():
    rng = random.Random(1601)
    stopped = 0
    for _ in range(300):
        hbar = rng.choice([0, 1, Fraction(3, 2)])
        ctx = PhaseContext(rng.randint(1, 2), hbar=hbar, max_degree=64)
        seeds = _random_seeds(rng, ctx)
        options = dict(bracket_kind=rng.choice(["poisson", "moyal"]),
                       max_basis=rng.randint(4, 16), max_degree=rng.randint(3, 8))
        got = _outcome(close_algebra, seeds, **options)
        assert got == _outcome(reference_close, seeds, **options)
        stopped += isinstance(got[0], str)
    assert 30 < stopped < 270


def test_engine_takes_no_single_bracket(monkeypatch):
    """Closure, ``verify``, the invariant searches and checks, and
    ``verify_canonical`` take every bracket from the batched kernel, not
    from ``poisson_bracket`` or ``moyal_bracket``."""
    calls = []

    def spy(real):
        def call(a, b):
            calls.append(real.__name__)
            return real(a, b)
        return call

    for name, module in list(sys.modules.items()):
        if name == "phasealg" or name.startswith("phasealg."):
            for fn in ("poisson_bracket", "moyal_bracket"):
                if hasattr(module, fn):
                    monkeypatch.setattr(module, fn, spy(getattr(module, fn)))
    for bracket in ("poisson", "moyal"):
        cl = sphere_closure(m=2, r0=3, bracket=bracket)
        assert cl.verify()
        solutions = [s.realization for s in find_casimir(cl)]
        solutions += find_center(cl, max_total_degree=2).solutions
        assert all(verify_invariant(p, cl).passed for p in solutions)
        assert not verify_invariant(PhasePoly.variable(cl.ctx, "q1"), cl).passed
    assert verify_canonical(jacobi_transform([1, 2, 3], d=2)).passed
    assert calls == []
    one = PhasePoly.variable(PhaseContext(1), "q1")
    brackets.poisson_bracket(one, one)
    assert calls == ["poisson_bracket"]   # the spy sees a single bracket


def test_closure_and_verify_build_no_fraction_blocks(monkeypatch):
    """Closure and ``verify`` reduce the kernel's integer rows as they are:
    on the ``nsphere`` and ``cm`` closures, under both brackets, neither
    turns a bracket into ``Fraction`` terms (``brackets._brackets_of``),
    while ``verify_invariant``, which reports polynomials, still does."""
    calls = []

    def spy(real):
        def call(a, terms, moyal):
            calls.append(len(terms))
            return real(a, terms, moyal)
        return call

    for name, module in list(sys.modules.items()):
        if (name == "phasealg" or name.startswith("phasealg.")) and hasattr(module, "_brackets_of"):
            monkeypatch.setattr(module, "_brackets_of", spy(module._brackets_of))
    for problem in ("nsphere", "cm"):
        for kind, hbar in (("poisson", 1), ("moyal", Fraction(3, 2))):
            cl = close_algebra(_bundled_seeds(problem, hbar), bracket_kind=kind)
            assert cl.verify()
            assert calls == []
            verify_invariant(cl.basis[0].poly, cl)
            assert calls == [len(cl.basis)]
            calls.clear()
