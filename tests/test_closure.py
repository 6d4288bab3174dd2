from fractions import Fraction

import dataclasses
import itertools

import pytest

from conftest import cm_closure, sphere_closure
from phasealg import (
    AlgebraElement,
    EmptySeedError,
    NonClosingError,
    PhaseContext,
    PhasePoly,
    close_algebra,
    convention_notes,
    parse_expression,
    span_reduce,
    structure_constants,
)


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
    for i in (1, 2, 3):
        assert cl.element_named(f"g{i}").poly == PhasePoly.variable(ctx, f"p{i}")
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
    assert cl.element_named("g1").poly == PhasePoly.variable(ctx, "p1")
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


def test_lookup_errors():
    cl = sphere_closure()
    with pytest.raises(KeyError):
        cl.element_named("nope")
    with pytest.raises(KeyError):
        cl.index_of("nope")


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
