import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from phasealg import (
    CanonicalMap,
    PhaseContext,
    PhasePoly,
    SeparationFailure,
    jacobi_transform,
    separate_hamiltonian,
    two_body_transform,
    verify_canonical,
)
from phasealg.poly import format_poly

EXPECTED = Path(__file__).resolve().parent / "expected"


def kinetic_energy(ctx, masses, d):
    h = PhasePoly.zero(ctx)
    for i, m in enumerate(masses):
        for c in range(d):
            p = PhasePoly.variable(ctx, ctx.dof + i * d + c)
            h = h + p * p / (2 * Fraction(m))
    return h


def matmul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[r][k] * b[k][c] for k in range(n)) for c in range(n))
        for r in range(n)
    )


def transpose(a):
    n = len(a)
    return tuple(tuple(a[r][c] for r in range(n)) for c in range(n))


def identity(n):
    return tuple(
        tuple(Fraction(1 if r == c else 0) for c in range(n)) for r in range(n)
    )


def test_two_body_equal_masses_matrices():
    cmap = two_body_transform(1, 1, d=1)
    assert cmap.a == ((1, -1), (Fraction(1, 2), Fraction(1, 2)))
    assert cmap.b == ((Fraction(1, 2), Fraction(-1, 2)), (1, 1))
    assert cmap.cm_row == 1
    assert cmap.total_mass == 2
    ctx = cmap.old_context()
    q1, q2 = (PhasePoly.variable(ctx, i) for i in (0, 1))
    p1, p2 = (PhasePoly.variable(ctx, i) for i in (2, 3))
    images = cmap.new_variable_images(ctx)
    assert images == {0: q1 - q2, 1: (q1 + q2) / 2, 2: (p1 - p2) / 2, 3: p1 + p2}


def test_two_body_unequal_masses_matrices():
    cmap = two_body_transform(1, 2, d=3)
    assert cmap.a == ((1, -1), (Fraction(1, 3), Fraction(2, 3)))
    assert cmap.b == ((Fraction(2, 3), Fraction(-1, 3)), (1, 1))
    assert cmap.position_labels == ("r", "R")
    assert cmap.momentum_labels == ("p", "P")
    assert cmap.label(0) == "r_1"
    assert cmap.label(11) == "P_3"
    assert [cmap.label(i) for i in range(12)] == [
        "r_1", "r_2", "r_3", "R_1", "R_2", "R_3",
        "p_1", "p_2", "p_3", "P_1", "P_2", "P_3",
    ]


def test_two_body_canonical_random_masses():
    rng = random.Random(60601)
    for _ in range(5):
        m1 = Fraction(rng.randint(1, 20), rng.randint(1, 20))
        m2 = Fraction(rng.randint(1, 20), rng.randint(1, 20))
        report = verify_canonical(two_body_transform(m1, m2, d=2))
        assert report.passed
        assert report.violations == ()


BROKEN_MAPS = {
    "two-body": lambda d: two_body_transform(1, 2, d=d),
    "jacobi-3": lambda d: jacobi_transform((2, 3, 5), d=d),
    "jacobi-4": lambda d: jacobi_transform((1, 4, 9, 16), d=d),
}


def test_broken_map_reports_violations():
    """Momentum rows replaced by the position rows, or doubled, at d = 1, 2
    and 3: the full ordered violation list, labels and residuals, is pinned
    in ``expected/canonical_violations.json``."""
    expected = json.loads((EXPECTED / "canonical_violations.json").read_text())
    for d in (1, 2, 3):
        for name, build in BROKEN_MAPS.items():
            good = build(d)
            doubled = tuple(tuple(2 * x for x in row) for row in good.b)
            for how, b in (("a", good.a), ("2b", doubled)):
                bad = CanonicalMap(
                    d=d,
                    n_bodies=good.n_bodies,
                    a=good.a,
                    b=b,
                    masses=good.masses,
                    position_labels=good.position_labels,
                    momentum_labels=good.momentum_labels,
                )
                report = verify_canonical(bad)
                assert not report.passed
                got = [[i, j, format_poly(p)] for i, j, p in report.violations]
                assert got == expected[f"{name}/d{d}/{how}"], (name, d, how)


def test_scaled_rows_stay_canonical():
    base = two_body_transform(1, 1, d=1)
    a = (tuple(2 * x for x in base.a[0]), base.a[1])
    b = (tuple(x / 2 for x in base.b[0]), base.b[1])
    scaled = CanonicalMap(
        d=1,
        n_bodies=2,
        a=a,
        b=b,
        masses=base.masses,
        position_labels=base.position_labels,
        momentum_labels=base.momentum_labels,
    )
    assert verify_canonical(scaled).passed


def test_jacobi_two_bodies_matches_pair_map():
    pair = two_body_transform(3, 5, d=1)
    chain = jacobi_transform((3, 5), d=1)
    # chain's relative row points the opposite way; CM rows agree
    assert chain.a[0] == tuple(-x for x in pair.a[0])
    assert chain.a[1] == pair.a[1]
    assert chain.b[0] == tuple(-x for x in pair.b[0])
    assert chain.b[1] == pair.b[1]
    assert verify_canonical(chain).passed


def test_jacobi_three_equal_masses():
    cmap = jacobi_transform((1, 1, 1), d=1)
    assert cmap.a == (
        (-1, 1, 0),
        (Fraction(-1, 2), Fraction(-1, 2), 1),
        (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
    )
    assert cmap.position_labels == ("r1", "r2", "R")
    assert cmap.momentum_labels == ("p1", "p2", "P")
    assert verify_canonical(cmap).passed


def test_jacobi_arbitrary_masses_canonical():
    assert verify_canonical(jacobi_transform((2, 3, 5), d=3)).passed
    assert verify_canonical(jacobi_transform((1, 4, 9, 16), d=2)).passed


def test_jacobi_inverse_transpose_identity():
    rng = random.Random(424242)
    for n in (2, 3, 4, 5):
        masses = [Fraction(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(n)]
        cmap = jacobi_transform(masses, d=1)
        assert matmul(cmap.a, transpose(cmap.b)) == identity(n)
        assert matmul(cmap.b, transpose(cmap.a)) == identity(n)


def _image_round_trip(cmap):
    """Forward images of the new variables with the inverse images substituted."""
    old_ctx = cmap.old_context()
    new_ctx = PhaseContext(old_ctx.dof)
    forward = cmap.new_variable_images(old_ctx)
    inverse = cmap.old_variable_images(new_ctx)
    dof = old_ctx.dof
    assert sorted(forward) == sorted(inverse) == list(range(2 * dof))
    for v in range(2 * dof):
        assert forward[v].substitute(inverse, new_ctx) == PhasePoly.variable(new_ctx, v)
        assert inverse[v].substitute(forward, old_ctx) == PhasePoly.variable(old_ctx, v)


def test_linear_images_invert_exactly():
    rng = random.Random(90210)
    for d in (1, 2, 3):
        m1, m2 = (Fraction(rng.randint(1, 15), rng.randint(1, 15)) for _ in range(2))
        _image_round_trip(two_body_transform(m1, m2, d=d))
        for n in (3, 4):
            masses = [Fraction(rng.randint(1, 15), rng.randint(1, 15)) for _ in range(n)]
            _image_round_trip(jacobi_transform(masses, d=d))


def test_separate_two_body_kinetic():
    cmap = two_body_transform(1, 1, d=1)
    ctx = cmap.old_context()
    h = kinetic_energy(ctx, (1, 1), 1)
    h_cm, h_int, report = separate_hamiltonian(h, cmap)
    new_ctx = h_cm.ctx
    p_rel = PhasePoly.variable(new_ctx, 2)
    p_cm = PhasePoly.variable(new_ctx, 3)
    assert h_cm == p_cm * p_cm / 4
    assert h_int == p_rel * p_rel
    assert report.cm_is_free_kinetic
    assert report.relative_kinetic_ok
    assert report.reassembly_ok
    assert report.total_mass == 2
    assert report.reduced_mass == Fraction(1, 2)


def test_separate_with_pair_potential():
    cmap = two_body_transform(1, 1, d=1)
    ctx = cmap.old_context()
    q1 = PhasePoly.variable(ctx, 0)
    q2 = PhasePoly.variable(ctx, 1)
    h = kinetic_energy(ctx, (1, 1), 1) + (q1 - q2) ** 2
    h_cm, h_int, report = separate_hamiltonian(h, cmap)
    new_ctx = h_cm.ctx
    r = PhasePoly.variable(new_ctx, 0)
    p_rel = PhasePoly.variable(new_ctx, 2)
    assert h_int == p_rel * p_rel + r * r
    assert report.cm_is_free_kinetic
    assert report.relative_kinetic_ok
    assert report.reassembly_ok


def test_separate_unequal_masses_3d():
    cmap = two_body_transform(1, 2, d=3)
    ctx = cmap.old_context()
    h = kinetic_energy(ctx, (1, 2), 3)
    h_cm, h_int, report = separate_hamiltonian(h, cmap)
    new_ctx = h_cm.ctx
    expected_cm = PhasePoly.zero(new_ctx)
    expected_int = PhasePoly.zero(new_ctx)
    for c in range(3):
        cm_p = PhasePoly.variable(new_ctx, 6 + 3 + c)
        rel_p = PhasePoly.variable(new_ctx, 6 + c)
        expected_cm = expected_cm + cm_p * cm_p / 6
        expected_int = expected_int + rel_p * rel_p * Fraction(3, 4)
    assert h_cm == expected_cm
    assert h_int == expected_int
    assert report.reduced_mass == Fraction(2, 3)
    assert report.relative_kinetic_ok


def test_separate_jacobi_three_body():
    cmap = jacobi_transform((1, 1, 1), d=1)
    ctx = cmap.old_context()
    h = kinetic_energy(ctx, (1, 1, 1), 1)
    h_cm, h_int, report = separate_hamiltonian(h, cmap)
    new_ctx = h_cm.ctx
    p1 = PhasePoly.variable(new_ctx, 3)
    p2 = PhasePoly.variable(new_ctx, 4)
    p_cm = PhasePoly.variable(new_ctx, 5)
    assert h_cm == p_cm * p_cm / 6
    assert h_int == p1 * p1 + p2 * p2 * Fraction(3, 4)
    assert report.cm_is_free_kinetic
    assert report.relative_kinetic_ok is None
    assert report.reduced_mass is None
    assert report.reassembly_ok


def test_separate_constant_goes_to_interaction():
    cmap = two_body_transform(1, 1, d=1)
    ctx = cmap.old_context()
    h = kinetic_energy(ctx, (1, 1), 1) + 7
    _, h_int, report = separate_hamiltonian(h, cmap)
    assert h_int.coefficient((0, 0, 0, 0)) == 7
    assert report.reassembly_ok


def test_separate_mixed_terms_fail_with_labels():
    cmap = two_body_transform(1, 1, d=1)
    ctx = cmap.old_context()
    q1 = PhasePoly.variable(ctx, 0)
    h = kinetic_energy(ctx, (1, 1), 1) + q1 * q1
    with pytest.raises(SeparationFailure) as err:
        separate_hamiltonian(h, cmap)
    assert "r*R" in err.value.mixed_terms
    assert "r*R" in str(err.value)


def test_separate_mixed_terms_3d_labels():
    cmap = two_body_transform(1, 2, d=3)
    ctx = cmap.old_context()
    q1 = PhasePoly.variable(ctx, 0)
    h = kinetic_energy(ctx, (1, 2), 3) + q1 * q1
    with pytest.raises(SeparationFailure) as err:
        separate_hamiltonian(h, cmap)
    assert any("r_1" in t and "R_1" in t for t in err.value.mixed_terms)


def test_separate_mixed_terms_jacobi_3d_labels():
    cmap = jacobi_transform((2, 3, 5), d=3)
    ctx = cmap.old_context()
    q1, q5, p8 = (PhasePoly.variable(ctx, i) for i in (0, 4, 9 + 7))
    h = kinetic_energy(ctx, (2, 3, 5), 3) + q1 * q1 + q5 * p8
    with pytest.raises(SeparationFailure) as err:
        separate_hamiltonian(h, cmap)
    assert err.value.mixed_terms == [
        "-6/5*r1_1*R_1", "1/5*r1_2*P_2", "-1*r2_1*R_1", "-1/4*r2_2*P_2", "R_2*p2_2",
    ]


def test_input_validation():
    with pytest.raises(ValueError):
        two_body_transform(0, 1)
    with pytest.raises(ValueError):
        two_body_transform(1, -3)
    with pytest.raises(ValueError):
        jacobi_transform((5,))
    cmap = two_body_transform(1, 1, d=1)
    wrong = PhaseContext(3)
    with pytest.raises(ValueError):
        separate_hamiltonian(kinetic_energy(wrong, (1, 1, 1), 1), cmap)
