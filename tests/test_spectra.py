import math
import sys
from itertools import product

import numpy as np
import pytest

from phasealg import (
    PotentialSpec,
    box_energy,
    box_potential,
    box_spectrum,
    composite_spectrum,
    coulomb_potential,
    fd_eigen_1d,
    harmonic_potential,
    internal_spectrum,
    tabulated_potential,
)


def well_energy(mass, length, n):
    return math.pi**2 * n**2 / (2 * mass * length**2)


def test_box_energy_formula():
    assert box_energy(1, 1, (1, 1, 1)) == pytest.approx(3 * math.pi**2 / 2)
    assert box_energy(2, 3, (1, 2, 3)) == pytest.approx(
        math.pi**2 * 14 / (2 * 2 * 9)
    )


def test_box_spectrum_ground_and_degeneracy():
    report = box_spectrum(1, 1, 3)
    assert len(report.levels) == 27
    ground = report.levels[0]
    assert ground.n == (1, 1, 1)
    assert ground.energy == pytest.approx(3 * math.pi**2 / 2, rel=1e-15)
    first_excited = [lv for lv in report.levels if lv.group == 1]
    assert len(first_excited) == 3
    assert [lv.n for lv in first_excited] == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    assert report.degeneracies()[1] == 3


def test_box_spectrum_side_scaling():
    sides = (0.5, 1.0, 2.0, 5.0)
    base = [lv.energy for lv in box_spectrum(1, 1.0, 2).levels]
    for length in sides:
        scaled = [lv.energy for lv in box_spectrum(1, length, 2).levels]
        for e0, e in zip(base, scaled):
            assert abs(e * length**2 - e0) <= 1e-12 * abs(e0)


def test_box_spectrum_tie_order_deterministic():
    a = box_spectrum(1, 1, 4)
    b = box_spectrum(1, 1, 4)
    assert [lv.n for lv in a.levels] == [lv.n for lv in b.levels]
    # within a tied group, quantum numbers come out lexicographically
    for g, size in a.degeneracies().items():
        members = [lv.n for lv in a.levels if lv.group == g]
        assert members == sorted(members)
        assert len(members) == size


def test_box_spectrum_validation():
    with pytest.raises(ValueError):
        box_spectrum(0, 1, 2)
    with pytest.raises(ValueError):
        box_spectrum(1, -1, 2)
    with pytest.raises(ValueError):
        box_spectrum(1, 1, 0)
    # 2 M l^2 underflows to 0 (once a ZeroDivisionError), the levels
    # overflow, or 2 M l^2 overflows and the levels underflow (once all 0.0)
    for mass, side in ((1, 1e-200), (1e-300, 1e-100), (1, 1e-160), (1e-320, 1),
                       (1e300, 1e10), (1e300, 1e5)):
        with pytest.raises(ValueError, match="mass .* and side .* leave the float range"):
            box_spectrum(mass, side, 3)
    for mass, side in ((1, 1e-150), (1e300, 1e2)):
        levels = box_spectrum(mass, side, 2).energies()
        assert all(math.isfinite(e) and e >= sys.float_info.min for e in levels)


def test_potential_spec_validation():
    with pytest.raises(ValueError):
        PotentialSpec(kind="weird", mass=1, a=0, b=1, grid=100)
    with pytest.raises(ValueError):
        PotentialSpec(kind="box", mass=1, a=1, b=0, grid=100)
    with pytest.raises(ValueError):
        PotentialSpec(kind="box", mass=1, a=0, b=1, grid=8)
    with pytest.raises(ValueError):
        PotentialSpec(kind="box", mass=0, a=0, b=1, grid=100)
    with pytest.raises(ValueError):
        PotentialSpec(kind="coulomb", mass=1, a=-1, b=1, grid=100, kappa=1)
    with pytest.raises(ValueError):
        PotentialSpec(
            kind="tabulated", mass=1, a=0, b=1, grid=100, positions=(0,), values=(1,)
        )
    with pytest.raises(ValueError):
        PotentialSpec(
            kind="tabulated",
            mass=1,
            a=0,
            b=1,
            grid=100,
            positions=(0.0, 0.0, 1.0),
            values=(1.0, 2.0, 3.0),
        )


def test_fd_square_well_levels():
    spec = box_potential(length=1.0, mass=1.0, grid=2000)
    energies = fd_eigen_1d(spec, 3)
    for n, e in enumerate(energies, start=1):
        exact = well_energy(1.0, 1.0, n)
        assert abs(e - exact) / exact < 1e-4


def test_fd_harmonic_levels():
    spec = harmonic_potential(omega=1.0, mass=1.0, domain=(-12.0, 12.0), grid=3000)
    energies = fd_eigen_1d(spec, 4)
    for n, e in enumerate(energies):
        assert abs(e - (n + 0.5)) < 1e-3


def test_fd_convergence_is_second_order():
    exact = well_energy(1.0, 1.0, 1)
    errors = []
    for grid in (500, 1000, 2000):
        spec = box_potential(length=1.0, mass=1.0, grid=grid)
        errors.append(abs(fd_eigen_1d(spec, 1)[0] - exact))
    order1 = math.log2(errors[0] / errors[1])
    order2 = math.log2(errors[1] / errors[2])
    assert 1.9 < order1 < 2.1
    assert 1.9 < order2 < 2.1


def test_fd_coulomb_has_bound_state():
    spec = coulomb_potential(kappa=1.0, r_min=0.05, mass=1.0)
    energies = fd_eigen_1d(spec, 2)
    assert energies[0] < 0


def test_fd_tabulated_matches_analytic_harmonic():
    # table nodes on the FD grid itself, so interpolation is exact there
    xs = np.linspace(-12, 12, 3000)
    vs = 0.5 * xs**2
    tab = tabulated_potential(positions=xs, values=vs, mass=1.0, grid=3000)
    ana = harmonic_potential(omega=1.0, mass=1.0, domain=(-12.0, 12.0), grid=3000)
    e_tab = fd_eigen_1d(tab, 3)
    e_ana = fd_eigen_1d(ana, 3)
    assert np.allclose(e_tab, e_ana, rtol=1e-9, atol=1e-9)


def test_fd_rejects_bad_count_and_values():
    spec = box_potential(length=1.0, grid=100)
    with pytest.raises(ValueError):
        fd_eigen_1d(spec, 0)
    with pytest.raises(ValueError):
        fd_eigen_1d(spec, 99)
    broken = tabulated_potential(
        positions=(0.0, 0.5, 1.0),
        values=(0.0, float("inf"), 0.0),
        mass=1.0,
        grid=64,
    )
    with pytest.raises(ValueError):
        fd_eigen_1d(broken, 1)


def test_fd_eigenvectors_node_counts():
    spec = box_potential(length=1.0, mass=1.0, grid=600)
    energies, vectors = fd_eigen_1d(spec, 2, return_vectors=True)
    assert energies[0] < energies[1]
    for k in range(2):
        vec = vectors[:, k]
        signs = np.sign(vec[np.abs(vec) > 1e-8])
        flips = int(np.count_nonzero(signs[1:] != signs[:-1]))
        assert flips == k


def test_fd_spectrum_strictly_increasing():
    spec = harmonic_potential(omega=2.0, grid=1500)
    energies = fd_eigen_1d(spec, 6)
    assert all(b > a for a, b in zip(energies, energies[1:]))


def test_internal_spectrum_labels():
    spec = box_potential(length=1.0, grid=800)
    report = internal_spectrum(spec, 3)
    assert report.mode == "internal"
    assert [lv.label for lv in report.levels] == [(0,), (1,), (2,)]
    assert report.energies() == sorted(report.energies())


def test_composite_right_is_pure_shift():
    internal = [1.0, 2.5, 2.5 + 5e-13, 4.0]
    report = composite_spectrum(internal, 10.0, "composite-right")
    assert report.mode == "composite-right"
    assert report.offset == 10.0
    assert len(report.levels) == 4
    assert report.energies() == pytest.approx([11.0, 12.5, 12.5 + 5e-13, 14.0])
    # near-coincident shifted levels stay grouped together
    assert report.levels[1].group == report.levels[2].group


def test_composite_spurious_matches_tensor_sum():
    internal = [0.3, 1.1]
    cm = box_spectrum(1.0, 2.0, 2)
    report = composite_spectrum(internal, cm, "composite-spurious")
    expected = sorted(
        (e + box_energy(1.0, 2.0, n), (i, n))
        for i, e in enumerate(internal)
        for n in product((1, 2), repeat=3)
    )
    assert len(report.levels) == len(expected)
    for lv, (e, lab) in zip(report.levels, expected):
        assert lv.energy == pytest.approx(e, rel=1e-15)
        assert lv.label == lab


def test_composite_spurious_truncation():
    internal = [0.0]
    cm = box_spectrum(1.0, 1.0, 3)
    full = composite_spectrum(internal, cm, "composite-spurious")
    short = composite_spectrum(internal, cm, "composite-spurious", count=5)
    assert len(full.levels) == 27
    assert len(short.levels) == 5
    assert [lv.energy for lv in short.levels] == [
        lv.energy for lv in full.levels[:5]
    ]


def test_composite_validation():
    with pytest.raises(ValueError):
        composite_spectrum([], 1.0, "composite-right")
    with pytest.raises(ValueError):
        composite_spectrum([1.0], 2.0, "composite-spurious")
    internal_report = internal_spectrum(box_potential(1.0, grid=100), 1)
    with pytest.raises(ValueError):
        composite_spectrum([1.0], internal_report, "composite-spurious")
    with pytest.raises(ValueError):
        composite_spectrum([1.0], 0.0, "composite-sideways")
    with pytest.raises(ValueError):
        composite_spectrum(
            [1.0], box_spectrum(1, 1, 1), "composite-spurious", count=0
        )
