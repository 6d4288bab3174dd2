"""Numerical spectra: confined centre of mass versus internal dynamics.

Three pieces:

* ``box_spectrum``: the exact level set pi^2 (n1^2+n2^2+n3^2) / (2 M l^2) of
  a free particle of mass M boxed into a cube of side l, with degeneracy
  grouping.  Confining the centre of mass produces exactly this ladder on
  top of every internal level.
* ``fd_eigen_1d``: lowest eigenvalues of a 1D Schroedinger operator on a
  uniform grid with Dirichlet walls, via the standard 3-point stencil and
  LAPACK Sturm-sequence bisection.  Discretization error is O(h^2).
* ``composite_spectrum``: either the tensor sum of internal and box levels
  (the spurious multiplet structure) or a plain offset shift (one composite
  level per internal level, nothing spurious).

All three build their level tuples with one private builder, ``_levels``:
it sorts ``(energy, label)`` pairs by energy and then label, keeps the
lowest ``count`` and assigns degeneracy groups.

Everything here is float64; exact arithmetic buys nothing against the
O(h^2) discretization error.

Only the FD solver uses numpy and scipy: ``PotentialSpec.sample``,
``read_tabulated`` and ``fd_eigen_1d`` get them from ``_float_layer`` when
they run.  Importing this module, and the box ladder and composite spectra,
load neither.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field
from itertools import product
from typing import Sequence

REL_DEGENERACY = 1e-12

# The most levels a box ladder, or a spurious composite (internal levels
# times box levels), may have.
MAX_BOX_LEVELS = 100_000
# The most points a finite-difference grid may have.
MAX_GRID_POINTS = 1_000_000


def _float_layer():
    """numpy and scipy's ``eigh_tridiagonal``, imported at the first call."""
    import numpy
    from scipy.linalg import eigh_tridiagonal

    return numpy, eigh_tridiagonal


@dataclass(frozen=True)
class BoxLevel:
    """One cubic-box level: quantum numbers, energy, degeneracy group id."""

    n: tuple[int, int, int]
    energy: float
    group: int


@dataclass(frozen=True)
class Level:
    """Generic labeled level for internal and composite spectra."""

    label: tuple
    energy: float
    group: int


@dataclass(frozen=True)
class PotentialSpec:
    """1D potential, mass and discretization for the FD solver.

    kind: harmonic | box | coulomb | tabulated
    """

    kind: str
    mass: float
    a: float
    b: float
    grid: int
    omega: float = 0.0
    kappa: float = 0.0
    r_min: float = 0.0
    positions: tuple[float, ...] = ()
    values: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in ("harmonic", "box", "coulomb", "tabulated"):
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if not self.b > self.a:
            raise ValueError("domain must satisfy b > a")
        if self.grid < 16:
            raise ValueError("grid must be at least 16 points")
        if self.grid > MAX_GRID_POINTS:
            raise ValueError(f"grid of {self.grid} points, cap is {MAX_GRID_POINTS}")
        if not self.mass > 0:
            raise ValueError("mass must be positive")
        if not math.isfinite(self.omega * self.omega):
            raise ValueError(f"omega {self.omega!r} must have a finite square")
        if self.kind == "coulomb" and not self.r_min > 0:
            raise ValueError("coulomb potential needs r_min > 0")
        if self.kind == "tabulated":
            if len(self.positions) < 2 or len(self.positions) != len(self.values):
                raise ValueError("tabulated potential needs matching columns")
            if not all(a < b for a, b in zip(self.positions, self.positions[1:])):
                raise ValueError("tabulated positions must increase strictly")
        h = self.spacing
        scale = self.mass * h * h
        if not (scale > 0 and sys.float_info.min <= 1.0 / scale < math.inf):
            raise ValueError(
                f"kinetic scale 1/(m h^2) for mass {self.mass!r} and grid spacing h = {h!r}"
                " leaves the float range")

    @property
    def spacing(self) -> float:
        """Grid spacing h of the ``grid`` points from ``a`` to ``b``."""
        return (self.b - self.a) / (self.grid - 1)

    def sample(self, x):
        """The potential at each point of the array ``x``."""
        np, _ = _float_layer()
        if self.kind == "harmonic":
            return 0.5 * self.mass * self.omega**2 * x**2
        if self.kind == "box":
            return np.zeros_like(x)
        if self.kind == "coulomb":
            return -self.kappa / np.maximum(np.abs(x), self.r_min)
        return np.interp(x, self.positions, self.values)


def harmonic_potential(
    omega: float, mass: float = 1.0, domain=(-10.0, 10.0), grid: int = 2000
) -> PotentialSpec:
    return PotentialSpec(
        kind="harmonic", mass=mass, a=domain[0], b=domain[1], grid=grid, omega=omega
    )


def box_potential(length: float, mass: float = 1.0, grid: int = 2000) -> PotentialSpec:
    """Infinite well of width ``length``: zero inside, Dirichlet walls."""
    if not length > 0:
        raise ValueError("box length must be positive")
    half = 0.5 * float(length)
    return PotentialSpec(kind="box", mass=mass, a=-half, b=half, grid=grid)


def coulomb_potential(
    kappa: float,
    r_min: float,
    mass: float = 1.0,
    domain=(-20.0, 20.0),
    grid: int = 4000,
) -> PotentialSpec:
    return PotentialSpec(
        kind="coulomb",
        mass=mass,
        a=domain[0],
        b=domain[1],
        grid=grid,
        kappa=kappa,
        r_min=r_min,
    )


def tabulated_potential(
    positions: Sequence[float],
    values: Sequence[float],
    mass: float = 1.0,
    grid: int = 2000,
) -> PotentialSpec:
    pos = tuple(float(x) for x in positions)
    return PotentialSpec(
        kind="tabulated",
        mass=mass,
        a=pos[0] if pos else 0.0,
        b=pos[-1] if pos else 0.0,
        grid=grid,
        positions=pos,
        values=tuple(float(v) for v in values),
    )


def read_tabulated(path, mass: float = 1.0, grid: int = 2000) -> PotentialSpec:
    """Two whitespace-separated columns (position, value); '#' comments ok."""
    np, _ = _float_layer()
    with warnings.catch_warnings():   # the check below reports an empty file
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        data = np.loadtxt(path, dtype=float)
    if data.ndim != 2 or data.shape[1] != 2 or data.shape[0] < 2:
        raise ValueError("tabulated potential file needs two columns")
    return tabulated_potential(data[:, 0], data[:, 1], mass=mass, grid=grid)


@dataclass(frozen=True)
class SpectrumReport:
    """mode: box-cm | internal | composite-spurious | composite-right."""

    mode: str
    levels: tuple
    offset: float | None = None
    metadata: dict = field(default_factory=dict)

    def energies(self) -> list[float]:
        return [lv.energy for lv in self.levels]

    def degeneracies(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for lv in self.levels:
            out[lv.group] = out.get(lv.group, 0) + 1
        return out


def _assign_groups(energies: Sequence[float]) -> list[int]:
    """Group ids for an ascending energy list, 1e-12 relative tolerance.

    Each energy is compared against its group's first member so float noise
    cannot chain distinct levels together.
    """
    groups = []
    gid = -1
    anchor = None
    for e in energies:
        if anchor is None or abs(e - anchor) > REL_DEGENERACY * max(
            abs(e), abs(anchor)
        ):
            gid += 1
            anchor = e
        groups.append(gid)
    return groups


def _levels(pairs, cls=Level, count: int | None = None) -> tuple:
    """``cls(label, energy, group)`` for the lowest ``count`` (all if None)
    ``(energy, label)`` pairs, ascending by energy, then label."""
    pairs = sorted(pairs)[:count]
    groups = _assign_groups([e for e, _ in pairs])
    return tuple(cls(label, e, g) for (e, label), g in zip(pairs, groups))


def box_energy(mass: float, length: float, n: tuple[int, int, int]) -> float:
    return math.pi**2 * sum(v * v for v in n) / (2.0 * mass * length * length)


def box_spectrum(mass: float, length: float, n_max: int) -> SpectrumReport:
    """All cubic-box levels with quantum numbers up to n_max, grouped.

    Raises ``ValueError`` when the ladder's n_max^3 levels are more than
    ``MAX_BOX_LEVELS``, checked before any level is built, and when the
    levels leave the range of normal floats: when ``2 * mass * length**2``
    underflows to 0, when the top level overflows, or when the ground level
    underflows (degeneracies would be lost to rounding).
    """
    if not mass > 0 or not length > 0:
        raise ValueError("mass and box side must be positive")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if n_max**3 > MAX_BOX_LEVELS:
        raise ValueError(f"box ladder needs {n_max**3} levels, cap is {MAX_BOX_LEVELS}")
    if not (2.0 * mass * length * length > 0
            and box_energy(mass, length, (1, 1, 1)) >= sys.float_info.min
            and math.isfinite(box_energy(mass, length, (n_max,) * 3))):
        raise ValueError(
            f"box levels for mass {mass!r} and side {length!r} leave the float range")
    ns = product(range(1, n_max + 1), repeat=3)
    return SpectrumReport(
        mode="box-cm",
        levels=_levels([(box_energy(mass, length, n), n) for n in ns], BoxLevel),
        metadata={"mass": float(mass), "length": float(length), "n_max": n_max},
    )


def fd_eigen_1d(spec: PotentialSpec, count: int):
    """Lowest ``count`` Dirichlet eigenvalues of -(1/2m) d2/dx2 + V, ascending,
    as a numpy array.

    Symmetric tridiagonal matrix over the grid interior, solved by Sturm
    bisection (LAPACK stebz) to absolute tolerance 1e-10; only the energies
    are computed, no eigenvectors.

    The off-diagonal entries are nonzero, so every eigenvalue is simple.  Two
    adjacent levels within ``REL_DEGENERACY`` of each other mean float64 has
    lost their splitting (a well too deep for its width); that is refused
    with a ``ValueError`` naming the potential and the two levels.
    """
    interior = spec.grid - 2
    if not 1 <= count <= interior:
        raise ValueError(f"count must be in [1, {interior}], got {count}")
    np, eigh_tridiagonal = _float_layer()
    h = spec.spacing
    x = spec.a + h * np.arange(1, spec.grid - 1)
    with np.errstate(all="ignore"):   # the check below reports an overflow
        v = np.asarray(spec.sample(x), dtype=float)
    if not np.isfinite(v).all():
        raise ValueError("potential evaluates to non-finite values")
    inv = 1.0 / (spec.mass * h * h)
    diag = inv + v
    off = np.full(interior - 1, -0.5 * inv)
    levels = np.asarray(eigh_tridiagonal(
        diag,
        off,
        eigvals_only=True,
        select="i",
        select_range=(0, count - 1),
        lapack_driver="stebz",
        tol=1e-10,
    ))
    lower, upper = levels[:-1], levels[1:]
    with np.errstate(over="ignore"):   # a gap past the float range merges nothing
        merged = upper - lower <= REL_DEGENERACY * np.maximum(np.abs(lower), np.abs(upper))
    if merged.any():
        i = int(np.argmax(merged))
        raise ValueError(
            f"{spec.kind} potential: levels {float(lower[i])!r} and {float(upper[i])!r}"
            " agree to float64 rounding, so their splitting is lost")
    return levels


def internal_spectrum(spec: PotentialSpec, count: int) -> SpectrumReport:
    """FD levels wrapped as a report, labeled by level index."""
    energies = fd_eigen_1d(spec, count)
    return SpectrumReport(
        mode="internal",
        levels=_levels([(float(e), (i,)) for i, e in enumerate(energies)]),
        metadata={
            "kind": spec.kind,
            "mass": spec.mass,
            "domain": [spec.a, spec.b],
            "grid": spec.grid,
        },
    )


def _shifted(level: float, shift: float, name: str) -> float:
    """``level + shift``, refused unless it is a finite energy."""
    energy = level + shift
    if not math.isfinite(energy):
        raise ValueError(f"internal level {level!r} plus {name} {shift!r} is not a finite energy")
    return energy


def composite_spectrum(
    internal: Sequence[float], cm, mode: str, count: int | None = None
) -> SpectrumReport:
    """Combine internal levels with the CM, spurious or shifted.

    mode "composite-spurious": ``cm`` is a box-cm SpectrumReport; every
    internal level is replicated by the whole box ladder (labels are
    (internal index, box quantum numbers)); more than ``MAX_BOX_LEVELS``
    such pairs are refused before any is built.  mode "composite-right":
    ``cm`` is a plain offset; exactly one level per internal level.  A level
    that is not a finite energy is refused with a ``ValueError`` naming its
    internal level and its offset or box level.
    """
    internal = [float(e) for e in internal]
    if not internal:
        raise ValueError("internal spectrum must be nonempty")
    if mode == "composite-right":
        offset = float(cm)
        return SpectrumReport(
            mode=mode,
            levels=_levels([(_shifted(e, offset, "offset"), (i,)) for i, e in enumerate(internal)]),
            offset=offset,
            metadata={"internal_count": len(internal)},
        )
    if mode == "composite-spurious":
        if not isinstance(cm, SpectrumReport) or cm.mode != "box-cm":
            raise ValueError("composite-spurious needs a box-cm report")
        if count is not None and count < 1:
            raise ValueError("count must be positive")
        if (size := len(internal) * len(cm.levels)) > MAX_BOX_LEVELS:
            raise ValueError(f"spurious composite needs {size} levels ({len(internal)} internal"
                             f" x {len(cm.levels)} box), cap is {MAX_BOX_LEVELS}")
        pairs = [(_shifted(e, lv.energy, "box level"), (i, lv.n))
                 for i, e in enumerate(internal) for lv in cm.levels]
        return SpectrumReport(
            mode=mode,
            levels=_levels(pairs, count=count),
            metadata={
                "internal_count": len(internal),
                "cm_metadata": dict(cm.metadata),
            },
        )
    raise ValueError(f"unknown composite mode {mode!r}")
