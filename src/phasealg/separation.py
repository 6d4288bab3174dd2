"""Canonical coordinate changes and centre-of-mass separation.

A ``CanonicalMap`` is a linear change of canonical variables acting
componentwise on an N-body system: new positions are ``A @ old positions``
and new momenta are ``B @ old momenta``, with ``B = (A^T)^-1`` so that all
canonical brackets are preserved.  Two constructions are provided: the
two-body relative/CM split and the mass-weighted Jacobi chain, both with the
total-CM row last.

``separate_hamiltonian`` rewrites a Hamiltonian in the new variables and
splits it into a part involving only the CM pair and a part involving only
the relative pairs.  For any translation-invariant interaction this
succeeds, the CM part is the free kinetic term P^2/2M, and the remainder is
the internal Hamiltonian whose spectrum carries the physics.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .brackets import poisson_bracket
from .context import PhaseContext
from .errors import SeparationFailure
from .linsolve import invert
from .poly import PhasePoly
from .rational import rat

Matrix = tuple[tuple[Fraction, ...], ...]


def _transpose(matrix: Matrix) -> Matrix:
    return tuple(zip(*matrix))


def _check_masses(masses: Sequence[Fraction]) -> tuple[Fraction, ...]:
    out = tuple(rat(m) for m in masses)
    for m in out:
        if m <= 0:
            raise ValueError(f"masses must be positive, got {m}")
    return out


@dataclass(frozen=True)
class CanonicalMap:
    """Componentwise linear canonical transformation for N bodies in d dims.

    Row layout: relative rows first, total-CM row last.  ``a`` maps old
    positions to new, ``b`` maps old momenta to new; ``a @ b.T = 1`` is a
    construction invariant.
    """

    d: int
    n_bodies: int
    a: Matrix
    b: Matrix
    masses: tuple[Fraction, ...]
    position_labels: tuple[str, ...]
    momentum_labels: tuple[str, ...]

    @property
    def cm_row(self) -> int:
        return self.n_bodies - 1

    @property
    def total_mass(self) -> Fraction:
        return sum(self.masses, Fraction(0))

    def old_context(self, params=None, hbar=1) -> PhaseContext:
        return PhaseContext(self.n_bodies * self.d, params=params, hbar=hbar)

    def variable_label(self, row: int, component: int, momentum: bool) -> str:
        labels = self.momentum_labels if momentum else self.position_labels
        base = labels[row]
        return base if self.d == 1 else f"{base}_{component + 1}"

    def _images(self, matrix: Matrix, ctx: PhaseContext, offset: int) -> dict[int, PhasePoly]:
        """Linear images ``offset + row*d + c -> sum_i matrix[row][i] * x_(offset + i*d + c)``.

        ``offset`` is 0 for positions and ``ctx.dof`` for momenta.
        """
        d = self.d
        images: dict[int, PhasePoly] = {}
        for row, coeffs in enumerate(matrix):
            for c in range(d):
                p = PhasePoly.zero(ctx)
                for i, coeff in enumerate(coeffs):
                    if coeff:
                        p = p + PhasePoly.variable(ctx, offset + i * d + c) * coeff
                images[offset + row * d + c] = p
        return images

    def _rows(self, images: dict[int, PhasePoly], offset: int):
        d = self.d
        return tuple(
            tuple(images[offset + row * d + c] for c in range(d))
            for row in range(self.n_bodies)
        )

    def new_position_polys(self, ctx: PhaseContext):
        return self._rows(self._images(self.a, ctx, 0), 0)

    def new_momentum_polys(self, ctx: PhaseContext):
        return self._rows(self._images(self.b, ctx, ctx.dof), ctx.dof)

    def _forward_images(self, old_ctx: PhaseContext) -> dict[int, PhasePoly]:
        """New variables expressed in the old ones."""
        return {
            **self._images(self.a, old_ctx, 0),
            **self._images(self.b, old_ctx, old_ctx.dof),
        }

    def old_variable_images(self, new_ctx: PhaseContext) -> dict[int, PhasePoly]:
        """Old variables expressed in the new ones (the inverse map).

        Old positions are ``B^T @ new positions`` and old momenta are
        ``A^T @ new momenta``, both exact.
        """
        return {
            **self._images(_transpose(self.b), new_ctx, 0),
            **self._images(_transpose(self.a), new_ctx, new_ctx.dof),
        }


def two_body_transform(m1, m2, d: int = 3) -> CanonicalMap:
    """Relative/CM split: r = r1 - r2 first row, R = (m1 r1 + m2 r2)/M last.

    Conjugate momenta follow from the exact inverse transpose:
    p = (m2 p1 - m1 p2)/M and P = p1 + p2.
    """
    masses = _check_masses((m1, m2))
    m1, m2 = masses
    total = m1 + m2
    a = ((Fraction(1), Fraction(-1)), (m1 / total, m2 / total))
    b = ((m2 / total, -m1 / total), (Fraction(1), Fraction(1)))
    return CanonicalMap(
        d=d,
        n_bodies=2,
        a=a,
        b=b,
        masses=masses,
        position_labels=("r", "R"),
        momentum_labels=("p", "P"),
    )


def jacobi_transform(masses: Sequence, d: int = 3) -> CanonicalMap:
    """Mass-weighted Jacobi chain, CM row last.

    The k-th relative coordinate joins body k+1 to the centre of mass of
    bodies 1..k; momenta come from B = (A^T)^-1 computed exactly.
    """
    ms = _check_masses(masses)
    n = len(ms)
    if n < 2:
        raise ValueError("jacobi_transform needs at least two bodies")
    total = sum(ms, Fraction(0))
    rows: list[tuple[Fraction, ...]] = []
    for k in range(1, n):
        partial = sum(ms[:k], Fraction(0))
        row = [-ms[i] / partial for i in range(k)]
        row.append(Fraction(1))
        row.extend(Fraction(0) for _ in range(n - k - 1))
        rows.append(tuple(row))
    rows.append(tuple(m / total for m in ms))
    a = tuple(rows)
    b = tuple(tuple(row) for row in invert(_transpose(a)))
    return CanonicalMap(
        d=d,
        n_bodies=n,
        a=a,
        b=b,
        masses=ms,
        position_labels=tuple(f"r{k}" for k in range(1, n)) + ("R",),
        momentum_labels=tuple(f"p{k}" for k in range(1, n)) + ("P",),
    )


def kinetic_energy(ctx: PhaseContext, masses: Mapping[int, Fraction], d: int) -> PhasePoly:
    """Sum over rows of |p_row|^2 / 2m_row, for ``masses`` given as ``{row: m}``.

    Row ``r`` owns the momenta ``p_(r*d + 1) .. p_(r*d + d)``.
    """
    h = PhasePoly.zero(ctx)
    for row, m in masses.items():
        for c in range(d):
            pvar = PhasePoly.variable(ctx, ctx.dof + row * d + c)
            h = h + pvar * pvar / (2 * m)
    return h


@dataclass(frozen=True)
class CanonicalReport:
    passed: bool
    violations: tuple[tuple[str, str, PhasePoly], ...]


def verify_canonical(cmap: CanonicalMap) -> CanonicalReport:
    """Check every pairwise bracket of the new variables exactly.

    {Q_a, P_b} = delta_ab, {Q, Q} = {P, P} = 0
    """
    ctx = cmap.old_context()
    qs = cmap.new_position_polys(ctx)
    ps = cmap.new_momentum_polys(ctx)
    flat = []
    for momentum, table in ((False, qs), (True, ps)):
        for row in range(cmap.n_bodies):
            for c in range(cmap.d):
                label = cmap.variable_label(row, c, momentum)
                flat.append((label, table[row][c], momentum, (row, c)))
    violations = []
    for i, (name_i, poly_i, mom_i, slot_i) in enumerate(flat):
        for name_j, poly_j, mom_j, slot_j in flat[i + 1 :]:
            br = poisson_bracket(poly_i, poly_j)
            conjugate = mom_i != mom_j and slot_i == slot_j
            expected = PhasePoly.constant(ctx, 1 if conjugate else 0)
            if br != expected:
                violations.append((name_i, name_j, br - expected))
    return CanonicalReport(passed=not violations, violations=tuple(violations))


@dataclass(frozen=True)
class SeparationReport:
    cm_is_free_kinetic: bool
    relative_kinetic_ok: bool | None
    reassembly_ok: bool
    total_mass: Fraction
    reduced_mass: Fraction | None


def _labeled_term(exps, coeff: Fraction, cmap: CanonicalMap, dof: int) -> str:
    """One monomial rendered with the map's variable labels."""
    parts = []
    for idx, e in enumerate(exps):
        if not e:
            continue
        momentum = idx >= dof
        var = idx - dof if momentum else idx
        label = cmap.variable_label(var // cmap.d, var % cmap.d, momentum)
        parts.append(label if e == 1 else f"{label}^{e}")
    body = "*".join(parts) if parts else "1"
    if coeff == 1 and parts:
        return body
    return f"{coeff}*{body}" if parts else str(coeff)


def separate_hamiltonian(h: PhasePoly, cmap: CanonicalMap):
    """Split H into (H_CM, H_int, report) or raise SeparationFailure.

    H is rewritten in the new variables; terms touching only the CM pair go
    to H_CM, everything else (including constants) to H_int.  Terms mixing
    the two blocks mean the interaction is not translation invariant and
    abort the split.
    """
    old_ctx = h.ctx
    if old_ctx.dof != cmap.n_bodies * cmap.d:
        raise ValueError(
            f"Hamiltonian has {old_ctx.dof} canonical pairs, "
            f"map needs {cmap.n_bodies * cmap.d}"
        )
    new_ctx = PhaseContext(
        old_ctx.dof,
        params=dict(old_ctx.params),
        hbar=old_ctx.hbar,
        max_degree=old_ctx.max_degree,
    )
    transformed = h.substitute(cmap.old_variable_images(new_ctx), new_ctx)

    dof = new_ctx.dof
    cm_first = cmap.cm_row * cmap.d
    is_cm = [cm_first <= i % dof < cm_first + cmap.d for i in range(new_ctx.nvars)]
    cm_terms: dict = {}
    int_terms: dict = {}
    mixed = []
    for exps, coeff in transformed.term_items():
        touched = {cm for e, cm in zip(exps, is_cm) if e}
        if touched == {True}:
            cm_terms[exps] = coeff
        elif True not in touched:
            int_terms[exps] = coeff
        else:
            mixed.append(_labeled_term(exps, coeff, cmap, dof))
    if mixed:
        raise SeparationFailure(mixed)
    h_cm = PhasePoly._build(new_ctx, cm_terms)
    h_int = PhasePoly._build(new_ctx, int_terms)

    total = cmap.total_mass
    free = kinetic_energy(new_ctx, {cmap.cm_row: total}, cmap.d)
    reduced = None
    rel_ok = None
    if cmap.n_bodies == 2:
        m1, m2 = cmap.masses
        reduced = m1 * m2 / total
        # terms in the momenta alone, constants excluded
        kinetic_part = {e: c for e, c in int_terms.items() if any(e) and not any(e[:dof])}
        rel_ok = PhasePoly._build(new_ctx, kinetic_part) == kinetic_energy(
            new_ctx, {0: reduced}, cmap.d
        )

    reassembled = (h_cm + h_int).substitute(cmap._forward_images(old_ctx), old_ctx)

    report = SeparationReport(
        cm_is_free_kinetic=(h_cm == free),
        relative_kinetic_ok=rel_ok,
        reassembly_ok=(reassembled == h),
        total_mass=total,
        reduced_mass=reduced,
    )
    return h_cm, h_int, report
