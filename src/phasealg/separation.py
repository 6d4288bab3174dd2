"""Canonical coordinate changes and centre-of-mass separation.

A ``CanonicalMap`` is a linear change of canonical variables acting
componentwise on an N-body system: new positions are ``A @ old positions``
and new momenta are ``B @ old momenta``, with ``B = (A^T)^-1`` so that all
canonical brackets are preserved.  Two constructions are provided: the
two-body relative/CM split and the mass-weighted Jacobi chain, both with the
total-CM row last.  Both give ``A`` to one builder, which computes ``B``
exactly with ``linsolve.invert``.

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

from .brackets import _brackets_of
from .context import PhaseContext
from .errors import SeparationFailure
from .linsolve import invert
from .poly import PhasePoly, _var_exps
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

    Every variable, old or new, has one flat index ``offset + row*d + c``
    for component ``c`` of row ``row``: ``offset`` is 0 for positions and
    ``dof = n_bodies*d`` for momenta, so position ``i`` is conjugate to
    momentum ``i + dof``.  ``label(index)`` names a new variable ("r",
    "P_3", ...), and ``new_variable_images`` and ``old_variable_images``
    give the map and its inverse as polynomials keyed by that index.
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

    def old_context(self) -> PhaseContext:
        return PhaseContext(self.n_bodies * self.d)

    def label(self, index: int) -> str:
        """Name of new variable ``index = offset + row*d + c``, positions first."""
        dof = self.n_bodies * self.d
        labels = self.momentum_labels if index >= dof else self.position_labels
        row, c = divmod(index % dof, self.d)
        return labels[row] if self.d == 1 else f"{labels[row]}_{c + 1}"

    def _images(self, matrix: Matrix, ctx: PhaseContext, offset: int) -> dict[int, PhasePoly]:
        """Linear images ``offset + row*d + c -> sum_i matrix[row][i] * x_(offset + i*d + c)``.

        ``offset`` is 0 for positions and ``ctx.dof`` for momenta.
        """
        d = self.d
        images: dict[int, PhasePoly] = {}
        for row, coeffs in enumerate(matrix):
            for c in range(d):
                terms = {_var_exps(ctx, offset + i * d + c): k for i, k in enumerate(coeffs) if k}
                images[offset + row * d + c] = PhasePoly(ctx, terms)
        return images

    def new_variable_images(self, old_ctx: PhaseContext) -> dict[int, PhasePoly]:
        """New variables expressed in the old ones, keyed by flat index.

        New positions are ``A @ old positions`` and new momenta are
        ``B @ old momenta``.
        """
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


def _canonical_map(a: Matrix, masses: tuple[Fraction, ...], d: int,
                   position_labels: tuple[str, ...],
                   momentum_labels: tuple[str, ...]) -> CanonicalMap:
    """The map with new positions ``a @ old positions``; the momenta's
    ``b = (a^T)^-1`` comes from ``linsolve.invert``, exactly."""
    return CanonicalMap(
        d=d,
        n_bodies=len(masses),
        a=a,
        b=tuple(tuple(row) for row in invert(_transpose(a))),
        masses=masses,
        position_labels=position_labels,
        momentum_labels=momentum_labels,
    )


def two_body_transform(m1, m2, d: int = 3) -> CanonicalMap:
    """Relative/CM split: r = r1 - r2 first row, R = (m1 r1 + m2 r2)/M last.

    ``invert`` computes the conjugate momenta as the exact inverse
    transpose: p = (m2 p1 - m1 p2)/M and P = p1 + p2.
    """
    masses = _check_masses((m1, m2))
    m1, m2 = masses
    total = m1 + m2
    a = ((Fraction(1), Fraction(-1)), (m1 / total, m2 / total))
    return _canonical_map(a, masses, d, ("r", "R"), ("p", "P"))


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
    return _canonical_map(tuple(rows), ms, d,
                          tuple(f"r{k}" for k in range(1, n)) + ("R",),
                          tuple(f"p{k}" for k in range(1, n)) + ("P",))


def kinetic_energy(ctx: PhaseContext, masses: Mapping[int, Fraction], d: int) -> PhasePoly:
    """Sum over rows of |p_row|^2 / 2m_row, for ``masses`` given as ``{row: m}``.

    Row ``r`` owns the momenta ``p_(r*d + 1) .. p_(r*d + d)``.
    """
    terms = {_var_exps(ctx, ctx.dof + row * d + c, 2): 1 / (2 * rat(m))
             for row, m in masses.items() for c in range(d)}
    return PhasePoly(ctx, terms)


@dataclass(frozen=True)
class CanonicalReport:
    passed: bool
    violations: tuple[tuple[str, str, PhasePoly], ...]


def verify_canonical(cmap: CanonicalMap) -> CanonicalReport:
    """Check every pairwise bracket of the new variables exactly.

    {Q_a, P_b} = delta_ab, {Q, Q} = {P, P} = 0

    The images are bracketed pairwise, ``i < j`` in flat-index order; the
    pair is conjugate, with bracket 1, exactly when ``j == i + dof``.  Each
    violation is ``(label(i), label(j), bracket - expected)``, in that order.
    One walk per ``i`` brackets ``images[i]`` with every later image.
    """
    ctx = cmap.old_context()
    images = cmap.new_variable_images(ctx)
    violations = []
    for i in range(ctx.nvars - 1):
        brs = _brackets_of(images[i], [images[j] for j in range(i + 1, ctx.nvars)], False)
        for j, br in enumerate(brs, i + 1):
            expected = PhasePoly.constant(ctx, 1 if j == i + ctx.dof else 0)
            if br != expected:
                violations.append((cmap.label(i), cmap.label(j), br - expected))
    return CanonicalReport(passed=not violations, violations=tuple(violations))


@dataclass(frozen=True)
class SeparationReport:
    cm_is_free_kinetic: bool
    relative_kinetic_ok: bool | None
    reassembly_ok: bool
    total_mass: Fraction
    reduced_mass: Fraction | None


def _labeled_term(exps, coeff: Fraction, cmap: CanonicalMap) -> str:
    """One monomial rendered with the map's variable labels."""
    parts = []
    for idx, e in enumerate(exps):
        if e:
            label = cmap.label(idx)
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
    ctx = h.ctx
    if ctx.dof != cmap.n_bodies * cmap.d:
        raise ValueError(
            f"Hamiltonian has {ctx.dof} canonical pairs, "
            f"map needs {cmap.n_bodies * cmap.d}"
        )
    transformed = h.substitute(cmap.old_variable_images(ctx), ctx)

    dof = ctx.dof
    cm_first = cmap.cm_row * cmap.d
    is_cm = [cm_first <= i % dof < cm_first + cmap.d for i in range(ctx.nvars)]
    cm_terms, int_terms, mixed = [], [], []
    for exps in transformed.monomials():
        touched = {cm for e, cm in zip(exps, is_cm) if e}
        if touched == {True}:
            cm_terms.append(exps)
        elif True not in touched:
            int_terms.append(exps)
        else:
            mixed.append(_labeled_term(exps, transformed.coefficient(exps), cmap))
    if mixed:
        raise SeparationFailure(mixed)
    h_cm = transformed._part(cm_terms)
    h_int = transformed._part(int_terms)

    total = cmap.total_mass
    free = kinetic_energy(ctx, {cmap.cm_row: total}, cmap.d)
    reduced = None
    rel_ok = None
    if cmap.n_bodies == 2:
        m1, m2 = cmap.masses
        reduced = m1 * m2 / total
        # terms in the momenta alone, constants excluded
        kinetic_part = h_int._part([e for e in int_terms if any(e) and not any(e[:dof])])
        rel_ok = kinetic_part == kinetic_energy(ctx, {0: reduced}, cmap.d)

    reassembled = (h_cm + h_int).substitute(cmap.new_variable_images(ctx), ctx)

    report = SeparationReport(
        cm_is_free_kinetic=(h_cm == free),
        relative_kinetic_ok=rel_ok,
        reassembly_ok=(reassembled == h),
        total_mass=total,
        reduced_mass=reduced,
    )
    return h_cm, h_int, report
