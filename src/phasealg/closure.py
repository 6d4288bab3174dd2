"""Bracket-closure of a constraint algebra.

Starting from a naive Hamiltonian and its constraints, every Poisson (or
Moyal) bracket of basis elements is reduced against the current linear span;
whatever cannot be reduced joins the basis as a new element.  For a system
whose constraints are compatible this terminates in a finite basis together
with exact structure constants

    bracket(b_i, b_j) = sum_k c[i][j][k] * b_k

Constant remainders are folded into a single flagged identity element stored
as the polynomial 1.  New non-constant elements are normalized so their
graded-lex leading coefficient is 1 and named g1, g2, ... in creation order.
Pairs (i, j), i < j, go in order of j, then i, so runs are reproducible;
closure and ``verify`` bracket ``basis[:j]`` with ``basis[j]`` in one walk
of the kernel (``brackets._blocks``).  Both, and ``span_reduce``, reduce
term maps through ``linsolve.Echelon``, pivoting on the graded-lex leading
monomial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .brackets import _blocks
from .context import PhaseContext
from .errors import EmptySeedError, NonClosingError
from .linsolve import Echelon, sub_scaled
from .poly import Expvec, PhasePoly, _grlex_key


@dataclass(frozen=True)
class AlgebraElement:
    name: str
    poly: PhasePoly
    is_identity: bool = False


def _leading(terms: dict[Expvec, Fraction]) -> Expvec:
    """Pivot of a closure row: its graded-lex leading monomial."""
    return max(terms, key=_grlex_key)


def _span(basis: Sequence[AlgebraElement]) -> Echelon:
    """Echelon of the basis polynomials, coordinates kept over ``basis``."""
    ech = Echelon(_leading)
    for j, elem in enumerate(basis):
        ech.add(elem.poly._terms, j)
    return ech


def span_reduce(
    p: PhasePoly, basis: Sequence[AlgebraElement]
) -> tuple[list[Fraction], PhasePoly]:
    """Split ``p`` into a span component plus an irreducible remainder.

    Returns exact coordinates over ``basis`` (in order) and the remainder:
    ``p = sum_i coords[i] * basis[i].poly + remainder``, with the remainder
    zero exactly when ``p`` lies in the span.
    """
    for elem in basis:
        p.ctx.require_same(elem.poly.ctx)
    coords, rem = _span(basis).reduce(p._terms)
    return [coords.get(i, Fraction(0)) for i in range(len(basis))], PhasePoly._build(p.ctx, rem)


@dataclass
class LieClosure:
    basis: tuple[AlgebraElement, ...]
    structure: dict[tuple[int, int, int], Fraction]  # keys have i < j
    bracket_kind: str
    seed_names: tuple[str, ...]
    ctx: PhaseContext = field(repr=False)

    def structure_constant(self, i: int, j: int, k: int) -> Fraction:
        if i == j:
            return Fraction(0)
        if i < j:
            return self.structure.get((i, j, k), Fraction(0))
        return -self.structure.get((j, i, k), Fraction(0))

    def identity_index(self) -> int | None:
        for i, elem in enumerate(self.basis):
            if elem.is_identity:
                return i
        return None

    def verify(self) -> bool:
        """Recompute every bracket, one walk per j, and check that each lies
        in the span and that their nonzero coordinates, keyed ``(i, j, k)``,
        are exactly ``structure``: an entry no bracket makes fails."""
        polys = [elem.poly for elem in self.basis]
        span = _span(self.basis)
        table: dict[tuple[int, int, int], Fraction] = {}
        for j in range(1, len(polys)):
            for i, br in enumerate(_blocks(polys[:j], polys[j], self.bracket_kind == "moyal")):
                coords, rem = span.reduce(br)
                if rem:
                    return False
                table.update(((i, j, k), c) for k, c in coords.items())
        return table == self.structure

    def check_jacobi_tensor(self) -> bool:
        """Jacobi identity as a contraction over the nonzero structure constants.

        For every i < j < k and every l,
        sum_m c[i][j][m] c[m][k][l] + c[j][k][m] c[m][i][l] + c[k][i][m] c[m][j][l] = 0.
        The sum over l is one sparse row, each row ``c[m][z]`` scaled by
        ``c[x][y][m]`` and added by ``linsolve.sub_scaled``, which drops zeros.
        """
        table: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (i, j, k), c in self.structure.items():
            if c:
                table.setdefault((i, j), {})[k] = c
                table.setdefault((j, i), {})[k] = -c
        n = len(self.basis)
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    total: dict[int, Fraction] = {}
                    for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
                        for m, c in table.get((x, y), {}).items():
                            sub_scaled(total, table.get((m, z), {}), -c)
                    if total:
                        return False
        return True


def close_algebra(
    seeds: Sequence[AlgebraElement],
    bracket_kind: str = "poisson",
    max_basis: int = 32,
    max_degree: int = 16,
) -> LieClosure:
    """Close the bracket algebra generated by ``seeds``.

    Seeds that are linearly independent initialize the basis; every pair
    (i, j), i < j, is bracketed once, in order of j, then i (one kernel walk
    per j), and nonzero remainders join the basis until no pair produces
    anything new.  Raises ``NonClosingError`` when the basis would exceed
    ``max_basis`` or a bracket result exceeds total degree ``max_degree``.
    """
    if not seeds:
        raise EmptySeedError("close_algebra requires at least one seed")
    ctx = seeds[0].poly.ctx
    if bracket_kind not in ("poisson", "moyal"):
        raise ValueError(f"unknown bracket kind {bracket_kind!r}")
    moyal = bracket_kind == "moyal"
    names_seen: set[str] = set()
    for seed in seeds:
        seed.poly.ctx.require_same(ctx)
        if seed.poly.is_zero():
            raise EmptySeedError(f"seed {seed.name!r} is the zero polynomial")
        if seed.name in names_seen:
            raise ValueError(f"duplicate seed name {seed.name!r}")
        if seed.name == "1" and not seed.poly.is_constant():
            raise ValueError("seed name '1' is reserved for the identity")
        names_seen.add(seed.name)

    basis: list[AlgebraElement] = []
    ech = Echelon(_leading)
    structure: dict[tuple[int, int, int], Fraction] = {}
    gen_counter = 0

    def fresh_name() -> str:
        nonlocal gen_counter
        while True:
            gen_counter += 1
            name = f"g{gen_counter}"
            if name not in names_seen:
                names_seen.add(name)
                return name

    def admit(rem: dict[Expvec, Fraction], seed: AlgebraElement | None = None) -> Fraction:
        """Append ``seed``, else ``rem`` scaled to lead 1 (the identity if ``rem``
        is constant); return the lead.  The echelon gets the element's own
        polynomial, so its row's coordinates are over the basis as stored."""
        head = _leading(rem)
        lead = rem[head]
        identity = not any(head)
        if seed and not identity:
            elem = AlgebraElement(seed.name, seed.poly)
        else:
            name = seed.name if seed else "1" if identity else fresh_name()
            scaled = PhasePoly._build(ctx, {e: c / lead for e, c in rem.items()})
            elem = AlgebraElement(name, scaled, is_identity=identity)
        ech.add(elem.poly._terms, len(basis))
        basis.append(elem)
        return lead

    for seed in seeds:
        _, rem = ech.reduce(seed.poly._terms)
        if rem:
            admit(rem, seed)

    j = 1
    while j < len(basis):
        blocks = _blocks([elem.poly for elem in basis[:j]], basis[j].poly, moyal)
        for i, br in enumerate(blocks):
            if (degree := max(map(sum, br), default=-1)) > max_degree:
                reason = f"bracket degree {degree} exceeds max_degree {max_degree}"
                raise NonClosingError(reason, (basis[i].name, basis[j].name), len(basis))
            coords, rem = ech.reduce(br)
            if rem:
                if len(basis) >= max_basis:
                    reason = f"basis size exceeds max_basis {max_basis}"
                    raise NonClosingError(reason, (basis[i].name, basis[j].name), len(basis))
                idx = len(basis)   # admit appends: take the index first
                coords[idx] = admit(rem)
            structure.update(((i, j, k), c) for k, c in coords.items())
        j += 1

    return LieClosure(
        basis=tuple(basis),
        structure=structure,
        bracket_kind=bracket_kind,
        seed_names=tuple(s.name for s in seeds),
        ctx=ctx,
    )


def structure_constants(closure: LieClosure) -> list[tuple[int, int, int, Fraction]]:
    """All nonzero c[i][j][k] with i < j, sorted for stable output."""
    return sorted(
        (i, j, k, c) for (i, j, k), c in closure.structure.items() if c != 0
    )


SIGN_CONVENTION_NOTE = (
    "bracket convention: {A, B} = sum_i dA/dq_i*dB/dp_i - dA/dp_i*dB/dq_i, "
    "so {q1, p1} = +1; tables computed with the opposite argument ordering "
    "differ by an overall sign in every structure constant"
)


def convention_notes(closure: LieClosure) -> list[str]:
    """Human-readable warnings about convention-sensitive output.

    Always states the bracket sign convention.  Additionally flags every
    bracket of non-identity elements that closes on the identity: such
    constant components are genuine central terms here, while presentations
    that absorb constant shifts into redefined generators print none.
    """
    notes = [SIGN_CONVENTION_NOTE]
    ident = closure.identity_index()
    if ident is not None:
        for (i, j, k), c in sorted(closure.structure.items()):
            if k == ident and ident not in (i, j) and c != 0:
                a = closure.basis[i].name
                b = closure.basis[j].name
                notes.append(
                    f"{{{a}, {b}}} closes on the identity with coefficient {c}: "
                    "this central term is part of the algebra; presentations "
                    "that shift generators by constants absorb it"
                )
    return notes
