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
Pairs (i, j), i < j, go in order of j, then i, so runs are reproducible.
One pair loop, ``_close``, admits the seeds and brackets ``basis[:j]`` with
``basis[j]`` in one walk of the kernel over a packed basis
(``brackets._PackedBasis``), which packs each element once per run and
again only when a walk needs wider fields.  ``close_algebra`` runs it on
its validated seeds; ``LieClosure.verify`` runs it on the closure's own
basis, and a closure verifies when it is a fixed point of that loop.  The
loop, and ``span_reduce``, reduce term maps through ``linsolve.Echelon``,
pivoting on the graded-lex leading monomial.  Every row goes to it in
integers: a bracket as the kernel's numerators over one denominator, a
seed or a basis element as its polynomial's, so a ``Fraction`` is built
only in the echelon's stored rows and for a structure constant.  The loop
hands each bracket to ``Echelon.admit``, which reduces it once and, when
it leaves the span, stores its remainder scaled to lead 1 as the new
element itself; a seed is stored through ``Echelon.add``, with its
coordinates, since it joins as given.  The loop keeps every bracket: the
structure constants are its coordinates, which are unique because the
basis is linearly independent, so they are read after the loop, against
the final echelon, in one batch (``Echelon.coordinates``).  A run that
stops with ``NonClosingError`` reads no coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .brackets import _PackedBasis
from .context import PhaseContext
from .errors import EmptySeedError, NonClosingError
from .linsolve import Echelon, sub_scaled
from .poly import Expvec, PhasePoly, _grlex_key


@dataclass(frozen=True)
class AlgebraElement:
    name: str
    poly: PhasePoly
    is_identity: bool = False


def _leading(terms: Mapping[Expvec, object]) -> Expvec:
    """Pivot of a closure row: its graded-lex leading monomial."""
    return max(terms, key=_grlex_key)


def _structure(ech: Echelon, rows: dict[tuple[int, int], tuple[dict[Expvec, int], int]]
               ) -> dict[tuple[int, int, int], Fraction]:
    """The nonzero structure constants ``(i, j, k)`` of each pair ``(i, j)``
    of ``rows``, whose bracket is a row in the span of ``ech`` given as
    integer numerators over one denominator, from one batch of coordinates
    (``Echelon.coordinates``)."""
    return {(i, j, k): c for (i, j), coords in zip(rows, ech.coordinates(rows.values()))
            for k, c in coords.items()}


def span_reduce(
    p: PhasePoly, basis: Sequence[AlgebraElement]
) -> tuple[list[Fraction], PhasePoly]:
    """Split ``p`` into a span component plus an irreducible remainder.

    Returns exact coordinates over ``basis`` (in order) and the remainder:
    ``p = sum_i coords[i] * basis[i].poly + remainder``, with the remainder
    zero exactly when ``p`` lies in the span.
    """
    span = Echelon(_leading)
    for j, elem in enumerate(basis):
        p.ctx.require_same(elem.poly.ctx)
        span.add(elem.poly._nums, j, elem.poly._den)
    (coords,) = span.coordinates([(p._nums, p._den)])
    rem = span.remainder(p._nums, p._den)
    return [coords.get(i, Fraction(0)) for i in range(len(basis))], PhasePoly(p.ctx, rem)


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
        """True when the closure is a fixed point of its own loop: closing
        ``basis`` as seeds (``_close``), with ``max_basis`` its size and
        ``max_degree`` its largest total degree, adds nothing and gives back
        the same basis and ``structure``.  A bracket off the span, an entry no
        bracket makes, and an element in the span of those before it all
        fail, and so does a ``NonClosingError``."""
        degree = max([e.poly.total_degree() for e in self.basis], default=0)
        try:
            basis, structure = _close(self.ctx, self.bracket_kind == "moyal", self.basis,
                                      len(self.basis), degree)
        except NonClosingError:
            return False
        return tuple(basis) == self.basis and structure == self.structure

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
    anything new.  Raises ``NonClosingError`` when a seed or a remainder
    would take the basis past ``max_basis`` or a bracket result exceeds
    total degree ``max_degree``.
    """
    if not seeds:
        raise EmptySeedError("close_algebra requires at least one seed")
    ctx = seeds[0].poly.ctx
    if bracket_kind not in ("poisson", "moyal"):
        raise ValueError(f"unknown bracket kind {bracket_kind!r}")
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
    basis, structure = _close(ctx, bracket_kind == "moyal", seeds, max_basis, max_degree)
    return LieClosure(
        basis=tuple(basis),
        structure=structure,
        bracket_kind=bracket_kind,
        seed_names=tuple(s.name for s in seeds),
        ctx=ctx,
    )


def _close(ctx: PhaseContext, moyal: bool, seeds: Sequence[AlgebraElement], max_basis: int,
           max_degree: int) -> tuple[list[AlgebraElement], dict[tuple[int, int, int], Fraction]]:
    """The one pair loop, for ``close_algebra`` and ``LieClosure.verify``:
    admit each seed that is not in the span of those before it, then bracket
    every pair until none adds an element.  Returns the basis and its
    structure constants."""
    names_seen = {seed.name for seed in seeds}
    basis: list[AlgebraElement] = []
    walks = _PackedBasis(ctx, moyal)
    ech = Echelon(_leading)
    gen_counter = 0

    def fresh_name() -> str:
        nonlocal gen_counter
        while True:
            gen_counter += 1
            name = f"g{gen_counter}"
            if name not in names_seen:
                names_seen.add(name)
                return name

    def append(elem: AlgebraElement, pair: tuple[str, str] | None = None) -> None:
        """Append ``elem``, or raise ``NonClosingError`` if the basis is full."""
        if len(basis) >= max_basis:
            reason = "basis size exceeds" if pair else f"seed {elem.name!r} exceeds"
            raise NonClosingError(f"{reason} max_basis {max_basis}", pair, len(basis))
        walks.append(elem.poly)
        basis.append(elem)

    for seed in seeds:
        nums, den = seed.poly._nums, seed.poly._den
        # the rows are reduced, so a leading monomial that is no pivot leads the
        # remainder too, all that is read of it (a constant is its own)
        head = _leading(nums) if nums else None
        if head in ech.rows:
            rem = ech.remainder(nums, den)
            head = _leading(rem) if rem else None
        if head is None:
            continue
        # a constant seed joins as the identity, 1; the echelon gets the
        # element's own polynomial, so its row's coordinates are over the basis
        elem = (AlgebraElement(seed.name, seed.poly) if any(head)
                else AlgebraElement(seed.name, PhasePoly.constant(ctx, 1), is_identity=True))
        append(elem)
        ech.add(elem.poly._nums, len(basis) - 1, elem.poly._den)

    rows: dict[tuple[int, int], tuple[dict[Expvec, int], int]] = {}   # the nonzero brackets
    j = 1
    while j < len(basis):
        blocks, dens = walks.blocks(j)
        for i, (br, den) in enumerate(zip(blocks, dens)):
            if not br:
                continue
            pair = (basis[i].name, basis[j].name)
            if (degree := max(map(sum, br))) > max_degree:
                reason = f"bracket degree {degree} exceeds max_degree {max_degree}"
                raise NonClosingError(reason, pair, len(basis))
            # a generated element is its remainder scaled to lead 1, which the
            # echelon stores as that element from its one reduction
            if rem := ech.admit(br, len(basis), den):
                identity = not any(_leading(rem))
                name = "1" if identity else fresh_name()
                append(AlgebraElement(name, PhasePoly(ctx, rem), identity), pair)
            rows[i, j] = br, den
        j += 1
    return basis, _structure(ech, rows)


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
