"""Bracket-closure of a constraint algebra.

Starting from a naive Hamiltonian and its constraints, every Poisson (or
Moyal) bracket of basis elements is reduced against the current linear span;
whatever cannot be reduced joins the basis as a new element.  For a system
whose constraints are compatible this terminates in a finite basis together
with exact structure constants

    bracket(b_i, b_j) = sum_k c[i][j][k] * b_k

Constant remainders are folded into a single flagged identity element stored
as the polynomial 1.  New non-constant elements are normalized so their
graded-lex leading coefficient is 1 and named g1, g2, ... in creation order;
the worklist is FIFO over pair-creation order, so runs are reproducible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .brackets import moyal_bracket, poisson_bracket
from .context import PhaseContext
from .errors import EmptySeedError, NonClosingError
from .poly import Expvec, PhasePoly


@dataclass(frozen=True)
class AlgebraElement:
    name: str
    poly: PhasePoly
    is_identity: bool = False


class _Echelon:
    """Row-echelon span of the basis polynomials, with coordinate tracking.

    Each stored row is a polynomial whose leading monomial appears as a
    leading monomial of no other row, together with its expression in terms
    of the basis elements.  Reducing a polynomial strips every component in
    the span and accumulates exact basis coordinates.
    """

    def __init__(self):
        self.rows: dict[Expvec, tuple[PhasePoly, dict[int, Fraction]]] = {}

    def reduce(self, p: PhasePoly) -> tuple[dict[int, Fraction], PhasePoly]:
        coords: dict[int, Fraction] = {}
        rem = p
        while not rem.is_zero():
            hit = None
            for mono in rem.monomials():
                if mono in self.rows:
                    hit = mono
                    break
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

    def add(self, reduced: PhasePoly, coords: dict[int, Fraction]) -> None:
        head, _ = reduced.leading_term()
        if head in self.rows:
            raise AssertionError("row not fully reduced")
        self.rows[head] = (reduced, coords)


def _span(basis: Sequence[AlgebraElement]) -> _Echelon:
    """Echelon of the basis polynomials, coordinates kept over ``basis``."""
    ech = _Echelon()
    for j, elem in enumerate(basis):
        coords, rem = ech.reduce(elem.poly)
        if rem.is_zero():
            continue  # linearly dependent basis entry, spans nothing new
        combo = {i: -c for i, c in coords.items()}
        combo[j] = combo.get(j, Fraction(0)) + 1
        ech.add(rem, combo)
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
    coords, rem = _span(basis).reduce(p)
    return [coords.get(i, Fraction(0)) for i in range(len(basis))], rem


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

    def element_named(self, name: str) -> AlgebraElement:
        for elem in self.basis:
            if elem.name == name:
                return elem
        raise KeyError(name)

    def index_of(self, name: str) -> int:
        for i, elem in enumerate(self.basis):
            if elem.name == name:
                return i
        raise KeyError(name)

    def bracket(self, a: PhasePoly, b: PhasePoly) -> PhasePoly:
        return _bracket_fn(self.bracket_kind)(a, b)

    def verify(self) -> bool:
        """Recompute every pairwise bracket and check it reduces exactly."""
        n = len(self.basis)
        span = _span(self.basis)
        for i in range(n):
            for j in range(i + 1, n):
                br = self.bracket(self.basis[i].poly, self.basis[j].poly)
                coords, rem = span.reduce(br)
                if not rem.is_zero():
                    return False
                for k in range(n):
                    if coords.get(k, Fraction(0)) != self.structure_constant(i, j, k):
                        return False
        return True

    def check_jacobi_tensor(self) -> bool:
        """Jacobi identity as a contraction over the nonzero structure constants.

        For every i < j < k and every l,
        sum_m c[i][j][m] c[m][k][l] + c[j][k][m] c[m][i][l] + c[k][i][m] c[m][j][l] = 0.
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
                        for m, c1 in table.get((x, y), {}).items():
                            for l, c2 in table.get((m, z), {}).items():
                                total[l] = total.get(l, Fraction(0)) + c1 * c2
                    if any(total.values()):
                        return False
        return True


def _bracket_fn(kind: str) -> Callable[[PhasePoly, PhasePoly], PhasePoly]:
    if kind == "poisson":
        return poisson_bracket
    if kind == "moyal":
        return moyal_bracket
    raise ValueError(f"unknown bracket kind {kind!r}")


def close_algebra(
    seeds: Sequence[AlgebraElement],
    bracket_kind: str = "poisson",
    max_basis: int = 32,
    max_degree: int = 16,
) -> LieClosure:
    """Close the bracket algebra generated by ``seeds``.

    Worklist algorithm: seeds that are linearly independent initialize the
    basis; every unordered pair is bracketed once, in creation order, and
    nonzero remainders join the basis until no pair produces anything new.
    Raises ``NonClosingError`` when the basis would exceed ``max_basis`` or a
    bracket result exceeds total degree ``max_degree``.
    """
    if not seeds:
        raise EmptySeedError("close_algebra requires at least one seed")
    ctx = seeds[0].poly.ctx
    bracket = _bracket_fn(bracket_kind)
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
    ech = _Echelon()
    structure: dict[tuple[int, int, int], Fraction] = {}
    queue: deque[tuple[int, int]] = deque()
    identity_present = False

    def add_element(elem: AlgebraElement, reduced: PhasePoly, combo_self: dict[int, Fraction]) -> int:
        idx = len(basis)
        basis.append(elem)
        ech.add(reduced, combo_self)
        for i in range(idx):
            queue.append((i, idx))
        return idx

    for seed in seeds:
        coords, rem = ech.reduce(seed.poly)
        if rem.is_zero():
            continue
        if rem.is_constant():
            if identity_present:
                continue
            identity_present = True
            one = PhasePoly.constant(ctx, 1)
            elem = AlgebraElement(seed.name, one, is_identity=True)
            add_element(elem, one, {len(basis): Fraction(1)})
            continue
        combo = {i: -c for i, c in coords.items()}
        combo[len(basis)] = combo.get(len(basis), Fraction(0)) + 1
        add_element(AlgebraElement(seed.name, seed.poly), rem, combo)

    gen_counter = 0

    def fresh_name() -> str:
        nonlocal gen_counter
        while True:
            gen_counter += 1
            name = f"g{gen_counter}"
            if name not in names_seen:
                names_seen.add(name)
                return name

    while queue:
        i, j = queue.popleft()
        br = bracket(basis[i].poly, basis[j].poly)
        if br.total_degree() > max_degree:
            raise NonClosingError(
                f"bracket degree {br.total_degree()} exceeds max_degree {max_degree}",
                (basis[i].name, basis[j].name),
                len(basis),
            )
        coords, rem = ech.reduce(br)
        if not rem.is_zero():
            if len(basis) >= max_basis:
                raise NonClosingError(
                    f"basis size exceeds max_basis {max_basis}",
                    (basis[i].name, basis[j].name),
                    len(basis),
                )
            if rem.is_constant():
                identity_present = True
                one = PhasePoly.constant(ctx, 1)
                elem = AlgebraElement("1", one, is_identity=True)
                scale = rem.constant_value()
                idx = add_element(elem, one, {len(basis): Fraction(1)})
            else:
                _, lead = rem.leading_term()
                elem = AlgebraElement(fresh_name(), rem / lead)
                scale = lead
                idx = add_element(elem, rem / lead, {len(basis): Fraction(1)})
            coords = dict(coords)
            coords[idx] = scale
        for k, c in coords.items():
            if c != 0:
                structure[(i, j, k)] = c

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
