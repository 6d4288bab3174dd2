"""Search for invariants of a closed constraint algebra.

Two ansatz families are supported:

* ``find_casimir``: quadratic expressions in the algebra generators
  (identity excluded, it only enters through the constant), the classical
  analogue of a quadratic Casimir element;
* ``find_center``: arbitrary phase-space polynomials of bounded total
  degree.

Both pose exact commutation with the seeds alone (the non-identity basis
elements named in ``seed_names``), which generate the closed algebra: by
the Jacobi identity, whatever commutes with every seed commutes with every
bracket of seeds, hence with the whole basis, under the Poisson and the
Moyal bracket alike.  One solver assembles the homogeneous linear system
over the rationals and returns one solution per free column of its
echelon form (``linsolve.nullspace``, which can return a vector that
breaks a row while its elimination's defect stands); ``find_center``
checks its ansatz size against the cap before enumerating any monomial
and builds its monomials as canonical terms, without validation.

Both searches take their rows from the bracket kernel itself: the ansatz
is one packed basis (``brackets._PackedBasis``), packed once per field
width its walks need, and one walk per seed (``_PackedBasis.walk``)
brackets every ansatz term with it, under either bracket and at any hbar,
so no bracket is taken per term.  The system is integer from the kernel
to the nullspace: the walk's integer blocks, one per ansatz term, each
scaled to one denominator per seed, are the rows, and ``nullspace``
eliminates in integers, so ``Fraction``s are built only in the solutions.
The one contract left is row order (seed, ansatz term,
graded-lex-descending monomial): ``_rows`` sorts each block's unordered
monomials, because ``nullspace``'s output depends on the order while its
elimination's defect stands.  Each solution is scaled and summed over its
nonzero entries only.

``verify_invariant`` stays an independent check against the full basis,
with its brackets as polynomials from one walk (``brackets._brackets_of``).
An empty nontrivial solution set is a meaningful result: for an
irreducible algebra the centre is spanned by the identity alone, so the
only invariant Hamiltonian is a constant shift.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, lcm
from typing import Sequence

from .brackets import _PackedBasis, _brackets_of
from .closure import LieClosure
from .errors import AnsatzTooLargeError
from .linsolve import nullspace, sub_scaled
from .poly import Expvec, PhasePoly, _grlex_key

# The most monomials a ``find_center`` ansatz may have.
MAX_ANSATZ_MONOMIALS = 5000


@dataclass(frozen=True)
class CasimirSolution:
    """One solution of the quadratic-in-generators commutation system.

    ``quadratic`` maps generator index pairs (i <= j) to coefficients,
    ``linear`` maps generator indices, ``constant`` is the inhomogeneous
    term; indices refer to ``generator_names``.  ``realization`` is the
    expanded phase-space polynomial.
    """

    quadratic: dict[tuple[int, int], Fraction]
    linear: dict[int, Fraction]
    constant: Fraction
    realization: PhasePoly
    trivial: bool
    generator_names: tuple[str, ...]


@dataclass(frozen=True)
class CenterSolution:
    """Basis of bounded-degree polynomials commuting with the whole algebra."""

    solutions: tuple[PhasePoly, ...]
    degree: int

    def nonconstant(self) -> tuple[PhasePoly, ...]:
        return tuple(p for p in self.solutions if not p.is_constant())


@dataclass(frozen=True)
class InvariantReport:
    residuals: tuple[tuple[str, PhasePoly], ...]
    passed: bool


def _rows(terms: Sequence[PhasePoly], closure: LieClosure) -> tuple[dict, dict[int, int]]:
    """The rows of ``bracket(sum_u x_u T_u, s) == 0`` for every seed ``s``, in
    integers, and each seed's denominator.

    Rows are keyed ``(basis index k of s, monomial)``, in order of first
    appearance: seed, then ansatz term, then graded-lex-descending monomial
    of ``bracket(T_u, s)``; each row maps ansatz index ``u`` to an integer,
    its coefficient times the seed's denominator ``dens[k]``.  The terms are
    one packed basis (``brackets._PackedBasis``), re-packed only when a
    seed's walk needs wider fields, and one walk per seed brackets every
    term with it, under either bracket and at any hbar, as one integer
    block per term over the term's own denominator; each block is scaled by
    ``dens[k]`` over it, with ``dens[k]`` the lcm of the walk's
    denominators.  A block's monomials are unordered and are sorted here
    only because ``nullspace`` depends on this order.
    """
    names = set(closure.seed_names)
    walks = _PackedBasis(closure.ctx, closure.bracket_kind == "moyal", terms)
    rows: dict[tuple[int, Expvec], dict[int, int]] = {}
    dens: dict[int, int] = {}
    for k, elem in enumerate(closure.basis):
        if elem.is_identity or elem.name not in names:
            continue
        blocks, term_dens = walks.walk(elem.poly)
        den = dens[k] = lcm(*term_dens)
        for u, block in enumerate(blocks):
            if block:
                scale = den // term_dens[u]
                # graded lex descending; most blocks hold one monomial
                for mono in sorted(block, key=_grlex_key, reverse=True) if len(block) > 1 else block:
                    rows.setdefault((k, mono), {})[u] = block[mono] * scale
    return rows, dens


def _solve(terms: Sequence[PhasePoly], closure: LieClosure):
    """Solutions of ``bracket(sum_u x_u T_u, s) == 0`` for every seed ``s``.

    One integer row per (seed, output monomial), built by ``_rows`` from the
    bracket kernel in the one order ``nullspace``'s output depends on while
    its elimination's defect stands; one column per ansatz term.  A row's
    scale changes no solution, so the rows go to ``nullspace`` as they are,
    and ``Fraction``s are built only in the solutions.  Returns, per
    nullspace vector, the vector scaled so its first nonzero entry is 1, and
    its polynomial ``sum_u x_u T_u``.  Only the nonzero entries are scaled
    and summed: a vector is mostly zeros.
    """
    solutions = []
    rows, _ = _rows(terms, closure)
    for vec in nullspace(list(rows.values()), len(terms)):
        support = [u for u, v in enumerate(vec) if v]
        lead = vec[support[0]]
        acc: dict[Expvec, Fraction] = {}
        for u in support:
            vec[u] /= lead
            sub_scaled(acc, terms[u]._terms, -vec[u])
        solutions.append((vec, PhasePoly._build(closure.ctx, acc)))
    return solutions


def find_casimir(closure: LieClosure) -> list[CasimirSolution]:
    """All quadratic-in-generators solutions, pure constant flagged trivial.

    The ansatz is ``sum a_ij g_i g_j + sum b_i g_i + c0`` over the
    non-identity basis elements; products are the plain symbol products, so
    the same ansatz serves both bracket kinds.  Solutions are normalized so
    the first nonzero coefficient (quadratic terms in pair order, then
    linear, then constant) equals 1.
    """
    gens = [e for e in closure.basis if not e.is_identity]
    n = len(gens)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    terms: list[PhasePoly] = [gens[i].poly * gens[j].poly for i, j in pairs]
    terms += [g.poly for g in gens]
    terms.append(PhasePoly.constant(closure.ctx, 1))

    solutions = [
        CasimirSolution(
            quadratic={pairs[u]: v for u, v in enumerate(vec[: len(pairs)]) if v},
            linear={i: v for i, v in enumerate(vec[len(pairs) : -1]) if v},
            constant=vec[-1],
            realization=realization,
            trivial=realization.is_constant(),
            generator_names=tuple(e.name for e in gens),
        )
        for vec, realization in _solve(terms, closure)
    ]
    solutions.sort(key=lambda s: s.trivial)  # nontrivial first, order stable
    return solutions


def monomials_up_to_degree(ctx, degree: int) -> list[Expvec]:
    """All exponent vectors of total degree <= degree, graded-lex ascending.

    A multiset of ``degree`` picks from the variables plus one slack slot is
    one monomial of degree <= ``degree``: ``comb(nvars + degree, degree)``.
    """
    nvars = ctx.nvars
    out: list[Expvec] = []
    for picks in combinations_with_replacement(range(nvars + 1), degree):
        exps = [0] * (nvars + 1)
        for v in picks:
            exps[v] += 1
        out.append(tuple(exps[:nvars]))
    out.sort(key=_grlex_key)
    return out


def find_center(closure: LieClosure, max_total_degree: int = 2) -> CenterSolution:
    """Exact basis of bounded-degree polynomials commuting with the algebra.

    The constant polynomial always appears; anything beyond it is a
    candidate invariant Hamiltonian.  The ansatz size is checked against
    ``MAX_ANSATZ_MONOMIALS`` before any monomial is built.
    """
    if max_total_degree < 0:
        raise ValueError("max_total_degree must be >= 0")
    count = comb(closure.ctx.nvars + max_total_degree, max_total_degree)
    if count > MAX_ANSATZ_MONOMIALS:
        raise AnsatzTooLargeError(f"ansatz needs {count} monomials, cap is {MAX_ANSATZ_MONOMIALS}")
    one = Fraction(1)
    # enumerated exponent tuples are canonical terms already
    terms = [PhasePoly._build(closure.ctx, {m: one})
             for m in monomials_up_to_degree(closure.ctx, max_total_degree)]
    sols = tuple(poly for _, poly in _solve(terms, closure))
    return CenterSolution(solutions=sols, degree=max_total_degree)


def verify_invariant(p: PhasePoly, closure: LieClosure) -> InvariantReport:
    """Bracket ``p`` against every basis element, in one walk; pass iff all
    vanish."""
    p.ctx.require_same(closure.ctx)
    brs = _brackets_of(p, [elem.poly for elem in closure.basis], closure.bracket_kind == "moyal")
    residuals = tuple((elem.name, br) for elem, br in zip(closure.basis, brs))
    return InvariantReport(
        residuals=residuals, passed=all(r.is_zero() for _, r in residuals)
    )
