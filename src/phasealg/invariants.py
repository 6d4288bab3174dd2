"""Search for invariants of a closed constraint algebra.

Two ansatz families are supported:

* ``find_casimir``: quadratic expressions in the algebra generators
  (identity excluded, it only enters through the constant), the classical
  analogue of a quadratic Casimir element;
* ``find_center``: arbitrary phase-space polynomials of bounded total
  degree.

Both impose exact commutation with every basis element, assemble the
resulting homogeneous linear system over the rationals and return a
canonical basis of its solution space.  An empty nontrivial solution set is
a meaningful result: for an irreducible algebra the centre is spanned by the
identity alone, so the only invariant Hamiltonian is a constant shift.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .closure import LieClosure
from .errors import AnsatzTooLargeError
from .linsolve import nullspace, sub_scaled
from .poly import Expvec, PhasePoly, _grlex_key


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


def _commutation_rows(terms: Sequence[PhasePoly], closure: LieClosure):
    """Rows of the linear system ``sum_u x_u * bracket(T_u, b_k) == 0``.

    One row per (basis element, output monomial); columns index the ansatz
    terms.  Brackets with the identity vanish and are skipped.
    """
    rows: dict[tuple[int, Expvec], dict[int, Fraction]] = {}
    order: list[tuple[int, Expvec]] = []
    for k, elem in enumerate(closure.basis):
        if elem.is_identity:
            continue
        for u, term in enumerate(terms):
            br = closure.bracket(term, elem.poly)
            for mono, coeff in br.term_items():
                key = (k, mono)
                row = rows.get(key)
                if row is None:
                    row = rows[key] = {}
                    order.append(key)
                row[u] = row.get(u, Fraction(0)) + coeff
    return [rows[key] for key in order]


def _normalize_first_nonzero(vec: list[Fraction]) -> list[Fraction]:
    lead = next((v for v in vec if v != 0), None)
    if lead is None or lead == 1:
        return vec
    inv = Fraction(1) / lead
    return [v * inv for v in vec]


def find_casimir(closure: LieClosure) -> list[CasimirSolution]:
    """All quadratic-in-generators solutions, pure constant flagged trivial.

    The ansatz is ``sum a_ij g_i g_j + sum b_i g_i + c0`` over the
    non-identity basis elements; products are the plain symbol products, so
    the same ansatz serves both bracket kinds.  Solutions are normalized so
    the first nonzero coefficient (quadratic terms in pair order, then
    linear, then constant) equals 1.
    """
    gens = [e for e in closure.basis if not e.is_identity]
    names = tuple(e.name for e in gens)
    n = len(gens)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    terms: list[PhasePoly] = [gens[i].poly * gens[j].poly for i, j in pairs]
    terms += [g.poly for g in gens]
    terms.append(PhasePoly.constant(closure.ctx, 1))

    rows = _commutation_rows(terms, closure)
    solutions = []
    for vec in nullspace(rows, len(terms)):
        vec = _normalize_first_nonzero(vec)
        quadratic = {pairs[u]: v for u, v in enumerate(vec[: len(pairs)]) if v != 0}
        linear = {
            i: v for i, v in enumerate(vec[len(pairs) : len(pairs) + n]) if v != 0
        }
        constant = vec[-1]
        acc: dict[Expvec, Fraction] = {}
        for u, v in enumerate(vec):
            if v != 0:
                sub_scaled(acc, terms[u]._terms, -v)
        realization = PhasePoly._build(closure.ctx, acc)
        solutions.append(
            CasimirSolution(
                quadratic=quadratic,
                linear=linear,
                constant=constant,
                realization=realization,
                trivial=realization.is_constant(),
                generator_names=names,
            )
        )
    solutions.sort(key=lambda s: s.trivial)  # nontrivial first, order stable
    return solutions


def monomials_up_to_degree(ctx, degree: int) -> list[Expvec]:
    """All exponent vectors of total degree <= degree, graded-lex ascending."""
    nvars = ctx.nvars
    out: list[Expvec] = []
    for d in range(degree + 1):
        level = []

        def fill(prefix: tuple[int, ...], left: int):
            if len(prefix) == nvars - 1:
                level.append(prefix + (left,))
                return
            for e in range(left + 1):
                fill(prefix + (e,), left - e)

        fill((), d)
        level.sort(key=_grlex_key)
        out.extend(level)
    return out


def find_center(
    closure: LieClosure, max_total_degree: int = 2, max_monomials: int = 5000
) -> CenterSolution:
    """Exact basis of bounded-degree polynomials commuting with the algebra.

    The constant polynomial always appears; anything beyond it is a
    candidate invariant Hamiltonian.
    """
    if max_total_degree < 0:
        raise ValueError("max_total_degree must be >= 0")
    monos = monomials_up_to_degree(closure.ctx, max_total_degree)
    if len(monos) > max_monomials:
        raise AnsatzTooLargeError(
            f"ansatz needs {len(monos)} monomials, cap is {max_monomials}"
        )
    terms = [PhasePoly.monomial(closure.ctx, m) for m in monos]
    rows = _commutation_rows(terms, closure)
    sols = []
    for vec in nullspace(rows, len(terms)):
        vec = _normalize_first_nonzero(vec)
        # the ansatz terms are distinct monomials: the vector is the term map
        sols.append(PhasePoly._build(closure.ctx, {m: v for m, v in zip(monos, vec) if v}))
    return CenterSolution(solutions=tuple(sols), degree=max_total_degree)


def verify_invariant(p: PhasePoly, closure: LieClosure) -> InvariantReport:
    """Bracket ``p`` against every basis element; pass iff all vanish."""
    p.ctx.require_same(closure.ctx)
    residuals = tuple(
        (elem.name, closure.bracket(p, elem.poly)) for elem in closure.basis
    )
    return InvariantReport(
        residuals=residuals, passed=all(r.is_zero() for _, r in residuals)
    )
