"""Exact phase-space algebra: closures, invariants, separation, spectra.

The symbolic layer works with multivariate polynomials over exact rationals
on a phase space of canonical pairs (q_i, p_i).  On top of it sit Poisson
and Moyal brackets, Lie closure of constraint algebras with structure
constants, Casimir and centre searches, and canonical centre-of-mass
transformations.  A small float64 layer computes box and finite-difference
spectra to compare confined and internal level structures.

Only the finite-difference solver in ``phasealg.spectra`` needs numpy and
scipy, and it imports them when it first runs, so ``import phasealg``, the
exact layers and the box and composite spectra start without them.
"""

from .brackets import moyal_bracket, poisson_bracket
from .closure import (
    SIGN_CONVENTION_NOTE,
    AlgebraElement,
    LieClosure,
    close_algebra,
    convention_notes,
    span_reduce,
    structure_constants,
)
from .context import PhaseContext
from .errors import (
    AnsatzTooLargeError,
    ContextMismatchError,
    DegreeBudgetError,
    DivisionError,
    EmptySeedError,
    NonClosingError,
    ParseError,
    PhaseAlgError,
    SeparationFailure,
    UnboundIdentifierError,
)
from .invariants import (
    CasimirSolution,
    CenterSolution,
    InvariantReport,
    find_casimir,
    find_center,
    monomials_up_to_degree,
    verify_invariant,
)
from .parser import parse_expression
from .poly import PhasePoly, format_poly, partial_derivative
from .rational import rat
from .separation import (
    CanonicalMap,
    CanonicalReport,
    SeparationReport,
    jacobi_transform,
    separate_hamiltonian,
    two_body_transform,
    verify_canonical,
)
from .spectra import (
    BoxLevel,
    Level,
    PotentialSpec,
    SpectrumReport,
    box_energy,
    box_potential,
    box_spectrum,
    composite_spectrum,
    coulomb_potential,
    fd_eigen_1d,
    harmonic_potential,
    internal_spectrum,
    read_tabulated,
    tabulated_potential,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement",
    "AnsatzTooLargeError",
    "BoxLevel",
    "CanonicalMap",
    "CanonicalReport",
    "CasimirSolution",
    "CenterSolution",
    "ContextMismatchError",
    "DegreeBudgetError",
    "DivisionError",
    "EmptySeedError",
    "InvariantReport",
    "Level",
    "LieClosure",
    "NonClosingError",
    "ParseError",
    "PhaseAlgError",
    "PhaseContext",
    "PhasePoly",
    "PotentialSpec",
    "SIGN_CONVENTION_NOTE",
    "SeparationFailure",
    "SeparationReport",
    "SpectrumReport",
    "UnboundIdentifierError",
    "box_energy",
    "box_potential",
    "box_spectrum",
    "close_algebra",
    "composite_spectrum",
    "convention_notes",
    "coulomb_potential",
    "fd_eigen_1d",
    "find_casimir",
    "find_center",
    "monomials_up_to_degree",
    "format_poly",
    "harmonic_potential",
    "internal_spectrum",
    "jacobi_transform",
    "moyal_bracket",
    "parse_expression",
    "partial_derivative",
    "poisson_bracket",
    "rat",
    "read_tabulated",
    "separate_hamiltonian",
    "span_reduce",
    "structure_constants",
    "tabulated_potential",
    "two_body_transform",
    "verify_canonical",
    "verify_invariant",
]
