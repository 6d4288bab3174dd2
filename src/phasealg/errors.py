"""Exception hierarchy shared across the package."""

from __future__ import annotations


class PhaseAlgError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PhaseAlgError):
    """Malformed expression text.  ``position`` is a 0-based character index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnboundIdentifierError(ParseError):
    pass


class DivisionError(ParseError):
    """Division by zero or by a non-constant expression."""


class DegreeBudgetError(PhaseAlgError):
    """A result would exceed the configured maximum total degree."""


class ContextMismatchError(PhaseAlgError):
    """Operands built over different phase-space contexts."""


class EmptySeedError(PhaseAlgError):
    """close_algebra called without any seed element."""


class NonClosingError(PhaseAlgError):
    """The bracket algebra did not close within the configured limits.

    ``pair`` names the bracket that overran, ``None`` for a seed."""

    def __init__(self, reason: str, pair: tuple[str, str] | None, basis_size: int):
        where = f"offending pair {{{pair[0]}, {pair[1]}}}, " if pair else ""
        super().__init__(
            f"algebra does not close within limits: {reason} ({where}basis size {basis_size})"
        )
        self.reason = reason
        self.pair = pair
        self.basis_size = basis_size


class AnsatzTooLargeError(PhaseAlgError):
    """Centre-search ansatz exceeds the configured monomial cap."""


class SeparationFailure(PhaseAlgError):
    """Hamiltonian does not split into CM plus internal parts."""

    def __init__(self, mixed_terms: list[str]):
        super().__init__(
            "mixed centre-of-mass/relative terms remain: " + ", ".join(mixed_terms)
        )
        self.mixed_terms = mixed_terms
