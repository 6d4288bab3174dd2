"""Phase-space context: canonical variables, bound parameters, hbar.

A context fixes D canonical pairs (q1..qD, p1..pD), an exact value for every
named parameter, an exact hbar, and the total-degree budget.  Every polynomial
carries a reference to its context; operations mixing contexts are rejected.
"""

from __future__ import annotations

import re
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

from .errors import ContextMismatchError
from .rational import rat

_VAR_RE = re.compile(r"^([qpx])([1-9][0-9]*)$")


class PhaseContext:
    """Immutable description of the phase space all polynomials live on.

    ``params`` maps parameter names to exact rationals; values given as
    strings ("1/2") or ints are coerced.  ``x_i`` is accepted everywhere as an
    alias for ``q_i``.
    """

    __slots__ = ("dof", "params", "hbar", "max_degree")

    def __init__(
        self,
        dof: int,
        params: Mapping[str, int | str | Fraction] | None = None,
        hbar: int | str | Fraction = 1,
        max_degree: int = 16,
    ):
        if dof < 1:
            raise ValueError("dof must be >= 1")
        if max_degree < 1:
            raise ValueError("max_degree must be >= 1")
        bound = {}
        for name, value in (params or {}).items():
            if _VAR_RE.match(name):
                raise ValueError(f"parameter {name!r} shadows a canonical variable")
            bound[name] = rat(value)
        object.__setattr__(self, "dof", dof)
        object.__setattr__(self, "params", MappingProxyType(bound))
        object.__setattr__(self, "hbar", rat(hbar))
        object.__setattr__(self, "max_degree", max_degree)

    def __setattr__(self, name, value):
        raise AttributeError("PhaseContext is immutable")

    # -- variables -----------------------------------------------------------

    @property
    def nvars(self) -> int:
        return 2 * self.dof

    def var_index(self, name: str) -> int | None:
        """Index of a canonical variable (q1..qD first, then p1..pD), else None."""
        m = _VAR_RE.match(name)
        if not m:
            return None
        kind, num = m.group(1), int(m.group(2))
        if num > self.dof:
            return None
        if kind in ("q", "x"):
            return num - 1
        return self.dof + num - 1

    def var_name(self, index: int) -> str:
        if not 0 <= index < self.nvars:
            raise IndexError(f"variable index {index} out of range")
        if index < self.dof:
            return f"q{index + 1}"
        return f"p{index - self.dof + 1}"

    def parameter(self, name: str) -> Fraction | None:
        return self.params.get(name)

    # -- identity ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        if not isinstance(other, PhaseContext):
            return NotImplemented
        return (
            self.dof == other.dof
            and dict(self.params) == dict(other.params)
            and self.hbar == other.hbar
            and self.max_degree == other.max_degree
        )

    __hash__ = None  # mutable-looking mapping inside; never used as a dict key

    def __repr__(self) -> str:
        pars = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"PhaseContext(dof={self.dof}, params={{{pars}}}, hbar={self.hbar})"

    def require_same(self, other: "PhaseContext") -> None:
        if self != other:
            raise ContextMismatchError(
                "operands belong to different phase-space contexts"
            )
