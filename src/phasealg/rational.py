"""Exact rational scalars.

Symbolic coefficients are `fractions.Fraction` values wherever one is
read: at the API (``PhasePoly.term_items``, ``coefficient``), in structure
constants, solution vectors and echelon rows.  A ``Fraction`` is
arbitrary-precision and always normalized (gcd(|num|, den) = 1, den > 0,
zero stored as 0/1).  A polynomial stores the same invariant for all its
terms at once, as integer numerators over one denominator whose gcd with
them is 1 (``poly``), and builds a ``Fraction`` only when one is read.
This module only adds a conversion helper; ``str`` of a ``Fraction`` gives
the canonical text form (``p`` for integers, ``p/q`` otherwise).
"""

from __future__ import annotations

from fractions import Fraction

def rat(value: int | str | Fraction) -> Fraction:
    """Coerce ``value`` to an exact Fraction; a Fraction is returned as is.

    Accepts ints, Fractions and strings like ``"3"``, ``"-3/4"``.  Floats are
    rejected on purpose: a float has already lost exactness and silently
    accepting one would poison downstream Gaussian elimination.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not an exact rational: {value!r}") from exc
    raise TypeError(f"cannot build an exact rational from {type(value).__name__}")

