"""Exact rational scalars.

All symbolic coefficients in this package are `fractions.Fraction` values:
arbitrary-precision, always normalized (gcd(|num|, den) = 1, den > 0,
zero stored as 0/1), which is exactly the invariant the algebra layer needs.
This module only adds a conversion helper around it; ``str`` gives the
canonical text form (``p`` for integers, ``p/q`` otherwise).
"""

from __future__ import annotations

from fractions import Fraction

def rat(value: int | str | Fraction, den: int | None = None) -> Fraction:
    """Coerce ``value`` to an exact Fraction.

    Accepts ints, Fractions and strings like ``"3"``, ``"-3/4"``.  Floats are
    rejected on purpose: a float has already lost exactness and silently
    accepting one would poison downstream Gaussian elimination.
    """
    if den is not None:
        return Fraction(value, den)  # type: ignore[arg-type]
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

