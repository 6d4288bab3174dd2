"""Exact linear algebra over rationals: one sparse echelon engine.

Rows are sparse ``{column: Fraction}`` maps.  ``Echelon`` (closure, span
reduction, ``invert``) and ``sparse_rref`` (``nullspace``) are deterministic:
identical inputs give identical reduced forms and nullspace bases.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Hashable, Mapping


def sub_scaled(row: dict, other: Mapping, factor: Fraction, skip: Hashable = None) -> None:
    """``row -= factor * other`` in place, over ``other``'s columns but ``skip``
    (a pivot the caller popped: two ``Fraction`` operations fewer per call)."""
    get = row.get
    for c, v in other.items():
        if c == skip:
            continue
        old = get(c)
        if old is None:
            row[c] = -(factor * v)
        elif new := old - factor * v:
            row[c] = new
        else:
            del row[c]


class Echelon:
    """Reduced row-echelon span of sparse rows, with coordinate tracking.

    ``rows`` maps each pivot column to ``(row, coords)``: the row has
    coefficient 1 at its pivot and 0 at every other pivot column, and
    ``coords`` expresses it over the keys passed to ``add``.  ``head``
    picks the pivot of a new row among its columns (default: the smallest).
    """

    def __init__(self, head: Callable[[dict], Hashable] = min):
        self.head = head
        self.rows: dict[Hashable, tuple[dict, dict]] = {}

    def reduce(self, row: Mapping) -> tuple[dict, dict]:
        """Split ``row`` into ``sum coords[key] * input[key] + rem``.

        ``rem`` is empty exactly when ``row`` lies in the span.  Stored rows
        vanish at each other's pivots: one pass over ``row``'s pivots suffices.
        """
        rem = dict(row)
        coords: dict = {}
        for col in [c for c in rem if c in self.rows]:
            factor = rem.pop(col)
            prow, pcoords = self.rows[col]
            sub_scaled(rem, prow, factor, col)
            sub_scaled(coords, pcoords, -factor)
        return coords, rem

    def add(self, row: Mapping, key: Hashable) -> bool:
        """Add input ``row`` under ``key``; False if it already lies in the span.

        Its remainder, scaled to 1 at its pivot, is back-substituted into the
        stored rows, which keeps the form reduced.
        """
        coords, rem = self.reduce(row)
        if not rem:
            return False
        pivot = self.head(rem)
        inv = 1 / rem[pivot]
        rem = {c: v * inv for c, v in rem.items()}
        coords = {k: -c * inv for k, c in coords.items()}
        coords[key] = inv
        for prow, pcoords in self.rows.values():
            factor = prow.pop(pivot, None)
            if factor:
                sub_scaled(prow, rem, factor, pivot)
                sub_scaled(pcoords, coords, factor)
        self.rows[pivot] = (rem, coords)
        return True


def sparse_rref(rows) -> dict[int, dict[int, Fraction]]:
    """Fully reduced row-echelon form, returned as ``pivot_col -> row``.

    Every returned row has coefficient 1 at its pivot column and zeros at all
    other pivot columns.
    """
    pivots: dict[int, dict[int, Fraction]] = {}
    for raw in rows:
        row = {c: v for c, v in raw.items() if v != 0}
        while row:
            col = min(row)
            if col not in pivots:
                break
            sub_scaled(row, pivots[col], row.pop(col), col)
        if not row:
            continue
        col = min(row)
        inv = Fraction(1) / row[col]
        row = {c: v * inv for c, v in row.items()}
        for prow in pivots.values():
            if col in prow:
                sub_scaled(prow, row, prow.pop(col), col)
        pivots[col] = row
    return pivots


def nullspace(rows, ncols: int) -> list[list[Fraction]]:
    """Canonical basis of the solution space of the homogeneous system.

    One vector per free column, carrying 1 there; ordered by free column
    index, which makes the result reproducible.
    """
    pivots = sparse_rref(rows)
    basis: list[list[Fraction]] = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for pcol, prow in pivots.items():
            coeff = prow.get(free)
            if coeff:
                vec[pcol] = -coeff
        basis.append(vec)
    return basis


def invert(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse of a square matrix: its rows reduce to the identity, and
    row ``c`` of the inverse is the coordinates of the row with pivot ``c``."""
    n = len(matrix)
    ech = Echelon()
    for r, row in enumerate(matrix):
        if not ech.add({c: Fraction(v) for c, v in enumerate(row) if v}, r):
            raise ValueError("matrix is singular")
    return [[ech.rows[c][1].get(r, Fraction(0)) for r in range(n)] for c in range(n)]
