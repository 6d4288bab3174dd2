"""Exact linear algebra over rationals: sparse echelon forms.

Rows are sparse ``{column: Fraction}`` maps.  ``Echelon`` (closure, span
reduction, ``invert``) keeps its rows fully reduced.  ``sparse_rref``
(``nullspace``) does not: it reduces a new row only until its smallest
column is not a pivot, so a stored row can keep another pivot column and
``nullspace`` can return a vector that breaks a row (the strict xfail
``tests/test_linsolve.py::test_nullspace_vectors_solve_every_row``; the fix
changes a pinned benchmark answer).  ``sparse_rref`` keeps a column index,
each column mapped to the pivots whose rows hold it, so a new pivot is
back-substituted only into those rows; ``nullspace`` reads every free
vector in one pass over the pivot rows.  Both engines are deterministic:
identical inputs give identical outputs.

``Echelon.reduce`` is one integer linear combination of the stored rows, and
both it and ``sub_scaled`` build a ``Fraction`` only per output entry, so
the gcd that normalizes a ``Fraction`` runs once per entry, not once per
arithmetic operation.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Hashable, Mapping


def sub_scaled(row: dict, other: Mapping, factor: Fraction, skip: Hashable = None) -> None:
    """``row -= factor * other`` in place, over ``other``'s columns but ``skip``
    (a pivot the caller popped), with one ``Fraction`` built per entry."""
    num, den = factor.numerator, factor.denominator
    get = row.get
    for c, v in other.items():
        if c == skip:
            continue
        old = get(c)
        d = v.denominator * den
        if old is None:
            row[c] = Fraction(-num * v.numerator, d)
        elif new := Fraction(old.numerator * d - num * v.numerator * old.denominator,
                             old.denominator * d):
            row[c] = new
        else:
            del row[c]


def _accumulate(nums: dict, dens: dict, factor: int, items: list) -> None:
    """Add ``factor * n / d`` into entry ``k`` for each ``(k, n, d)`` of ``items``;
    entry ``k`` is ``nums[k] / dens[k]``, its denominator a running lcm."""
    for k, n, d in items:
        old = dens.get(k)
        if old is None:
            nums[k] = factor * n
            dens[k] = d
        elif old == d:
            nums[k] += factor * n
        else:
            g = gcd(old, d)
            nums[k] = nums[k] * (d // g) + factor * n * (old // g)
            dens[k] = old // g * d


class Echelon:
    """Reduced row-echelon span of sparse rows, with coordinate tracking.

    ``rows`` maps each pivot column to ``(row, coords)``: the row has
    coefficient 1 at its pivot and 0 at every other pivot column, and
    ``coords`` expresses it over the keys passed to ``add``.  ``head``
    picks the pivot of a new row among its columns (default: the smallest).

    Because of that form, reducing a row is one linear combination: the
    factor for pivot ``c`` is the row's own entry there, so

        rem = row off the pivots - sum_c row[c] * rows[c],
        coords = sum_c row[c] * coords[c].

    It is summed in integers.  Each stored row and its coordinates are also
    kept, built on first use and dropped when ``add`` back-substitutes into
    the row, as ``(column, numerator, denominator)`` triples.  The factors
    share one denominator; each output entry keeps a running lcm of the
    denominators it meets, which down one column mostly agree (across a row
    they do not: one denominator per row grows to thousands of bits on an
    sp(6) closure).  One ``Fraction`` is built per output entry.
    """

    def __init__(self, head: Callable[[dict], Hashable] = min):
        self.head = head
        self.rows: dict[Hashable, tuple[dict, dict]] = {}
        # pivot -> the row off its pivot and the coordinates, as integer triples
        self._packed: dict[Hashable, tuple[list, list]] = {}

    def _pack(self, pivot: Hashable) -> tuple[list, list]:
        packed = self._packed.get(pivot)
        if packed is None:
            row, coords = self.rows[pivot]
            packed = self._packed[pivot] = (
                [(c, v.numerator, v.denominator) for c, v in row.items() if c != pivot],
                [(k, v.numerator, v.denominator) for k, v in coords.items()],
            )
        return packed

    def _combine(self, row: Mapping) -> tuple[int, dict, dict, dict, dict]:
        """``reduce``'s remainder and coordinates in integers: entry ``c`` of
        each is ``num[c] / (den * dens[c])``.  Returns
        ``(den, rem nums, rem dens, coords nums, coords dens)``."""
        rows = self.rows
        hits = [(v, self._pack(c)) for c, v in row.items() if c in rows]
        den = lcm(*[v.denominator for v, _ in hits])
        rem_n, rem_d = {}, {}
        for c, v in row.items():
            if c not in rows:
                rem_n[c] = v.numerator * den
                rem_d[c] = v.denominator
        coords_n: dict = {}
        coords_d: dict = {}
        for v, (prest, pcoords) in hits:
            factor = v.numerator * (den // v.denominator)
            _accumulate(rem_n, rem_d, -factor, prest)
            _accumulate(coords_n, coords_d, factor, pcoords)
        return den, rem_n, rem_d, coords_n, coords_d

    def reduce(self, row: Mapping) -> tuple[dict, dict]:
        """Split ``row`` into ``sum coords[key] * input[key] + rem``.

        ``rem`` is empty exactly when ``row`` lies in the span.
        """
        den, rem_n, rem_d, coords_n, coords_d = self._combine(row)
        return ({k: Fraction(n, den * coords_d[k]) for k, n in coords_n.items() if n},
                {c: Fraction(n, den * rem_d[c]) for c, n in rem_n.items() if n})

    def add(self, row: Mapping, key: Hashable) -> bool:
        """Add input ``row`` under ``key``; False if it already lies in the span.

        Its remainder, scaled to 1 at its pivot, is back-substituted into the
        stored rows, which keeps the form reduced.
        """
        den, rem_n, rem_d, coords_n, coords_d = self._combine(row)
        rem_n = {c: n for c, n in rem_n.items() if n}
        if not rem_n:
            return False
        pivot = self.head(rem_n)
        # the pivot entry is lead / (den * lead_den): divide every entry by it
        lead, lead_den = rem_n[pivot], rem_d[pivot]
        rem = {c: Fraction(n * lead_den, rem_d[c] * lead) for c, n in rem_n.items()}
        coords = {k: Fraction(-n * lead_den, coords_d[k] * lead)
                  for k, n in coords_n.items() if n}
        coords[key] = Fraction(den * lead_den, lead)
        for col, (prow, pcoords) in self.rows.items():
            factor = prow.pop(pivot, None)
            if factor:
                sub_scaled(prow, rem, factor, pivot)
                sub_scaled(pcoords, coords, factor)
                self._packed.pop(col, None)
        self.rows[pivot] = (rem, coords)
        return True


def sparse_rref(rows) -> dict[int, dict[int, Fraction]]:
    """Row-echelon form, returned as ``pivot_col -> row`` in order of pivot.

    Every returned row has coefficient 1 at its pivot column, and a new
    pivot is back-substituted into every stored row, so no row holds a
    pivot made after it.  But a new row is reduced only until its smallest
    column is not a pivot, so it can keep an earlier pivot column: the
    form is not fully reduced, and ``nullspace``
    can return a vector that breaks a row (the strict xfail
    ``tests/test_linsolve.py::test_nullspace_vectors_solve_every_row``).

    A column index maps each column to the pivots whose rows hold it, so a
    new pivot visits only those rows; it is kept exact where
    ``sub_scaled`` adds or cancels an entry.
    """
    pivots: dict[int, dict[int, Fraction]] = {}
    holders: dict[int, set[int]] = {}
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
        for pcol in holders.pop(col, ()):
            prow = pivots[pcol]
            sub_scaled(prow, row, prow.pop(col), col)
            for c in row:
                if c in prow:
                    holders.setdefault(c, set()).add(pcol)
                elif c != col:
                    holders[c].discard(pcol)
        for c in row:
            holders.setdefault(c, set()).add(col)
        pivots[col] = row
    return pivots


def nullspace(rows, ncols: int) -> list[list[Fraction]]:
    """One solution vector per free column of ``sparse_rref(rows)``.

    The vector for free column ``f`` carries 1 at ``f`` and minus each
    pivot row's entry at ``f`` at that row's pivot; vectors are ordered by
    free column index, which makes the result reproducible.  It is a basis
    of the solution space only when the rows are fully reduced, which
    ``sparse_rref`` does not guarantee (see there).  One pass over the
    pivot rows' entries fills every vector.
    """
    pivots = sparse_rref(rows)
    basis = {free: [Fraction(0)] * ncols for free in range(ncols) if free not in pivots}
    for free, vec in basis.items():
        vec[free] = Fraction(1)
    for pcol, prow in pivots.items():
        for c, v in prow.items():
            if (vec := basis.get(c)) is not None:
                vec[pcol] = -v
    return list(basis.values())


def invert(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse of a square matrix: its rows reduce to the identity, and
    row ``c`` of the inverse is the coordinates of the row with pivot ``c``."""
    n = len(matrix)
    ech = Echelon()
    for r, row in enumerate(matrix):
        if not ech.add({c: Fraction(v) for c, v in enumerate(row) if v}, r):
            raise ValueError("matrix is singular")
    return [[ech.rows[c][1].get(r, Fraction(0)) for r in range(n)] for c in range(n)]
