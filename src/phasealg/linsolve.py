"""Exact linear algebra over rationals: sparse echelon forms.

Rows are sparse ``{column: value}`` maps.  ``Echelon`` (closure, span
reduction, ``invert``) keeps its rows fully reduced.  ``_integer_rref``,
read only by ``nullspace``, does not (see there), so ``nullspace`` can
return a vector that breaks a row.  Both engines reduce integer rows, and
``_integer_row`` is the one conversion of a row of rationals, read only
here: a polynomial hands its rows over as integers already (its
numerators over its one denominator), and ``nullspace`` takes a row of
nonzero ``int``s as given.  Both are deterministic: identical inputs give
identical outputs.

``Echelon`` reads a row against its span in two halves, each one integer
linear combination of the stored rows: ``remainder`` gives the part off the
span, ``coordinates`` the part in it, for a batch of rows at once.  Both
take a row as integer numerators over one denominator, as the bracket
kernel and a polynomial give it, so closure, ``verify`` and
``span_reduce`` hand them their rows with no ``Fraction`` per term; a
``Fraction`` row (``invert``'s) is converted once.  ``admit`` stores a
row's remainder as a new input from the one reduction, for the closure's
generated elements.  Coordinates are read once per batch, from a table of
the stored coordinates over one denominator per coordinate column, so
closure and ``verify`` read every structure constant after their pair
loop, and a closure that stops early reads none.  ``remainder``,
``coordinates`` and ``sub_scaled`` build a ``Fraction`` only per output
entry, so the gcd that normalizes a ``Fraction`` runs once per entry, not
once per arithmetic operation; ``sub_scaled`` with factor -1 (a sum)
builds none for an entry new to the row, which keeps the other operand's
``Fraction``.  ``sub_scaled`` reads only ``Fraction`` rows: the stored
rows and coordinates of ``Echelon``, and the structure-constant tables of
``closure.LieClosure.check_jacobi_tensor``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Hashable, Iterable, Mapping


def sub_scaled(row: dict, other: Mapping, factor: Fraction, skip: Hashable = None) -> None:
    """``row -= factor * other`` in place, over ``other``'s columns but ``skip``
    (a pivot the caller popped), with one ``Fraction`` built per entry.  For
    ``factor == -1`` (``row += other``) an entry new to the row is ``other``'s
    own ``Fraction``, so only entries that both hold build one."""
    num, den = factor.numerator, factor.denominator
    plus = num == -1 and den == 1
    get = row.get
    for c, v in other.items():
        if c == skip:
            continue
        old = get(c)
        if old is None:
            row[c] = v if plus else Fraction(-num * v.numerator, v.denominator * den)
            continue
        d = v.denominator * den
        if new := Fraction(old.numerator * d - num * v.numerator * old.denominator,
                           old.denominator * d):
            row[c] = new
        else:
            del row[c]


def _integer_row(row: Mapping) -> tuple[dict, int]:
    """A row of ``Fraction``s or ``int``s as integer numerators over the lcm
    of its denominators, zeros dropped: ``(nums, den)``."""
    den = lcm(*[v.denominator for v in row.values()])
    return {c: v.numerator * (den // v.denominator) for c, v in row.items() if v}, den


def _accumulate(nums: dict, dens: dict, factor: int, items: list) -> None:
    """Add ``factor * n / d`` into entry ``k`` for each ``(k, n, d)`` of ``items``;
    entry ``k`` is ``nums[k] / dens[k]``, its denominator a running lcm.  When
    ``d`` divides that denominator, as it mostly does down a coordinate
    column, the term is scaled up to it, with no gcd."""
    for k, n, d in items:
        old = dens.get(k)
        if old is None:
            nums[k] = factor * n
            dens[k] = d
        elif old == d:
            nums[k] += factor * n
        elif not old % d:
            nums[k] += factor * n * (old // d)
        else:
            g = gcd(old, d)
            nums[k] = nums[k] * (d // g) + factor * n * (old // g)
            dens[k] = old // g * d


class Echelon:
    """Reduced row-echelon span of sparse rows, with coordinate tracking.

    ``rows`` maps each pivot column to ``(row, coords)``: the row has
    coefficient 1 at its pivot and 0 at every other pivot column, and
    ``coords`` expresses it over the keys passed to ``add`` and ``admit``.
    ``head`` picks the pivot of a new row among its columns (default: the
    smallest).

    ``remainder``, ``coordinates``, ``add`` and ``admit`` take a row as
    integer numerators over one denominator ``den``, as the bracket kernel
    (``brackets._PackedBasis.blocks``) and a polynomial (its numerators and
    denominator) give it.  Without ``den`` the row holds rationals and is
    converted once (``_integer_row``).  Because of the reduced form,
    reducing a row is one linear combination: the factor for pivot ``c`` is
    the row's own entry there, so

        rem = row off the pivots - sum_c row[c] * rows[c],
        coords = sum_c row[c] * coords[c].

    The two halves are read apart.  ``remainder`` sums the first in
    integers, over ``den`` times a running lcm per output entry, from each
    stored row kept off its pivot as ``(column, numerator, denominator)``
    triples, built on first use and dropped when a new row is
    back-substituted into it.  Down one column the denominators mostly divide one
    another (across a row they do not: one denominator per row grows to
    thousands of bits on an sp(6) closure).  A row in the span builds no
    ``Fraction``.

    ``coordinates`` sums the second for a batch of rows at once.  It reads
    the coordinates of the stored rows the batch hits once, as integers
    over one denominator per coordinate column, the lcm of that column's
    denominators; each row's coordinates are then integer dot products, and
    one ``Fraction`` is built per nonzero output entry.  The inputs ``add``
    keeps are linearly independent, so a row in the span has one set of
    coordinates, and a caller can read them after its last ``add``, against
    the final rows: closure and ``verify`` read every structure constant in
    one batch.  ``add`` reads a new row's coordinates the same way, as a
    batch of one row, and only when the row reaches a stored row; ``admit``
    reads none, since the row it stores is its own input.
    """

    def __init__(self, head: Callable[[dict], Hashable] = min):
        self.head = head
        self.rows: dict[Hashable, tuple[dict, dict]] = {}
        # pivot -> the row off its pivot, as integer triples
        self._packed: dict[Hashable, list] = {}

    def _pack(self, pivot: Hashable) -> list:
        packed = self._packed.get(pivot)
        if packed is None:
            packed = self._packed[pivot] = [(c, v.numerator, v.denominator)
                                            for c, v in self.rows[pivot][0].items() if c != pivot]
        return packed

    def _reduce(self, row: Mapping, den: int | None) -> tuple[int, dict, dict, dict]:
        """``remainder`` in integers, entry ``c`` being ``nums[c] / (den *
        dens[c])``, and the row's entries at pivots, its ``hits``.  A row of
        rationals (no ``den``) is converted by ``_integer_row``.
        Returns ``(den, nums, dens, hits)``."""
        if den is None:
            row, den = _integer_row(row)
        rows = self.rows
        hits = {}
        nums: dict = {}
        dens: dict = {}
        for c, n in row.items():
            if c in rows:
                hits[c] = n
            else:
                nums[c] = n
                dens[c] = 1
        for c, n in hits.items():
            _accumulate(nums, dens, -n, self._pack(c))
        return den, nums, dens, hits

    def remainder(self, row: Mapping, den: int | None = None) -> dict:
        """``row`` less its part in the span: empty exactly when ``row`` lies
        in the span."""
        den, nums, dens, _ = self._reduce(row, den)
        return {c: Fraction(n, den * dens[c]) for c, n in nums.items() if n}

    def coordinates(self, rows: Iterable[tuple[Mapping, int | None]]) -> list[dict]:
        """For each ``(row, den)`` of ``rows``, in order, the coordinates of
        its part in the span, ``row - remainder(row) = sum_key coords[key] *
        input[key]``, with zero coordinates left out.

        The stored coordinates the batch reaches form one table, each key's
        over ``dens[i]``, the lcm of that key's denominators there; a row's
        sum ``acc`` is then integer dot products, its entry ``i`` the
        coordinate of ``keys[i]`` times ``den * dens[i]``."""
        stored = self.rows
        hits, row_dens = [], []
        for row, den in rows:
            if den is None:
                row, den = _integer_row(row)
            hits.append({c: n for c, n in row.items() if c in stored})
            row_dens.append(den)
        reached = {c: stored[c][1] for hit in hits for c in hit}
        columns: dict = {}
        for coords in reached.values():
            for k, v in coords.items():
                columns.setdefault(k, []).append(v.denominator)
        keys, dens = list(columns), [lcm(*ds) for ds in columns.values()]
        index = {k: i for i, k in enumerate(keys)}
        table = {c: [(i := index[k], v.numerator * (dens[i] // v.denominator)) for k, v in coords.items()]
                 for c, coords in reached.items()}
        out = []
        for hit, den in zip(hits, row_dens):
            acc = [0] * len(keys)
            for c, n in hit.items():
                for i, v in table[c]:
                    acc[i] += n * v
            out.append({keys[i]: Fraction(n, den * dens[i]) for i, n in enumerate(acc) if n})
        return out

    def _lead_one(self, row: Mapping, den: int | None) -> tuple | None:
        """``row``'s remainder scaled to 1 at its pivot, or None when ``row``
        lies in the span.  Returns ``(pivot, remainder, hits, den, inv)``,
        with ``hits`` and ``den`` those of ``_reduce`` and ``inv`` the factor
        that scaled the remainder: the input's coordinate on itself."""
        den, rem_n, rem_d, hits = self._reduce(row, den)
        rem_n = {c: n for c, n in rem_n.items() if n}
        if not rem_n:
            return None
        pivot = self.head(rem_n)
        # the pivot entry is lead / (den * lead_den): divide every entry by it
        lead, lead_den = rem_n[pivot], rem_d[pivot]
        rem = {c: Fraction(n * lead_den, rem_d[c] * lead) for c, n in rem_n.items()}
        return pivot, rem, hits, den, Fraction(den * lead_den, lead)

    def _store(self, pivot: Hashable, rem: dict, coords: dict) -> None:
        """Back-substitute ``rem``, 1 at ``pivot`` and 0 at every other pivot,
        into the stored rows, which keeps the form reduced, and store it."""
        for col, (prow, pcoords) in self.rows.items():
            factor = prow.pop(pivot, None)
            if factor:
                sub_scaled(prow, rem, factor, pivot)
                sub_scaled(pcoords, coords, factor)
                self._packed.pop(col, None)
        self.rows[pivot] = (rem, coords)

    def add(self, row: Mapping, key: Hashable, den: int | None = None) -> bool:
        """Add input ``row`` under ``key``; False if it already lies in the span.

        Its remainder, scaled to 1 at its pivot, is back-substituted into the
        stored rows, with its coordinates over the inputs.
        """
        scaled = self._lead_one(row, den)
        if scaled is None:
            return False
        pivot, rem, hits, den, inv = scaled
        coords = {k: -c * inv for k, c in self.coordinates([(hits, den)])[0].items()} if hits else {}
        coords[key] = inv
        self._store(pivot, rem, coords)
        return True

    def admit(self, row: Mapping, key: Hashable, den: int | None = None) -> dict | None:
        """Store ``row``'s remainder, scaled to 1 at its pivot, as the input
        under ``key`` itself, its coordinates ``{key: 1}``, and return it;
        None when ``row`` lies in the span.

        One reduction serves a caller whose new element is that remainder,
        as the closure's generated elements are: ``add`` of the returned
        row would reduce it a second time, to the same row.
        """
        scaled = self._lead_one(row, den)
        if scaled is None:
            return None
        pivot, rem = scaled[:2]
        self._store(pivot, rem, {key: Fraction(1)})
        return rem


def _eliminate(row: dict, prow: Mapping, factor: int, col: int) -> None:
    """Clear the entry ``factor`` that the caller popped from ``row`` at
    ``col``, with the integer row ``prow``, whose pivot is ``col``: in place,
    ``row * (lead // g) - (factor // g) * prow`` over ``prow``'s columns but
    ``col``, with ``lead = prow[col]`` and ``g = gcd(factor, lead)``.  Up to
    scale, that is ``row - factor / lead * prow``."""
    lead = prow[col]
    g = gcd(factor, lead)
    scale, factor = lead // g, factor // g
    if scale != 1:
        for c in row:
            row[c] *= scale
    get = row.get
    for c, v in prow.items():
        if c == col:
            continue
        old = get(c)
        if old is None:
            row[c] = -factor * v
        elif new := old - factor * v:
            row[c] = new
        else:
            del row[c]


def _primitive(row: dict) -> None:
    """Divide the entries of ``row`` by their gcd, in place."""
    g = gcd(*row.values())
    if g > 1:
        for c in row:
            row[c] //= g


def _integer_rref(rows) -> dict[int, dict[int, int]]:
    """Row-echelon form of ``rows`` (maps of columns to ``Fraction``s or
    ``int``s), as ``pivot_col -> row`` in order of pivot, each row in
    integers: its entries are its values times its entry at its own pivot.

    A new pivot is back-substituted into every stored row, so no row holds
    a pivot made after it.  But a new row is reduced only until its
    smallest column is not a pivot, so it can keep an earlier pivot column:
    the form is not fully reduced, and ``nullspace`` can return a vector
    that breaks a row (the strict xfail
    ``tests/test_linsolve.py::test_nullspace_vectors_solve_every_row``; the
    fix changes a pinned benchmark answer).

    The elimination is fraction-free (cf. Bareiss 1968).  A row of nonzero
    ``int``s, as ``invariants`` builds them, is taken as it is (copied, so
    no input is modified); any other row is scaled by the lcm of its
    denominators (``_integer_row``).  A new row is
    reduced up to scale, divided by its content after each step, because
    scaling a row scales its reduction.  A stored row is exact as integers
    over one denominator, its own entry at its pivot: it holds no column
    left of its pivot, and a new row back-substituted into it has its pivot
    at a column the stored row holds and no entry left of that, so the
    entry at the stored row's pivot never changes.  The stored row is
    divided by its content after each change.  A column index maps each
    column to the pivots whose rows hold it, so a new pivot visits only
    those rows.
    """
    pivots: dict[int, dict[int, int]] = {}
    holders: dict[int, set[int]] = {}
    for raw in rows:
        # a row of nonzero ints is taken as given, copied: it is reduced in place
        row = dict(raw) if all(type(v) is int and v for v in raw.values()) else _integer_row(raw)[0]
        while row:
            _primitive(row)
            col = min(row)
            if col not in pivots:
                break
            _eliminate(row, pivots[col], row.pop(col), col)
        if not row:
            continue
        for pcol in holders.pop(col, ()):
            prow = pivots[pcol]
            _eliminate(prow, row, prow.pop(col), col)
            _primitive(prow)
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
    """One solution vector per free column of ``_integer_rref(rows)``.

    The vector for free column ``f`` carries 1 at ``f`` and minus each
    pivot row's entry at ``f`` at that row's pivot; vectors are ordered by
    free column index, which makes the result reproducible.  It is a basis
    of the solution space only when the rows are fully reduced, which
    ``_integer_rref`` does not guarantee (see there).  One pass over the
    integer pivot rows fills every vector, with a ``Fraction`` built only
    for an entry at a free column.
    """
    pivots = _integer_rref(rows)
    basis = {free: [Fraction(0)] * ncols for free in range(ncols) if free not in pivots}
    for free, vec in basis.items():
        vec[free] = Fraction(1)
    for pcol, prow in pivots.items():
        lead = prow[pcol]
        for c, n in prow.items():
            if (vec := basis.get(c)) is not None:
                vec[pcol] = Fraction(-n, lead)
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
