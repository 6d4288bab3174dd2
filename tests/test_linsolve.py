import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phasealg.closure import _leading
from phasealg.linsolve import Echelon, _integer_row, _integer_rref, invert, nullspace, sub_scaled


@pytest.mark.xfail(
    strict=True,
    reason="linsolve._integer_rref stops reducing a new row at its first non-pivot column, "
    "so a stored row can keep another pivot column",
)
def test_nullspace_vectors_solve_every_row():
    rows = [{1: Fraction(1), 3: Fraction(2)}, {0: Fraction(1), 1: Fraction(1)}]
    basis = nullspace(rows, 4)
    assert len(basis) == 2
    for vec in basis:
        for row in rows:
            assert sum(v * vec[c] for c, v in row.items()) == 0


def _scan_sparse_rref(rows):
    """``_integer_rref``'s elimination in ``Fraction``s, before its column
    index: a new pivot scans every stored row for its column."""
    pivots = {}
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


def _scan_nullspace(rows, ncols):
    """``nullspace`` before its one pass: every pivot row is read for every
    free column."""
    pivots = _scan_sparse_rref(rows)
    basis = []
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


BIG = 2 ** 300
ENTRIES = {
    "fractions": st.fractions(min_value=-5, max_value=5, max_denominator=6),
    "ints": st.integers(-5, 5),
    "big": st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
}
# ~300-bit rationals, mixed with ints and small fractions in one row
B1, B2 = Fraction(3 ** 189, 5 ** 129), Fraction(-(7 ** 106), BIG + 1)
B3 = Fraction(BIG - 1, 3 ** 188)


@st.composite
def sparse_systems(draw):
    """Rows of 1-3 entries (zeros among them) over up to 60 columns, with
    copies of earlier rows and zero rows inserted.  The entries of one
    system are small fractions, plain ints, rationals of up to 300 bits, or
    a mix of the three."""
    ncols = draw(st.integers(1, 60))
    kind = draw(st.sampled_from([*ENTRIES, "mixed"]))
    entries = st.one_of(*ENTRIES.values()) if kind == "mixed" else ENTRIES[kind]
    row = st.dictionaries(st.integers(0, ncols - 1), entries, min_size=1, max_size=3)
    rows = draw(st.lists(row, max_size=40))
    for pos, copy, col in draw(st.lists(
            st.tuples(st.integers(0, 40), st.booleans(), st.integers(0, ncols - 1)), max_size=8)):
        extra = dict(rows[pos % len(rows)]) if copy and rows else {col: Fraction(0)}
        rows.insert(pos % (len(rows) + 1), extra)
    return rows, ncols


@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(sparse_systems())
@example(([{1: Fraction(1), 3: Fraction(2)}, {0: Fraction(1), 1: Fraction(1)}], 4))
@example(([{}, {2: Fraction(0)}, {0: Fraction(1)}, {0: Fraction(1)}], 3))
@example(([{1: 1, 3: 2}, {0: 1, 1: 1}, {0: 0}, {2: 3, 3: -6}, {1: 4, 2: 2}], 4))
@example(([{2: B1, 4: B2}, {1: B3, 2: B2, 3: B1}, {0: B2, 1: B1, 4: B3},
           {3: B3, 4: B1}, {0: B1, 2: B3}], 5))
@example(([{2: B1, 4: 3}, {1: Fraction(-2, 3), 2: 5, 3: B3}, {0: 7, 1: B2},
           {3: 1, 4: Fraction(1, 6)}, {0: B2, 2: -1, 4: B1}], 5))
def test_indexed_elimination_equals_full_scan(system):
    """The column index, the one-pass read and the integer elimination
    change no output: the pivot dicts agree in key order and values, inner
    rows included, each integer row read over its pivot entry, and so do
    the vector lists (the defect they share is left in place).  The integer
    rows hold ``int``s only, and every vector entry is a ``Fraction``, also
    for ``int`` input: a bare ``int`` would be written to a report as a
    JSON number, not a string."""
    rows, ncols = system
    pivots, want = _integer_rref(rows), _scan_sparse_rref(rows)
    got = {pcol: {c: Fraction(n, prow[pcol]) for c, n in prow.items()}
           for pcol, prow in pivots.items()}
    assert [(c, list(r.items())) for c, r in got.items()] == [
        (c, list(r.items())) for c, r in want.items()]
    vectors = nullspace(rows, ncols)
    assert vectors == _scan_nullspace(rows, ncols)
    assert all(type(n) is int for r in pivots.values() for n in r.values())
    assert all(type(v) is Fraction for vec in vectors for v in vec)


def _identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _matmul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] for row in a]


def _random_nonsingular(rng, n, zero_lead):
    while True:
        m = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
        if zero_lead:
            m[0][0] = Fraction(0)
        if sympy.Matrix(m).det() != 0:
            return m


def test_invert_is_exact_inverse():
    rng = random.Random(2718)
    for n in range(1, 7):
        for zero_lead in (False, True) if n > 1 else (False,):
            for _ in range(4):
                m = _random_nonsingular(rng, n, zero_lead)
                inv = invert(m)
                assert _matmul(m, inv) == _identity(n)
                assert _matmul(inv, m) == _identity(n)


def test_invert_permutation_and_integer_input():
    assert invert([[0, 1], [1, 0]]) == [[0, 1], [1, 0]]
    assert invert([[0, 0, 2], [0, 4, 0], [1, 0, 0]]) == [
        [0, 0, 1],
        [0, Fraction(1, 4), 0],
        [Fraction(1, 2), 0, 0],
    ]


def test_invert_rejects_singular():
    rows = [[1, 2, 3], [0, 1, 4], [2, 5, 10]]   # row 3 = 2*row 1 + row 2
    with pytest.raises(ValueError, match="matrix is singular"):
        invert([[Fraction(v) for v in row] for row in rows])
    with pytest.raises(ValueError, match="matrix is singular"):
        invert([[0, 0], [0, 0]])


def test_echelon_rows_stay_reduced_with_coordinates():
    rng = random.Random(161)
    inputs = []
    for _ in range(12):
        if inputs and rng.random() < 0.3:   # a dependent input
            a, b = rng.sample(inputs, 2) if len(inputs) > 1 else (inputs[0], inputs[0])
            row = {}
            sub_scaled(row, a, Fraction(-2))
            sub_scaled(row, b, Fraction(1, 3))
        else:
            row = {c: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for c in rng.sample(range(8), 3)}
            row = {c: v for c, v in row.items() if v}
        inputs.append(row)
    ech = Echelon()
    added = [ech.add(row, k) for k, row in enumerate(inputs)]
    assert len(ech.rows) == sympy.Matrix(
        [[row.get(c, 0) for c in range(8)] for row in inputs]).rank() == sum(added)
    for pivot, (row, coords) in ech.rows.items():
        assert row[pivot] == 1
        assert not any(c in row for c in ech.rows if c != pivot)
        rebuilt = {}
        for k, f in coords.items():
            sub_scaled(rebuilt, inputs[k], -f)
        assert rebuilt == row
    for k, (row, coords) in enumerate(zip(inputs, ech.coordinates((row, None) for row in inputs))):
        assert ech.remainder(row) == {}
        rebuilt = {}
        for j, f in coords.items():
            sub_scaled(rebuilt, inputs[j], -f)
        assert rebuilt == row


def _reference_sub_scaled(row, other, factor, skip=None):
    """``row -= factor * other`` in plain ``Fraction`` arithmetic."""
    for c, v in other.items():
        if c == skip:
            continue
        new = row.get(c, Fraction(0)) - factor * v
        if new:
            row[c] = new
        else:
            row.pop(c, None)


class _ReferenceEchelon:
    """The engine before integer numerators: ``reduce`` subtracts one stored
    row at a time, ``add`` back-substitutes with ``Fraction`` arithmetic."""

    def __init__(self, head=min):
        self.head = head
        self.rows = {}

    def reduce(self, row):
        rem = dict(row)
        coords = {}
        for col in [c for c in rem if c in self.rows]:
            factor = rem.pop(col)
            prow, pcoords = self.rows[col]
            _reference_sub_scaled(rem, prow, factor, col)
            _reference_sub_scaled(coords, pcoords, -factor)
        return coords, rem

    def add(self, row, key):
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
                _reference_sub_scaled(prow, rem, factor, pivot)
                _reference_sub_scaled(pcoords, coords, factor)
        self.rows[pivot] = (rem, coords)
        return True


def _big_fraction(rng):
    num = rng.getrandbits(300) * rng.choice([-1, 1])
    return Fraction(num or 1, rng.getrandbits(300) or 1)


def _combination(rng, rows):
    """A sum of random big multiples of ``rows``: a row in their span."""
    out = {}
    for row in rows:
        _reference_sub_scaled(out, row, _big_fraction(rng))
    return out


def _reduce(ech, row, den=None):
    """``(coordinates, remainder)`` of one row, as ``_ReferenceEchelon.reduce``
    gives them."""
    (coords,) = ech.coordinates([(row, den)])
    return coords, ech.remainder(row, den)


COLUMNS = [(i, j) for i in range(5) for j in range(5 - i)]   # 15 monomials in 2 vars


def _big_rational_echelons(head, check):
    """Three trials of 12 ``add``s of ~300-bit rational rows, some in the
    span of earlier ones, into the integer engine and the reference alike;
    ``check(ech, ref, inputs, rng)`` runs after every ``add``."""
    rng = random.Random(7919)
    for trial in range(3):
        ech, ref = Echelon(head), _ReferenceEchelon(head)
        inputs = []
        for key in range(12):
            if inputs and rng.random() < 0.3:
                row = _combination(rng, rng.sample(inputs, min(len(inputs), 3)))
            else:
                row = {c: _big_fraction(rng) for c in rng.sample(COLUMNS, rng.randint(1, 5))}
            inputs.append(row)
            assert ech.add(row, key) == ref.add(row, key)
            assert ech.rows == ref.rows
            check(ech, ref, inputs, rng)


def _probes(ref, inputs, rng):
    """An empty row, a row in the span, a row off every pivot and a random row."""
    free = [c for c in COLUMNS if c not in ref.rows]
    return [
        {},
        _combination(rng, inputs),
        {c: _big_fraction(rng) for c in rng.sample(free, min(len(free), 3))},
        {c: _big_fraction(rng) for c in rng.sample(COLUMNS, 6)},
    ]


@pytest.mark.parametrize("head", [min, _leading], ids=["min", "leading"])
def test_echelon_matches_reference_on_big_rationals(head):
    """After every ``add``, the integer engine's rows, and the coordinates
    and remainder it gives each probe row (``_probes``) one at a time,
    equal the reference's exactly, on ~300-bit rationals."""
    def check(ech, ref, inputs, rng):
        probes = _probes(ref, inputs, rng)
        for probe in probes:
            assert _reduce(ech, probe) == ref.reduce(probe)
        assert ech.remainder(probes[1]) == {}

    _big_rational_echelons(head, check)


@pytest.mark.parametrize("head", [min, _leading], ids=["min", "leading"])
def test_batch_coordinates_match_reference_rows(head):
    """One ``coordinates`` batch, read from one table of the stored
    coordinates, gives every row the coordinates the reference gives it
    alone, on the big-rational echelons: the probe rows (an empty row
    among them), every input so far (an admitted input has coordinate 1 at
    its own key only, so where it hits a pivot whose coordinates hold
    another key, that key cancels to 0 and must be left out, not kept as a
    zero entry), and each row again as integer numerators over one
    denominator.  Every coordinate is a nonzero ``Fraction``."""
    cancelled = []

    def check(ech, ref, inputs, rng):
        rows = [*_probes(ref, inputs, rng), *inputs]
        want = [ref.reduce(row)[0] for row in rows]
        got = ech.coordinates([_integer_row(row) for row in rows])
        assert ech.coordinates((row, None) for row in rows) == got == want
        assert all(type(v) is Fraction and v for coords in got for v in coords.values())
        for key, (row, coords) in enumerate(zip(inputs, want[4:])):
            if coords == {key: 1} and any(k != key for c in row if c in ech.rows
                                          for k in ech.rows[c][1]):
                cancelled.append(key)

    _big_rational_echelons(head, check)
    assert cancelled


DENS = (1, 2, 3, 4, 6, 12)


@st.composite
def integer_row_cases(draw):
    """Up to six stored rows of small fractions over denominators that
    divide one another or do not (``DENS``), some dependent, and a row of
    integer numerators, negative ones and ones sharing factors with its
    denominator among them, over ``den``."""
    entry = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.sampled_from(DENS))
    stored = draw(st.lists(
        st.dictionaries(st.integers(0, 7), entry, min_size=1, max_size=4), max_size=6))
    den = draw(st.integers(1, 12))
    nums = draw(st.dictionaries(st.integers(0, 7), st.integers(-3 * den, 3 * den).filter(bool),
                                max_size=6))
    return stored, nums, den


# Under ``head=min`` the probe hits pivots 0, 1, 2, 3 in that order.
# Column 4 meets four branches of ``linsolve._accumulate``: a new entry
# (1/2), an equal denominator (3/2), one the running denominator divides
# (1/4 over 2) and one that divides it (1/2 over 4); column 5 meets one
# that fits neither (1/2 over 3), and column 6, at 1 in the probe, 1/7.
ACCUMULATE_BRANCHES = (
    [{0: Fraction(1), 4: Fraction(1, 2), 5: Fraction(1, 3)},
     {1: Fraction(1), 4: Fraction(3, 2), 5: Fraction(1, 2)},
     {2: Fraction(1), 4: Fraction(1, 4)},
     {3: Fraction(1), 4: Fraction(1, 2), 6: Fraction(1, 7)}],
    {0: 4, 1: -6, 2: 9, 3: -2, 6: 3}, 6)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(integer_row_cases())
@example(ACCUMULATE_BRANCHES)
@example(([{0: Fraction(1, 2)}], {0: 4, 1: -4}, 4))
@example(([], {2: -5}, 10))
def test_integer_row_reduces_as_its_fractions(case):
    """``coordinates``, ``remainder`` and ``add`` on integer numerators over
    one denominator give exactly what they give on the ``Fraction`` row
    those make, and what the reference echelon gives on it: the same
    coordinates, the same remainder, the same stored rows after the row is
    added."""
    stored, nums, den = case
    row = {c: Fraction(n, den) for c, n in nums.items()}
    for head in (min, max):
        ech, ref = Echelon(head), _ReferenceEchelon(head)
        for key, r in enumerate(stored):
            assert ech.add(r, key) == ref.add(r, key)
        got = _reduce(ech, nums, den)
        assert got == _reduce(ech, row) == ref.reduce(row)
        assert all(type(v) is Fraction for part in got for v in part.values())
        assert ech.add(nums, "new", den) == ref.add(row, "new")
        assert ech.rows == ref.rows


def test_sub_scaled_matches_fraction_arithmetic():
    rng = random.Random(104729)
    for _ in range(200):
        row = {c: _big_fraction(rng) for c in rng.sample(range(8), rng.randint(0, 6))}
        other = {c: _big_fraction(rng) for c in rng.sample(range(8), rng.randint(0, 6))}
        if other and rng.random() < 0.3:   # an entry that cancels exactly
            c = rng.choice(list(other))
            row[c] = other[c] * 3
            factor = Fraction(3)
        else:
            factor = _big_fraction(rng)
        skip = rng.choice([None, *other])
        expected = dict(row)
        _reference_sub_scaled(expected, other, factor, skip)
        sub_scaled(row, other, factor, skip)
        assert row == expected
        assert all(v for v in row.values())


def test_sub_scaled_by_minus_one_is_the_dict_sum():
    """``factor == -1`` keeps ``other``'s own entry where the row has none;
    the result is still the plain sum, with cancelled entries dropped and
    ``skip`` left alone."""
    rng = random.Random(7919)
    for _ in range(200):
        row = {c: _big_fraction(rng) for c in rng.sample(range(8), rng.randint(0, 6))}
        other = {c: _big_fraction(rng) for c in rng.sample(range(8), rng.randint(0, 6))}
        for c in sorted(set(row) & set(other))[:2]:
            row[c] = -other[c]   # cancels exactly
        skip = rng.choice([None, *other])
        expected = dict(row)
        for c, v in other.items():
            if c != skip:
                expected[c] = expected.get(c, Fraction(0)) + v
        sub_scaled(row, other, Fraction(-1), skip)
        assert row == {c: v for c, v in expected.items() if v}
        assert all(type(v) is Fraction and v for v in row.values())
