from fractions import Fraction

import pytest

from phasealg.linsolve import nullspace


@pytest.mark.xfail(
    strict=True,
    reason="sparse_rref stops reducing a new row at its first non-pivot column, "
    "so a stored row can keep another pivot column",
)
def test_nullspace_vectors_solve_every_row():
    rows = [{1: Fraction(1), 3: Fraction(2)}, {0: Fraction(1), 1: Fraction(1)}]
    basis = nullspace(rows, 4)
    assert len(basis) == 2
    for vec in basis:
        for row in rows:
            assert sum(v * vec[c] for c, v in row.items()) == 0
