"""Exact rank, integer nullspace and primitive covectors."""

import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wildbraid import linalg


@st.composite
def small_matrices(draw):
    ncols = draw(st.integers(1, 5))
    rows = draw(
        st.lists(st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols), max_size=6)
    )
    return rows, ncols


@given(small_matrices())
def test_nullspace_is_killed_and_rank_nullity_holds(matrix):
    rows, ncols = matrix
    kernel = linalg.integer_nullspace(rows, ncols)
    for x in kernel:
        assert all(isinstance(a, int) for a in x)
        for row in rows:
            assert sum(a * b for a, b in zip(row, x)) == 0
    assert linalg.matrix_rank(rows) + len(kernel) == ncols
    assert linalg.matrix_rank(kernel) == len(kernel)


def test_nullspace_basis_has_unit_free_columns():
    # Free columns 1 and 3; each basis vector is 1 on its own free column.
    rows = [[2, 4, 0, 2], [0, 0, 3, -3]]
    assert linalg.integer_nullspace(rows, 4) == [(-2, 1, 0, 0), (-1, 0, 1, 1)]
    assert linalg.matrix_rank(rows) == 2


def test_rational_rows():
    # The row (1/2, 1/3, 0) cleared of denominators: linalg takes int rows.
    rows = [[3, 2, 0]]
    assert linalg.matrix_rank(rows) == 1
    # Free columns 1 and 2: positive there, and divided by that entry the
    # rational basis with a 1 on its own free column.
    kernel = linalg.integer_nullspace(rows, 3)
    assert kernel == [(-2, 3, 0), (0, 0, 1)]
    assert [tuple(Fraction(a, x[c]) for a in x) for x, c in zip(kernel, (1, 2))] == [
        (Fraction(-2, 3), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
    ]


@pytest.mark.parametrize(
    "v, bad",
    [
        ([1, 0.5], "0.5"),
        ([True, 1], "True"),
        ([Fraction(1, 2), "1", 0.5], "'1'"),
        ([2, None], "None"),
    ],
    ids=["float", "bool", "str-before-float", "none"],
)
def test_cleared_refuses_the_first_inexact_entry(v, bad):
    # A float is not exact and a bool is not a number; the first entry that
    # is neither an int nor a Fraction is the one named.
    with pytest.raises(ValueError, match=f"^row entry {re.escape(bad)} is not an exact rational$"):
        linalg.cleared(v, "row")
    assert linalg.cleared([Fraction(1, 2), 3, Fraction(-2, 3)], "row") == ([3, 18, -4], 6)
