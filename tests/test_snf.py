"""Smith normal form over the integers."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from floergrowth.snf import smith_normal_form
from helpers import mat_mul, reference_det


def verify(mat):
    """Check the SNF contract on one matrix and return the diagonal entries."""
    d, p, q = smith_normal_form(mat)
    rows, cols = len(mat), len(mat[0])
    assert type(d) is tuple and len(d) == min(rows, cols)
    d_mat = tuple(tuple(d[i] if i == j else 0 for j in range(cols)) for i in range(rows))
    assert mat_mul(mat_mul(p, mat), q) == d_mat
    assert all(x >= 0 for x in d)
    for a, b in zip(d, d[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    assert abs(reference_det([list(r) for r in p])) == 1
    assert abs(reference_det([list(r) for r in q])) == 1
    return d


def test_small_cases():
    assert verify([[-1]]) == (1,)
    assert verify([[0]]) == (0,)
    assert verify([[2, 4], [6, 8]]) == (2, 4)
    assert verify([[1, 0], [0, 1]]) == (1, 1)
    assert verify([[0, 0], [0, 0]]) == (0, 0)
    # golden-map relation matrix I - A has unit determinant
    assert verify([[0, -1], [-1, 1]]) == (1, 1)
    # rectangular input
    assert verify([[2, 0, 0], [0, 3, 0]]) == (1, 6)


def test_random_matrices():
    rng = random.Random(127)
    for _ in range(150):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        mat = [[rng.randint(-6, 6) for _ in range(m)] for _ in range(n)]
        d = verify(mat)
        assert len(d) == min(n, m)


def test_determinant_is_preserved_up_to_sign():
    rng = random.Random(131)
    for _ in range(60):
        n = rng.randint(1, 3)
        mat = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        d = verify(mat)
        prod = 1
        for x in d:
            prod *= x
        assert prod == abs(reference_det(mat))


@st.composite
def matrices_with_zero_lines(draw):
    """Integer matrices up to 5x5, some of whose rows and columns are zero."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    mat = [[draw(st.integers(-9, 9)) for _ in range(cols)] for _ in range(rows)]
    for i in draw(st.sets(st.integers(0, rows - 1))):
        mat[i] = [0] * cols
    for j in draw(st.sets(st.integers(0, cols - 1))):
        for row in mat:
            row[j] = 0
    return mat


@settings(max_examples=300, deadline=None)
@given(matrices_with_zero_lines())
def test_contract_with_zero_rows_and_columns(mat):
    d = verify(mat)
    nonzero = sum(1 for x in d if x)
    assert nonzero <= min(
        sum(1 for row in mat if any(row)), sum(1 for col in zip(*mat) if any(col))
    )
