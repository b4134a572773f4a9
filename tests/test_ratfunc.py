"""Rational functions in t with certified root bookkeeping."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floergrowth import ratfunc
from floergrowth.ratfunc import (
    CrossCheckError,
    RationalFunction,
    det_one_minus_t,
    poly_eval,
    poly_gcd_exact,
    poly_mul,
)


def det_reference(mat):
    """det(I - tB) by dense Faddeev-LeVerrier over Fraction."""
    n = len(mat)
    b = [[Fraction(x) for x in row] for row in mat]
    m = [[Fraction(0)] * n for _ in range(n)]
    c = Fraction(1)
    coeffs = [c]
    for k in range(1, n + 1):
        for i in range(n):
            m[i][i] += c
        m = [[sum(b[i][l] * m[l][j] for l in range(n)) for j in range(n)] for i in range(n)]
        c = -sum(m[i][i] for i in range(n)) / k
        coeffs.append(c)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


@st.composite
def integer_matrices(draw, entries=st.one_of(st.integers(-3, 3), st.integers(-10**6, 10**6))):
    """Square integer matrices up to 8x8 with negative entries, some zero
    rows, and sometimes a zero lower-left block (reducible)."""
    n = draw(st.integers(1, 8))
    mat = [[draw(entries) for _ in range(n)] for _ in range(n)]
    for i in draw(st.sets(st.integers(0, n - 1), max_size=n // 2)):
        mat[i] = [0] * n
    if draw(st.booleans()):
        split = draw(st.integers(1, n))
        for i in range(split, n):
            mat[i][:split] = [0] * split
    return mat


def test_poly_helpers():
    assert poly_mul((1, 1), (1, -1)) == (1, 0, -1)
    assert poly_eval((1, -3, 1), 2) == -1
    g = poly_gcd_exact(
        tuple(Fraction(c) for c in (1, 0, -1)),  # (1-t)(1+t)
        tuple(Fraction(c) for c in (1, -1)),
    )
    # gcd is 1 - t up to a scalar
    assert len(g) == 2 and g[1] / g[0] == Fraction(-1)


def test_det_one_minus_t():
    assert det_one_minus_t([[1, 1], [1, 0]]) == (1, -1, -1)
    assert det_one_minus_t([[2, 1], [1, 1]]) == (1, -3, 1)
    assert det_one_minus_t([[2]]) == (1, -2)
    approx = det_one_minus_t([[1.0, 1.0], [1.0, 0.0]])
    assert max(abs(a - b) for a, b in zip(approx, (1, -1, -1))) < 1e-12


@settings(max_examples=150, deadline=None)
@given(integer_matrices())
def test_det_one_minus_t_integer_matches_fraction_reference(mat):
    got = det_one_minus_t(mat)
    assert got == det_reference(mat)
    assert all(type(c) is int for c in got)


@settings(max_examples=150, deadline=None)
@given(integer_matrices(entries=st.integers(-3, 3)))
def test_det_one_minus_t_float_lane_matches_fraction_reference(mat):
    """Small integer entries keep every step of the complex recurrence exact
    in floats, so the float lane must reproduce the integers exactly."""
    got = det_one_minus_t([[complex(x) for x in row] for row in mat])
    assert got == tuple(complex(c) for c in det_reference(mat))
    assert all(type(c) is complex for c in got)


def test_det_one_minus_t_lane_follows_entries():
    """Integer entries run the integer recurrence; a Fraction or a float
    anywhere sends the whole matrix to the complex recurrence."""
    assert det_one_minus_t([[2, 1], [1, 1]]) == (1, -3, 1)
    for mat, want in (([[Fraction(1, 2)]], (1, -0.5)), ([[1.0, 0], [0, 1]], (1, -2, 1))):
        got = det_one_minus_t(mat)
        assert got == want and all(type(c) is complex for c in got)


def test_det_one_minus_t_division_check(monkeypatch):
    """A wrong product makes some trace indivisible by its step; the
    recurrence must raise rather than round."""
    def all_ones(rows, b):  # trace 3 at every step, which 2 does not divide
        return [[1] * len(b) for _ in b]

    monkeypatch.setattr(ratfunc, "sparse_mat_mul", all_ones)
    with pytest.raises(CrossCheckError, match="step 2: trace is not divisible by 2"):
        det_one_minus_t([[0] * 3 for _ in range(3)])


def test_exact_gcd_cancellation():
    # (1-t)(1-2t) over (1-t) collapses to 1-2t
    rf = RationalFunction.from_parts((1, -3, 2), (1, -1))
    assert rf.numerator == (1, -2)
    assert rf.denominator == (1,)
    assert rf.exact


def test_float_root_cancellation():
    # numerator roots {1/2, 1}, denominator root 1/2 + 1e-9: the near pair
    # cancels and is recorded
    den_root = 0.5 + 1e-9
    rf = RationalFunction.from_parts((1.0, -3.0, 2.0), (1.0, -1.0 / den_root))
    assert len(rf.cancelled) == 1
    assert rf.denominator == (1,)
    assert not rf.exact
    assert abs(rf.min_root_modulus() - 1.0) < 1e-6


def test_constant_term_must_be_one():
    with pytest.raises(ValueError):
        RationalFunction((0, 1), (1,))
    with pytest.raises(ValueError):
        RationalFunction((1,), (2, 1))


def test_series_expansion():
    rf = RationalFunction.from_parts((1, -2), (1, -1))
    assert rf.series(5) == (1, -1, -1, -1, -1, -1)
    fib = RationalFunction.from_parts((1,), (1, -1, -1))
    assert fib.series(7) == (1, 1, 2, 3, 5, 8, 13, 21)
    assert all(isinstance(c, Fraction) for c in fib.series(3))


def test_substitute_sign_and_reciprocal():
    rf = RationalFunction.from_parts((1, -1), (1, -2))
    flipped = rf.substitute_sign(-1)
    assert flipped.numerator == (1, 1)
    assert flipped.denominator == (1, 2)
    assert rf.substitute_sign(1) == rf
    rec = rf.reciprocal()
    assert rec.numerator == rf.denominator and rec.denominator == rf.numerator
    with pytest.raises(ValueError):
        rf.substitute_sign(2)


def test_roots_and_min_modulus():
    rf = RationalFunction.from_parts((1, -3, 1), (1, -1))
    num_roots, den_roots = rf.roots()
    values = sorted(abs(w) for w, _ in num_roots)
    assert abs(values[0] - 0.3819660) < 1e-6
    assert abs(values[1] - 2.6180339) < 1e-6
    assert all(res <= 1e-8 for _, res in num_roots + den_roots)
    assert abs(rf.min_root_modulus() - 0.3819660) < 1e-6
    constant = RationalFunction((Fraction(1),), (Fraction(1),))
    assert constant.min_root_modulus() == float("inf")


def test_to_text():
    rf = RationalFunction.from_parts((1, -2), (1, -1))
    assert rf.to_text() == "(1 - 2 t) / (1 - t)"
    sq = RationalFunction.from_parts((1, -2, 1), (1,))
    assert sq.to_text() == "(1 - 2 t + t^2) / (1)"
