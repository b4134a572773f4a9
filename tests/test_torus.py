"""Exact fixed-point counting for linear torus maps."""

import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from floergrowth.freegroup import mat_identity, mat_pow, mat_sub
from floergrowth.growth import growth_estimate
from floergrowth.snf import smith_normal_form
from floergrowth.torus import (
    _enumerate_count,
    fixed_point_count,
    lefschetz_number,
    nielsen_sequence,
)
from floergrowth.zetafns import symplectic_zeta_series, torus_symplectic_zeta
from helpers import det2_of_power_minus_identity, reference_torus_points

ANOSOV = ((2, 1), (1, 1))
FIB_MAT = ((0, 1), (1, 1))
SHEAR = ((1, 1), (0, 1))


def test_lefschetz_examples():
    assert lefschetz_number(((1, 0), (0, 1)), 1) == 0
    assert lefschetz_number(ANOSOV, 1) == -1
    assert lefschetz_number(ANOSOV, 2) == -5
    assert lefschetz_number(ANOSOV, 3) == -16
    assert lefschetz_number(FIB_MAT, 2) == -1
    with pytest.raises(ValueError):
        lefschetz_number(ANOSOV, 0)
    with pytest.raises(ValueError):
        lefschetz_number(((1, 2, 3),), 1)


def test_fixed_point_count_examples():
    assert fixed_point_count(ANOSOV, 1) == 1
    assert fixed_point_count(ANOSOV, 2) == 5
    assert fixed_point_count(FIB_MAT, 2) == 1
    # doubling in both directions: (2^n - 1)^2 fixed points
    twice = ((2, 0), (0, 2))
    assert fixed_point_count(twice, 1) == 1
    assert fixed_point_count(twice, 2) == 9
    with pytest.raises(ValueError):
        fixed_point_count(((1, 0), (0, 1)), 1)  # identity: nothing isolated
    with pytest.raises(ValueError):
        fixed_point_count(SHEAR, 3)  # shear keeps a circle of fixed points
    with pytest.raises(ValueError):
        fixed_point_count(((2, 0), (0, 1)), 1)  # one neutral direction


def test_counts_match_determinant_oracle():
    rng = random.Random(173)
    checked = 0
    while checked < 60:
        a = tuple(tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(2))
        n = rng.randint(1, 4)
        want = abs(det2_of_power_minus_identity(a, n))
        if want == 0 or want > 10_000:
            continue
        assert fixed_point_count(a, n) == want
        assert abs(lefschetz_number(a, n)) == want
        checked += 1


entries = st.integers(-5, 5)


@settings(max_examples=150, deadline=None)
@given(st.tuples(st.tuples(entries, entries), st.tuples(entries, entries)), st.integers(1, 4))
@example(((2, 3), (1, -2)), 1)  # det(A - I) = -6, Smith diagonal (1, 6)
@example(((1, 2), (3, 4)), 2)  # det(A^2 - I) = -24, Smith diagonal (1, 24)
@example(((-3, 0), (0, 5)), 1)  # det(A - I) = -16, Smith diagonal (4, 4)
@example(((-3, 1), (-1, 0)), 3)  # det(A^3 - I) = 20, Smith diagonal (2, 10)
def test_enumeration_matches_fraction_reference(a, n):
    """The integer coset walk counts |det(A^n - I)| points, and so does the
    Fraction closure of the columns of (A^n - I)^{-1}; negative determinants
    included."""
    m = mat_sub(mat_pow(a, n), mat_identity(2))
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    assume(0 < abs(det) <= 3000)
    d, p, _ = smith_normal_form(m)
    assert _enumerate_count(m, det, *d, p) == abs(det)
    assert len(reference_torus_points(m)) == abs(det)


def test_nielsen_sequence_examples():
    assert nielsen_sequence(ANOSOV, 3) == [1, 5, 16]
    assert nielsen_sequence(FIB_MAT, 4) == [1, 1, 4, 5]
    with pytest.raises(ValueError):
        nielsen_sequence(SHEAR, 3)
    with pytest.raises(ValueError):
        nielsen_sequence(((0, 1), (-1, 0)), 2)  # rotation


def test_nielsen_sequence_large_iterates_skip_enumeration():
    # at n = 30 the count is ~ lambda^30 ~ 3.7e12, far past the enumeration
    # budget, so only the Smith product runs
    seq = nielsen_sequence(ANOSOV, 30)
    lam = (3 + math.sqrt(5)) / 2
    assert seq[-1] > 10_000
    assert abs(growth_estimate(seq).value - lam) / lam < 0.02


def test_nielsen_growth_fibonacci_matrix():
    seq = nielsen_sequence(FIB_MAT, 30)
    lam = (1 + math.sqrt(5)) / 2
    assert abs(growth_estimate(seq).value - lam) / lam < 0.02


def test_nielsen_matches_zeta_series():
    order = 16
    for a in (ANOSOV, FIB_MAT):
        want = symplectic_zeta_series(nielsen_sequence(a, order), order).coeffs
        assert torus_symplectic_zeta(a).series(order) == want

