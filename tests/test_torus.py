"""Exact fixed-point counting for linear torus maps."""

import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from floergrowth.freegroup import Endomorphism, mat_identity, mat_pow, mat_sub
from floergrowth.groupring import NormInterval, reidemeister_interval
from floergrowth.growth import growth_estimate
from floergrowth.torus import fixed_point_count, lefschetz_number, nielsen_sequence
from floergrowth.zetafns import (
    _trace_det,
    is_hyperbolic,
    symplectic_zeta_series,
    torus_symplectic_zeta,
)
from helpers import NIELSEN_MOVES, det2_of_power_minus_identity, reference_torus_points

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
def test_count_matches_fraction_reference(a, n):
    """The Smith count is |det(A^n - I)|, and so is the number of points in
    the Fraction closure of the columns of (A^n - I)^{-1}, which uses no
    Smith form; negative determinants included."""
    m = mat_sub(mat_pow(a, n), mat_identity(2))
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    assume(0 < abs(det) <= 3000)
    assert fixed_point_count(a, n) == len(reference_torus_points(m)) == abs(det)


def test_nielsen_sequence_examples():
    assert nielsen_sequence(ANOSOV, 3) == [1, 5, 16]
    assert nielsen_sequence(FIB_MAT, 4) == [1, 1, 4, 5]
    with pytest.raises(ValueError):
        nielsen_sequence(SHEAR, 3)
    with pytest.raises(ValueError):
        nielsen_sequence(((0, 1), (-1, 0)), 2)  # rotation


def test_nielsen_sequence_large_iterates():
    # at n = 30 the count is ~ lambda^30 ~ 3.7e12
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


ORACLE_MAX_STATES = 500


def _f2(a_image: str, b_image: str) -> Endomorphism:
    return Endomorphism.from_images_text([a_image, b_image])


def _punctured_torus_norm(phi: Endomorphism, n: int) -> int:
    """N(A^n) + sign(tr A^n) det(A)^n with N from the torus lane, checked
    against |1 - tr A^n|."""
    a = phi.abelianize()
    tau, delta = _trace_det(mat_pow(a, n))
    want = fixed_point_count(a, n) + (1 if tau > 0 else -1) * delta
    assert want == abs(1 - tau)
    return want


def _oracle_check(phi: Endomorphism, n: int) -> bool:
    """Assert the group-ring bracket holds the torus-lane norm; say whether
    it is certified."""
    want = _punctured_torus_norm(phi, n)
    got = reidemeister_interval(phi, n, max_states=ORACLE_MAX_STATES)
    if got.certified:
        assert got.lower == got.upper == want, (phi, n, got, want)
    else:
        assert got.lower <= want <= got.upper, (phi, n, got, want)
    return got.certified


def test_punctured_torus_norms_match_torus_counts():
    """Trace norms of once-punctured-torus maps against closed-torus counts.

    Let phi be an automorphism of F_2 = pi_1 of the once-punctured torus
    (a rose of two circles up to homotopy) whose abelianization A is
    hyperbolic, and write tau = tr A^n, delta = det(A)^n = +-1, s = sign tau.
    On the rose, L(phi^n) = 1 - tau.  On the closed torus the Anosov map
    A^n has N(A^n) = |L(A^n)| = |1 - tau + delta| fixed points
    (Brooks, Brown, Pak and Taylor, Proc. AMS 52, 1975).  Hyperbolicity
    gives |tau| > 1 + delta >= 0, so 1 - tau + delta has the sign -s and
    N(A^n) = s(tau - 1) - s delta; since tau != 0, s(tau - 1) = |1 - tau|.
    Hence

        N(A^n) + sign(tr A^n) det(A)^n = |1 - tr A^n| = |L(phi^n)|.

    The norm of the Reidemeister trace is at least |L(phi^n)|, with
    equality exactly when every essential fixed-point class of phi^n has
    the same index sign, and that is what the certified intervals show.
    The group-ring lane (Fox calculus, orbit labels, conjugacy search) and
    the torus lane (Smith form and determinant) share no code, so each
    checks the other.
    """
    rng = random.Random(42)
    pairs = certified = maps = 0
    while maps < 60:
        phi = _f2("a", "b")
        for _ in range(rng.randint(2, 4)):
            phi = _f2(*rng.choice(NIELSEN_MOVES)).compose(phi)
        a = phi.abelianize()
        if not is_hyperbolic(a):
            continue
        maps += 1
        for n in range(1, 5):
            if abs(lefschetz_number(a, n)) <= 60:
                pairs += 1
                certified += _oracle_check(phi, n)
    assert pairs >= 200 and certified >= 0.9 * pairs, (pairs, certified)


@pytest.mark.parametrize(
    "images,norms",
    [
        (("a b", "a"), [0, 2, 3, 6]),  # golden
        (("a a b", "a b"), [2, 6, 17, 46]),  # cat
    ],
    ids=["golden", "cat"],
)
def test_punctured_torus_corpus_norms(images, norms):
    phi = _f2(*images)
    assert [_punctured_torus_norm(phi, n) for n in range(1, 5)] == norms
    assert all(_oracle_check(phi, n) for n in range(1, 5))


def test_punctured_torus_sign_term_and_containment():
    # tr A = -1 and det A = -1: N(A) + det A = 0, but the norm is 2
    flip = _f2("B A", "A")
    assert _trace_det(flip.abelianize())[0] == -1
    assert fixed_point_count(flip.abelianize(), 1) == 1
    assert _punctured_torus_norm(flip, 1) == 2
    assert _oracle_check(flip, 1)
    # 500 states leave this pair uncertified at [5, 7]; the norm 5 lies inside
    slow = _f2("A B", "B A A")
    assert reidemeister_interval(slow, 2, max_states=ORACLE_MAX_STATES) == NormInterval(5, 7, False)
    assert not _oracle_check(slow, 2)
