"""Rational functions in t with certified root bookkeeping."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from floergrowth import ratfunc
from floergrowth.ratfunc import (
    CrossCheckError,
    RationalFunction,
    det_one_minus_t,
    poly_eval,
    poly_gcd_exact,
    poly_mul,
    poly_roots,
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


# poly_roots against np.roots, which serves only as a test oracle

COEFFICIENT_LISTS = st.one_of(
    st.lists(st.integers(-100, 100), min_size=2, max_size=65),
    st.lists(
        st.complex_numbers(min_magnitude=0.1, max_magnitude=10, allow_nan=False, allow_infinity=False),
        min_size=2,
        max_size=65,
    ),
)


def numpy_roots(coeffs):
    return [complex(w) for w in np.roots(np.array(coeffs[::-1], dtype=complex))]


def condition(coeffs, w):
    """Horner's rounding bound at a root over |p'(w)| max(1, |w|): the
    growth of a relative coefficient error into the root's error."""
    bound = sum(abs(c) * abs(w) ** i for i, c in enumerate(coeffs))
    slope = sum(i * c * w ** (i - 1) for i, c in enumerate(coeffs) if i)
    return bound / (abs(slope) * max(1.0, abs(w))) if slope else math.inf


def assert_same_multiset(got, want, tol):
    """Each got root takes the nearest unused want root, within
    tol * max(1, |root|)."""
    want = list(want)
    assert len(got) == len(want)
    for w in got:
        i = min(range(len(want)), key=lambda i: abs(want[i] - w))
        assert abs(want.pop(i) - w) <= tol * max(1.0, abs(w)), (w, got)


@settings(max_examples=150, deadline=None)
@given(COEFFICIENT_LISTS)
def test_poly_roots_match_numpy_on_simple_roots(coeffs):
    """Random integer and complex polynomials of degree 1-64 whose roots are
    simple (condition at most 1e4) give numpy's roots within 1e-9."""
    assume(coeffs[0] != 0 and coeffs[-1] != 0)
    want = numpy_roots(coeffs)
    assume(all(condition(coeffs, w) <= 1e4 for w in want))
    assert_same_multiset(poly_roots(coeffs), want, 1e-9)


@settings(max_examples=150, deadline=None)
@given(COEFFICIENT_LISTS.filter(lambda c: len(c) <= 25 and c[0] != 0 and c[-1] != 0))
def test_poly_roots_rebuild_the_coefficients(coeffs):
    """a_0 times the product of (1 - t/w) over the roots gives the
    coefficients back within 1e-8 max |a_i|.  Degrees stop at 24: past
    that the product itself cancels so much that np.roots's roots miss
    this bar too (1e-5 at degree 48, 0.2 at degree 64)."""
    prod = [complex(coeffs[0])]
    for w in poly_roots(coeffs):
        prod = list(poly_mul(prod, (1, -1 / w)))
    scale = max(abs(c) for c in coeffs)
    assert max(abs(a - b) for a, b in zip(prod, coeffs)) <= 1e-8 * scale


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-9, 9), max_size=12), st.integers(0, 5), st.integers(0, 3))
def test_poly_roots_zero_coefficients_like_numpy(coeffs, low_zeros, high_zeros):
    """Zero coefficients below the lowest nonzero one give roots at 0 and
    zero top coefficients are dropped, so the root count and the number
    of zero roots are numpy's."""
    p = [0] * low_zeros + coeffs + [0] * high_zeros
    got, want = poly_roots(p), numpy_roots(p)
    assert len(got) == len(want)
    assert sum(w == 0 for w in got) == sum(w == 0 for w in want)


def cyclotomic(n):
    """Integer coefficients of the n-th cyclotomic polynomial, constant term
    first: t^n - 1 divided by every Phi_d for d a proper divisor of n."""
    p = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            q = cyclotomic(d)
            quot = [0] * (len(p) - len(q) + 1)
            for k in range(len(quot) - 1, -1, -1):
                quot[k] = p[k + len(q) - 1]  # Phi_d is monic
                for i, x in enumerate(q):
                    p[k + i] -= quot[k] * x
            p = quot
    return p


def primitive_roots_of_unity(n):
    return [cmath.exp(2j * math.pi * k / n) for k in range(n) if math.gcd(k, n) == 1]


def test_poly_roots_of_repeated_factors():
    """(1 - t)^2 (1 + t)^3: a root of multiplicity k is found only to about
    eps^(1/k), so every root lies within 1e-4 of its true value."""
    p = poly_mul(poly_mul((1, -2, 1), (1, 1)), (1, 2, 1))
    assert_same_multiset(poly_roots(p), [1, 1, -1, -1, -1], 1e-4)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 10, 12]), st.integers(1, 2), min_size=1))
def test_poly_roots_of_cyclotomic_products(multiplicity):
    """Products of cyclotomic polynomials, each at most squared, give every
    root of unity within 1e-4."""
    p, truth = (1,), []
    for n, k in multiplicity.items():
        for _ in range(k):
            p = poly_mul(p, cyclotomic(n))
            truth += primitive_roots_of_unity(n)
    assert_same_multiset(poly_roots(p), truth, 1e-4)


def test_poly_roots_sweep_cap_raises(monkeypatch):
    """Roots still moving when the sweeps run out are an error, never a
    silent answer."""
    monkeypatch.setattr(ratfunc, "MAX_ROOT_SWEEPS", 1)
    with pytest.raises(CrossCheckError, match="still moving after 1 sweeps"):
        poly_roots([1, -3, 1, 5, 2])


def test_float_cancellation_keeps_the_other_coefficients():
    """A common root well inside the others, |w| = 0.1, divides out of both
    parts of degree 31 without disturbing the coefficients left: synthetic
    division runs up from the constant term only while that is stable."""
    w = 0.1 * cmath.exp(0.7j)
    num = [1.0] + [math.sin(k) for k in range(1, 31)]
    den = [1.0] + [math.cos(k) / 2 for k in range(1, 31)]
    rf = RationalFunction.from_parts(poly_mul(num, (1, -1 / w)), poly_mul(den, (1, -1 / w)))
    assert len(rf.cancelled) == 1
    for got, want in ((rf.numerator, num), (rf.denominator, den)):
        assert len(got) == len(want)
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-9
