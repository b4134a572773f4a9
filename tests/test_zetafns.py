"""Power series, periodic radicals, and the torus closed forms."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from floergrowth.zetafns import (
    PowerSeries,
    RadicalRational,
    divisors,
    is_hyperbolic,
    periodic_dims_sequence,
    periodic_zeta,
    radius_estimate,
    symplectic_zeta_series,
    torus_symplectic_zeta,
    weil_zeta_torus,
)
from floergrowth.torus import lefschetz_number
from helpers import (
    exp_of_lefschetz,
    reference_periodic_exponents,
    reference_radical_expansion,
)

ANOSOV = ((2, 1), (1, 1))  # eigenvalues (3 +- sqrt 5)/2
FIB_MAT = ((0, 1), (1, 1))  # eigenvalues (1 +- sqrt 5)/2
SHEAR = ((1, 1), (0, 1))


def series_tuple(ps: PowerSeries) -> tuple:
    return ps.coeffs


@st.composite
def exp_inputs(draw):
    """b_1..b_order, all integral or each integral or not, signed, with parts
    past 2^64."""
    order = draw(st.integers(0, 20))
    ints = st.integers(-(2**70), 2**70)
    b = ints.map(Fraction)
    if draw(st.booleans()):
        b = st.one_of(b, st.builds(Fraction, ints, st.integers(2, 2**70)))
    return draw(st.lists(b, min_size=order, max_size=order))


@settings(max_examples=80, deadline=None)
@given(exp_inputs())
@example([])
@example([Fraction(-3), Fraction(-1, 2)])
@example([Fraction(2**65), Fraction(3, 2**66)])
def test_exp_matches_the_fraction_recurrence(bs):
    """exp of sum a_k t^k, run on n! c_n in ints where it can, equals the
    Fraction recurrence n c_n = sum_k b_k c_(n-k) with b_k = k a_k."""
    order = len(bs)
    coeffs = (0,) + tuple(q / k for k, q in enumerate(bs, 1))
    assert PowerSeries(coeffs, order).exp().coeffs == tuple(exp_of_lefschetz(bs, order))


def test_symplectic_zeta_series_examples():
    assert symplectic_zeta_series([0] * 8, 8).coeffs == tuple([1] + [0] * 8)
    # dims identically 1 gives 1/(1-t)
    assert symplectic_zeta_series([1] * 6, 6).coeffs == tuple([1] * 7)
    # dims 2^n gives 1/(1-2t)
    assert symplectic_zeta_series([2**n for n in range(1, 7)], 6).coeffs == tuple(
        2**k for k in range(7)
    )
    with pytest.raises(ValueError):
        symplectic_zeta_series([1, 2], 5)


def test_radius_estimate_examples():
    assert radius_estimate([1] * 10) == pytest.approx(1.0)
    assert radius_estimate([2**n for n in range(1, 11)]) == pytest.approx(0.5)
    lam = (3 + math.sqrt(5)) / 2
    dims = [abs(lefschetz_number(ANOSOV, n)) for n in range(1, 31)]
    assert abs(radius_estimate(dims) - 1 / lam) / (1 / lam) < 0.02


def test_mobius_and_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]


def test_periodic_exponents_match_mobius_inversion():
    """The divisor-sum exponents equal the Moebius-inversion oracle."""
    rng = random.Random(60)
    for period in range(1, 61):
        dims = {d: rng.randint(-5, 40) for d in divisors(period)}
        assert periodic_zeta(period, dims).factors == reference_periodic_exponents(period, dims)


def test_periodic_zeta_identity_like():
    # period 1, constant dimension k: (1 - t)^(-k)
    z = periodic_zeta(1, {1: 6})
    assert z.factors == ((1, 6),)
    assert z.to_text() == "(1 - t)^(-6)"


def test_periodic_zeta_period_two_and_three():
    z = periodic_zeta(2, {1: 2, 2: 4})
    assert z.factors == ((1, 2), (2, 2))
    assert z.to_text() == "(1 - t)^(-2) * (1 - t^2)^(-1)"
    z = periodic_zeta(3, {1: 1, 3: 4})
    assert z.factors == ((1, 1), (3, 3))
    with pytest.raises(ValueError):
        periodic_zeta(2, {1: 2})
    with pytest.raises(ValueError):
        periodic_zeta(2, {1: 2, 2: 4, 3: 1})


def test_periodic_zeta_matches_series():
    rng = random.Random(157)
    order = 32
    for _ in range(20):
        m = rng.randint(1, 6)
        dims = {d: rng.randint(0, 10) for d in divisors(m)}
        # dimensions of iterates must be consistent with a periodic map:
        # any assignment on divisors extends by gcd, which is what we test
        z = periodic_zeta(m, dims)
        seq = periodic_dims_sequence(m, dims, order)
        assert z.expand(order).coeffs == symplectic_zeta_series(seq, order).coeffs


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30), st.integers(0, 36), st.data())
def test_radical_expansion_matches_binomial_product(period, order, data):
    """expand() equals the product of the rendered factors (1 - t^d)^(-P(d)/d),
    each expanded by the generalized binomial series."""
    dims = {d: data.draw(st.integers(0, 12)) for d in divisors(period)}
    z = periodic_zeta(period, dims)
    want = reference_radical_expansion([(d, Fraction(-p, d)) for d, p in z.factors], order)
    assert z.expand(order).coeffs == tuple(want)


def test_periodic_dims_sequence_gcd_rule():
    dims = {1: 2, 2: 4, 4: 10}
    assert periodic_dims_sequence(4, dims, 8) == [2, 4, 2, 10, 2, 4, 2, 10]


def test_radical_rational_json():
    z = periodic_zeta(2, {1: 2, 2: 4})
    data = z.to_json()
    assert data["period"] == 2
    assert data["factors"] == [
        {"base_power": 1, "dim_exponent": 2, "root_degree": 1},
        {"base_power": 2, "dim_exponent": 2, "root_degree": 2},
    ]


def test_is_hyperbolic():
    assert is_hyperbolic(ANOSOV)
    assert is_hyperbolic(FIB_MAT)
    assert not is_hyperbolic(SHEAR)  # eigenvalue 1
    assert not is_hyperbolic(((0, 1), (-1, 0)))  # rotation, complex modulus 1
    assert not is_hyperbolic(((1, 0), (0, 1)))
    assert not is_hyperbolic(((0, 1), (-1, -1)))  # order 3
    assert is_hyperbolic(((2, 0), (0, 0)))  # eigenvalues 2 and 0
    assert is_hyperbolic(((-2, -1), (-1, -1)))


def test_weil_zeta_examples():
    z = weil_zeta_torus(((1, 0), (0, 1)))
    assert z.numerator == (1,) and z.denominator == (1,)
    z = weil_zeta_torus(ANOSOV)
    assert z.numerator == (1, -3, 1)
    assert z.denominator == (1, -2, 1)  # (1-t)^2
    z = weil_zeta_torus(FIB_MAT)
    assert z.numerator == (1, -1, -1)
    assert z.denominator == (1, 0, -1)  # (1-t)(1+t)


def test_weil_zeta_log_derivative():
    """series of the Weil zeta == exp(sum L_n t^n / n) with L_n = 1 - tr A^n + det^n."""
    rng = random.Random(163)
    order = 16
    for _ in range(20):
        a = tuple(tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(2))
        lefs = []
        power = ((1, 0), (0, 1))
        det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
        for n in range(1, order + 1):
            power = tuple(
                tuple(sum(power[i][k] * a[k][j] for k in range(2)) for j in range(2))
                for i in range(2)
            )
            lefs.append(1 - (power[0][0] + power[1][1]) + det**n)
        body = [Fraction(0)] + [Fraction(l, n) for n, l in enumerate(lefs, start=1)]
        want = PowerSeries(tuple(body), order).exp().coeffs
        assert weil_zeta_torus(a).series(order) == want


def test_torus_symplectic_zeta_closed_forms():
    # one expanding eigenvalue, positive spectrum: reciprocal of the Weil zeta
    z = torus_symplectic_zeta(ANOSOV)
    assert z.numerator == (1, -2, 1)
    assert z.denominator == (1, -3, 1)
    # Fibonacci matrix: eigenvalues 1.618 and -0.618, none below -1, so t
    # keeps its sign and the one expanding direction inverts the Weil zeta
    z = torus_symplectic_zeta(FIB_MAT)
    assert z.numerator == (1, 0, -1)
    assert z.denominator == (1, -1, -1)
    # both eigenvalues negative (trace -3): two expanding directions
    z = torus_symplectic_zeta(((-2, -1), (-1, -1)))
    assert z.numerator == (1, 2, 1)  # (1+t)^2
    assert z.denominator == (1, -3, 1)
    with pytest.raises(ValueError):
        torus_symplectic_zeta(SHEAR)


small = st.integers(-6, 6)


@settings(max_examples=300, deadline=None)
@given(st.tuples(st.tuples(small, small), st.tuples(small, small)))
@example(ANOSOV)  # inverted only
@example(FIB_MAT)  # inverted only
@example(((-2, -1), (-1, -1)))  # eigenvalues -2.618, -0.382: inverted, sigma = -1
@example(((-2, 0), (0, 3)))  # two expanding, one below -1: sigma = -1 only
@example(((-2, 0), (0, -3)))  # two below -1: neither
@example(((1, -2), (2, 1)))  # complex pair of modulus sqrt 5: neither
@example(((2, 0), (0, 0)))  # eigenvalues 2 and 0: inverted only
def test_torus_zeta_series_contract(a):
    """For every hyperbolic A the closed form expands to
    exp(sum |det(I - A^n)| t^n / n) exactly, so the sign rule read from
    L(A) and L(A^2) holds."""
    assume(is_hyperbolic(a))
    order = 16
    dims = [abs(lefschetz_number(a, n)) for n in range(1, order + 1)]
    assert torus_symplectic_zeta(a).series(order) == symplectic_zeta_series(dims, order).coeffs


def test_torus_zeta_radius_matches_spectrum():
    rng = random.Random(167)
    cases = [ANOSOV, FIB_MAT, ((-2, -1), (-1, -1))]
    while len(cases) < 15:
        a = tuple(tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(2))
        det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
        if det != 0 and is_hyperbolic(a):
            cases.append(a)
    for a in cases:
        eigs = np.linalg.eigvals(np.array(a, dtype=float))
        lam = max(abs(w) for w in eigs)
        expanding = sum(1 for w in eigs if abs(w) > 1)
        # the characteristic factor det(I - sigma t A) carries the radius of
        # convergence; it sits in the denominator after an odd number of
        # expanding directions (reciprocal applied), in the numerator otherwise
        zeta = torus_symplectic_zeta(a)
        part = zeta.denominator if expanding % 2 else zeta.numerator
        got = min(abs(w) for w in np.roots([float(c) for c in part][::-1]))
        assert abs(got - 1 / lam) <= 1e-9


def test_torus_iterate_dims_examples():
    """The iterate dimensions of a hyperbolic torus map are |det(I - A^n)|."""
    assert [abs(lefschetz_number(ANOSOV, n)) for n in range(1, 4)] == [1, 5, 16]
    assert [abs(lefschetz_number(FIB_MAT, n)) for n in range(1, 5)] == [1, 1, 4, 5]
