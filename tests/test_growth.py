"""Growth proxies and the lower/upper bound sandwich."""

import math
import random

import numpy as np
import pytest

from floergrowth.foxcalc import chain_matrices
from floergrowth.freegroup import Endomorphism
from floergrowth.growth import (
    GrowthReport,
    _strong_components,
    full_report,
    growth_estimate,
    lower_bound_zeta,
    spectral_radius,
    upper_bound_norm,
    upper_bound_spectral,
)
from floergrowth.groupring import norm_matrix, reidemeister_interval
from helpers import fibonacci, random_endo, reference_strong_components

PHI = (1 + math.sqrt(5)) / 2


def test_growth_estimate_flat_and_geometric():
    assert growth_estimate([0, 0, 0, 0]).value == 1.0
    assert growth_estimate([1, 1, 1, 1, 1]).value == 1.0
    assert growth_estimate([3**n for n in range(1, 9)]).value == pytest.approx(3.0, abs=1e-12)
    est = growth_estimate([2**n for n in range(1, 11)])
    assert est.value == pytest.approx(2.0)
    assert est.window_start == 6 and est.n_terms == 10
    with pytest.raises(ValueError):
        growth_estimate([1, 2])
    with pytest.raises(ValueError):
        growth_estimate([1, -1, 2])


def test_growth_estimate_fibonacci_tail():
    """The 30-term proxy sits about 2.7% below the golden ratio."""
    seq = [fibonacci(n) for n in range(1, 31)]
    proxy = growth_estimate(seq).value
    binet = max(
        (round(PHI**n / math.sqrt(5))) ** (1.0 / n) for n in range(16, 31)
    )
    assert proxy == pytest.approx(binet, rel=1e-12)
    assert abs(proxy - PHI) / PHI < 0.03
    assert proxy < PHI  # finite windows undershoot for this sequence


def test_growth_estimate_scale_invariance():
    """Scaling shifts each window term by c^(1/n); over n = 16..30 that is
    worth up to 3^(1/16) - 1 = 7.1%, and the measured drift on Fibonacci is
    4.7% for c = 3, so 5% is the honest invariance tolerance here."""
    seq = [fibonacci(n) for n in range(1, 31)]
    base = growth_estimate(seq).value
    for c in (0.5, 3.0):
        scaled = growth_estimate([c * x for x in seq]).value
        assert abs(scaled - base) / base < 0.05


def test_spectral_radius_examples():
    assert spectral_radius(((1, 0), (0, 1))) == pytest.approx(1.0, abs=1e-12)
    assert spectral_radius(((2,),)) == pytest.approx(2.0, abs=1e-12)
    assert spectral_radius(((1, 1), (1, 0))) == pytest.approx(PHI, abs=1e-12)
    assert spectral_radius(((0, 0), (0, 0))) == pytest.approx(0.0, abs=1e-12)


def test_spectral_radius_against_numpy():
    rng = random.Random(139)
    for _ in range(60):
        n = rng.randint(1, 4)
        mat = tuple(tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(n))
        want = max(abs(w) for w in np.linalg.eigvals(np.array(mat, dtype=float)))
        assert spectral_radius(mat) == pytest.approx(want, abs=1e-8)


def test_upper_bounds_examples(identity2, doubling, golden):
    assert upper_bound_norm(identity2) == 2.0
    assert upper_bound_norm(doubling) == 2.0
    assert upper_bound_norm(golden) == 3.0
    assert upper_bound_spectral(identity2) == pytest.approx(1.0, abs=1e-12)
    assert upper_bound_spectral(doubling) == pytest.approx(2.0, abs=1e-12)
    assert upper_bound_spectral(golden) == pytest.approx(PHI, abs=1e-12)


def test_lower_bound_zeta_examples(identity2, doubling, golden):
    assert lower_bound_zeta(identity2) == pytest.approx(1.0, abs=1e-12)
    assert lower_bound_zeta(doubling) == pytest.approx(2.0, abs=1e-12)
    assert lower_bound_zeta(golden) == pytest.approx(PHI, abs=1e-9)


def test_bound_sandwich_random():
    rng = random.Random(149)
    for _ in range(40):
        f = random_endo(rng, rng.randint(1, 3), 4)
        lower = lower_bound_zeta(f)
        spectral = upper_bound_spectral(f)
        total = upper_bound_norm(f)
        assert lower <= spectral + 1e-6
        assert spectral <= total + 1e-6


def test_full_report_identity(identity2):
    report = full_report(identity2)
    assert report.lower_bound == pytest.approx(1.0)
    assert report.upper_bound_spectral == pytest.approx(1.0)
    assert report.upper_bound_norm == pytest.approx(2.0)
    assert report.sequence_estimate == pytest.approx(1.0)
    assert report.entropy_log["lower_bound"] == pytest.approx(0.0)


def test_full_report_doubling(doubling):
    report = full_report(doubling)
    assert report.lower_bound == pytest.approx(2.0, abs=1e-9)
    assert report.upper_bound_spectral == pytest.approx(2.0, abs=1e-9)
    assert report.upper_bound_norm == pytest.approx(2.0)
    # the 6-term proxy from interval uppers (2^n - 1) deliberately undershoots
    assert report.sequence_estimate == pytest.approx((2**6 - 1) ** (1 / 6), abs=1e-9)
    assert 0.95 * report.lower_bound <= report.sequence_estimate <= report.upper_bound_norm + 1e-9


def test_full_report_golden(golden):
    report = full_report(golden)
    assert report.lower_bound == pytest.approx(PHI, abs=1e-9)
    assert report.upper_bound_spectral == pytest.approx(PHI, abs=1e-9)
    assert report.upper_bound_norm == pytest.approx(3.0)
    assert report.window == (4, 6)
    # interval uppers are 0,2,3,6,10,17; the window max lands on 17^(1/6)
    assert report.sequence_estimate == pytest.approx(17 ** (1 / 6), abs=1e-9)
    data = report.to_json()
    assert set(data) == {
        "lower_bound",
        "upper_bound_spectral",
        "upper_bound_norm",
        "sequence_estimate",
        "entropy_log",
        "provenance",
        "window",
    }


def test_full_report_with_supplied_dims(golden):
    dims = [round(PHI**n) for n in range(1, 21)]
    report = full_report(golden, dims=dims)
    assert report.window == (11, 20)
    assert abs(report.sequence_estimate - PHI) / PHI < 0.02


def test_interval_uppers_sit_inside_bounds(corpus):
    """Finite-window proxies of certified norms against the asymptotic
    sandwich, with 5% slack on the lower side for the window truncation."""
    for f in corpus.values():
        uppers = [reidemeister_interval(f, n).upper for n in range(1, 7)]
        proxy = growth_estimate(uppers).value
        assert 0.95 * lower_bound_zeta(f) <= proxy <= upper_bound_norm(f) + 1e-9


def test_spectral_power_law(corpus):
    for f in corpus.values():
        base = upper_bound_spectral(f)
        for k in (2, 3):
            assert upper_bound_spectral(f.iterate(k)) <= base**k + 1e-6


def test_growth_report_is_frozen(golden):
    report = full_report(golden)
    assert isinstance(report, GrowthReport)
    with pytest.raises(AttributeError):
        report.lower_bound = 2.0


def test_strong_components_are_mutual_reachability_classes():
    rng = random.Random(41)
    for _ in range(400):
        n = rng.randint(0, 10)
        mat = [[rng.choice((0, 0, 0, 1, 2)) for _ in range(n)] for _ in range(n)]
        comps = _strong_components(mat)
        assert sorted(v for comp in comps for v in comp) == list(range(n))
        assert {frozenset(comp) for comp in comps} == reference_strong_components(mat)


def test_spectral_radius_is_a_python_float(golden):
    cat = Endomorphism.from_images_text(["a a b", "a b"])
    r3 = Endomorphism.from_images_text(["a b", "b c", "c a B"])
    for f in (golden, cat, r3):
        for m in chain_matrices(f):
            assert type(spectral_radius(norm_matrix(m))) is float
    assert type(full_report(golden).upper_bound_spectral) is float
