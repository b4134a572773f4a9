"""Acceptance gate: eleven end-to-end criteria, one printed verdict line each.

Run with ``python3 -m pytest tests/test_acceptance.py -s`` to see the lines.
Every expected value is either exact arithmetic or carries the stated
tolerance next to the check.
"""

import functools
import math
import random
import time
from fractions import Fraction

import numpy as np

from floergrowth.foxcalc import (
    RingElem,
    RingMatrix,
    fox_derivative,
    jacobian,
)
from floergrowth.freegroup import (
    Endomorphism,
    Word,
    mat_identity,
    mat_pow,
    mat_sub,
)
from floergrowth.groupring import matrix_norm, norm_matrix, reidemeister_interval
from floergrowth.growth import (
    growth_estimate,
    lower_bound_zeta,
    upper_bound_norm,
    upper_bound_spectral,
)
from floergrowth.mappingclass import ClassSpec, ComponentSpec, assemble_dim, graph_manifold_test
from floergrowth.reptheory import (
    Representation,
    abelian_quotient_rep,
    trivial_representation,
    twisted_lefschetz,
    twisted_zeta,
)
from floergrowth.torus import nielsen_sequence
from floergrowth.zetafns import (
    divisors,
    periodic_zeta,
    radius_estimate,
    symplectic_zeta_series,
    torus_symplectic_zeta,
)
from helpers import exp_of_lefschetz, random_endo, random_reduced_word

CORPUS = {
    "identity2": Endomorphism.from_images_text(["a", "b"]),
    "doubling": Endomorphism.from_images_text(["a a"]),
    "golden": Endomorphism.from_images_text(["a b", "a"]),
    "swap": Endomorphism.from_images_text(["b", "a"]),
}
# moduli where the abelianization stays invertible, one permutation rep each
MODULI = {"identity2": 2, "doubling": 3, "golden": 2, "swap": 2}

ANOSOV = ((2, 1), (1, 1))
FIB_MAT = ((0, 1), (1, 1))
PHI = (1 + math.sqrt(5)) / 2
LAM = (3 + math.sqrt(5)) / 2


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number:02d} failed: {detail}"


@functools.lru_cache(maxsize=1)
def endo_pairs():
    rng = random.Random(223)
    pairs = []
    for _ in range(200):
        rank = rng.randint(1, 3)
        pairs.append((random_endo(rng, rank, 6), random_endo(rng, rank, 6)))
    return tuple(pairs)


def det2(m) -> int:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def rational_spectral_upper(b) -> Fraction:
    """Exact rational >= spectral radius of nonnegative b, by Collatz-Wielandt:
    for any positive v, max_i (Bv)_i / v_i dominates the spectral radius."""
    size = len(b)
    v = [1] * size
    for _ in range(12):
        v = [sum(b[i][j] * v[j] for j in range(size)) + v[i] for i in range(size)]
    bv = [sum(b[i][j] * v[j] for j in range(size)) for i in range(size)]
    return max(Fraction(bv[i], v[i]) for i in range(size))


def test_criterion_01_fox_fundamental_identity():
    rng = random.Random(211)
    start = time.perf_counter()
    failures = 0
    for _ in range(1000):
        rank = rng.randint(1, 4)
        w = random_reduced_word(rng, rank, 30)
        total = RingElem.zero()
        for j in range(1, rank + 1):
            step = RingElem.monomial(Word((j,))) - RingElem.one()
            total = total + fox_derivative(w, j) * step
        if total != RingElem.monomial(w) - RingElem.one():
            failures += 1
    elapsed = time.perf_counter() - start
    verdict(
        1,
        failures == 0 and elapsed < 5.0,
        f"1000 random words (rank<=4, len<=30), {failures} failures, {elapsed:.2f}s (<5s)",
    )


def test_criterion_02_chain_rule():
    failures = 0
    for f, g in endo_pairs():
        direct = jacobian(f.compose(g))
        pushed = jacobian(g).map_entries(lambda x: x.map_words(f))
        if direct != pushed * jacobian(f):
            failures += 1
    verdict(2, failures == 0, f"200 random endomorphism pairs, {failures} failures, exact")


def test_criterion_03_augmentation_bridge():
    maps = [h for pair in endo_pairs() for h in pair]
    failures = sum(1 for f in maps if jacobian(f).augment() != f.abelianize())
    verdict(3, failures == 0, f"{len(maps)} maps, jacobian augment == abelianization, {failures} failures")


def test_criterion_04_twisted_zeta_series_identity():
    order = 16
    exact_matches = 0
    ok = True
    for name, f in CORPUS.items():
        reps = [trivial_representation(f.rank), abelian_quotient_rep(f, MODULI[name])]
        for rep in reps:
            lefs = twisted_lefschetz(f, rep, order)
            want = exp_of_lefschetz(lefs, order, exact=True)
            got = list(twisted_zeta(f, rep).series(order))
            ok = ok and got == want
            exact_matches += 1
    # one numerical case: the unitary character a -> 1, z -> -1 on the doubling map
    f = CORPUS["doubling"]
    rep = Representation(1, "unitary", (np.array([[1.0 + 0j]]),), np.array([[-1.0 + 0j]]))
    lefs = twisted_lefschetz(f, rep, order)
    want = exp_of_lefschetz(lefs, order, exact=False)
    got = twisted_zeta(f, rep).series(order)
    worst = max(abs(complex(g) - w) for g, w in zip(got, want))
    verdict(
        4,
        ok and worst <= 1e-8,
        f"{exact_matches} exact series matches through t^16; unitary case max err {worst:.2e} (<=1e-8)",
    )


def test_criterion_05_bound_sandwich():
    ok = True
    for f in CORPUS.values():
        lo = lower_bound_zeta(f)
        mid = upper_bound_spectral(f)
        hi = upper_bound_norm(f)
        ok = ok and (lo <= mid + 1e-6) and (mid <= hi + 1e-6)
    golden = CORPUS["golden"]
    lo_g = lower_bound_zeta(golden)
    mid_g = upper_bound_spectral(golden)
    pinned = abs(lo_g - PHI) <= 1e-9 and abs(mid_g - PHI) <= 1e-9
    verdict(
        5,
        ok and pinned,
        f"sandwich holds on 4 maps (1e-6 slack); golden lower/spectral = {lo_g:.10f}/{mid_g:.10f} vs {PHI:.10f} (1e-9)",
    )


def test_criterion_06_torus_counts_and_growth():
    start = time.perf_counter()
    seq8 = nielsen_sequence(ANOSOV, 8)
    want8 = [abs(det2(mat_sub(mat_identity(2), mat_pow(ANOSOV, n)))) for n in range(1, 9)]
    exact_ok = seq8 == want8
    rate = growth_estimate(nielsen_sequence(ANOSOV, 30)).value
    rate_ok = abs(rate - LAM) / LAM <= 0.02
    elapsed = time.perf_counter() - start
    verdict(
        6,
        exact_ok and rate_ok and elapsed < 10.0,
        f"counts==|det(I-A^n)| n<=8 exact; growth {rate:.6f} vs {LAM:.6f} (2%); {elapsed:.2f}s (<10s)",
    )


def test_criterion_07_torus_zeta_closed_form():
    zeta = torus_symplectic_zeta(ANOSOV)
    closed_ok = tuple(zeta.numerator) == (1, -2, 1) and tuple(zeta.denominator) == (1, -3, 1)
    order = 16
    series_ok = (
        tuple(zeta.series(order))
        == symplectic_zeta_series(nielsen_sequence(ANOSOV, order), order).coeffs
    )
    verdict(
        7,
        closed_ok and series_ok,
        "(1-t)^2/(1-3t+t^2) closed form; series == exp-series of the counts through t^16, exact",
    )


def test_criterion_08_periodic_radical_expansion():
    rng = random.Random(229)
    order = 32
    failures = 0
    for _ in range(50):
        m = rng.randint(1, 6)
        dims = {d: rng.randint(0, 9) for d in divisors(m)}
        rr = periodic_zeta(m, dims)
        seq = [dims[math.gcd(n, m)] for n in range(1, order + 1)]
        if rr.expand(order).coeffs != symplectic_zeta_series(seq, order).coeffs:
            failures += 1
    verdict(8, failures == 0, f"50 random period<=6 assignments, expansion==exp-series to t^32, {failures} failures")


def test_criterion_09_interval_certification_and_growth():
    all_certified = True
    growth_ok = True
    notes = []
    for name, f in CORPUS.items():
        ivs = [reidemeister_interval(f, n, search_depth=8) for n in range(1, 5)]
        all_certified = all_certified and all(
            iv.certified and iv.lower == iv.upper for iv in ivs
        )
        uppers = [reidemeister_interval(f, n).upper for n in range(1, 7)]
        proxy = growth_estimate([float(u) for u in uppers]).value
        lo = lower_bound_zeta(f)
        hi = upper_bound_norm(f)
        # the finite-window proxy lands slightly under the true growth
        # (worst measured shortfall on this corpus is under 1%), so the
        # lower comparison carries one-sided 5% headroom
        growth_ok = growth_ok and (0.95 * lo <= proxy <= hi + 1e-9)
        notes.append(f"{name} {proxy:.3f} in [{lo:.3f},{hi:.0f}]")
    verdict(9, all_certified and growth_ok, "n<=4 certified at depth 8; " + "; ".join(notes))


def test_criterion_10_radius_bounds():
    r_anosov = radius_estimate(nielsen_sequence(ANOSOV, 30))
    r_fib = radius_estimate(nielsen_sequence(FIB_MAT, 30))
    proxy_ok = (
        abs(r_anosov - 1 / LAM) <= 0.02 / LAM and abs(r_fib - 1 / PHI) <= 0.02 / PHI
    )

    exact_ok = True
    for f in CORPUS.values():
        uppers = [reidemeister_interval(f, n).upper for n in range(1, 7)]
        f0, f1 = RingMatrix.identity(1), jacobian(f)
        w_norm = max(matrix_norm(m) for m in (f0, f1))  # exact integer
        exact_ok = exact_ok and all(
            a <= w_norm**n for n, a in enumerate(uppers, start=1)
        )
        q_bar = max(Fraction(1), rational_spectral_upper(norm_matrix(f1)))
        exact_ok = exact_ok and all(
            Fraction(a) <= q_bar**n for n, a in enumerate(uppers, start=1)
        )
    # golden sharpness at the irrational spectral radius: phi^n = F_n phi + F_{n-1},
    # so a_n <= phi^n reduces to an exact rational check against x^2 = x + 1
    fib = [0, 1, 1, 2, 3, 5, 8]
    golden_uppers = [reidemeister_interval(CORPUS["golden"], n).upper for n in range(1, 7)]
    for n, a in enumerate(golden_uppers, start=1):
        r = Fraction(a - fib[n - 1], fib[n])
        exact_ok = exact_ok and (r <= 0 or r * r <= r + 1)
    verdict(
        10,
        proxy_ok and exact_ok,
        f"radius {r_anosov:.5f}/{r_fib:.5f} vs {1 / LAM:.5f}/{1 / PHI:.5f} (2%); "
        "dims <= norm^n and <= rational-spectral^n exact on 4 maps",
    )


def test_criterion_11_assembler_and_graph_test():
    anchor1 = (
        assemble_dim(ClassSpec(components=(ComponentSpec(kind="fixed-a", dim=6),)), 1) == 6
    )
    anchor2 = (
        assemble_dim(
            ClassSpec(components=(ComponentSpec(kind="periodic", lefschetz=(4,)),)), 1
        )
        == 4
    )
    anchor3 = (
        assemble_dim(
            ClassSpec(
                components=(
                    ComponentSpec(kind="fixed-b", prongs=3, count=1, dim=2),
                    ComponentSpec(kind="pseudo-anosov", dims=(5,)),
                )
            ),
            1,
        )
        == 9
    )
    rng = random.Random(233)
    agreed = 0
    for _ in range(50):
        comps = []
        has_pa = False
        for _ in range(rng.randint(1, 5)):
            roll = rng.randrange(5)
            if roll == 0:
                comps.append(ComponentSpec(kind="fixed-a", dim=rng.randint(0, 8)))
            elif roll == 1:
                comps.append(
                    ComponentSpec(
                        kind="fixed-b",
                        prongs=rng.randint(1, 4),
                        count=rng.randint(1, 3),
                        dim=rng.randint(0, 8),
                    )
                )
            elif roll == 2:
                comps.append(
                    ComponentSpec(
                        kind="fixed-c",
                        prongs=rng.randint(2, 5),
                        count=rng.randint(1, 3),
                        dim=rng.randint(0, 8),
                    )
                )
            elif roll == 3:
                comps.append(
                    ComponentSpec(
                        kind="periodic",
                        lefschetz=tuple(rng.randint(-4, 6) for _ in range(4)),
                    )
                )
            else:
                has_pa = True
                comps.append(
                    ComponentSpec(
                        kind="pseudo-anosov",
                        dims=tuple(rng.randint(0, 9) for _ in range(4)),
                    )
                )
        spec = ClassSpec(components=tuple(comps))
        if graph_manifold_test(spec).is_graph_manifold == (not has_pa):
            agreed += 1
    verdict(
        11,
        anchor1 and anchor2 and anchor3 and agreed == 50,
        f"anchors 6/4/9 exact; graph test matched no-pA on {agreed}/50 random classes",
    )
