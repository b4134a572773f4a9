"""Growth-rate estimation and the bound sandwich for iterate dimensions.

The growth of a nonnegative sequence is max(1, limsup a_n^(1/n)).  A finite
sample only supports a proxy: the max of a_n^(1/n) over the tail half of the
data, reported together with the window.  Upper bounds come from group-ring
norms of the chain matrices (total norm, and the sharper spectral radius of
the entrywise-norm matrix); lower bounds come from zeros and poles of a
twisted zeta function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .foxcalc import chain_matrices
from .freegroup import Endomorphism, IntMatrix
from .groupring import DEFAULT_SEARCH_DEPTH, matrix_norm, norm_matrix, reidemeister_interval
from .ratfunc import CrossCheckError, det_one_minus_t, poly_roots
from .reptheory import Representation, trivial_representation, twisted_zeta

SPECTRAL_CROSSCHECK_TOL = 1e-10
MIN_GROWTH_TERMS = 3  # the fewest terms growth_estimate accepts


@dataclass(frozen=True)
class GrowthEstimate:
    """Finite-sample growth proxy plus the tail window it was read from."""

    value: float
    window_start: int  # first iterate n included in the max
    n_terms: int


def growth_estimate(seq: Sequence[float]) -> GrowthEstimate:
    terms = []
    for k, x in enumerate(seq, 1):
        try:
            terms.append(float(x))
        except OverflowError:  # an integer past the float range
            raise ValueError(f"sequence term {k} is too large for a float") from None
    if len(terms) < MIN_GROWTH_TERMS:
        raise ValueError(f"need at least {MIN_GROWTH_TERMS} terms to estimate growth")
    if not all(0 <= x < math.inf for x in terms):  # NaN fails too
        raise ValueError("sequence terms must be finite and nonnegative")
    n = len(terms)
    start = n - math.ceil(n / 2) + 1  # 1-based iterate index
    best = max(terms[k - 1] ** (1.0 / k) for k in range(start, n + 1))
    return GrowthEstimate(max(1.0, best), start, n)


def _strong_components(mat: IntMatrix) -> list[list[int]]:
    """Strongly connected components of the support digraph: i and j share
    one when each reaches the other.  Reachability is Warshall's closure on
    Python-int bitsets, O(n^2) bit operations for n vertices."""
    n = len(mat)
    reach = [sum(1 << j for j in range(n) if mat[i][j]) | 1 << i for i in range(n)]
    for k in range(n):
        for i in range(n):
            if reach[i] >> k & 1:
                reach[i] |= reach[k]
    out: list[list[int]] = []
    placed = 0
    for i in range(n):
        if not placed >> i & 1:
            comp = [j for j in range(n) if reach[i] >> j & 1 and reach[j] >> i & 1]
            placed |= sum(1 << j for j in comp)
            out.append(comp)
    return out


def _block_root_modulus(block) -> float:
    """Max root modulus of an irreducible block of size >= 2: 1 / the least
    root modulus of det(I - tB), which has a root (the block has a cycle, so
    its radius is positive) and none at 0 (its constant term is 1)."""
    return 1.0 / min(abs(w) for w in poly_roots(det_one_minus_t(block)))


def _block_power_iteration(block) -> float:
    """Collatz-Wielandt-bracketed power iteration on an irreducible block.

    Shifting by the identity makes the block primitive, so the iterates stay
    strictly positive and max_i (Bv)_i / v_i and min_i bracket the Perron
    root from both sides, closing geometrically.
    """
    rows = [[float(x) + (i == j) for j, x in enumerate(row)] for i, row in enumerate(block)]
    v = [1.0] * len(rows)
    lo, hi = 0.0, float("inf")
    for _ in range(200000):
        w = [sum(a * x for a, x in zip(row, v)) for row in rows]
        ratios = [a / b for a, b in zip(w, v)]
        lo, hi = min(ratios), max(ratios)
        if hi - lo <= 1e-13 * max(1.0, hi):
            break
        top = max(w)
        v = [a / top for a in w]
    return (lo + hi) / 2.0 - 1.0


def spectral_radius(mat: IntMatrix) -> float:
    """Largest eigenvalue modulus of a nonnegative integer matrix.

    The support digraph is split into strongly connected components, so every
    diagonal block is irreducible with a simple Perron root.  Each block's
    radius comes from its exact characteristic polynomial and is cross-checked
    by bracketed power iteration; a relative disagreement beyond
    SPECTRAL_CROSSCHECK_TOL raises.
    """
    if any(x < 0 for row in mat for x in row):
        raise ValueError("matrix must be nonnegative")
    best = 0.0
    for comp in _strong_components(mat):
        if len(comp) == 1:
            i = comp[0]
            by_roots = float(mat[i][i])
            by_power = by_roots
        else:
            block = [[mat[i][j] for j in comp] for i in comp]
            by_roots = _block_root_modulus(block)
            by_power = _block_power_iteration(block)
        scale = max(1.0, by_roots)
        if abs(by_roots - by_power) > SPECTRAL_CROSSCHECK_TOL * scale:
            raise CrossCheckError(
                f"spectral radius cross-check failed: {by_roots} vs {by_power}"
            )
        best = max(best, by_roots)
    return best


def upper_bound_norm(f: Endomorphism) -> float:
    """max over chain degrees of the total group-ring norm."""
    return float(max(matrix_norm(m) for m in chain_matrices(f)))


def upper_bound_spectral(f: Endomorphism) -> float:
    """max over chain degrees of the spectral radius of the norm matrix."""
    return max(spectral_radius(norm_matrix(m)) for m in chain_matrices(f))


def lower_bound_zeta(f: Endomorphism, rep: Representation | None = None) -> float:
    """1 / (smallest zero-or-pole modulus of the twisted zeta); 1 if none."""
    rep = trivial_representation(f.rank) if rep is None else rep
    zeta = twisted_zeta(f, rep)
    m = zeta.min_root_modulus()
    if math.isinf(m):
        return 1.0
    return 1.0 / m


@dataclass(frozen=True)
class GrowthReport:
    """The bound sandwich around the asymptotic growth of iterate dimensions."""

    lower_bound: float
    upper_bound_spectral: float
    upper_bound_norm: float
    sequence_estimate: float | None
    entropy_log: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)
    window: tuple | None = None

    def to_json(self) -> dict:
        """JSON fields; an unbounded (infinite) upper renders as null."""
        upper = lambda x: x if math.isfinite(x) else None
        return {
            "lower_bound": self.lower_bound,
            "upper_bound_spectral": upper(self.upper_bound_spectral),
            "upper_bound_norm": upper(self.upper_bound_norm),
            "sequence_estimate": self.sequence_estimate,
            "entropy_log": dict(self.entropy_log),
            "provenance": dict(self.provenance),
            "window": list(self.window) if self.window else None,
        }


def full_report(
    f: Endomorphism,
    rep: Representation | None = None,
    n_iterates: int = 6,
    search_depth: int = DEFAULT_SEARCH_DEPTH,
) -> GrowthReport:
    """Assemble all bounds; the measured sequence is the certified interval
    uppers of the first ``n_iterates`` iterates."""
    zeta_lower = lower_bound_zeta(f, rep)
    lower = max(1.0, zeta_lower)
    spectral = upper_bound_spectral(f)
    total = upper_bound_norm(f)
    provenance = {
        "lower_bound": "reciprocal of the smallest zeta zero/pole modulus"
        + ("" if zeta_lower >= 1.0 else " (clamped to 1)"),
        "upper_bound_spectral": "spectral radius of the entrywise-norm matrices",
        "upper_bound_norm": "total group-ring norm of the chain matrices",
        "sequence_estimate": "tail-window proxy from interval uppers",
    }
    if lower > spectral + 1e-9:
        raise CrossCheckError(
            f"bound sandwich violated: lower {lower} > spectral upper {spectral}"
        )
    uppers = [
        reidemeister_interval(f, n, search_depth=search_depth).upper
        for n in range(1, n_iterates + 1)
    ]
    est = growth_estimate(uppers)
    # the degree-0 chain block (1) makes the spectral upper at least 1
    entropy = {
        "lower_bound": math.log(lower),
        "upper_bound_spectral": math.log(spectral),
        "upper_bound_norm": math.log(total),
        "sequence_estimate": math.log(est.value),
    }
    return GrowthReport(
        lower_bound=lower,
        upper_bound_spectral=spectral,
        upper_bound_norm=total,
        sequence_estimate=est.value,
        entropy_log=entropy,
        provenance=provenance,
        window=(est.window_start, est.n_terms),
    )
