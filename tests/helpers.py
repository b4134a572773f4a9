"""Shared generators and small oracles used across the test modules."""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import strategies as st

from floergrowth.foxcalc import RingElem, RingMatrix
from floergrowth.freegroup import Endomorphism, Word
from floergrowth.groupring import (
    HElem,
    NormInterval,
    _reach_set,
    _UnionFind,
    h_matmul,
    orbit_coordinate,
)


def random_reduced_word(rng: random.Random, rank: int, max_len: int) -> Word:
    """A freely reduced word over `rank` generators with length <= max_len."""
    target = rng.randint(0, max_len)
    letters: list[int] = []
    alphabet = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    while len(letters) < target:
        letter = rng.choice(alphabet)
        if letters and letters[-1] == -letter:
            continue
        letters.append(letter)
    return Word(tuple(letters))


def reference_reduce(letters) -> tuple[int, ...]:
    """Free reduction one letter at a time on a stack: the oracle for words."""
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


@st.composite
def reduced_words(draw, rank: int, max_len: int = 12) -> Word:
    """Hypothesis strategy: a reduced word over `rank` generators."""
    alphabet = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    raw = draw(st.lists(st.sampled_from(alphabet), max_size=max_len))
    return Word(reference_reduce(raw))


@st.composite
def endomorphisms(draw, max_rank: int, max_image_len: int) -> Endomorphism:
    """Hypothesis strategy: an endomorphism of rank <= max_rank."""
    rank = draw(st.integers(1, max_rank))
    return Endomorphism(rank, tuple(draw(reduced_words(rank, max_image_len)) for _ in range(rank)))


@st.composite
def ring_elems(draw, rank: int, max_terms: int = 4, max_len: int = 4) -> RingElem:
    """Hypothesis strategy: a ring element with small signed coefficients."""
    words = draw(st.lists(reduced_words(rank, max_len), max_size=max_terms))
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(words), max_size=len(words)))
    acc: dict[Word, int] = {}
    for w, c in zip(words, coeffs):
        acc[w] = acc.get(w, 0) + c
    return RingElem(acc.items())


def random_endo(rng: random.Random, rank: int, max_image_len: int) -> Endomorphism:
    images = tuple(
        random_reduced_word(rng, rank, max_image_len) for _ in range(rank)
    )
    return Endomorphism(rank, images)


def fibonacci(n: int) -> int:
    """F(1) = F(2) = 1."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def lucas(n: int) -> int:
    """L(1) = 1, L(2) = 3."""
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def mat2_power(mat, n):
    out = [[1, 0], [0, 1]]
    base = [row[:] for row in mat]
    k = n
    while k:
        if k & 1:
            out = [
                [
                    out[0][0] * base[0][0] + out[0][1] * base[1][0],
                    out[0][0] * base[0][1] + out[0][1] * base[1][1],
                ],
                [
                    out[1][0] * base[0][0] + out[1][1] * base[1][0],
                    out[1][0] * base[0][1] + out[1][1] * base[1][1],
                ],
            ]
        base = [
            [
                base[0][0] * base[0][0] + base[0][1] * base[1][0],
                base[0][0] * base[0][1] + base[0][1] * base[1][1],
            ],
            [
                base[1][0] * base[0][0] + base[1][1] * base[1][0],
                base[1][0] * base[0][1] + base[1][1] * base[1][1],
            ],
        ]
        k >>= 1
    return out


def det2_of_power_minus_identity(mat, n) -> int:
    p = mat2_power(mat, n)
    return (p[0][0] - 1) * (p[1][1] - 1) - p[0][1] * p[1][0]


def reference_torus_points(m) -> set:
    """The x in [0,1)^2 with m x integral, in Fractions: the subgroup of
    (Q/Z)^2 generated by the columns of m^{-1}, closed up one step at a time."""
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    gens = (
        (Fraction(m[1][1], det) % 1, Fraction(-m[1][0], det) % 1),
        (Fraction(-m[0][1], det) % 1, Fraction(m[0][0], det) % 1),
    )
    zero = (Fraction(0), Fraction(0))
    seen = {zero}
    frontier = [zero]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = ((x[0] + g[0]) % 1, (x[1] + g[1]) % 1)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def dense_series_product(a, b, order: int) -> list:
    """Coefficients of a * b through t^order by the full convolution."""
    a = list(a[: order + 1]) + [0] * (order + 1 - len(a))
    b = list(b[: order + 1]) + [0] * (order + 1 - len(b))
    out = [Fraction(0)] * (order + 1)
    for i in range(order + 1):
        for j in range(order + 1 - i):
            out[i + j] += a[i] * b[j]
    return out


def reference_radical_expansion(factors, order: int) -> list:
    """Product of (1 - t^d)^alpha over (d, alpha) through t^order: each factor
    by the generalized binomial series sum_k C(alpha, k) (-t^d)^k, multiplied
    by the full convolution."""
    out = [Fraction(1)] + [Fraction(0)] * order
    for d, alpha in factors:
        factor = [Fraction(0)] * (order + 1)
        binom = Fraction(1)
        for k in range(order // d + 1):
            factor[k * d] = binom * (-1) ** k
            binom = binom * (alpha - k) / (k + 1)
        out = dense_series_product(out, factor, order)
    return out


def _mobius(n: int) -> int:
    """The Moebius function by trial division."""
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def reference_periodic_exponents(period: int, dims) -> tuple:
    """(d, P(d)) for each divisor d of the period by Moebius inversion:
    P(d) is the sum of mu(d / e) dims(e) over the divisors e of d."""
    divs = [d for d in range(1, period + 1) if period % d == 0]
    return tuple(
        (d, sum(_mobius(d // e) * dims[e] for e in divs if d % e == 0)) for d in divs
    )


def reference_norm_interval(
    h: HElem,
    f: Endomorphism,
    search_depth: int,
    max_states: int,
) -> NormInterval:
    """Norm interval by searching every term of a mixed-sign group and
    merging each pair whose reach sets meet: the pairwise algorithm that the
    early-stopping search in ``norm_interval`` must agree with."""
    n = h.z_degree
    terms = list(h.body.terms)
    if not terms:
        return NormInterval(0, 0, True)

    groups: dict[tuple, list[tuple[Word, int]]] = {}
    for w, c in terms:
        groups.setdefault(orbit_coordinate(w, f, n), []).append((w, c))

    lower = sum(abs(sum(c for _, c in grp)) for grp in groups.values())

    upper = 0
    fn: Endomorphism | None = None
    for grp in groups.values():
        coeffs = [c for _, c in grp]
        if len(grp) == 1 or all(c > 0 for c in coeffs) or all(c < 0 for c in coeffs):
            # merging same-sign terms never changes the norm
            upper += sum(abs(c) for c in coeffs)
            continue
        if fn is None:
            fn = f.iterate(n)
        reaches = [
            frozenset(_reach_set(w, f, fn, n, search_depth, max_states)) for w, _ in grp
        ]
        uf = _UnionFind(len(grp))
        for i in range(len(grp)):
            for j in range(i + 1, len(grp)):
                if uf.find(i) != uf.find(j) and reaches[i] & reaches[j]:
                    uf.union(i, j)
        sums: dict[int, int] = {}
        for i, (_, c) in enumerate(grp):
            root = uf.find(i)
            sums[root] = sums.get(root, 0) + c
        upper += sum(abs(s) for s in sums.values())

    return NormInterval(lower, upper, lower == upper)


def reference_twisted_power(m: RingMatrix, n: int, f: Endomorphism) -> RingMatrix:
    """The body of (z m)^n as a right fold, (z m)^(k+1) = (z m)^k (z m):
    each step twists the whole accumulated power by f."""
    out = m
    for _ in range(n - 1):
        out = h_matmul(out, m, 1, f)
    return out


def reference_det(a) -> int:
    """Determinant of a small square integer matrix by cofactor expansion."""
    if not a:
        return 1
    return sum(
        (-1) ** j * a[0][j] * reference_det([row[:j] + row[j + 1 :] for row in a[1:]])
        for j in range(len(a))
    )


def reference_strong_components(mat) -> set[frozenset[int]]:
    """Strong components by brute force: each vertex's reach set by search,
    then i and j share a component when each reaches the other."""
    n = len(mat)

    def reach(i: int) -> set[int]:
        seen, stack = {i}, [i]
        while stack:
            v = stack.pop()
            for w in range(n):
                if mat[v][w] and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    reaches = [reach(i) for i in range(n)]
    return {frozenset(j for j in reaches[i] if i in reaches[j]) for i in range(n)}
