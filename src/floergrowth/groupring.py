"""Arithmetic in the group ring of the mapping torus, on z-homogeneous parts.

The mapping-torus group adds a letter z to the free group, with conjugation
by z acting as the endomorphism.  A homogeneous element is written z^n * u
with u in the group ring of the fiber; moving a body across z^k twists it by
the k-th iterate, which is the whole content of ``h_matmul``.  So
(z M)^n = z^n f^(n-1)(M) ... f(M) M, the chain rule of Fox calculus, and
``reidemeister_trace`` builds it one twisted left factor at a time, for the
two degrees of the rose chain: (1) and the Fox matrix.

Norms of the Reidemeister trace are reported as certified intervals.  Terms
are first split by an abelianized orbit invariant (different labels can never
be conjugate), then merged only when an explicit conjugacy certificate is
found by a bounded search; the interval brackets the true norm from both
sides and collapses whenever the two agree.  The search of a label group
stops as soon as the merges found so far bring the group's norm down to
|sum of its coefficients|: no further merge can lower it, so the rest of the
search could not change the result.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from typing import NamedTuple, Sequence

from .foxcalc import RingElem, RingMatrix, chain_matrices
from .freegroup import (
    Endomorphism,
    Frozen,
    IntMatrix,
    Word,
    mat_identity,
    mat_pow,
    mat_sub,
    vec_mat,
)
from .snf import smith_normal_form

DEFAULT_SEARCH_DEPTH = 8
_MAX_REACH_STATES = 4000


class HElem(Frozen):
    """A z-homogeneous element ``z^z_degree * body`` of the torus group ring."""

    __slots__ = _fields = _compare = ("z_degree", "body")

    def __init__(self, z_degree: int, body: RingElem):
        if z_degree < 0:
            raise ValueError("z_degree must be >= 0")
        self._set_fields(z_degree, body)


def h_matmul(x: RingMatrix, y: RingMatrix, k: int, f: Endomorphism) -> RingMatrix:
    """Body of the product (z^a x)(z^k y): x twisted by the k-th iterate,
    times y."""
    fk = f.iterate(k)
    return x.map_entries(lambda e: e.map_words(fk.apply)) * y


def norm_matrix(m: RingMatrix) -> IntMatrix:
    """Entrywise coefficient norms, as a nonnegative integer matrix."""
    return tuple(tuple(e.norm() for e in row) for row in m.entries)


def matrix_norm(m: RingMatrix) -> int:
    """Total norm: the sum of all entry norms."""
    return sum(sum(row) for row in norm_matrix(m))


# -- orbit-class invariants -------------------------------------------------

@lru_cache(maxsize=64)
def _orbit_frame(f: Endomorphism, n: int) -> tuple[IntMatrix, IntMatrix, tuple[int, ...], dict]:
    """The abelianized map A, Q and the diagonal of the Smith form of
    I - A^n, and the labels found so far (class -> label), shared by every
    term of an n-th trace."""
    a = f.abelianize()
    m = mat_sub(mat_identity(f.rank), mat_pow(a, n))
    diag, _, q = smith_normal_form(m)
    return a, q, diag, {}


def orbit_coordinate(g: Word, f: Endomorphism, n: int) -> tuple[int, ...]:
    """Conjugacy-invariant label of the section-term ``z^n g``.

    The abelianized class lives in coker(I - A^n) where A is the abelianized
    endomorphism; conjugating by z moves the class by A, whose action on that
    cokernel has order dividing n.  The label is the lexicographically least
    Smith-reduced representative along the A-orbit, so distinct labels are
    guaranteed to be distinct conjugacy classes.  A maps classes to classes,
    so the first term of an orbit walks it once and labels every class on it.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    a, q, diag, labels = _orbit_frame(f, n)

    def canonical(vec: Sequence[int]) -> tuple[int, ...]:
        w = vec_mat(vec, q)
        return tuple(x % di if di else x for x, di in zip(w, diag))

    v = g.exponent_vector(f.rank)
    first = canonical(v)
    if first in labels:
        return labels[first]
    orbit = [first]
    for _ in range(n - 1):
        v = vec_mat(v, a)
        orbit.append(canonical(v))
    best = min(orbit)
    for c in orbit:
        labels[c] = best
    return best


# -- Reidemeister trace -------------------------------------------------------

def reidemeister_trace(f: Endomorphism, n: int) -> HElem:
    """Alternating sum of homogeneous traces of the n-th twisted chain powers:
    degree 0, the vertex (1), minus degree 1, the Fox matrix, which is the
    whole rose chain (``chain_matrices``)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    acc = RingElem.zero()
    for d, mat in enumerate(chain_matrices(f)):
        power = mat
        for k in range(1, n):
            # mat on the left: only the small factor is twisted, by f^k
            power = h_matmul(mat, power, k, f)
        term = power.trace()
        acc = acc + (term if d % 2 == 0 else -term)
    return HElem(n, acc)


class NormInterval(NamedTuple):
    """Certified bracket on the norm of a class sum; exact when lower == upper."""

    lower: int
    upper: int
    certified: bool


def _reach_set(
    g: Word,
    f: Endomorphism,
    fn: Endomorphism,
    n: int,
    depth: int,
    max_states: int,
) -> dict[Word, int]:
    """Words certified conjugate to ``z^n g`` by bounded elementary moves,
    each with the number of letter moves that reached it.

    Moves: twisted conjugation by a single generator letter (cost 1) and the
    z-conjugation ``g -> f(g)`` (cost 0).  Every move is an actual conjugacy
    in the torus group, so membership certifies a merge; the bounded search
    makes no claims about non-membership.
    """
    rank = f.rank
    # left factors fn(x)^-1 for each letter x, precomputed
    pos_left = [fn.images[j].inverse() for j in range(rank)]
    neg_left = [fn.images[j] for j in range(rank)]
    pos_right = [Word((j + 1,)) for j in range(rank)]
    neg_right = [Word((-(j + 1),)) for j in range(rank)]
    length_cap = len(g) + depth * (1 + max(len(w) for w in fn.images)) + 4

    seen: dict[Word, int] = {g: 0}
    queue: deque[Word] = deque([g])
    while queue and len(seen) < max_states:
        cur = queue.popleft()
        cost = seen[cur]
        # free move: conjugation by z
        img = f.apply(cur)
        if len(img) <= length_cap and img not in seen:
            seen[img] = cost
            queue.append(img)
        if cost >= depth:
            continue
        for j in range(rank):
            for new in (
                pos_left[j] * cur * pos_right[j],
                neg_left[j] * cur * neg_right[j],
            ):
                if len(new) <= length_cap and new not in seen:
                    seen[new] = cost + 1
                    queue.append(new)
    return seen


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)

    def split_norm(self, coeffs: Sequence[int]) -> int:
        """Norm of the sum once each component's coefficients are merged."""
        sums: dict[int, int] = {}
        for i, c in enumerate(coeffs):
            root = self.find(i)
            sums[root] = sums.get(root, 0) + c
        return sum(abs(s) for s in sums.values())


def norm_interval(
    h: HElem,
    f: Endomorphism,
    search_depth: int = DEFAULT_SEARCH_DEPTH,
    max_states: int = _MAX_REACH_STATES,
) -> NormInterval:
    """Bracket the norm of the class sum of a homogeneous element.

    lower merges everything the abelianized label allows; upper merges only
    pairs holding an explicit certificate.  The true class-sum norm lies in
    [lower, upper], and the interval is certified exact when they coincide.

    Within a mixed-sign label group the terms are searched one at a time,
    and a term is merged with the owner (the first term to reach it, or the
    term it starts) of every word its search reaches.  The group stops once
    its merged norm equals |sum of its coefficients|, the least any merge can
    reach, so the upper end is the one the full search gives.  A group that
    never gets there searches every term.
    """
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
        settled = abs(sum(coeffs))
        owner = {w: i for i, (w, _) in enumerate(grp)}
        uf = _UnionFind(len(grp))
        for i, (g, _) in enumerate(grp):
            for w in _reach_set(g, f, fn, n, search_depth, max_states):
                j = owner.setdefault(w, i)
                if j != i:
                    uf.union(i, j)
            split = uf.split_norm(coeffs)
            if split == settled:
                break
        upper += split

    return NormInterval(lower, upper, lower == upper)


def reidemeister_interval(
    f: Endomorphism,
    n: int,
    search_depth: int = DEFAULT_SEARCH_DEPTH,
    max_states: int = _MAX_REACH_STATES,
) -> NormInterval:
    """Certified bracket on the class-sum norm of the n-th Reidemeister trace."""
    h = reidemeister_trace(f, n)
    return norm_interval(h, f, search_depth=search_depth, max_states=max_states)
