"""Finite-dimensional representations of the mapping-torus group and the
twisted Lefschetz zeta function.

Two kinds are supported.  Permutation representations store each
permutation as an index tuple p (row r of the 0/1 matrix has its 1 in
column p[r]), so products of letters cost O(dim) each, and produce exact
rational zeta data; unitary representations carry complex float matrices
(checked unitary to 1e-8) and produce float data.  A representation is valid
when conjugating each generator matrix by the z matrix reproduces the matrix
of the generator's image.  numpy is imported only on the unitary lane.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Sequence

from .foxcalc import RingMatrix, chain_matrices
from .freegroup import Endomorphism, Word, sparse_mat_mul, sparse_rows
from .ratfunc import RationalFunction, det_one_minus_t, poly_mul

UNITARY_TOL = 1e-8
# Largest twisted block (chain size x representation dimension) accepted.
# A block's characteristic polynomial costs about size^2 x nonzeros; cat
# (a -> aab, b -> ab) at --modulus 11, block 242, takes about 3 s on a 2-core
# Xeon VM, and at --modulus 12, block 288, about 4.5 s.
MAX_TWISTED_BLOCK = 256

PERMUTATION = "permutation"
UNITARY = "unitary"


def _permutation(p, dim: int) -> tuple[int, ...]:
    error = "a permutation image must be an index tuple listing 0..dim-1 once each"
    try:
        perm = tuple(operator.index(x) for x in p)
    except TypeError:
        raise ValueError(error) from None
    if sorted(perm) != list(range(dim)):
        raise ValueError(error)
    return perm


def _compose(p, q) -> tuple[int, ...]:
    """Index tuple of the matrix product P·Q."""
    return tuple([q[i] for i in p])


def _inverse(p) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def _matrix_to_permutation(m) -> tuple[int, ...]:
    error = "permutation representation needs 0/1 permutation matrices"
    out = []
    for row in m:
        ints = [int(x) for x in row]
        if len(ints) != len(m) or any(x not in (0, 1) for x in ints) or sum(ints) != 1:
            raise ValueError(error)
        out.append(ints.index(1))
    if sorted(out) != list(range(len(m))):
        raise ValueError(error)
    return tuple(out)


def _permutation_to_matrix(p) -> list[list[int]]:
    return [[1 if j == p[i] else 0 for j in range(len(p))] for i in range(len(p))]


@dataclass(frozen=True)
class Representation:
    """Images of the fiber generators and of z.

    Permutation images are index tuples (see the module docstring); unitary
    images are complex matrices.
    """

    dim: int
    kind: str
    gen_images: tuple
    z_image: object

    def __post_init__(self):
        if self.kind not in (PERMUTATION, UNITARY):
            raise ValueError(f"unknown representation kind {self.kind!r}")
        if self.kind == PERMUTATION:
            gens = tuple(_permutation(g, self.dim) for g in self.gen_images)
            z = _permutation(self.z_image, self.dim)
            object.__setattr__(self, "gen_images", gens)
            object.__setattr__(self, "z_image", z)
        else:
            import numpy as np

            gens = tuple(np.asarray(g, dtype=complex) for g in self.gen_images)
            z = np.asarray(self.z_image, dtype=complex)
            eye = np.eye(self.dim)
            for m in (*gens, z):
                if m.shape != (self.dim, self.dim):
                    raise ValueError("matrix shape mismatch")
                if np.max(np.abs(m.conj().T @ m - eye)) > UNITARY_TOL:
                    raise ValueError("matrix is not unitary within tolerance")
            object.__setattr__(self, "gen_images", gens)
            object.__setattr__(self, "z_image", z)

    @property
    def rank(self) -> int:
        return len(self.gen_images)

    def is_exact(self) -> bool:
        return self.kind == PERMUTATION

    def _inv(self, m):
        if self.kind == PERMUTATION:
            return _inverse(m)
        return m.conj().T

    def letter_matrix(self, letter: int):
        g = self.gen_images[abs(letter) - 1]
        return g if letter > 0 else self._inv(g)

    def word_matrix(self, w: Word):
        """Image of a fiber word: an index tuple or a complex matrix."""
        if self.kind == PERMUTATION:
            acc = tuple(range(self.dim))
            for x in w.letters:
                acc = _compose(acc, self.letter_matrix(x))
            return acc
        import numpy as np

        acc = np.eye(self.dim, dtype=complex)
        for x in w.letters:
            acc = acc @ self.letter_matrix(x)
        return acc

    def z_power(self, k: int):
        if self.kind == PERMUTATION:
            acc = tuple(range(self.dim))
            for _ in range(k):
                acc = _compose(acc, self.z_image)
            return acc
        import numpy as np

        return np.linalg.matrix_power(self.z_image, k)

    # -- JSON ---------------------------------------------------------------

    @classmethod
    def from_json(cls, data) -> "Representation":
        kind = data["kind"]
        if kind == PERMUTATION:
            decode = _matrix_to_permutation
        else:
            import numpy as np

            decode = lambda m: np.array(
                [[complex(x[0], x[1]) for x in row] for row in m], dtype=complex
            )
        return cls(
            dim=int(data["dim"]),
            kind=kind,
            gen_images=tuple(decode(m) for m in data["a"]),
            z_image=decode(data["z"]),
        )

    def to_json(self) -> dict:
        if self.kind == PERMUTATION:
            encode = _permutation_to_matrix
        else:
            encode = lambda m: [[[float(x.real), float(x.imag)] for x in row] for row in m]
        return {
            "dim": self.dim,
            "kind": self.kind,
            "a": [encode(m) for m in self.gen_images],
            "z": encode(self.z_image),
        }


def trivial_representation(rank: int) -> Representation:
    return Representation(1, PERMUTATION, tuple((0,) for _ in range(rank)), (0,))


def abelian_quotient_rep(f: Endomorphism, modulus: int) -> Representation:
    """Permutation representation on the points of (Z/m)^rank.

    Generator k's row for point p has its 1 at p - e_k, and z's row for p has
    its 1 at p·A mod m, where A is the abelianized endomorphism.  That z is a
    permutation exactly when A is invertible mod m; otherwise ValueError.
    """
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    r = f.rank
    a = f.abelianize()
    points = list(itertools.product(range(modulus), repeat=r))
    index = {pt: i for i, pt in enumerate(points)}
    gens = tuple(
        tuple(index[pt[:k] + ((pt[k] - 1) % modulus,) + pt[k + 1 :]] for pt in points)
        for k in range(r)
    )
    z = tuple(
        index[tuple(sum(pt[i] * a[i][j] for i in range(r)) % modulus for j in range(r))]
        for pt in points
    )
    if len(set(z)) != len(z):
        raise ValueError(f"abelianized matrix is not invertible mod {modulus}")
    return Representation(len(points), PERMUTATION, gens, z)


def validate_rep(rep: Representation, f: Endomorphism):
    """Check that z-conjugation realizes the endomorphism.

    Returns (ok, max_residual); permutation representations are compared
    exactly, unitary ones within ``UNITARY_TOL``.
    """
    if rep.rank != f.rank:
        raise ValueError("rank mismatch between representation and endomorphism")
    z_inv = rep._inv(rep.z_image)
    worst = 0.0
    for i in range(f.rank):
        lhs_gen = rep.gen_images[i]
        target = rep.word_matrix(f.images[i])
        if rep.kind == PERMUTATION:
            conj = _compose(_compose(z_inv, lhs_gen), rep.z_image)
            residual = 0 if conj == target else 1
        else:
            conj = z_inv @ lhs_gen @ rep.z_image
            residual = float(abs(conj - target).max())
        worst = max(worst, float(residual))
    return worst <= (0 if rep.kind == PERMUTATION else UNITARY_TOL), worst


def twist_matrix(mat: RingMatrix, rep: Representation):
    """Block matrix of a chain matrix twisted at z-degree 1.

    Block (i, j) is z_image times the representation of entry (i, j); sizes
    multiply, exactness follows the representation kind.
    """
    if mat.nrows != mat.ncols:
        raise ValueError("twist_matrix needs a square matrix")
    k, size, z = rep.dim, mat.nrows, rep.z_image
    if rep.kind == PERMUTATION:
        out = [[0] * (size * k) for _ in range(size * k)]
        for i in range(size):
            for j in range(size):
                for w, c in mat.entries[i][j].terms:
                    # row r of z times the word's matrix is the word's row z[r]
                    cols = _compose(z, rep.word_matrix(w))
                    for r in range(k):
                        out[i * k + r][j * k + cols[r]] += c
        return tuple(tuple(row) for row in out)
    import numpy as np

    out = np.zeros((size * k, size * k), dtype=complex)
    for i in range(size):
        for j in range(size):
            acc = np.zeros((k, k), dtype=complex)
            # canonical order, so equal entries give the same float sum
            for w, c in mat.entries[i][j].sorted_terms():
                acc += c * rep.word_matrix(w)
            out[i * k : (i + 1) * k, j * k : (j + 1) * k] = z @ acc
    return out


def check_block_size(f: Endomorphism, dim: int, extra_matrices: Sequence[RingMatrix] = ()):
    """Raise ValueError when a twisted chain block would exceed MAX_TWISTED_BLOCK."""
    chain = max(m.nrows for m in chain_matrices(f, extra_matrices))
    if chain * dim > MAX_TWISTED_BLOCK:
        raise ValueError(
            f"twisted block size {chain * dim} (chain size {chain} x representation "
            f"dimension {dim}) exceeds the limit {MAX_TWISTED_BLOCK}"
        )


def _degree_blocks(f: Endomorphism, rep: Representation, extra_matrices: Sequence[RingMatrix]):
    check_block_size(f, rep.dim, extra_matrices)
    return [twist_matrix(mat, rep) for mat in chain_matrices(f, extra_matrices)]


def twisted_lefschetz(
    f: Endomorphism,
    rep: Representation,
    n: int,
    extra_matrices: Sequence[RingMatrix] = (),
):
    """Alternating sum of traces of n-th powers of the twisted chain blocks.

    Exact (int) for permutation representations, complex for unitary ones.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    blocks = _degree_blocks(f, rep, extra_matrices)
    total = 0 if rep.is_exact() else complex(0)
    for d, b in enumerate(blocks):
        if rep.is_exact():
            rows = sparse_rows(b)
            p = [list(row) for row in b]
            for _ in range(n - 1):
                p = sparse_mat_mul(rows, p)
            tr = sum(p[i][i] for i in range(len(p)))
        else:
            import numpy as np

            p = np.linalg.matrix_power(b, n)
            tr = complex(np.trace(p))
        total = total + (tr if d % 2 == 0 else -tr)
    return total


def twisted_zeta(
    f: Endomorphism,
    rep: Representation,
    extra_matrices: Sequence[RingMatrix] = (),
) -> RationalFunction:
    """The twisted zeta function as a ratio of characteristic determinants.

    Odd chain degrees multiply the numerator, even ones the denominator, so
    the logarithmic series reproduces the twisted traces iterate by iterate.
    """
    blocks = _degree_blocks(f, rep, extra_matrices)
    exact = rep.is_exact()
    num = den = (1,)
    for d, b in enumerate(blocks):
        p = det_one_minus_t(b, exact)
        if d % 2 == 1:
            num = poly_mul(num, p)
        else:
            den = poly_mul(den, p)
    return RationalFunction.from_parts(num, den, exact)
