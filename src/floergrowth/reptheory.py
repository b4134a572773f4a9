"""Finite-dimensional representations of the mapping-torus group and the
twisted Lefschetz zeta function.

Generator and z images are stored as sparse rows of (column, value) pairs;
each letter's matrix and its inverse, the conjugate transpose, are
tabulated at construction.  The two kinds differ only as input formats:
permutation images are index tuples p (row r of the 0/1 matrix has its 1 in
column p[r]) and give integer entries, unitary images are complex matrices
(checked unitary to 1e-8) and give complex ones.  One code path serves
both, and the entries pick the arithmetic.  A representation is valid when
conjugating each generator matrix by the z matrix reproduces the matrix of
the generator's image.  The rose chain twists to two blocks: Z, the matrix
of z, for the vertex's unit (1), and the twisted Fox matrix for the petals.
"""

from __future__ import annotations

import itertools

from .foxcalc import RingMatrix, jacobian
from .freegroup import Endomorphism, Frozen, Word, as_integer, mat_trace, sparse_mat_mul, sparse_rows
from .ratfunc import RationalFunction, det_one_minus_t

UNITARY_TOL = 1e-8
# Largest twisted block (chain size x representation dimension) accepted.
# A block's characteristic polynomial costs about size^2 x nonzeros; cat
# (a -> aab, b -> ab) at --modulus 11, block 242, takes about 3 s on a 2-core
# Xeon VM, and at --modulus 12, block 288, about 4.5 s.
MAX_TWISTED_BLOCK = 256

PERMUTATION = "permutation"
UNITARY = "unitary"


def _permutation(p, dim: int) -> tuple:
    """Sparse rows of the 0/1 matrix of an index tuple."""
    error = "a permutation image must be an index tuple listing 0..dim-1 once each"
    try:
        perm = tuple(as_integer(x, "a permutation image entry") for x in p)
    except TypeError:
        raise ValueError(error) from None
    if sorted(perm) != list(range(dim)):
        raise ValueError(error)
    return tuple(((j, 1),) for j in perm)


def _unitary(m, dim: int) -> tuple:
    """Sparse rows of a square complex matrix."""
    rows = [[complex(x) for x in row] for row in m]
    if len(rows) != dim or any(len(row) != dim for row in rows):
        raise ValueError("matrix shape mismatch")
    # the entries of a unitary matrix lie in the unit disc; NaN fails here too
    bound = 1 + UNITARY_TOL
    if not all(abs(x.real) <= bound and abs(x.imag) <= bound for row in rows for x in row):
        raise ValueError("unitary matrix entries must be finite, with parts in [-1, 1]")
    return tuple(map(tuple, sparse_rows(rows)))


def _matrix_to_permutation(m) -> tuple[int, ...]:
    """Index tuple of a 0/1 matrix with one 1 per row; ``_permutation``
    checks that the columns form a permutation."""
    rows = [[as_integer(x, "a permutation matrix cell") for x in row] for row in m]
    if any(len(row) != len(m) or sorted(row) != [0] * (len(m) - 1) + [1] for row in rows):
        raise ValueError("permutation representation needs 0/1 permutation matrices")
    return tuple(row.index(1) for row in rows)


def _complex_cell(x) -> complex:
    if not (isinstance(x, list) and len(x) == 2 and all(type(v) in (int, float) for v in x)):
        raise ValueError(f"a unitary matrix cell must be a pair [re, im] of numbers, got {x!r}")
    return complex(*x)


def _adjoint(rows, dim: int) -> tuple:
    """Conjugate transpose in sparse rows: the inverse of a unitary matrix."""
    out = [[] for _ in range(dim)]
    for i, row in enumerate(rows):
        for j, x in row:
            out[j].append((i, x.conjugate()))
    return tuple(map(tuple, out))


def _max_gap(a, b) -> float:
    """Largest entrywise distance between two dense matrices."""
    return max(float(abs(x - y)) for ra, rb in zip(a, b) for x, y in zip(ra, rb))


class Representation(Frozen):
    """Images of the fiber generators and of z, as sparse rows (see the
    module docstring for the input formats)."""

    # _letters: letter -> sparse rows of its matrix, for both signs of every
    # generator; _eye: the dense identity matrix, in the entries' arithmetic
    __slots__ = ("dim", "kind", "gen_images", "z_image", "_letters", "_eye")
    _fields = _compare = ("dim", "kind", "gen_images", "z_image")

    def __init__(self, dim: int, kind: str, gen_images: tuple, z_image: tuple):
        if kind not in (PERMUTATION, UNITARY):
            raise ValueError(f"unknown representation kind {kind!r}")
        if dim < 1:
            raise ValueError("dim must be >= 1")
        read, one = (_permutation, 1) if kind == PERMUTATION else (_unitary, complex(1))
        gens = tuple(read(g, dim) for g in gen_images)
        z = read(z_image, dim)
        eye = tuple(tuple(one * (i == j) for j in range(dim)) for i in range(dim))
        for m in (*gens, z):
            product = sparse_mat_mul(_adjoint(m, dim), sparse_mat_mul(m, eye))
            if _max_gap(product, eye) > UNITARY_TOL:
                raise ValueError("matrix is not unitary within tolerance")
        letters = {}
        for i, g in enumerate(gens, 1):
            letters[i], letters[-i] = g, _adjoint(g, dim)
        self._set_fields(dim, kind, gens, z)
        object.__setattr__(self, "_letters", letters)
        object.__setattr__(self, "_eye", eye)

    @property
    def rank(self) -> int:
        return len(self.gen_images)

    def is_exact(self) -> bool:
        return self.kind == PERMUTATION

    def word_matrix(self, w: Word):
        """Dense image of a fiber word, multiplied in from the right."""
        acc = self._eye
        for x in reversed(w.letters):
            acc = sparse_mat_mul(self._letters[x], acc)
        return acc

    # -- JSON ---------------------------------------------------------------

    @classmethod
    def from_json(cls, data) -> "Representation":
        kind = data["kind"]
        if kind == PERMUTATION:
            decode = _matrix_to_permutation
        elif kind == UNITARY:
            decode = lambda m: [[_complex_cell(x) for x in row] for row in m]
        else:
            raise ValueError(f"unknown representation kind {kind!r}")
        return cls(
            dim=as_integer(data["dim"], "dim"),
            kind=kind,
            gen_images=tuple(decode(m) for m in data["a"]),
            z_image=decode(data["z"]),
        )

    def to_json(self) -> dict:
        zero = 0 * self._eye[0][0]
        cell = (lambda x: x) if self.is_exact() else (lambda x: [x.real, x.imag])
        matrix = lambda rows: [
            [cell(r.get(j, zero)) for j in range(self.dim)] for r in map(dict, rows)
        ]
        return {
            "dim": self.dim,
            "kind": self.kind,
            "a": [matrix(m) for m in self.gen_images],
            "z": matrix(self.z_image),
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

    Returns (ok, max_residual): ok when the largest entrywise gap between
    z^-1·rho(a_i)·z and rho(f(a_i)) is at most ``UNITARY_TOL``, which for
    integer entries means exactly 0.
    """
    if rep.rank != f.rank:
        raise ValueError("rank mismatch between representation and endomorphism")
    z_inv = _adjoint(rep.z_image, rep.dim)
    z = sparse_mat_mul(rep.z_image, rep._eye)
    worst = 0.0
    for gen, image in zip(rep.gen_images, f.images):
        conj = sparse_mat_mul(z_inv, sparse_mat_mul(gen, z))
        worst = max(worst, _max_gap(conj, rep.word_matrix(image)))
    return worst <= UNITARY_TOL, worst


def twist_matrix(mat: RingMatrix, rep: Representation):
    """Block matrix of a chain matrix twisted at z-degree 1.

    Block (i, j) is z_image times the representation of entry (i, j), its
    terms summed in canonical order so that equal entries give the same
    float sum.  Sizes multiply; the entries' arithmetic is the
    representation's.
    """
    if mat.nrows != mat.ncols:
        raise ValueError("twist_matrix needs a square matrix")
    k, size = rep.dim, mat.nrows
    zero = 0 * rep._eye[0][0]
    out = [[] for _ in range(size * k)]
    for i in range(size):
        for j in range(size):
            acc = [[zero] * k for _ in range(k)]
            for w, c in mat.entries[i][j].sorted_terms():
                image = rep.word_matrix(w)
                acc = [[x + c * y for x, y in zip(*rows)] for rows in zip(acc, image)]
            for r, row in enumerate(sparse_mat_mul(rep.z_image, acc)):
                out[i * k + r].extend(row)
    return tuple(map(tuple, out))


def check_block_size(f: Endomorphism, dim: int):
    """Raise ValueError when a twisted chain block would exceed MAX_TWISTED_BLOCK.
    The largest chain block is the rank x rank Fox matrix."""
    if f.rank * dim > MAX_TWISTED_BLOCK:
        raise ValueError(
            f"twisted block size {f.rank * dim} (chain size {f.rank} x representation "
            f"dimension {dim}) exceeds the limit {MAX_TWISTED_BLOCK}"
        )


def _degree_blocks(f: Endomorphism, rep: Representation):
    """The twisted blocks of the rose chain: Z, the matrix of z, for the
    vertex's unit (1), and the twisted Fox matrix."""
    check_block_size(f, rep.dim)
    return sparse_mat_mul(rep.z_image, rep._eye), twist_matrix(jacobian(f), rep)


def _power_traces(block, n: int) -> list:
    """[tr B, tr B^2, ..., tr B^n], the powers taken in one pass of sparse
    products."""
    rows = sparse_rows(block)
    power, out = block, [mat_trace(block)]
    for _ in range(n - 1):
        power = sparse_mat_mul(rows, power)
        out.append(mat_trace(power))
    return out


def twisted_lefschetz(f: Endomorphism, rep: Representation, n: int) -> list:
    """Twisted Lefschetz numbers [L(f^1), ..., L(f^n)]: the traces of the
    powers of the vertex block Z minus those of the twisted Fox block.

    The Fox matrix is twisted once.  Exact (int) for permutation
    representations, complex for unitary ones.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    vertex, fox = _degree_blocks(f, rep)
    return [v - b for v, b in zip(_power_traces(vertex, n), _power_traces(fox, n))]


def twisted_zeta(f: Endomorphism, rep: Representation) -> RationalFunction:
    """The twisted zeta function det(I - tB) / det(I - tZ), B the twisted Fox
    block (degree 1) and Z the matrix of z (degree 0), so the logarithmic
    series reproduces the twisted traces iterate by iterate.  The blocks'
    entries pick the arithmetic: integers for permutation representations,
    complex floats for unitary ones.
    """
    vertex, fox = _degree_blocks(f, rep)
    return RationalFunction.from_parts(det_one_minus_t(fox), det_one_minus_t(vertex))
