"""Linear torus maps: exact Lefschetz numbers and two-way fixed point counts.

For an integer 2x2 matrix A with det(A^n - I) nonzero, the fixed points of
the induced n-th power map on the torus are counted two independent ways:
the Smith-diagonal product of A^n - I, and explicit enumeration of the coset
solutions it produces.  Disagreement is a hard error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .freegroup import IntMatrix, mat_identity, mat_pow, mat_sub
from .ratfunc import CrossCheckError
from .snf import diagonal, smith_normal_form
from .zetafns import is_hyperbolic

ENUMERATION_LIMIT = 10_000


def _det2(m: IntMatrix) -> int:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def _check_2x2(a):
    if len(a) != 2 or any(len(row) != 2 for row in a):
        raise ValueError("torus maps here are 2x2 integer matrices")


def lefschetz_number(a: IntMatrix, n: int) -> int:
    """det(I - A^n), computed exactly."""
    _check_2x2(a)
    if n < 1:
        raise ValueError("n must be >= 1")
    return _det2(mat_sub(mat_identity(2), mat_pow(a, n)))


def _enumerate_count(m: IntMatrix, det: int) -> int:
    """Count x in [0,1)^2 with m @ x integral, by walking the Smith cosets."""
    d, p, _ = smith_normal_form(m)
    d1, d2 = diagonal(d)
    # p is unimodular with d = p m q; cosets of the column lattice of m are
    # p^{-1} (i, j) for 0 <= i < d1, 0 <= j < d2.  Solve m x = v exactly.
    p_inv = _int_inverse_2x2(p)
    inv_m = _frac_inverse_2x2(m)
    seen = set()
    for i in range(d1):
        for j in range(d2):
            v = (
                p_inv[0][0] * i + p_inv[0][1] * j,
                p_inv[1][0] * i + p_inv[1][1] * j,
            )
            x = (
                inv_m[0][0] * v[0] + inv_m[0][1] * v[1],
                inv_m[1][0] * v[0] + inv_m[1][1] * v[1],
            )
            frac = (x[0] - (x[0].numerator // x[0].denominator), x[1] - (x[1].numerator // x[1].denominator))
            # verify the reduced point still solves the congruence
            y0 = m[0][0] * frac[0] + m[0][1] * frac[1]
            y1 = m[1][0] * frac[0] + m[1][1] * frac[1]
            if y0.denominator != 1 or y1.denominator != 1:
                raise CrossCheckError("enumerated coset point fails the congruence")
            seen.add(frac)
    return len(seen)


def _int_inverse_2x2(m) -> IntMatrix:
    det = _det2(m)
    if det not in (1, -1):
        raise ValueError("matrix is not unimodular")
    return (
        (m[1][1] * det, -m[0][1] * det),
        (-m[1][0] * det, m[0][0] * det),
    )


def _frac_inverse_2x2(m):
    det = _det2(m)
    if det == 0:
        raise ValueError("singular matrix")
    return (
        (Fraction(m[1][1], det), Fraction(-m[0][1], det)),
        (Fraction(-m[1][0], det), Fraction(m[0][0], det)),
    )


def fixed_point_count(a: IntMatrix, n: int, enumeration_limit: int = ENUMERATION_LIMIT) -> int:
    """|det(A^n - I)| with an independent enumeration cross-check.

    The enumeration runs whenever the count is within ``enumeration_limit``;
    a singular A^n - I (non-isolated fixed points) is rejected.
    """
    _check_2x2(a)
    if n < 1:
        raise ValueError("n must be >= 1")
    m = mat_sub(mat_pow(a, n), mat_identity(2))
    det = _det2(m)
    if det == 0:
        raise ValueError(f"A^{n} - I is singular: fixed points are not isolated")
    d, _, _ = smith_normal_form(m)
    d1, d2 = diagonal(d)
    by_smith = d1 * d2
    if by_smith != abs(det):
        raise CrossCheckError("Smith diagonal product disagrees with the determinant")
    if by_smith <= enumeration_limit:
        by_enum = _enumerate_count(m, det)
        if by_enum != by_smith:
            raise CrossCheckError(
                f"fixed point count mismatch: smith {by_smith}, enumeration {by_enum}"
            )
    return by_smith


def nielsen_sequence(a: IntMatrix, n_terms: int, enumeration_limit: int = ENUMERATION_LIMIT) -> list[int]:
    """Fixed point counts of the first iterates of a hyperbolic torus map.

    Hyperbolicity makes every count nonzero and equal to |L|, so the sequence
    doubles as the iterate-dimension sequence.
    """
    _check_2x2(a)
    if not is_hyperbolic(a):
        raise ValueError("matrix has an eigenvalue of modulus 1 (not hyperbolic)")
    return [fixed_point_count(a, n, enumeration_limit) for n in range(1, n_terms + 1)]


@dataclass(frozen=True)
class ToralMap:
    """A linear self-map of the 2-torus, wrapped for convenience."""

    matrix: IntMatrix

    def __post_init__(self):
        _check_2x2(self.matrix)
        object.__setattr__(
            self, "matrix", tuple(tuple(int(x) for x in row) for row in self.matrix)
        )

    def lefschetz_number(self, n: int) -> int:
        return lefschetz_number(self.matrix, n)

    def fixed_point_count(self, n: int) -> int:
        return fixed_point_count(self.matrix, n)

    def nielsen_sequence(self, n_terms: int) -> list[int]:
        return nielsen_sequence(self.matrix, n_terms)
