"""Linear torus maps: exact Lefschetz numbers and two-way fixed point counts.

For an integer 2x2 matrix A with det(A^n - I) nonzero, the fixed points of
the induced n-th power map on the torus are counted two independent ways:
the Smith-diagonal product of A^n - I, and explicit enumeration of the coset
solutions it produces.  Disagreement is a hard error.

The enumeration is integer-only.  With m = A^n - I and D = |det m|, the
fixed points are the x in [0,1)^2 with m x integral; each has the form
x = r / D for an integer vector r in [0, D)^2.  The point over the coset
v + m Z^2 is r = sign(det m) adj(m) v mod D, since m adj(m) = det(m) I.
Each r is checked to solve the congruence m r = 0 mod D and to lie over its
own coset, and the distinct r are counted.
"""

from __future__ import annotations

from .freegroup import IntMatrix, mat_identity, mat_pow, mat_sub
from .ratfunc import CrossCheckError
from .snf import smith_normal_form
from .zetafns import _check_2x2, _trace_det, is_hyperbolic

ENUMERATION_LIMIT = 10_000


def lefschetz_number(a: IntMatrix, n: int) -> int:
    """det(I - A^n), computed exactly."""
    _check_2x2(a)
    if n < 1:
        raise ValueError("n must be >= 1")
    return _trace_det(mat_sub(mat_identity(2), mat_pow(a, n)))[1]


def _enumerate_count(m: IntMatrix, det: int, d1: int, d2: int, p: IntMatrix) -> int:
    """Count x in [0,1)^2 with m @ x integral, by walking the Smith cosets
    of d = p m q with diagonal (d1, d2).

    Each point is kept as its integer numerator r = |det| x.
    """
    # p is unimodular with d = p m q; cosets of the column lattice of m are
    # p^{-1} (i, j) for 0 <= i < d1, 0 <= j < d2, and y lies in the coset of
    # (i, j) exactly when p y = (i, j) mod (d1, d2).
    p_inv = _int_inverse_2x2(p)
    modulus = abs(det)
    sign = 1 if det > 0 else -1
    (a, b), (c, e) = m
    seen = set()
    for i in range(d1):
        for j in range(d2):
            v0 = p_inv[0][0] * i + p_inv[0][1] * j
            v1 = p_inv[1][0] * i + p_inv[1][1] * j
            # sign(det) adj(m) = |det| m^{-1}
            r0 = sign * (e * v0 - b * v1) % modulus
            r1 = sign * (a * v1 - c * v0) % modulus
            y0, rem0 = divmod(a * r0 + b * r1, modulus)
            y1, rem1 = divmod(c * r0 + e * r1, modulus)
            if rem0 or rem1:
                raise CrossCheckError("enumerated coset point fails the congruence")
            if (p[0][0] * y0 + p[0][1] * y1 - i) % d1 or (p[1][0] * y0 + p[1][1] * y1 - j) % d2:
                raise CrossCheckError("enumerated coset point lies over another coset")
            seen.add((r0, r1))
    return len(seen)


def _int_inverse_2x2(m) -> IntMatrix:
    _, det = _trace_det(m)
    if det not in (1, -1):
        raise ValueError("matrix is not unimodular")
    return (
        (m[1][1] * det, -m[0][1] * det),
        (-m[1][0] * det, m[0][0] * det),
    )


def fixed_point_count(a: IntMatrix, n: int) -> int:
    """|det(A^n - I)| with an independent enumeration cross-check.

    The enumeration runs whenever the count is within ``ENUMERATION_LIMIT``;
    a singular A^n - I (non-isolated fixed points) is rejected.
    """
    _check_2x2(a)
    if n < 1:
        raise ValueError("n must be >= 1")
    m = mat_sub(mat_pow(a, n), mat_identity(2))
    _, det = _trace_det(m)
    if det == 0:
        raise ValueError(f"A^{n} - I is singular: fixed points are not isolated")
    (d1, d2), p, _ = smith_normal_form(m)
    by_smith = d1 * d2
    if by_smith != abs(det):
        raise CrossCheckError("Smith diagonal product disagrees with the determinant")
    if by_smith <= ENUMERATION_LIMIT:
        by_enum = _enumerate_count(m, det, d1, d2, p)
        if by_enum != by_smith:
            raise CrossCheckError(
                f"fixed point count mismatch: smith {by_smith}, enumeration {by_enum}"
            )
    return by_smith


def nielsen_sequence(a: IntMatrix, n_terms: int) -> list[int]:
    """Fixed point counts of the first iterates of a hyperbolic torus map.

    Hyperbolicity makes every count nonzero and equal to |L|, so the sequence
    doubles as the iterate-dimension sequence.
    """
    if not is_hyperbolic(a):  # also rejects anything but a 2x2 matrix
        raise ValueError("matrix has an eigenvalue of modulus 1 (not hyperbolic)")
    return [fixed_point_count(a, n) for n in range(1, n_terms + 1)]
