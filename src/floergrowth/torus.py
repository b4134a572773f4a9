"""Linear torus maps: exact Lefschetz numbers and fixed point counts.

For an integer 2x2 matrix A with det(A^n - I) nonzero, the induced n-th
power map on the torus has d1 d2 fixed points, the product of the Smith
diagonal of A^n - I.  That product is checked against |det(A^n - I)|, which
for a 2x2 matrix is the absolute Lefschetz number |det(I - A^n)|, and
disagreement is a hard error.  The tests check the counts from outside:
through punctured-torus Reidemeister trace norms, and against a Fraction
enumeration of the fixed points.
"""

from __future__ import annotations

from .freegroup import IntMatrix, mat_identity, mat_pow, mat_sub
from .ratfunc import CrossCheckError
from .snf import smith_normal_form
from .zetafns import _check_2x2, _trace_det, is_hyperbolic


def lefschetz_number(a: IntMatrix, n: int) -> int:
    """det(I - A^n), computed exactly."""
    _check_2x2(a)
    if n < 1:
        raise ValueError("n must be >= 1")
    return _trace_det(mat_sub(mat_identity(2), mat_pow(a, n)))[1]


def fixed_point_count(a: IntMatrix, n: int) -> int:
    """The Smith diagonal product of A^n - I, checked against |det(A^n - I)|.

    For a 2x2 matrix det(A^n - I) = det(I - A^n), the Lefschetz number.  A
    singular A^n - I (non-isolated fixed points) is rejected.
    """
    det = lefschetz_number(a, n)
    if det == 0:
        raise ValueError(f"A^{n} - I is singular: fixed points are not isolated")
    (d1, d2), _, _ = smith_normal_form(mat_sub(mat_pow(a, n), mat_identity(2)))
    if d1 * d2 != abs(det):
        raise CrossCheckError("Smith diagonal product disagrees with the determinant")
    return d1 * d2


def nielsen_sequence(a: IntMatrix, n_terms: int) -> list[int]:
    """Fixed point counts of the first iterates of a hyperbolic torus map.

    Hyperbolicity makes every count nonzero and equal to |L|, so the sequence
    doubles as the iterate-dimension sequence.
    """
    if not is_hyperbolic(a):  # also rejects anything but a 2x2 matrix
        raise ValueError("matrix has an eigenvalue of modulus 1 (not hyperbolic)")
    return [fixed_point_count(a, n) for n in range(1, n_terms + 1)]
