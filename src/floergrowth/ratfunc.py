"""Polynomials in t and rational functions with exact or float coefficients.

The arithmetic lane follows the data.  Integer matrices (twisted blocks of
permutation representations, entrywise-norm matrices) get their
characteristic polynomials over the integers; Fractions appear only in the
polynomial gcd that cancels common factors and in series expansion.  Any
other matrix runs the same recurrence in complex floats, and its rational
functions cancel by root matching with a stated tolerance.  Floats only ever
appear at the root-finding boundary.
"""

from __future__ import annotations

import logging
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .freegroup import mat_trace, sparse_mat_mul, sparse_rows

log = logging.getLogger(__name__)

ROOT_RESIDUAL_TOL = 1e-8
CANCEL_TOL = 1e-6


class CrossCheckError(RuntimeError):
    """An internal consistency check of a computed result failed."""


def _trim(coeffs):
    out = list(coeffs)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def poly_eval(p, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_degree(p) -> int:
    p = _trim(p)
    return len(p) - 1 if any(c != 0 for c in p) else 0


def _poly_divmod_exact(a, b):
    # synthetic division over Fraction coefficients
    a = [Fraction(x) for x in _trim(a)]
    b = [Fraction(x) for x in _trim(b)]
    if all(c == 0 for c in b):
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    if len(a) - 1 < db or all(c == 0 for c in a):
        return (Fraction(0),), _trim(a)
    quot = [Fraction(0)] * (len(a) - db)
    rem = a[:]
    for k in range(len(a) - db - 1, -1, -1):
        c = rem[k + db] / b[db]
        quot[k] = c
        if c != 0:
            for i in range(db + 1):
                rem[k + i] -= c * b[i]
    return _trim(quot), _trim(rem[:db] if db else [Fraction(0)])


def poly_gcd_exact(a, b):
    """Monic gcd over the rationals."""
    a = _trim([Fraction(x) for x in a])
    b = _trim([Fraction(x) for x in b])
    while any(c != 0 for c in b):
        _, r = _poly_divmod_exact(a, b)
        a, b = b, _trim(r)
        if all(c == 0 for c in b):
            break
    a = _trim(a)
    if a[-1] != 0:
        a = tuple(c / a[-1] for c in a)
    return a


def det_one_minus_t(mat: Sequence[Sequence]):
    """Coefficients of det(I - t*B) by the Faddeev-LeVerrier recurrence,
    multiplying through B's sparse rows.

    A matrix of integers (every entry passes ``operator.index``) gives
    integers: for an integer B every trace in the recurrence is divisible by
    its step number, so a nonzero remainder means the arithmetic went wrong
    and raises CrossCheckError.  Any other matrix runs the same recurrence in
    complex floats.
    """
    n = len(mat)
    try:
        rows = sparse_rows([[operator.index(x) for x in row] for row in mat])
        integer = True
    except TypeError:
        rows = sparse_rows([[complex(x) for x in row] for row in mat])
        integer = False
    zero = 0 if integer else complex(0)
    m = [[zero] * n for _ in range(n)]
    c = zero + 1
    coeffs = [c]
    for k in range(1, n + 1):
        for i in range(n):
            m[i][i] += c
        m = sparse_mat_mul(rows, m)
        if integer:
            c, remainder = divmod(-mat_trace(m), k)
            if remainder:
                raise CrossCheckError(
                    f"Faddeev-LeVerrier step {k}: trace is not divisible by {k}"
                )
        else:
            c = -mat_trace(m) / k
        coeffs.append(c)
    return _trim(coeffs)


def poly_roots(coeffs):
    """Roots of the polynomial with the given coefficients (constant term
    first), as numpy returns them.  This is the package's one float root
    finder; numpy picks its real or complex solver from the coefficients."""
    import numpy as np

    return np.roots(np.array(coeffs[::-1]))


def _roots_nonzero(p):
    """Roots of a polynomial with nonzero constant term, with residuals."""
    p = [complex(c) for c in p]
    scale = max(abs(c) for c in p)
    out = [(complex(w), abs(poly_eval(p, complex(w))) / scale) for w in poly_roots(p)]
    return sorted(out, key=lambda rw: (abs(rw[0]), rw[0].real, rw[0].imag))


def _exact_coefficients(coeffs) -> bool:
    return all(isinstance(c, (int, Fraction)) for c in coeffs)


@dataclass(frozen=True)
class RationalFunction:
    """num/den in t, both normalized to constant term 1.

    The coefficients carry the lane: all ints and Fractions is exact, any
    other number is the float lane.  ``cancelled`` records root pairs removed
    in the float lane (closer than the cancellation tolerance); the exact lane
    cancels by polynomial gcd.
    """

    numerator: tuple
    denominator: tuple
    cancelled: tuple = field(default=(), compare=False)

    def __post_init__(self):
        num = _trim(self.numerator)
        den = _trim(self.denominator)
        if num[0] != 1 or den[0] != 1:
            raise ValueError("rational function must have constant term 1 in both parts")
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)

    @property
    def exact(self) -> bool:
        """Whether every coefficient is an int or a Fraction."""
        return _exact_coefficients(self.numerator + self.denominator)

    @classmethod
    def from_parts(cls, num, den) -> "RationalFunction":
        """num/den with common factors cancelled: by polynomial gcd when every
        coefficient is an int or a Fraction, by root matching otherwise."""
        if _exact_coefficients((*num, *den)):
            num = tuple(Fraction(c) for c in _trim(num))
            den = tuple(Fraction(c) for c in _trim(den))
            g = poly_gcd_exact(num, den)
            if poly_degree(g) > 0:
                g = tuple(c / g[0] for c in g)  # normalize constant term to 1
                num, _ = _poly_divmod_exact(num, g)
                den, _ = _poly_divmod_exact(den, g)
                log.info("cancelled a common factor of degree %d", poly_degree(g))
            return cls(tuple(num), tuple(den))
        rn = [w for w, _ in _roots_nonzero(num)]
        rd = [w for w, _ in _roots_nonzero(den)]
        cancelled = []
        kept_d = list(rd)
        kept_n = []
        for w in rn:
            hit = None
            for i, v in enumerate(kept_d):
                if abs(w - v) <= CANCEL_TOL:
                    hit = i
                    break
            if hit is None:
                kept_n.append(w)
            else:
                cancelled.append((w, kept_d.pop(hit)))
        if cancelled:
            log.info("cancelled %d near-common root pair(s)", len(cancelled))

        def rebuild(roots):
            p = [complex(1)]
            for w in roots:
                p = list(poly_mul(p, (complex(1), complex(-1) / w)))
            return tuple(p)

        return cls(rebuild(kept_n), rebuild(kept_d), cancelled=tuple(cancelled))

    def reciprocal(self) -> "RationalFunction":
        return RationalFunction(self.denominator, self.numerator, self.cancelled)

    def substitute_sign(self, sigma: int) -> "RationalFunction":
        """Replace t by sigma*t for sigma = +-1."""
        if sigma not in (1, -1):
            raise ValueError("sigma must be +-1")
        flip = lambda p: tuple(c * (sigma ** k) for k, c in enumerate(p))
        return RationalFunction(flip(self.numerator), flip(self.denominator))

    def roots(self):
        """(value, residual) pairs for numerator then denominator roots."""
        return _roots_nonzero(self.numerator), _roots_nonzero(self.denominator)

    def min_root_modulus(self) -> float:
        """Smallest modulus among certified zeros and poles; inf when none."""
        best = float("inf")
        for batch in self.roots():
            for w, residual in batch:
                if residual <= ROOT_RESIDUAL_TOL:
                    best = min(best, abs(w))
        return best

    def series(self, order: int):
        """Taylor coefficients through t^order (den has constant term 1)."""
        one = Fraction(1) if self.exact else complex(1)
        num = list(self.numerator) + [one * 0] * (order + 1 - len(self.numerator))
        den = list(self.denominator) + [one * 0] * (order + 1 - len(self.denominator))
        out = []
        for k in range(order + 1):
            acc = num[k]
            for j in range(1, k + 1):
                acc = acc - den[j] * out[k - j]
            out.append(acc)
        return tuple(out)

    def to_text(self) -> str:
        return f"({_poly_text(self.numerator)}) / ({_poly_text(self.denominator)})"

    __str__ = to_text


def _coeff_text(c) -> str:
    if isinstance(c, Fraction):
        return str(c)
    if isinstance(c, complex):
        if abs(c.imag) < 1e-12:
            return f"{c.real:.6g}"
        return f"({c.real:.6g}{c.imag:+.6g}i)"
    return str(c)


def _poly_text(p) -> str:
    pieces = []
    for k, c in enumerate(p):
        if c == 0:
            continue
        mag = _coeff_text(abs(c) if not isinstance(c, complex) else c)
        term = "1" if k == 0 else ("t" if k == 1 else f"t^{k}")
        if k > 0 and mag == "1":
            body = term
        elif k == 0:
            body = mag
        else:
            body = f"{mag} {term}"
        if not pieces:
            neg = (not isinstance(c, complex)) and c < 0
            pieces.append(f"-{body}" if neg else body)
        else:
            sign = "-" if (not isinstance(c, complex)) and c < 0 else "+"
            pieces.append(f"{sign} {body}")
    return " ".join(pieces) if pieces else "0"
