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

import math
import operator
import sys
from fractions import Fraction
from typing import Sequence

from .freegroup import Frozen, mat_trace, sparse_mat_mul, sparse_rows

ROOT_RESIDUAL_TOL = 1e-8
CANCEL_TOL = 1e-6
MAX_ROOT_SWEEPS = 500
_EPS = sys.float_info.epsilon
_STOP_ULPS = 4  # poly_roots's stopping tolerances, in units of rounding


class CrossCheckError(RuntimeError):
    """An internal consistency check of a computed result failed."""


def _log_info(msg: str, *args) -> None:
    """An INFO record on this module's logger.  A process that never imported
    logging has no handler that could show one, so it is left unloaded."""
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger(__name__).info(msg, *args)


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
    first), as a list of complex numbers.  Zero top coefficients are dropped
    and each zero low coefficient gives a root at 0, so a polynomial of
    degree m has m roots.  This is the package's one float root finder.

    Aberth-Ehrlich simultaneous iteration (Aberth, Math. Comp. 27, 1973) in
    complex doubles, started on the circle of radius (|a_0|/|a_m|)^(1/m).
    Horner gives the value and the derivative, on the reversed polynomial at
    1/x when |x| > 1 so that no power of x overflows.  Each sweep moves every
    root still active by its Aberth step.  A root leaves the sweeps once its
    residual before the step is within _STOP_ULPS units of Horner's rounding
    bound eps * sum |a_i| |x|^i, or its step within _STOP_ULPS units of
    eps * |x|.  A root still moving after MAX_ROOT_SWEEPS sweeps raises
    CrossCheckError.
    """
    p = [complex(c) for c in coeffs]
    while p and p[-1] == 0:
        p.pop()
    zeros = 0
    while zeros < len(p) and p[zeros] == 0:
        zeros += 1
    p = p[zeros:]
    m = len(p) - 1
    if m < 1:
        return [0j] * zeros
    radius = (abs(p[0]) / abs(p[-1])) ** (1.0 / m)
    # the offset keeps every start off the real axis
    angles = [2 * math.pi * k / m + 0.4 for k in range(m)]
    x = [radius * complex(math.cos(a), math.sin(a)) for a in angles]
    top_first = [(c, abs(c)) for c in reversed(p)]
    low_first = top_first[::-1]
    active = range(m)
    for _ in range(MAX_ROOT_SWEEPS):
        moving = []
        for k in active:
            z = x[k]
            outside = abs(z) > 1.0
            y = 1 / z if outside else z
            val = der = 0j
            bound = 0.0
            ay = abs(y)
            for c, a in low_first if outside else top_first:
                der = der * y + val
                val = val * y + c
                bound = bound * ay + a
            if val == 0:  # an exact root, perhaps a multiple one where p' = 0 too
                continue
            # p(z) / (p'(z) - p(z) * sum_j 1/(z - x_j)), with p'(z) read from
            # the reversed polynomial when |z| > 1
            slope = y * (m * val - y * der) if outside else der
            step = val / (slope - val * sum(1 / (z - w) for w in x if w != z))
            x[k] = z - step
            if abs(val) > _STOP_ULPS * _EPS * bound and abs(step) > _STOP_ULPS * _EPS * abs(z):
                moving.append(k)
        if not moving:
            return x + [0j] * zeros
        active = moving
    raise CrossCheckError(
        f"root finder: {len(active)} of {m} roots still moving after {MAX_ROOT_SWEEPS} sweeps"
    )


def _roots_nonzero(p):
    """Roots of a polynomial with nonzero constant term, with residuals."""
    p = [complex(c) for c in p]
    scale = max(abs(c) for c in p)
    out = [(w, abs(poly_eval(p, w)) / scale) for w in poly_roots(p)]
    return sorted(out, key=lambda rw: (abs(rw[0]), rw[0].real, rw[0].imag))


def _newton_step(p, x):
    """x - p(x)/p'(x); x itself where p or p' vanishes."""
    val = der = 0j
    for c in reversed(p):
        der = der * x + val
        val = val * x + c
    return x - val / der if val and der else x


def _deflate(p, w):
    """p / (1 - t/w) by composite synthetic division (Peters and Wilkinson,
    1971): up from the constant term below the largest term of p on
    |t| = |w|, down from the top from there on, so neither recurrence
    amplifies rounding.  The constant term stays exactly 1; the remainder,
    p(w)/w^m, is dropped at the join."""
    m = len(p) - 1
    log_w = math.log(abs(w))
    join = max(range(1, m + 1), key=lambda k: math.log(abs(p[k])) + k * log_w if p[k] else -math.inf)
    q = [p[0]] + [0j] * (m - 1)
    for k in range(1, join):
        q[k] = p[k] + q[k - 1] / w
    if join < m:
        q[m - 1] = -w * p[m]
        for k in range(m - 1, join, -1):
            q[k - 1] = w * (q[k] - p[k])
    return q


def _exact_coefficients(coeffs) -> bool:
    return all(isinstance(c, (int, Fraction)) for c in coeffs)


class RationalFunction(Frozen):
    """num/den in t, both normalized to constant term 1.

    The coefficients carry the lane: all ints and Fractions is exact, any
    other number is the float lane.  ``cancelled`` records root pairs removed
    in the float lane (closer than the cancellation tolerance); the exact lane
    cancels by polynomial gcd.  == and hash ignore ``cancelled``.
    """

    __slots__ = _fields = ("numerator", "denominator", "cancelled")
    _compare = ("numerator", "denominator")

    def __init__(self, numerator: tuple, denominator: tuple, cancelled: tuple = ()):
        num = _trim(numerator)
        den = _trim(denominator)
        if num[0] != 1 or den[0] != 1:
            raise ValueError("rational function must have constant term 1 in both parts")
        self._set_fields(num, den, cancelled)

    @property
    def exact(self) -> bool:
        """Whether every coefficient is an int or a Fraction."""
        return _exact_coefficients(self.numerator + self.denominator)

    @classmethod
    def from_parts(cls, num, den) -> "RationalFunction":
        """num/den with common factors cancelled: by polynomial gcd when every
        coefficient is an int or a Fraction, otherwise by root matching,
        each matched pair's linear factor divided out of the given
        coefficients."""
        if _exact_coefficients((*num, *den)):
            num = tuple(Fraction(c) for c in _trim(num))
            den = tuple(Fraction(c) for c in _trim(den))
            g = poly_gcd_exact(num, den)
            if poly_degree(g) > 0:
                g = tuple(c / g[0] for c in g)  # normalize constant term to 1
                num, _ = _poly_divmod_exact(num, g)
                den, _ = _poly_divmod_exact(den, g)
                _log_info("cancelled a common factor of degree %d", poly_degree(g))
            return cls(tuple(num), tuple(den))
        num = [complex(c) for c in _trim(num)]
        den = [complex(c) for c in _trim(den)]
        rn = [w for w, _ in _roots_nonzero(num)]
        rd = [w for w, _ in _roots_nonzero(den)]
        cancelled = []
        kept_d = list(rd)
        for w in rn:
            hit = next((i for i, v in enumerate(kept_d) if abs(w - v) <= CANCEL_TOL), None)
            if hit is not None:
                cancelled.append((w, kept_d.pop(hit)))
        for w, v in cancelled:
            # One divisor for both parts keeps the series of their ratio.  A
            # Newton step on a part as deflated so far sharpens the rest of a
            # root cluster; of the pair and its two Newton images, the point
            # where the larger dropped remainder is least is the divisor.
            x = min(
                (w, v, _newton_step(num, w), _newton_step(den, v)),
                key=lambda x: max(abs(poly_eval(num, x)), abs(poly_eval(den, x))),
            )
            num = _deflate(num, x)
            den = _deflate(den, x)
        if cancelled:
            _log_info("cancelled %d near-common root pair(s)", len(cancelled))
        return cls(tuple(num), tuple(den), cancelled=tuple(cancelled))

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
