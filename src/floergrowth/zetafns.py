"""Symplectic zeta series, the periodic-map radical form, and torus closed
forms.

All series arithmetic is exact: coefficients are Fractions, and exponentials
and logarithms use the standard convolution recurrences.  Each closed form is
read off the series it stands for, exp(sum d_n t^n / n): the radical form
expands through the dimensions its factors encode, and the torus form takes
its sign flip and inversion from the signs of L(A) and L(A^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .freegroup import IntMatrix
from .growth import growth_estimate
from .ratfunc import RationalFunction


@dataclass(frozen=True)
class PowerSeries:
    """Truncated power series with exact rational coefficients."""

    coeffs: tuple  # index k holds the t^k coefficient
    order: int

    def __post_init__(self):
        cs = tuple(Fraction(c) for c in self.coeffs[: self.order + 1])
        cs = cs + (Fraction(0),) * (self.order + 1 - len(cs))
        object.__setattr__(self, "coeffs", cs)

    def exp(self) -> "PowerSeries":
        """exp of a series with zero constant term."""
        if self.coeffs[0] != 0:
            raise ValueError("exp needs zero constant term")
        out = [Fraction(1)] + [Fraction(0)] * self.order
        for n in range(1, self.order + 1):
            acc = Fraction(0)
            for k in range(1, n + 1):
                acc += k * self.coeffs[k] * out[n - k]
            out[n] = acc / n
        return PowerSeries(tuple(out), self.order)

    def log(self) -> "PowerSeries":
        """log of a series with constant term 1."""
        if self.coeffs[0] != 1:
            raise ValueError("log needs constant term 1")
        a = [Fraction(0)] * (self.order + 1)
        for n in range(1, self.order + 1):
            acc = n * self.coeffs[n]
            for k in range(1, n):
                acc -= k * a[k] * self.coeffs[n - k]
            a[n] = acc / n
        return PowerSeries(tuple(a), self.order)


def symplectic_zeta_series(dims: Sequence[int], order: int) -> PowerSeries:
    """exp( sum dims_n t^n / n ) through the given order, exactly."""
    if order < 0:
        raise ValueError("order must be >= 0")
    if len(dims) < order:
        raise ValueError(f"need {order} dimension values, got {len(dims)}")
    body = [Fraction(0)] * (order + 1)
    for n in range(1, order + 1):
        body[n] = Fraction(dims[n - 1], n)
    return PowerSeries(tuple(body), order).exp()


def radius_estimate(dims: Sequence[float]) -> float:
    """Reciprocal of the finite-sample growth proxy of the dims sequence."""
    return 1.0 / growth_estimate(dims).value


def divisors(m: int) -> list[int]:
    return [d for d in range(1, m + 1) if m % d == 0]


@dataclass(frozen=True)
class RadicalRational:
    """Product of (1 - t^d) factors raised to rational exponents -P(d)/d."""

    period: int
    factors: tuple  # (d, P(d)) pairs, one per divisor d of the period

    def expand(self, order: int) -> PowerSeries:
        """The series exp(sum d_n t^n / n) with d_n the sum of P(d) over d | n:
        the log of (1 - t^d)^(-P(d)/d) is sum_k P(d) t^(dk) / (dk)."""
        dims = [sum(p for d, p in self.factors if n % d == 0) for n in range(1, order + 1)]
        return symplectic_zeta_series(dims, order)

    def to_json(self) -> dict:
        return {
            "period": self.period,
            "factors": [
                {"base_power": d, "dim_exponent": p, "root_degree": d}
                for d, p in self.factors
            ],
        }

    def to_text(self) -> str:
        pieces = []
        for d, p in self.factors:
            base = "1 - t" if d == 1 else f"1 - t^{d}"
            pieces.append(f"({base})^({Fraction(-p, d)})")
        return " * ".join(pieces) if pieces else "1"


def periodic_zeta(period: int, dims_on_divisors: Mapping[int, int]) -> RadicalRational:
    """Radical closed form for an m-periodic map from dimensions at divisor
    iterates: P(d) is dims(d) less the sum of P(e) over the proper divisors e
    of d, the identity that RadicalRational.expand inverts."""
    if period < 1:
        raise ValueError("period must be >= 1")
    divs = divisors(period)
    missing = [d for d in divs if d not in dims_on_divisors]
    if missing:
        raise ValueError(f"missing dimensions at divisors {missing}")
    bad = {d: v for d, v in dims_on_divisors.items() if d not in divs}
    if bad:
        raise ValueError(f"indices {sorted(bad)} do not divide the period {period}")
    p: dict[int, int] = {}  # P(d); divs ascend, so P(e) is known for every e | d
    for d in divs:
        p[d] = dims_on_divisors[d] - sum(p[e] for e in p if d % e == 0)
    return RadicalRational(period, tuple(p.items()))


def periodic_dims_sequence(period: int, dims_on_divisors: Mapping[int, int], n_terms: int) -> list[int]:
    """The iterate dimensions of an m-periodic map: position n holds the value
    at gcd(n, m), since the n-th and gcd(n, m)-th powers generate the same
    cyclic group and so share fixed sets."""
    return [dims_on_divisors[math.gcd(n, period)] for n in range(1, n_terms + 1)]


# -- torus closed forms -------------------------------------------------------


def _check_2x2(a: IntMatrix):
    if len(a) != 2 or any(len(row) != 2 for row in a):
        raise ValueError("only 2x2 integer matrices are supported here")


def _trace_det(a: IntMatrix) -> tuple[int, int]:
    _check_2x2(a)
    tau = a[0][0] + a[1][1]
    delta = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    return tau, delta


def is_hyperbolic(a: IntMatrix) -> bool:
    """No eigenvalue of modulus one, decided exactly from trace and det."""
    tau, delta = _trace_det(a)
    if 1 - tau + delta == 0 or 1 + tau + delta == 0:
        return False  # eigenvalue +1 or -1
    if delta == 1 and tau * tau < 4:
        return False  # complex pair on the unit circle
    return True


def weil_zeta_torus(a: IntMatrix) -> RationalFunction:
    """Rationalized Lefschetz series det(I - tA) / ((1 - t)(1 - det(A) t))."""
    tau, delta = _trace_det(a)
    num = (Fraction(1), Fraction(-tau), Fraction(delta))
    den = (Fraction(1), Fraction(-1 - delta), Fraction(delta))
    return RationalFunction.from_parts(num, den)


def torus_symplectic_zeta(a: IntMatrix) -> RationalFunction:
    """Closed form of the iterate-dimension series for a hyperbolic linear
    torus map.

    With r eigenvalues of modulus > 1 and p real ones below -1,
    N(f^n) = |L(f^n)| = (-1)^(r + pn) L(f^n) (Fel'shtyn, Mem. AMS 699, 2000).
    So the series is the Weil zeta at sigma*t, sigma = (-1)^p, inverted when
    r is odd; L(A^2) carries the sign (-1)^r and L(A) the sign (-1)^(r + p).
    """
    if not is_hyperbolic(a):
        raise ValueError("matrix has an eigenvalue of modulus 1 (not hyperbolic)")
    tau, delta = _trace_det(a)
    l1 = 1 - tau + delta
    l2 = 1 - tau * tau + 2 * delta + delta * delta
    out = weil_zeta_torus(a).substitute_sign(-1 if (l1 < 0) != (l2 < 0) else 1)
    return out.reciprocal() if l2 < 0 else out

