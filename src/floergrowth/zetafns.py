"""Symplectic zeta series, the periodic-map radical form, and torus closed
forms.

All series arithmetic is exact: coefficients are Fractions, exponentials and
logarithms use the standard convolution recurrences, and radical factors are
expanded with the generalized binomial series at rational exponents.
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

    @classmethod
    def zero(cls, order: int) -> "PowerSeries":
        return cls((), order)

    @classmethod
    def one(cls, order: int) -> "PowerSeries":
        return cls((Fraction(1),), order)

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        order = min(self.order, other.order)
        return PowerSeries(
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)), order
        )

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        order = min(self.order, other.order)
        # binomial factors (1 - t^d)^alpha are nonzero only every d-th place
        nonzero = [(j, b) for j, b in enumerate(other.coeffs[: order + 1]) if b]
        out = [Fraction(0)] * (order + 1)
        for i, a in enumerate(self.coeffs[: order + 1]):
            if a == 0:
                continue
            for j, b in nonzero:
                if i + j > order:
                    break
                out[i + j] += a * b
        return PowerSeries(tuple(out), order)

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


def radius_estimate(dims: Sequence[float], n_terms: int | None = None) -> float:
    """Reciprocal of the finite-sample growth proxy of the dims sequence."""
    terms = list(dims if n_terms is None else dims[:n_terms])
    if len(terms) < 3:
        raise ValueError("need at least 3 terms")
    return 1.0 / growth_estimate(terms).value


def mobius(n: int) -> int:
    if n < 1:
        raise ValueError("mobius is defined on positive integers")
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


def divisors(m: int) -> list[int]:
    return [d for d in range(1, m + 1) if m % d == 0]


@dataclass(frozen=True)
class RadicalRational:
    """Product of (1 - t^d) factors raised to rational exponents -P(d)/d."""

    period: int
    factors: tuple  # (d, P(d)) pairs, one per divisor d of the period

    def exponent(self, d: int) -> Fraction:
        for base, p in self.factors:
            if base == d:
                return Fraction(-p, d)
        raise KeyError(d)

    def expand(self, order: int) -> PowerSeries:
        out = PowerSeries.one(order)
        for d, p in self.factors:
            out = out * _binomial_factor(d, Fraction(-p, d), order)
        return out

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


def _binomial_factor(d: int, alpha: Fraction, order: int) -> PowerSeries:
    """(1 - t^d)^alpha by the generalized binomial series."""
    out = [Fraction(0)] * (order + 1)
    out[0] = Fraction(1)
    coeff = Fraction(1)
    k = 0
    while (k + 1) * d <= order:
        coeff = coeff * (alpha - k) / (k + 1)
        k += 1
        out[k * d] = coeff * ((-1) ** k)
    return PowerSeries(tuple(out), order)


def periodic_zeta(period: int, dims_on_divisors: Mapping[int, int]) -> RadicalRational:
    """Radical closed form for an m-periodic map from dimensions at divisor
    iterates, via Moebius convolution on the divisor lattice."""
    if period < 1:
        raise ValueError("period must be >= 1")
    divs = divisors(period)
    missing = [d for d in divs if d not in dims_on_divisors]
    if missing:
        raise ValueError(f"missing dimensions at divisors {missing}")
    bad = {d: v for d, v in dims_on_divisors.items() if d not in divs}
    if bad:
        raise ValueError(f"indices {sorted(bad)} do not divide the period {period}")
    factors = []
    for d in divs:
        p = sum(mobius(d1) * dims_on_divisors[d // d1] for d1 in divisors(d))
        factors.append((d, p))
    return RadicalRational(period, tuple(factors))


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


def _eigen_counts(a: IntMatrix) -> tuple[int, int]:
    """(number of eigenvalues with modulus > 1, number of real ones < -1),
    via exact sign arguments on the characteristic polynomial."""
    tau, delta = _trace_det(a)
    disc = tau * tau - 4 * delta
    if disc < 0:
        # conjugate pair of modulus sqrt(delta)
        return (2 if delta > 1 else 0), 0
    p1 = 1 - tau + delta  # value at +1
    p_1 = 1 + tau + delta  # value at -1
    if p1 < 0:
        above = 1
    elif p1 > 0 and tau > 2:
        above = 2
    else:
        above = 0
    if p_1 < 0:
        below = 1
    elif p_1 > 0 and tau < -2:
        below = 2
    else:
        below = 0
    return above + below, below


def weil_zeta_torus(a: IntMatrix) -> RationalFunction:
    """Rationalized Lefschetz series det(I - tA) / ((1 - t)(1 - det(A) t))."""
    tau, delta = _trace_det(a)
    num = (Fraction(1), Fraction(-tau), Fraction(delta))
    den = (Fraction(1), Fraction(-1 - delta), Fraction(delta))
    return RationalFunction.from_parts(num, den, exact=True)


def torus_symplectic_zeta(a: IntMatrix) -> RationalFunction:
    """Closed form of the iterate-dimension series for a hyperbolic linear
    torus map: the Weil zeta evaluated at sigma*t, then inverted once per
    expanding eigenvalue parity."""
    if not is_hyperbolic(a):
        raise ValueError("matrix has an eigenvalue of modulus 1 (not hyperbolic)")
    r, p = _eigen_counts(a)
    sigma = -1 if p % 2 else 1
    out = weil_zeta_torus(a).substitute_sign(sigma)
    if r % 2:
        out = out.reciprocal()
    return out

