"""A genus-2 surface oracle: a pseudo-Anosov map built from chain twists.

The fundamental group of the genus-2 surface with one boundary circle is
free on the cores a, b, c, d of a chain of four curves, and the boundary
word is a c D C B A b d.  Thurston's map T1 T3 T2^-1 T4^-1 (Bull. AMS 19,
1988) is pseudo-Anosov with dilatation the larger root of
lambda + 1/lambda = 2 + (3 + sqrt 5)/2.
"""

import math

import pytest

from floergrowth.freegroup import Word
from floergrowth.groupring import reidemeister_interval
from floergrowth.growth import lower_bound_zeta, upper_bound_spectral
from helpers import chain_twist, mat_mul

RANK = 4
BOUNDARY = Word.parse("a c D C B A b d", RANK)
# the chain's intersection form: consecutive cores meet once
OMEGA = tuple(
    tuple(1 if j == i + 1 else -1 if j == i - 1 else 0 for j in range(RANK)) for i in range(RANK)
)
TWISTS = [chain_twist(i, RANK, inverse) for i in range(1, RANK + 1) for inverse in (False, True)]
THURSTON = (
    chain_twist(1, RANK)
    .compose(chain_twist(3, RANK))
    .compose(chain_twist(2, RANK, inverse=True))
    .compose(chain_twist(4, RANK, inverse=True))
)
_C = 2 + (3 + math.sqrt(5)) / 2
LAMBDA = (_C + math.sqrt(_C * _C - 4)) / 2


def test_thurston_map_images():
    assert [w.to_text() for w in THURSTON.images] == ["a C B a", "A b c", "A b c c D c", "C d"]
    assert LAMBDA == pytest.approx(4.390256884515514, rel=1e-15)


@pytest.mark.parametrize("f", [*TWISTS, THURSTON])
def test_boundary_word_and_intersection_form_are_preserved(f):
    assert f(BOUNDARY) == BOUNDARY
    a = f.abelianize()
    assert mat_mul(mat_mul(a, OMEGA), tuple(zip(*a))) == OMEGA


def test_trace_norms_are_certified():
    for n, norm in enumerate([6, 22, 90, 382], 1):
        iv = reidemeister_interval(THURSTON, n)
        assert iv.certified and iv.lower == iv.upper == norm, (n, iv)


def test_bounds_meet_at_the_dilatation():
    # lower <= upper is not asserted: in floating point the two ends of the
    # sandwich can cross by a few ulps
    for bound in (lower_bound_zeta(THURSTON), upper_bound_spectral(THURSTON)):
        assert abs(bound - LAMBDA) <= 1e-9 * LAMBDA
