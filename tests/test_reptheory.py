"""Finite-dimensional twists: representations, traces, and zeta functions."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from floergrowth.foxcalc import RingElem, RingMatrix, chain_matrices, jacobian
from floergrowth.freegroup import Endomorphism, Word, mat_pow, mat_trace
from floergrowth.groupring import reidemeister_interval, reidemeister_trace
from floergrowth.ratfunc import CANCEL_TOL
from floergrowth.reptheory import (
    Representation,
    abelian_quotient_rep,
    trivial_representation,
    twist_matrix,
    twisted_lefschetz,
    twisted_zeta,
    validate_rep,
)
from helpers import (
    NIELSEN_MOVES,
    endomorphisms,
    exp_of_lefschetz,
    mat_mul,
    random_endo,
    reference_det,
)


def dense(rows):
    """Dense matrix of a stored image given as sparse (column, value) rows."""
    out = [[0] * len(rows) for _ in rows]
    for i, row in enumerate(rows):
        for j, x in row:
            out[i][j] = x
    return tuple(map(tuple, out))


def as_rows(p):
    """Sparse rows of an index-tuple permutation (row r has its 1 in column p[r])."""
    return tuple(((j, 1),) for j in p)


def as_tuples(m):
    return tuple(map(tuple, m))


def log_derivative(series):
    """L_1..L_N with t d/dt log(sum s_n t^n) = sum L_n t^n, for s_0 = 1."""
    out = []
    for n in range(1, len(series)):
        out.append(n * series[n] - sum(out[j - 1] * series[n - j] for j in range(1, n)))
    return out


# Compositions of Nielsen moves are automorphisms, so every abelian quotient
# representation exists.
NIELSEN = [Endomorphism.from_images_text(list(images)) for images in NIELSEN_MOVES]


def test_trivial_representation_basics(golden):
    rep = trivial_representation(2)
    assert rep.dim == 1 and rep.is_exact()
    ok, residual = validate_rep(rep, golden)
    assert ok and residual == 0


def test_validate_rep_examples(corpus, doubling, golden):
    for f in corpus.values():
        ok, _ = validate_rep(trivial_representation(f.rank), f)
        assert ok
    ok, residual = validate_rep(abelian_quotient_rep(doubling, 3), doubling)
    assert ok and residual == 0
    # random unitaries almost never intertwine the golden map
    rng = np.random.default_rng(5)
    def haar_unitary(n):
        q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        return q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    rep = Representation(2, "unitary", (haar_unitary(2), haar_unitary(2)), haar_unitary(2))
    ok, residual = validate_rep(rep, golden)
    assert not ok and residual > 0.1
    with pytest.raises(ValueError):
        validate_rep(trivial_representation(1), golden)


def test_representation_validation_errors():
    with pytest.raises(ValueError):
        Representation(1, "orthogonal", ((1,),), ((1,),))
    with pytest.raises(ValueError):
        Representation(2, "permutation", (((1, 1), (0, 1)),), ((1, 0), (0, 1)))
    with pytest.raises(ValueError):
        Representation(1, "unitary", (np.array([[2.0]]),), np.array([[1.0]]))
    with pytest.raises(ValueError):
        Representation(2, "permutation", ((1, 1),), (0, 1))
    with pytest.raises(ValueError):
        Representation.from_json({"dim": 2, "kind": "permutation", "a": [[[1, 0], [1, 0]]], "z": [[1, 0], [0, 1]]})


def test_word_matrix_examples(doubling):
    rep = abelian_quotient_rep(doubling, 3)
    ident = tuple(tuple(1 if i == j else 0 for j in range(3)) for i in range(3))
    assert as_tuples(rep.word_matrix(Word(()))) == ident
    assert as_tuples(rep.word_matrix(Word.parse("a A"))) == ident
    pa = as_tuples(rep.word_matrix(Word.parse("a")))
    assert pa == dense(rep.gen_images[0])
    assert as_tuples(rep.word_matrix(Word.parse("a a"))) == tuple(
        tuple(sum(pa[i][k] * pa[k][j] for k in range(3)) for j in range(3)) for i in range(3)
    )
    # a has order 3 in the quotient
    assert as_tuples(rep.word_matrix(Word.parse("a^3"))) == ident


@settings(max_examples=120, deadline=None)
@given(endomorphisms(3, 3), st.integers(2, 5))
def test_abelian_quotient_rep_is_translations_and_abelianization(f, m):
    """Defined exactly when A is invertible mod m; then a_k translates by
    -e_k and z sends p to p·A, both as index tuples over (Z/m)^rank."""
    a = f.abelianize()
    if math.gcd(reference_det(a), m) != 1:
        with pytest.raises(ValueError, match=f"not invertible mod {m}"):
            abelian_quotient_rep(f, m)
        return
    rep = abelian_quotient_rep(f, m)
    r = f.rank
    points = list(itertools.product(range(m), repeat=r))
    index = {p: i for i, p in enumerate(points)}
    for k in range(r):
        minus_ek = tuple(
            index[tuple((x - (j == k)) % m for j, x in enumerate(p))] for p in points
        )
        assert rep.gen_images[k] == as_rows(minus_ek)
    times_a = tuple(
        index[tuple(sum(p[i] * a[i][j] for i in range(r)) % m for j in range(r))]
        for p in points
    )
    assert rep.z_image == as_rows(times_a)
    assert validate_rep(rep, f) == (True, 0)


def test_twist_matrix_examples(golden, doubling):
    rep3 = abelian_quotient_rep(doubling, 3)
    assert twist_matrix(RingMatrix.identity(1), rep3) == dense(rep3.z_image)
    # the trivial representation reduces the twist to plain augmentation
    blocks = twist_matrix(jacobian(golden), trivial_representation(2))
    assert blocks == ((1, 1), (1, 0))
    with pytest.raises(ValueError, match="square"):
        twist_matrix(RingMatrix(((RingElem.one(), RingElem.one()),)), rep3)


def test_twisted_lefschetz_trivial_is_classical(corpus):
    rng = random.Random(137)
    endos = list(corpus.values()) + [random_endo(rng, rng.randint(1, 3), 4) for _ in range(5)]
    for f in endos:
        rep = trivial_representation(f.rank)
        want = [1 - mat_trace(mat_pow(f.abelianize(), n)) for n in range(1, 7)]
        assert twisted_lefschetz(f, rep, 6) == want


def test_twisted_lefschetz_mod3(doubling):
    rep = abelian_quotient_rep(doubling, 3)
    assert twisted_lefschetz(doubling, rep, 7) == [1 - 2**n for n in range(1, 8)]
    with pytest.raises(ValueError):
        twisted_lefschetz(doubling, rep, 0)


def test_twisted_zeta_examples(identity2, doubling, golden):
    zeta = twisted_zeta(identity2, trivial_representation(2))
    assert zeta.exact
    assert zeta.numerator == (1, -1) and zeta.denominator == (1,)

    zeta = twisted_zeta(golden, trivial_representation(2))
    assert zeta.numerator == (1, -1, -1) and zeta.denominator == (1, -1)

    zeta = twisted_zeta(doubling, trivial_representation(1))
    assert zeta.numerator == (1, -2) and zeta.denominator == (1, -1)

    zeta = twisted_zeta(doubling, abelian_quotient_rep(doubling, 3))
    assert zeta.numerator == (1, -2) and zeta.denominator == (1, -1)


def test_min_root_modulus_examples(identity2, doubling, golden):
    assert twisted_zeta(identity2, trivial_representation(2)).min_root_modulus() == pytest.approx(1.0)
    assert twisted_zeta(golden, trivial_representation(2)).min_root_modulus() == pytest.approx(
        0.6180339887, abs=1e-9
    )
    assert twisted_zeta(doubling, trivial_representation(1)).min_root_modulus() == pytest.approx(0.5)


def test_unitary_scalar_rep(doubling):
    """1x1 unitary twist with rho(a) = 1, rho(z) = -1."""
    rep = Representation(
        1, "unitary", (np.array([[1.0 + 0j]]),), np.array([[-1.0 + 0j]])
    )
    ok, residual = validate_rep(rep, doubling)
    assert ok and residual <= 1e-12
    for n, got in enumerate(twisted_lefschetz(doubling, rep, 5), 1):
        assert abs(got - ((-1) ** n - (-2) ** n)) < 1e-9
    zeta = twisted_zeta(doubling, rep)
    assert not zeta.exact
    assert zeta.min_root_modulus() == pytest.approx(0.5, abs=1e-9)


def test_zeta_series_matches_lefschetz(corpus):
    """log-derivative contract: zeta = exp(sum_n L_n t^n / n), order 16."""
    order = 16
    moduli = {"identity2": 2, "doubling": 3, "golden": 2, "swap": 2}
    for name, f in corpus.items():
        for rep in (trivial_representation(f.rank), abelian_quotient_rep(f, moduli[name])):
            zeta = twisted_zeta(f, rep)
            want = exp_of_lefschetz(twisted_lefschetz(f, rep, order), order, exact=True)
            got = zeta.series(order)
            assert list(got) == want


def test_zeta_series_matches_lefschetz_unitary(doubling):
    order = 12
    rep = Representation(
        1, "unitary", (np.array([[1.0 + 0j]]),), np.array([[0.6 + 0.8j]])
    )
    ok, _ = validate_rep(rep, doubling)
    assert ok
    zeta = twisted_zeta(doubling, rep)
    want = exp_of_lefschetz(twisted_lefschetz(doubling, rep, order), order, exact=False)
    got = zeta.series(order)
    assert max(abs(a - b) for a, b in zip(got, want)) < 1e-8


def test_lefschetz_bounded_by_dim_times_interval(corpus):
    """|L_rho| <= dim(rho) * interval upper; the regular representation of
    (Z/2)^2 under the identity map attains the bound with equality."""
    moduli = {"identity2": 2, "doubling": 3, "golden": 2, "swap": 2}
    for name, f in corpus.items():
        for rep in (trivial_representation(f.rank), abelian_quotient_rep(f, moduli[name])):
            for n, lef in enumerate(twisted_lefschetz(f, rep, 4), 1):
                assert abs(lef) <= rep.dim * reidemeister_interval(f, n).upper
    ident2 = corpus["identity2"]
    reg = abelian_quotient_rep(ident2, 2)
    assert abs(twisted_lefschetz(ident2, reg, 1)[0]) == 4
    assert reidemeister_interval(ident2, 1).upper == 1


def test_abelian_quotient_rep_construction(identity2, doubling, golden):
    rep = abelian_quotient_rep(golden, 2)
    assert rep.dim == 4 and rep.is_exact()
    ok, _ = validate_rep(rep, golden)
    assert ok
    rep = abelian_quotient_rep(identity2, 2)
    assert rep.dim == 4
    with pytest.raises(ValueError):
        abelian_quotient_rep(doubling, 2)  # abelianized map is 0 mod 2
    with pytest.raises(ValueError):
        abelian_quotient_rep(doubling, 1)


def test_representation_json_roundtrip(doubling, golden):
    rep = abelian_quotient_rep(golden, 2)
    again = Representation.from_json(rep.to_json())
    assert again == rep

    unitary = Representation(
        1, "unitary", (np.array([[1.0 + 0j]]),), np.array([[0.6 + 0.8j]])
    )
    back = Representation.from_json(unitary.to_json())
    assert back.kind == "unitary" and back.dim == 1
    assert back.z_image == unitary.z_image == (((0, 0.6 + 0.8j),),)
    assert back.gen_images == unitary.gen_images == ((((0, 1 + 0j),),),)


def test_twisted_zeta_with_extra_matrix(doubling):
    """A user-supplied degree-2 chain matrix enters numerator bookkeeping."""
    extra = RingMatrix.identity(1)
    rep = trivial_representation(1)
    order = 10
    zeta = twisted_zeta(doubling, rep, extra_matrices=(extra,))
    lefs = twisted_lefschetz(doubling, rep, order, extra_matrices=(extra,))
    assert list(zeta.series(order)) == exp_of_lefschetz(lefs, order, exact=True)
    # degree 2 is even, so the new block multiplies the denominator
    assert zeta.denominator != twisted_zeta(doubling, rep).denominator


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.lists(st.permutations(range(k)), min_size=3, max_size=3),
            st.lists(st.sampled_from([1, -1, 2, -2]), max_size=12),
        )
    )
)
def test_word_matrix_is_product_of_letter_matrices(case):
    k, (a, b, z), letters = case
    rep = Representation(k, "permutation", (tuple(a), tuple(b)), tuple(z))
    data = rep.to_json()
    letter = {}
    for i, m in enumerate(data["a"], start=1):
        letter[i] = m
        letter[-i] = [list(col) for col in zip(*m)]  # inverse = transpose
    want = [[int(i == j) for j in range(k)] for i in range(k)]
    for x in letters:
        want = [[sum(want[i][l] * letter[x][l][j] for l in range(k)) for j in range(k)] for i in range(k)]
    assert as_tuples(rep.word_matrix(Word(tuple(letters)))) == tuple(map(tuple, want))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(NIELSEN), min_size=1, max_size=5), st.integers(2, 4))
def test_zeta_log_derivative_is_twisted_lefschetz(moves, modulus):
    f = moves[0]
    for g in moves[1:]:
        f = g.compose(f)
    rep = abelian_quotient_rep(f, modulus)
    series = twisted_zeta(f, rep).series(8)
    assert log_derivative(series) == twisted_lefschetz(f, rep, 8)


CORPUS_MAPS = [
    Endomorphism.from_images_text(images)
    for images in (["a b", "a"], ["a a b", "a b"], ["a b", "b c", "c a B"])
]  # golden, cat, r3


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(st.sampled_from(CORPUS_MAPS), endomorphisms(2, 4)),
    st.sampled_from([2, 3]),
    st.integers(1, 4),
)
def test_trace_through_representation_is_twisted_lefschetz(f, modulus, n):
    """Each term c g of the n-th Reidemeister trace stands for c z^n g; its
    image under a permutation representation has trace #fix(rho(z^n g))."""
    try:
        rep = abelian_quotient_rep(f, modulus)
    except ValueError:
        assume(False)  # not invertible mod this modulus (r3 mod 3, for one)
    zn = mat_pow(dense(rep.z_image), n)
    pushed = 0
    for g, c in reidemeister_trace(f, n).body.terms:
        pushed += c * mat_trace(mat_mul(zn, as_tuples(rep.word_matrix(g))))
    assert pushed == twisted_lefschetz(f, rep, n)[n - 1]


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(st.sampled_from(CORPUS_MAPS), endomorphisms(2, 4)),
    st.sampled_from([2, 3]),
    st.integers(1, 6),
)
def test_twisted_lefschetz_is_alternating_trace_of_block_powers(f, modulus, n_max):
    """The one power pass gives, at every n, the alternating sum of the
    traces of the n-th powers of the twisted chain blocks."""
    try:
        rep = abelian_quotient_rep(f, modulus)
    except ValueError:
        assume(False)
    blocks = [twist_matrix(m, rep) for m in chain_matrices(f)]
    want = [
        sum((-1) ** d * mat_trace(mat_pow(b, n)) for d, b in enumerate(blocks))
        for n in range(1, n_max + 1)
    ]
    assert twisted_lefschetz(f, rep, n_max) == want


def test_twisted_lefschetz_unitary_matches_matrix_power():
    """A unitary representation runs the same sparse power pass; numpy's
    matrix_power is the reference.  The representation is cat's mod-3
    permutation representation with z scaled by the phase 0.6 + 0.8i."""
    f = CORPUS_MAPS[1]
    perm = abelian_quotient_rep(f, 3)
    as_matrix = lambda p: np.array(dense(p), dtype=complex)
    rep = Representation(
        perm.dim,
        "unitary",
        tuple(as_matrix(g) for g in perm.gen_images),
        (0.6 + 0.8j) * as_matrix(perm.z_image),
    )
    assert validate_rep(rep, f)[0]
    blocks = [twist_matrix(m, rep) for m in chain_matrices(f)]
    for n, got in enumerate(twisted_lefschetz(f, rep, 8), 1):
        want = sum(
            (-1) ** d * np.trace(np.linalg.matrix_power(b, n)) for d, b in enumerate(blocks)
        )
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.sampled_from(CORPUS_MAPS), endomorphisms(2, 4)), st.sampled_from([2, 3]))
def test_permutation_rep_entered_as_unitary_gives_the_exact_values(f, modulus):
    """One code path serves both entry types: the matrices of an abelian
    quotient representation, entered again as the unitary kind, validate,
    twist to the same blocks and give the same Lefschetz numbers in complex
    arithmetic.  The zeta series goes through the float lane's root
    matching, so it is held to ten times its cancellation tolerance."""
    try:
        perm = abelian_quotient_rep(f, modulus)
    except ValueError:
        assume(False)
    rep = Representation(
        perm.dim, "unitary", tuple(dense(g) for g in perm.gen_images), dense(perm.z_image)
    )
    assert not rep.is_exact()
    assert validate_rep(rep, f)[0]
    for mat in chain_matrices(f):
        block = twist_matrix(mat, rep)
        assert all(isinstance(x, complex) for row in block for x in row)
        assert block == twist_matrix(mat, perm)
    for got, want in zip(twisted_lefschetz(f, rep, 8), twisted_lefschetz(f, perm, 8)):
        assert abs(got - want) <= 1e-9
    zeta = twisted_zeta(f, rep)
    assert not zeta.exact
    for got, want in zip(zeta.series(8), twisted_zeta(f, perm).series(8)):
        assert abs(got - want) <= 10 * CANCEL_TOL * max(1, abs(want))
