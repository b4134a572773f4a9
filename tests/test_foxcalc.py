"""Free differential calculus over the integral group ring."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floergrowth.foxcalc import (
    RingElem,
    RingMatrix,
    chain_matrices,
    fox_derivative,
    jacobian,
)
from floergrowth.freegroup import Word
from helpers import elem, random_endo, random_reduced_word, reduced_words


def test_derivative_of_single_letters():
    a = Word((1,))
    assert fox_derivative(a, 1) == RingElem.one()
    assert fox_derivative(a, 2) == RingElem.zero()
    # d(a^-1)/da = -a^-1
    assert fox_derivative(a.inverse(), 1) == elem("- A")


def test_derivative_product_examples():
    ab = Word.parse("a b")
    assert fox_derivative(ab, 1) == elem("1")
    assert fox_derivative(ab, 2) == elem("a")
    # d(a^2)/da = 1 + a
    assert fox_derivative(Word.parse("a a"), 1) == elem("1 + a")
    assert fox_derivative(Word.parse("a b A"), 1) == elem("1 - a b A")
    assert fox_derivative(Word(()), 1) == RingElem.zero()


def test_derivative_product_rule():
    """d(uv)/da = du/da + u dv/da, checked on random pairs."""
    rng = random.Random(71)
    for _ in range(200):
        rank = rng.randint(1, 3)
        u = random_reduced_word(rng, rank, 8)
        v = random_reduced_word(rng, rank, 8)
        for j in range(1, rank + 1):
            left = fox_derivative(u * v, j)
            right = fox_derivative(u, j) + RingElem.monomial(u) * fox_derivative(v, j)
            assert left == right


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda r: st.tuples(st.just(r), reduced_words(r, 30))))
def test_fundamental_identity(rank_word):
    """sum_j dw/da_j (a_j - 1) == w - 1."""
    rank, w = rank_word
    total = RingElem.zero()
    for j in range(1, rank + 1):
        step = RingElem.monomial(Word((j,))) - RingElem.one()
        total = total + fox_derivative(w, j, rank) * step
    assert total == RingElem.monomial(w) - RingElem.one()


def test_jacobian_examples(identity2, doubling, golden):
    assert jacobian(identity2) == RingMatrix.identity(2)
    assert jacobian(doubling) == RingMatrix(((elem("1 + a"),),))
    assert jacobian(golden) == RingMatrix(
        (
            (elem("1"), elem("a")),
            (elem("1"), elem("0")),
        )
    )


def test_chain_matrices_shapes(golden):
    f0, f1 = chain_matrices(golden)
    assert f0 == RingMatrix.identity(1)
    assert f1 == jacobian(golden)


def test_jacobian_chain_rule():
    """jacobian(f.g) == f#(jacobian(g)) @ jacobian(f)."""
    rng = random.Random(79)
    for _ in range(80):
        rank = rng.randint(1, 3)
        f = random_endo(rng, rank, 6)
        g = random_endo(rng, rank, 6)
        direct = jacobian(f.compose(g))
        pushed = jacobian(g).map_entries(lambda x: x.map_words(f))
        assert direct == pushed * jacobian(f)


def test_augmentation_recovers_abelianization():
    rng = random.Random(83)
    for _ in range(100):
        rank = rng.randint(1, 4)
        f = random_endo(rng, rank, 6)
        assert jacobian(f).augment() == f.abelianize()


def test_ring_elem_arithmetic():
    x = elem("1 + a")
    y = elem("a - b")
    assert x + y == elem("1 + 2 a - b")
    assert x - x == RingElem.zero()
    # multiplication concatenates and reduces words: (1 + a)(A) = A + 1
    assert x * elem("A") == elem("1 + A")
    assert elem("-2") * x == elem("-2 - 2 a")
    assert elem("3 a b - 2 a").augment() == 1
    assert elem("3 a b - 2 a").norm() == 5
    assert RingElem.zero().norm() == 0


def test_ring_elem_arithmetic_laws():
    rng = random.Random(89)
    for _ in range(100):
        parts = [
            RingElem(
                {
                    random_reduced_word(rng, 2, 4): rng.randint(-3, 3)
                    for _ in range(rng.randint(0, 3))
                }.items()
            )
            for _ in range(3)
        ]
        x, y, z = parts
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x + y).norm() <= x.norm() + y.norm()
        assert (x * y).norm() <= x.norm() * y.norm()


def test_ring_elem_text_roundtrip():
    samples = ["0", "1", "- 1 + a", "1 + a - 2 a B", "3 A^2 + b a"]
    for text in samples:
        x = RingElem.parse(text)
        assert RingElem.parse(x.to_text()) == x
    # terms come out in length-lexicographic order, inverses after plain letters
    assert (elem("a B a") + elem("1") + elem("A") - elem("a")).to_text() == "1 - a + A + a B a"


def test_ring_matrix_operations(golden):
    m = jacobian(golden)
    ident = RingMatrix.identity(2)
    assert m * ident == m
    assert m.trace() == elem("1")
    # square of the golden jacobian, fixed by hand
    sq = m * m
    assert sq == RingMatrix(
        (
            (elem("1 + a"), elem("a")),
            (elem("1"), elem("a")),
        )
    )
    with pytest.raises(ValueError):
        RingMatrix(((elem("1"),), (elem("1"), elem("a"))))


def test_map_words_examples(golden):
    x = elem("1 + a - b A")
    image = x.map_words(golden)
    assert image == elem("1 + a b") + elem("- a B A")


# -- properties of dict-backed ring elements ----------------------------------

@st.composite
def term_lists(draw, rank: int = 3):
    """Distinct words with nonzero coefficients, in drawn order."""
    words = draw(st.lists(reduced_words(rank, 6), unique=True, max_size=8))
    coeffs = draw(
        st.lists(st.integers(-5, 5).filter(bool), min_size=len(words), max_size=len(words))
    )
    return list(zip(words, coeffs))


@settings(max_examples=100, deadline=None)
@given(term_lists(), st.randoms(use_true_random=False))
def test_ring_elem_equality_ignores_insertion_order(terms, rnd):
    shuffled = list(terms)
    rnd.shuffle(shuffled)
    x, y = RingElem(terms), RingElem(shuffled)
    assert x == y
    assert hash(x) == hash(y)
    assert x.to_text() == y.to_text()
    # built up by addition, term by term, in the shuffled order
    z = RingElem.zero()
    for w, c in shuffled:
        z = z + RingElem.monomial(w, c)
    assert z == x and hash(z) == hash(x)


@settings(max_examples=100, deadline=None)
@given(term_lists())
def test_ring_elem_text_roundtrip_property(terms):
    x = RingElem(terms)
    assert RingElem.parse(x.to_text()) == x
