"""Words, endomorphisms, and abelianization."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floergrowth.freegroup import Endomorphism, Word, mat_mul
from helpers import (
    fibonacci,
    random_endo,
    random_reduced_word,
    reduced_words,
    reference_reduce,
)


def test_reduce_cancels_adjacent_inverses():
    assert Word((1, -1)).letters == ()
    assert Word((1, 2, -2, 1)).letters == (1, 1)
    # cascading cancellation: a b b^-1 a^-1 -> empty
    assert Word((1, 2, -2, -1)).letters == ()
    assert Word((1, 2)).letters == (1, 2)


def test_reduce_is_idempotent_on_random_input():
    rng = random.Random(11)
    for _ in range(300):
        raw = [rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randint(0, 40))]
        once = Word(raw)
        again = Word(once.letters)
        assert once == again
        # no adjacent x x^-1 survives
        assert all(a != -b for a, b in zip(once.letters, once.letters[1:]))


def test_word_text_roundtrip():
    w = Word.parse("a b A B a^2")
    assert w.letters == (1, 2, -1, -2, 1, 1)
    assert Word.parse(w.to_text()) == w
    assert Word(()).to_text() == "1"
    assert Word.parse("1") == Word(())
    with pytest.raises(ValueError):
        Word.parse("c", rank=2)


def test_word_group_operations():
    a, b = Word((1,)), Word((2,))
    assert (a * b).letters == (1, 2)
    assert (a * a.inverse()).is_identity()
    assert (a ** -3).letters == (-1, -1, -1)
    assert ((a * b).inverse()).letters == (-2, -1)
    assert (a * b).exponent_vector(3) == (1, 1, 0)
    assert Word((1, 2, -1)).exponent_vector(2) == (0, 1)


def test_apply_examples(identity2, golden):
    w = Word.parse("a b")
    assert identity2.apply(w) == w
    # golden: a -> ab, b -> a, so ab -> ab a
    assert golden.apply(w) == Word.parse("a b a")
    # inverse letters map to inverted images: a^-1 -> (ab)^-1 = b^-1 a^-1
    assert golden.apply(Word.parse("A")) == Word.parse("B A")


def test_apply_is_homomorphism():
    rng = random.Random(23)
    for _ in range(200):
        rank = rng.randint(1, 4)
        f = random_endo(rng, rank, 5)
        u = random_reduced_word(rng, rank, 12)
        v = random_reduced_word(rng, rank, 12)
        assert f(u * v) == f(u) * f(v)
        assert f(u.inverse()) == f(u).inverse()


def test_compose_examples(identity2, golden, swap):
    assert identity2.compose(golden) == golden
    assert golden.compose(identity2) == golden
    assert swap.compose(swap) == identity2
    square = golden.compose(golden)
    assert square.images[0] == Word.parse("a b a")
    assert square.images[1] == Word.parse("a b")


def test_compose_matches_pointwise_application():
    rng = random.Random(31)
    for _ in range(100):
        rank = rng.randint(1, 3)
        f = random_endo(rng, rank, 4)
        g = random_endo(rng, rank, 4)
        w = random_reduced_word(rng, rank, 10)
        assert f.compose(g)(w) == f(g(w))


def test_iterate_examples(golden):
    assert golden.iterate(0) == Endomorphism.identity(2)
    assert golden.iterate(1) == golden
    assert golden.iterate(3) == golden.compose(golden.compose(golden))
    # image lengths of the first generator follow the Fibonacci numbers
    for n in range(0, 11):
        assert len(golden.iterate(n).images[0]) == fibonacci(n + 2)
    with pytest.raises(ValueError):
        golden.iterate(-1)


def test_iterate_is_additive():
    rng = random.Random(43)
    for _ in range(40):
        f = random_endo(rng, rng.randint(1, 3), 3)
        m, n = rng.randint(0, 3), rng.randint(0, 3)
        assert f.iterate(m + n) == f.iterate(m).compose(f.iterate(n))


def test_abelianize_examples(identity2, doubling, golden):
    assert identity2.abelianize() == ((1, 0), (0, 1))
    assert doubling.abelianize() == ((2,),)
    assert golden.abelianize() == ((1, 1), (1, 0))
    # inverses count negatively: a -> a b a^-1 b^-1 abelianizes to zero
    comm = Endomorphism.from_images_text(["a b A B", "b"])
    assert comm.abelianize() == ((0, 0), (0, 1))


def test_abelianize_composition_order(golden, swap):
    """Rows-are-images makes the abelianization of f after g equal to
    g.abelianize() @ f.abelianize().

    The swap/golden pair distinguishes the two matrix orders, so this pins
    the row-vector convention down.
    """
    fg = golden.compose(swap)
    assert fg.abelianize() == mat_mul(swap.abelianize(), golden.abelianize())
    assert fg.abelianize() != mat_mul(golden.abelianize(), swap.abelianize())

    rng = random.Random(59)
    for _ in range(60):
        rank = rng.randint(1, 3)
        f = random_endo(rng, rank, 4)
        g = random_endo(rng, rank, 4)
        assert f.compose(g).abelianize() == mat_mul(g.abelianize(), f.abelianize())


def test_endomorphism_json_roundtrip(golden):
    data = golden.to_json()
    assert data == {"rank": 2, "images": ["a b", "a"]}
    assert Endomorphism.from_json(data) == golden
    rng = random.Random(61)
    for _ in range(25):
        f = random_endo(rng, rng.randint(1, 4), 6)
        assert Endomorphism.from_json(f.to_json()) == f


def test_endomorphism_validation():
    with pytest.raises(ValueError):
        Endomorphism(2, (Word((1,)),))  # wrong number of images
    with pytest.raises(ValueError):
        Endomorphism(1, (Word((2,)),))  # image uses a letter outside the rank


# -- properties of the junction-cancelling core --------------------------------

@st.composite
def cancelling_pairs(draw):
    """Reduced u, v where v starts by undoing the last k letters of u.

    k runs from 0 (no cancellation) to len(u) (u cancels completely), so the
    product exercises no, partial and full cancellation at the junction.
    """
    rank = draw(st.integers(1, 3))
    u = draw(reduced_words(rank, 14))
    k = draw(st.integers(0, len(u)))
    undo = tuple(-x for x in reversed(u.letters[len(u) - k :]))
    tail = draw(reduced_words(rank, 8))
    return u, Word(reference_reduce(undo + tail.letters))


@settings(max_examples=200, deadline=None)
@given(cancelling_pairs())
def test_product_matches_full_reduction(pair):
    u, v = pair
    expected = reference_reduce(u.letters + v.letters)
    assert (u * v).letters == expected
    assert u * v == Word(u.letters + v.letters)
    assert (v.inverse() * u.inverse()).letters == reference_reduce(
        tuple(-x for x in reversed(expected))
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=30))
def test_public_constructor_reduces(raw):
    w = Word(tuple(raw))
    assert w.letters == reference_reduce(raw)
    assert all(a != -b for a, b in zip(w.letters, w.letters[1:]))


@st.composite
def endo_and_word(draw):
    rank = draw(st.integers(1, 3))
    # images may be trivial, so cancellation can reach across a whole image
    images = tuple(draw(reduced_words(rank, 5)) for _ in range(rank))
    return Endomorphism(rank, images), draw(reduced_words(rank, 16))


@settings(max_examples=200, deadline=None)
@given(endo_and_word())
def test_apply_matches_letter_by_letter_reduction(fw):
    f, w = fw
    raw: list[int] = []
    for x in w.letters:
        img = f.images[abs(x) - 1].letters
        raw.extend(img if x > 0 else tuple(-y for y in reversed(img)))
    assert f.apply(w).letters == reference_reduce(raw)
    assert f.apply(w) == Word(tuple(raw))
