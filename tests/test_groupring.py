"""Mapping-torus ring arithmetic, norms, and certified trace intervals."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floergrowth import groupring
from floergrowth.foxcalc import RingElem, RingMatrix, jacobian
from floergrowth.freegroup import Endomorphism, Word, mat_pow, mat_trace
from floergrowth.groupring import (
    HElem,
    NormInterval,
    h_matmul,
    matrix_norm,
    norm_interval,
    norm_matrix,
    orbit_coordinate,
    reidemeister_interval,
    reidemeister_trace,
)
from helpers import (
    elem,
    endomorphisms,
    lucas,
    random_endo,
    random_reduced_word,
    reference_norm_interval,
    reference_twisted_power,
    ring_elems,
)


def m1(text: str) -> RingMatrix:
    """The 1x1 ring matrix holding the parsed element."""
    return RingMatrix(((elem(text),),))


def test_h_matmul_1x1_examples(swap, doubling):
    # k = 0 is the plain group-ring product
    assert h_matmul(m1("1 + a"), m1("a"), 0, swap) == m1("a + a a")
    # (z a)(z 1) twists a by one application of the map first
    assert h_matmul(m1("a"), m1("1"), 1, swap) == m1("b")
    assert h_matmul(m1("1"), m1("1"), 1, doubling) == m1("1")
    # (z^j a)(z^3 1) twists a by the third iterate, a -> a^8
    assert h_matmul(m1("a"), m1("1"), 3, doubling) == m1("a^8")


def test_h_matrix_power_examples(doubling):
    # f(a) = a^2: (z(1 + a))^2 = z^2 (1 + a^2)(1 + a)
    m = jacobian(doubling)
    square = m1("1 + a + a^2 + a^3")
    assert h_matmul(m, m, 1, doubling) == square
    # the trace's own power loop gives the same square, in degree 1
    assert reidemeister_trace(doubling, 2).body == RingElem.one() - square.trace()
    # powers of z times the unit matrix under the identity map stay the unit
    ident1 = Endomorphism.identity(1)
    unit = RingMatrix.identity(1)
    for n in (1, 2, 5):
        assert reference_twisted_power(unit, n, ident1) == unit
        # degree 0 is the unit and degree 1 the Fox matrix (1)
        assert reidemeister_trace(ident1, n) == HElem(n, RingElem.zero())


def test_twisted_power_is_additive():
    """(z m)^(a+b) = (z m)^a (z m)^b: the left factor is twisted by f^b."""
    rng = random.Random(101)
    for _ in range(30):
        rank = rng.randint(1, 2)
        f = random_endo(rng, rank, 3)
        m = jacobian(f)
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        assert reference_twisted_power(m, a + b, f) == h_matmul(
            reference_twisted_power(m, a, f), reference_twisted_power(m, b, f), b, f
        )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_trace_power_matches_right_fold(data):
    """The trace multiplies on the left and twists only the small factor; by
    associativity it equals 1 minus the trace of the right fold's power of
    the Fox matrix."""
    f = data.draw(endomorphisms(3, 2))
    n = data.draw(st.integers(1, 4))
    want = RingElem.one() - reference_twisted_power(jacobian(f), n, f).trace()
    assert reidemeister_trace(f, n).body == want


def test_h_trace(doubling):
    assert m1("a").trace() == elem("a")
    diag = RingMatrix(((elem("a"), elem("0")), (elem("0"), elem("b"))))
    assert diag.trace() == elem("a + b")
    assert m1("0").trace() == RingElem.zero()
    # the Reidemeister trace carries the z-degree n of the power it traces;
    # under a -> a a the cube of z(1 + a) is z^3 (1 + a^4)(1 + a^2)(1 + a)
    cube = reference_twisted_power(jacobian(doubling), 3, doubling)
    assert cube.trace() == elem("1 + a + a^2 + a^3 + a^4 + a^5 + a^6 + a^7")
    assert reidemeister_trace(doubling, 3) == HElem(3, RingElem.one() - cube.trace())


def test_non_square_trace_is_rejected():
    with pytest.raises(ValueError, match="non-square"):
        RingMatrix(((elem("1"), elem("a")),)).trace()


def test_norm_examples():
    w, wp = Word.parse("a"), Word.parse("b")
    assert RingElem.zero().norm() == 0
    assert (RingElem.monomial(w, 3) + RingElem.monomial(wp, -2)).norm() == 5
    assert (RingElem.monomial(w, 2) + RingElem.monomial(w, 3)).norm() == 5


def test_norm_matrix_examples(golden):
    assert norm_matrix(RingMatrix.identity(2)) == ((1, 0), (0, 1))
    assert norm_matrix(jacobian(golden)) == ((1, 1), (1, 0))
    assert norm_matrix(RingMatrix(((elem("1 + a"),),))) == ((2,),)
    assert matrix_norm(jacobian(golden)) == 3


def test_norm_inequalities():
    rng = random.Random(103)
    for _ in range(80):
        rank = rng.randint(1, 3)
        f = random_endo(rng, rank, 3)
        def rand_elem():
            return RingElem(
                {
                    random_reduced_word(rng, rank, 4): rng.randint(-3, 3)
                    for _ in range(rng.randint(0, 3))
                }.items()
            )
        x, y = rand_elem(), rand_elem()
        assert (x + y).norm() <= x.norm() + y.norm()
        twisted = h_matmul(RingMatrix(((x,),)), RingMatrix(((y,),)), rng.randint(0, 2), f)
        assert matrix_norm(twisted) <= x.norm() * y.norm()
        m = jacobian(f)
        assert m.trace().norm() <= matrix_norm(m)


def test_orbit_coordinate_examples(identity2, doubling, golden):
    # identity: cokernel of the zero matrix is free, label = exponent vector
    for text in ("a", "b", "a b", "a B a"):
        w = Word.parse(text)
        assert orbit_coordinate(w, identity2, 1) == w.exponent_vector(2)
    # rank-1 doubling: I - A = (-1), trivial cokernel, one shared label
    labels = {orbit_coordinate(Word.parse(t), doubling, 1) for t in ("1", "a", "a^5", "A^3")}
    assert len(labels) == 1
    # golden map: det(I - A) = -1, again a single label
    labels = {orbit_coordinate(Word.parse(t), golden, 1) for t in ("1", "a", "b", "a b")}
    assert len(labels) == 1


def test_orbit_coordinate_invariance(corpus):
    rng = random.Random(107)
    endos = list(corpus.values()) + [random_endo(rng, rng.randint(1, 3), 3) for _ in range(4)]
    for f in endos:
        for _ in range(25):
            n = rng.randint(1, 3)
            g = random_reduced_word(rng, f.rank, 6)
            gamma = random_reduced_word(rng, f.rank, 4)
            fn = f.iterate(n)
            moved = fn(gamma).inverse() * g * gamma
            assert orbit_coordinate(moved, f, n) == orbit_coordinate(g, f, n)
            assert orbit_coordinate(f(g), f, n) == orbit_coordinate(g, f, n)


def test_reidemeister_trace_small_cases(identity2, doubling, golden):
    ident1 = Endomorphism.identity(1)
    assert reidemeister_trace(ident1, 1) == HElem(1, RingElem.zero())
    assert reidemeister_trace(doubling, 1) == HElem(1, elem("- a"))
    # golden map at n=1: tr zD = z, cancelling the degree-0 contribution
    assert reidemeister_trace(golden, 1) == HElem(1, RingElem.zero())
    assert reidemeister_trace(identity2, 1) == HElem(1, elem("- 1"))
    with pytest.raises(ValueError):
        reidemeister_trace(golden, 0)


def test_trace_augmentation_is_classical_lefschetz():
    rng = random.Random(109)
    for _ in range(40):
        rank = rng.randint(1, 3)
        f = random_endo(rng, rank, 4)
        n = rng.randint(1, 5)
        a_n = mat_pow(f.abelianize(), n)
        assert reidemeister_trace(f, n).body.augment() == 1 - mat_trace(a_n)


def test_interval_identity_circle():
    ident1 = Endomorphism.identity(1)
    assert reidemeister_interval(ident1, 1) == NormInterval(0, 0, True)


def test_interval_doubling(doubling):
    # degree-2 circle map: one essential class for every iterate, 2^n - 1 total index
    for n in range(1, 5):
        got = reidemeister_interval(doubling, n)
        assert got == NormInterval(2**n - 1, 2**n - 1, True)


def test_interval_golden(golden):
    expected = [lucas(n) - 1 for n in range(1, 5)]  # 0, 2, 3, 6
    assert expected == [0, 2, 3, 6]
    for n, want in zip(range(1, 5), expected):
        got = reidemeister_interval(golden, n)
        assert got == NormInterval(want, want, True)


def test_interval_finite_order_maps(identity2, swap):
    for f in (identity2, swap):
        for n in (1, 2, 3):
            assert reidemeister_interval(f, n) == NormInterval(1, 1, True)


def test_norm_interval_merges_across_conjugates(doubling):
    # 1 and a are twisted-conjugate for the doubling map, so z(1 - a) has
    # class-sum norm zero; the bounded search certifies that at small depth.
    h = HElem(1, elem("1 - a"))
    assert norm_interval(h, doubling) == NormInterval(0, 0, True)
    assert norm_interval(HElem(1, elem("a - a^2")), doubling) == NormInterval(0, 0, True)


def test_norm_interval_uncertified_is_sound(doubling):
    # with no conjugator budget the same pair cannot be certified: the
    # bracket widens but still contains the certified value.
    h = HElem(1, elem("1 - a"))
    tight = norm_interval(h, doubling)
    loose = norm_interval(h, doubling, search_depth=0)
    assert loose == NormInterval(0, 2, False)
    assert loose.lower <= tight.lower <= tight.upper <= loose.upper
    # starving the state budget must degrade, never break, the bracket
    starved = norm_interval(h, doubling, max_states=1)
    assert starved.lower <= tight.lower and starved.upper >= tight.upper
    assert starved.lower <= starved.upper


def test_norm_interval_distinct_labels_certify(identity2):
    # a and b abelianize differently under the identity, so no merge is
    # attempted and the interval is exact immediately.
    h = HElem(1, elem("a - b"))
    assert norm_interval(h, identity2) == NormInterval(2, 2, True)


def test_interval_lower_at_most_upper_random():
    rng = random.Random(113)
    for _ in range(10):
        f = random_endo(rng, rng.randint(1, 2), 3)
        n = rng.randint(1, 3)
        got = reidemeister_interval(f, n, search_depth=3, max_states=400)
        assert 0 <= got.lower <= got.upper
        assert got.certified == (got.lower == got.upper)


@settings(max_examples=100, deadline=None)
@given(endomorphisms(3, 3), st.integers(1, 3))
def test_interval_never_loosens_with_depth(f, n):
    """A deeper search may certify more merges but never undoes one: the
    lower end does not depend on the depth and the upper end never grows."""
    h = reidemeister_trace(f, n)
    intervals = [norm_interval(h, f, search_depth=d, max_states=300) for d in range(5)]
    assert len({iv.lower for iv in intervals}) == 1
    uppers = [iv.upper for iv in intervals]
    assert uppers == sorted(uppers, reverse=True)


@settings(max_examples=150, deadline=None)
@given(endomorphisms(3, 3), st.integers(1, 3), st.integers(0, 4), st.integers(1, 300))
def test_norm_interval_matches_pairwise_search(f, n, depth, max_states):
    """Stopping a group once its norm is settled gives the interval of the
    search that tries every pair, capped searches included."""
    h = reidemeister_trace(f, n)
    assert norm_interval(h, f, depth, max_states) == reference_norm_interval(
        h, f, depth, max_states
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_norm_interval_matches_pairwise_search_mixed_signs(data):
    f = data.draw(endomorphisms(2, 3))
    h = HElem(data.draw(st.integers(1, 3)), data.draw(ring_elems(f.rank, 6, 5)))
    depth = data.draw(st.integers(0, 4))
    max_states = data.draw(st.integers(1, 300))
    assert norm_interval(h, f, depth, max_states) == reference_norm_interval(
        h, f, depth, max_states
    )


def test_norm_interval_mixed_sign_examples(doubling, golden):
    cases = [
        (HElem(1, elem("1 - a + a^2 - a^3")), doubling),
        (HElem(2, elem("2 - a + a^4 - 3 a^5")), doubling),
        (HElem(2, elem("a - a b + b a - 2 b")), golden),
        (HElem(3, elem("a b - b a + a a b - 1")), golden),
    ]
    for h, f in cases:
        for depth, max_states in ((0, 1), (1, 2), (2, 50), (8, 4000)):
            assert norm_interval(h, f, depth, max_states) == reference_norm_interval(
                h, f, depth, max_states
            ), (h, depth, max_states)


R3 = ("a b", "b c", "c a B")


def label_groups(h: HElem, f: Endomorphism) -> list[list]:
    groups: dict[tuple, list] = {}
    for w, c in h.body.terms:
        groups.setdefault(orbit_coordinate(w, f, h.z_degree), []).append((w, c))
    return list(groups.values())


def recorded_starts(monkeypatch) -> list[Word]:
    """Patch the reach-set search to record the start word of every call."""
    starts: list[Word] = []
    search = groupring._reach_set

    def recording(g, *args):
        starts.append(g)
        return search(g, *args)

    monkeypatch.setattr(groupring, "_reach_set", recording)
    return starts


def test_norm_interval_stops_when_settled(monkeypatch):
    """r3 at n = 3 has one mixed-sign group, of six terms summing to 0; the
    first term's search already reaches the other five start words."""
    f = Endomorphism.from_images_text(R3)
    h = reidemeister_trace(f, 3)
    (grp,) = [g for g in label_groups(h, f) if len({c > 0 for _, c in g}) == 2]
    assert len(grp) == 6 and sum(c for _, c in grp) == 0
    starts = recorded_starts(monkeypatch)
    assert norm_interval(HElem(3, RingElem(grp)), f) == NormInterval(0, 0, True)
    assert len(starts) == 1
    starts.clear()
    assert norm_interval(h, f) == NormInterval(5, 5, True)
    assert len(starts) == 1


def test_norm_interval_unsettled_group_searches_every_term(monkeypatch):
    """r3 at n = 5, depth 2 stays uncertified at [47, 57]; a group the search
    cannot settle has every one of its terms searched."""
    f = Endomorphism.from_images_text(R3)
    h = reidemeister_trace(f, 5)
    starts = recorded_starts(monkeypatch)
    assert norm_interval(h, f, search_depth=2) == NormInterval(47, 57, False)
    searched = set(starts)
    unsettled = [
        grp
        for grp in label_groups(h, f)
        if not norm_interval(HElem(5, RingElem(grp)), f, search_depth=2).certified
    ]
    assert unsettled
    for grp in unsettled:
        assert {w for w, _ in grp} <= searched


def test_helem_validation():
    with pytest.raises(ValueError):
        HElem(-1, RingElem.one())
