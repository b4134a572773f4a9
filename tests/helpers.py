"""Shared generators and small oracles used across the test modules."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from floergrowth.freegroup import Endomorphism, Word


def random_reduced_word(rng: random.Random, rank: int, max_len: int) -> Word:
    """A freely reduced word over `rank` generators with length <= max_len."""
    target = rng.randint(0, max_len)
    letters: list[int] = []
    alphabet = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    while len(letters) < target:
        letter = rng.choice(alphabet)
        if letters and letters[-1] == -letter:
            continue
        letters.append(letter)
    return Word(tuple(letters))


def reference_reduce(letters) -> tuple[int, ...]:
    """Free reduction one letter at a time on a stack: the oracle for words."""
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


@st.composite
def reduced_words(draw, rank: int, max_len: int = 12) -> Word:
    """Hypothesis strategy: a reduced word over `rank` generators."""
    alphabet = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    raw = draw(st.lists(st.sampled_from(alphabet), max_size=max_len))
    return Word(reference_reduce(raw))


def random_endo(rng: random.Random, rank: int, max_image_len: int) -> Endomorphism:
    images = tuple(
        random_reduced_word(rng, rank, max_image_len) for _ in range(rank)
    )
    return Endomorphism(rank, images)


def fibonacci(n: int) -> int:
    """F(1) = F(2) = 1."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def lucas(n: int) -> int:
    """L(1) = 1, L(2) = 3."""
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def mat2_power(mat, n):
    out = [[1, 0], [0, 1]]
    base = [row[:] for row in mat]
    k = n
    while k:
        if k & 1:
            out = [
                [
                    out[0][0] * base[0][0] + out[0][1] * base[1][0],
                    out[0][0] * base[0][1] + out[0][1] * base[1][1],
                ],
                [
                    out[1][0] * base[0][0] + out[1][1] * base[1][0],
                    out[1][0] * base[0][1] + out[1][1] * base[1][1],
                ],
            ]
        base = [
            [
                base[0][0] * base[0][0] + base[0][1] * base[1][0],
                base[0][0] * base[0][1] + base[0][1] * base[1][1],
            ],
            [
                base[1][0] * base[0][0] + base[1][1] * base[1][0],
                base[1][0] * base[0][1] + base[1][1] * base[1][1],
            ],
        ]
        k >>= 1
    return out


def det2_of_power_minus_identity(mat, n) -> int:
    p = mat2_power(mat, n)
    return (p[0][0] - 1) * (p[1][1] - 1) - p[0][1] * p[1][0]
