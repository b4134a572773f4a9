"""Free differential calculus on the integral group ring of a free group.

Elements are finite Z-linear combinations of reduced words, stored as a dict
from word to nonzero coefficient.  Equality is dict equality, so it does not
depend on the order in which terms were added; the canonical length-
lexicographic term order (``Word.sort_key``) is applied only when an element
is rendered.  The derivative of a word is computed in one left-to-right pass
over its letters: a positive letter a_j contributes the prefix before it, a
negative letter a_j^-1 contributes minus the prefix *including* it.

``chain_matrices`` pairs the Fox matrix with the unit (1) of the one vertex:
the whole lifted chain map of a rose.  ``RingElem.parse`` reads back what
``to_text`` renders.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable

from .freegroup import Endomorphism, IntMatrix, Word

_TERM_RE = re.compile(r"([+-])?\s*(\d+)?\s*((?:[A-Za-z](?:\^-?\d+)?\s*)*)")


class RingElem:
    """An element of the integral group ring of the free group."""

    __slots__ = ("_coeffs",)

    def __init__(self, terms: Iterable[tuple[Word, int]] = ()):
        self._coeffs = {w: int(c) for w, c in dict(terms).items() if c}

    @property
    def terms(self):
        """The (word, coefficient) pairs, in no particular order."""
        return self._coeffs.items()

    def sorted_terms(self) -> list[tuple[Word, int]]:
        """The (word, coefficient) pairs in canonical term order."""
        return sorted(self._coeffs.items(), key=lambda wc: wc[0].sort_key())

    def __eq__(self, other):
        if not isinstance(other, RingElem):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __repr__(self) -> str:
        return f"RingElem(terms={tuple(self.sorted_terms())!r})"

    @classmethod
    def zero(cls) -> "RingElem":
        return cls()

    @classmethod
    def one(cls) -> "RingElem":
        return cls(((Word(), 1),))

    @classmethod
    def monomial(cls, w: Word, c: int = 1) -> "RingElem":
        return cls(((w, c),))

    def __add__(self, other: "RingElem") -> "RingElem":
        if not other._coeffs:
            return self
        if not self._coeffs:
            return other
        acc = dict(self._coeffs)
        for w, c in other._coeffs.items():
            s = acc.get(w, 0) + c
            if s:
                acc[w] = s
            else:
                del acc[w]
        return _elem(acc)

    def __neg__(self) -> "RingElem":
        return _elem({w: -c for w, c in self._coeffs.items()})

    def __sub__(self, other: "RingElem") -> "RingElem":
        return self + (-other)

    def __mul__(self, other: "RingElem") -> "RingElem":
        acc: dict[Word, int] = {}
        get = acc.get
        right = other._coeffs.items()
        for u, cu in self._coeffs.items():
            for v, cv in right:
                w = u * v
                acc[w] = get(w, 0) + cu * cv
        return _elem({w: c for w, c in acc.items() if c})

    def map_words(self, fn: Callable[[Word], Word]) -> "RingElem":
        acc: dict[Word, int] = {}
        get = acc.get
        for w, c in self._coeffs.items():
            img = fn(w)
            acc[img] = get(img, 0) + c
        return _elem({w: c for w, c in acc.items() if c})

    def augment(self) -> int:
        """Sum of coefficients (the augmentation map to Z)."""
        return sum(self._coeffs.values())

    def norm(self) -> int:
        """Sum of absolute values of the coefficients."""
        return sum(map(abs, self._coeffs.values()))

    # -- text -------------------------------------------------------------

    def to_text(self) -> str:
        if not self._coeffs:
            return "0"
        chunks = []
        for i, (w, c) in enumerate(self.sorted_terms()):
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            body = w.to_text()
            if body == "1":
                piece = str(mag)
            elif mag == 1:
                piece = body
            else:
                piece = f"{mag} {body}"
            if i == 0:
                chunks.append(piece if c > 0 else f"-{piece}")
            else:
                chunks.append(f"{sign} {piece}")
        return " ".join(chunks)

    __str__ = to_text

    @classmethod
    def parse(cls, text: str) -> "RingElem":
        text = text.strip()
        if text in ("", "0"):
            return cls.zero()
        acc: dict[Word, int] = {}
        pos = 0
        first = True
        while pos < len(text):
            m = _TERM_RE.match(text, pos)
            if m is None or m.end() == pos:
                raise ValueError(f"cannot parse ring element at ...{text[pos:]!r}")
            sign, digits, letters = m.group(1), m.group(2), m.group(3)
            if sign is None and not first:
                raise ValueError(f"missing +/- before ...{text[pos:]!r}")
            c = int(digits) if digits else 1
            if sign == "-":
                c = -c
            w = Word.parse(letters or "")
            acc[w] = acc.get(w, 0) + c
            pos = m.end()
            while pos < len(text) and text[pos].isspace():
                pos += 1
            first = False
        return cls(acc.items())


_new_elem = object.__new__


def _elem(coeffs: dict[Word, int]) -> RingElem:
    """An element owning ``coeffs``, which must hold no zero coefficient."""
    x = _new_elem(RingElem)
    x._coeffs = coeffs
    return x


@dataclass(frozen=True, slots=True)
class RingMatrix:
    """A rectangular matrix over the group ring."""

    entries: tuple[tuple[RingElem, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.entries)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged matrix")
        object.__setattr__(self, "entries", rows)

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @classmethod
    def identity(cls, n: int) -> "RingMatrix":
        one, zero = RingElem.one(), RingElem.zero()
        return cls(tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)))

    def __mul__(self, other: "RingMatrix") -> "RingMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        cols = tuple(zip(*other.entries))
        out = []
        for row in self.entries:
            out_row = []
            for col in cols:
                acc = RingElem.zero()
                for x, y in zip(row, col):
                    acc = acc + x * y
                out_row.append(acc)
            out.append(tuple(out_row))
        return RingMatrix(tuple(out))

    def trace(self) -> RingElem:
        if self.nrows != self.ncols:
            raise ValueError("trace of a non-square matrix")
        acc = RingElem.zero()
        for i in range(self.nrows):
            acc = acc + self.entries[i][i]
        return acc

    def map_entries(self, fn: Callable[[RingElem], RingElem]) -> "RingMatrix":
        return RingMatrix(tuple(tuple(fn(e) for e in row) for row in self.entries))

    def augment(self) -> IntMatrix:
        return tuple(tuple(e.augment() for e in row) for row in self.entries)


def fox_derivative(w: Word, j: int, rank: int | None = None) -> RingElem:
    """The free derivative of ``w`` with respect to generator ``j`` (1-based)."""
    if j < 1 or (rank is not None and j > rank):
        raise ValueError(f"generator index {j} out of range")
    acc: dict[Word, int] = {}
    prefix: list[int] = []
    for x in w.letters:
        if x == j:
            p = Word(tuple(prefix))
            acc[p] = acc.get(p, 0) + 1
        elif x == -j:
            p = Word(tuple(prefix) + (x,))
            acc[p] = acc.get(p, 0) - 1
        prefix.append(x)
    return RingElem(acc.items())


def jacobian(f: Endomorphism) -> RingMatrix:
    """Fox matrix of the endomorphism: entry (i, j) is d(image_i)/d(a_j)."""
    return RingMatrix(
        tuple(
            tuple(fox_derivative(w, j, f.rank) for j in range(1, f.rank + 1))
            for w in f.images
        )
    )


def chain_matrices(f: Endomorphism) -> tuple[RingMatrix, RingMatrix]:
    """The whole lifted chain map (C0, C1) of the rose: degree 0 is (1), the
    one vertex, and degree 1 the Fox matrix, one row per petal.  A surface
    with boundary deformation-retracts onto a rose, so these two degrees are
    its whole complex."""
    return (RingMatrix(((RingElem.one(),),)), jacobian(f))
