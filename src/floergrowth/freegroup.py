"""Reduced words of a finitely generated free group and its endomorphisms.

A letter is a nonzero int: ``+i`` is the i-th generator (1-based), ``-i`` its
inverse.  Words are stored freely reduced.  The public constructor
``Word(letters)`` reduces its input, so parsed and user-supplied words are
always checked.  Products, inverses and endomorphism images are built from
operands that are already reduced, so cancellation can only happen at the
junction of two operands: those paths cancel there alone and build the result
through the private constructor ``_word``, which skips the reduction pass
and sets the ``letters`` slot directly.  Each endomorphism tabulates the
images of both signs of every letter once, at construction.  Text I/O writes
generators as ``a b c ...`` and inverses as ``A B C ...`` (``a^-1`` style
exponents are also accepted on input).

``Frozen`` is the base of the package's value classes that check their
input; plain read-only records are ``typing.NamedTuple``s.
"""

from __future__ import annotations

import string
from collections import Counter
from operator import index, neg
from typing import Iterable, Sequence

IntMatrix = tuple[tuple[int, ...], ...]

_LOWER = string.ascii_lowercase
_MAX_NAMED = len(_LOWER)
_NAMES = {s * i: ch if s > 0 else ch.upper() for i, ch in enumerate(_LOWER, 1) for s in (1, -1)}
MAX_PARSED_LETTERS = 10**6  # Word.parse refuses longer words before expanding ^k


def as_integer(value, what: str) -> int:
    """``value`` as an int.  A bool is not an integer here (JSON ``true``
    would pass ``operator.index`` as 1), so it is rejected like any other
    non-integer, with a TypeError naming ``what``."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return index(value)
    except TypeError:
        raise TypeError(f"{what} must be an integer, got {value!r}") from None


class Frozen:
    """Base of the package's immutable value classes, a plain ``__slots__``
    class: ``dataclasses`` would pull ``inspect`` and ``ast`` into the import
    that every CLI process pays.

    A subclass lists its constructor arguments in ``_fields``, which repr
    shows, and the ones that == and hash read in ``_compare``.  Its
    constructor sets each slot once, through ``_set_fields`` or
    ``object.__setattr__``; any later assignment raises AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _compare: tuple[str, ...] = ()

    def _set_fields(self, *values):
        for key, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, key, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):  # pickle and copy restore the slots here
        for key, value in state[1].items():
            object.__setattr__(self, key, value)

    def _key(self) -> tuple:
        return tuple([getattr(self, k) for k in self._compare])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        args = ", ".join(f"{k}={getattr(self, k)!r}" for k in self._fields)
        return f"{type(self).__qualname__}({args})"


def _reduced(letters: Iterable[int]) -> tuple[int, ...]:
    out: list[int] = []
    for raw in letters:
        x = int(raw)
        if x == 0:
            raise ValueError("0 is not a letter; use +-i for generator i")
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def _junction(a: Sequence[int], b: Sequence[int]) -> int:
    """How many letters cancel where the reduced ``a`` meets the reduced ``b``."""
    k, m = 0, min(len(a), len(b))
    while k < m and a[-1 - k] == -b[k]:
        k += 1
    return k


class Word(Frozen):
    """A freely reduced word; ``Word()`` is the identity."""

    __slots__ = _fields = _compare = ("letters",)

    def __init__(self, letters: Iterable[int] = ()):
        _set_letters(self, _reduced(letters))

    # words key every ring element's dict, so == and hash skip ``_key``
    def __eq__(self, other):
        if other.__class__ is Word:
            return self.letters == other.letters
        return NotImplemented

    def __hash__(self):
        return hash((self.letters,))

    # -- algebra ---------------------------------------------------------

    def __mul__(self, other: "Word") -> "Word":
        a, b = self.letters, other.letters
        if not a:
            return other
        if not b:
            return self
        if a[-1] != -b[0]:
            return _word(a + b)
        k = _junction(a, b)
        return _word(a[: len(a) - k] + b[k:])

    def inverse(self) -> "Word":
        return _word(tuple(map(neg, reversed(self.letters))))

    def __len__(self) -> int:
        return len(self.letters)

    def max_index(self) -> int:
        return max((abs(x) for x in self.letters), default=0)

    def exponent_vector(self, rank: int) -> tuple[int, ...]:
        """Image in the free abelianization Z^rank (signed letter counts)."""
        counts = Counter(self.letters)
        for x in counts:
            if abs(x) > rank:
                raise ValueError(f"letter {x} exceeds rank {rank}")
        return tuple(counts[i] - counts[-i] for i in range(1, rank + 1))

    def sort_key(self):
        # length-lexicographic; the inverse of a generator sorts just after it
        return (len(self.letters), tuple([2 * x - 1 if x > 0 else -2 * x for x in self.letters]))

    # -- text ------------------------------------------------------------

    @classmethod
    def parse(cls, text: str, rank: int | None = None) -> "Word":
        letters: list[int] = []
        for token in text.split():
            if token == "1":
                continue
            base = token
            exp = 1
            if "^" in token:
                base, _, etext = token.partition("^")
                exp = int(etext)
            if len(base) != 1 or base.lower() not in _LOWER:
                raise ValueError(f"bad letter token {token!r}")
            idx = _LOWER.index(base.lower()) + 1
            if rank is not None and idx > rank:
                raise ValueError(f"letter {base!r} exceeds rank {rank}")
            if base.isupper():
                exp = -exp
            if len(letters) + abs(exp) > MAX_PARSED_LETTERS:
                raise ValueError(f"word is longer than {MAX_PARSED_LETTERS} letters")
            letters.extend([idx if exp > 0 else -idx] * abs(exp))
        return cls(tuple(letters))

    def to_text(self) -> str:
        if not self.letters:
            return "1"
        try:
            return " ".join(map(_NAMES.__getitem__, self.letters))
        except KeyError:
            raise ValueError(f"text form supports at most {_MAX_NAMED} generators") from None

    def __str__(self) -> str:
        return self.to_text()


_new_word = object.__new__
_set_letters = Word.letters.__set__


def _word(letters: tuple[int, ...]) -> Word:
    """A word from letters the caller knows are reduced; skips the check."""
    w = _new_word(Word)
    _set_letters(w, letters)
    return w


class Endomorphism(Frozen):
    """An endomorphism of the free group, given by generator images."""

    # _table: letter -> letters of its image, for both signs of every generator
    __slots__ = ("rank", "images", "_table")
    _fields = _compare = ("rank", "images")

    def __init__(self, rank: int, images: Iterable[Word]):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        images = tuple(images)
        if len(images) != rank:
            raise ValueError(f"expected {rank} images, got {len(images)}")
        for w in images:
            if w.max_index() > rank:
                raise ValueError(f"image {w} uses a generator outside rank {rank}")
        table = {}
        for i, w in enumerate(images, 1):
            table[i], table[-i] = w.letters, w.inverse().letters
        self._set_fields(rank, images)
        object.__setattr__(self, "_table", table)

    @classmethod
    def identity(cls, rank: int) -> "Endomorphism":
        return cls(rank, tuple(Word((i,)) for i in range(1, rank + 1)))

    @classmethod
    def from_images_text(cls, images: Sequence[str]) -> "Endomorphism":
        rank = len(images)
        return cls(rank, tuple(Word.parse(s, rank) for s in images))

    def apply(self, w: Word) -> Word:
        table = self._table
        out: list[int] = []
        for x in w.letters:
            img = table[x]
            if out and img and out[-1] == -img[0]:
                k = _junction(out, img)
                del out[-k:]
                out.extend(img[k:])
            else:
                out.extend(img)
        return _word(tuple(out))

    __call__ = apply

    def compose(self, other: "Endomorphism") -> "Endomorphism":
        """self after other: ``(f.compose(g))(w) == f(g(w))``."""
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        return Endomorphism(self.rank, tuple(self.apply(w) for w in other.images))

    def iterate(self, n: int) -> "Endomorphism":
        if n < 0:
            raise ValueError("free group endomorphisms cannot be inverted here")
        out = Endomorphism.identity(self.rank)
        base = self
        while n:
            if n & 1:
                out = base.compose(out)
            n >>= 1
            if n:
                base = base.compose(base)
        return out

    __pow__ = iterate

    def abelianize(self) -> IntMatrix:
        """Row i is the exponent vector of the image of generator i."""
        return tuple(w.exponent_vector(self.rank) for w in self.images)

    # -- JSON --------------------------------------------------------------

    @classmethod
    def from_json(cls, data) -> "Endomorphism":
        rank = as_integer(data["rank"], "rank")
        return cls(rank, tuple(Word.parse(s, rank) for s in data["images"]))


# -- small integer-matrix helpers used across the package ------------------

def mat_identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_pow(a: IntMatrix, n: int) -> IntMatrix:
    if n < 0:
        raise ValueError("negative power")
    if any(len(row) != len(a) for row in a):
        raise ValueError("shape mismatch")
    out = mat_identity(len(a))
    base = a
    while n:
        if n & 1:
            out = sparse_mat_mul(sparse_rows(out), base)
        base = sparse_mat_mul(sparse_rows(base), base)
        n >>= 1
    return tuple(map(tuple, out))


def sparse_rows(a: Sequence[Sequence]) -> list[list[tuple]]:
    """The nonzero (column, value) pairs of each row, integer or complex."""
    return [[(j, x) for j, x in enumerate(row) if x] for row in a]


def sparse_mat_mul(rows: Sequence[Sequence[tuple]], b) -> list[list]:
    """The product A·B of a matrix A given by ``sparse_rows`` and a dense B.

    Row i of the product is the combination of B's rows picked out by row i of
    A, so the cost is nnz(A) times the width of B.  Unit entries, the common
    case in twisted permutation blocks, copy or add a row without multiplying.
    """
    width = len(b[0]) if b else 0
    out = []
    for row in rows:
        acc = None
        for k, v in row:
            bk = b[k]
            if acc is None:
                acc = list(bk) if v == 1 else [v * y for y in bk]
            elif v == 1:
                acc = [x + y for x, y in zip(acc, bk)]
            else:
                acc = [x + v * y for x, y in zip(acc, bk)]
        out.append([0] * width if acc is None else acc)
    return out


def mat_sub(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_trace(a: IntMatrix) -> int:
    return sum(a[i][i] for i in range(len(a)))


def vec_mat(v: Sequence[int], a: IntMatrix) -> tuple[int, ...]:
    """Row vector times matrix."""
    return tuple(sum(v[i] * a[i][j] for i in range(len(v))) for j in range(len(a[0])))
