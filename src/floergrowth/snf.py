"""Smith normal form of an integer matrix, with unimodular transforms.

One pivot loop per diagonal position: the smallest nonzero entry left is
moved to the pivot and clears its row and column by Euclidean division until
no remainder is left, and an entry below and to the right that the pivot
does not divide is added into the pivot row, whose next pass leaves a smaller
remainder.  Everything runs on Python ints, so there is no overflow.
"""

from __future__ import annotations

from .freegroup import mat_identity


def smith_normal_form(mat):
    """Diagonalize an integer matrix over Z.

    Returns ``(diag, p, q)``: ``diag`` is the tuple of the min(rows, cols)
    diagonal entries of ``d = p @ mat @ q``, nonnegative and each dividing
    the next, and ``p``, ``q`` are unimodular tuples-of-tuples.
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    a = [[int(x) for x in row] for row in mat]
    if any(len(row) != cols for row in a):
        raise ValueError("ragged matrix")
    p, q = ([list(r) for r in mat_identity(k)] for k in (rows, cols))

    def add_row(src, dst, c):
        for m in (a, p):
            m[dst] = [x + c * y for x, y in zip(m[dst], m[src])]

    def add_col(src, dst, c):
        for m in (a, q):
            for row in m:
                row[dst] += c * row[src]

    for t in range(min(rows, cols)):
        while True:
            live = [(abs(x), i, j) for i in range(t, rows) for j, x in enumerate(a[i][t:], t) if x]
            if not live:
                break
            _, r, c = min(live)
            a[t], a[r], p[t], p[r] = a[r], a[t], p[r], p[t]
            for m in (a, q):
                for row in m:
                    row[t], row[c] = row[c], row[t]
            for i in range(t + 1, rows):
                add_row(t, i, -(a[i][t] // a[t][t]))
            for j in range(t + 1, cols):
                add_col(t, j, -(a[t][j] // a[t][t]))
            if any(a[i][t] for i in range(t + 1, rows)) or any(a[t][t + 1 :]):
                continue
            bad = [i for i in range(t + 1, rows) if any(x % a[t][t] for x in a[i][t + 1 :])]
            if not bad:
                break
            add_row(bad[0], t, 1)
        if a[t][t] < 0:
            a[t], p[t] = [-x for x in a[t]], [-x for x in p[t]]
    diag = tuple(a[t][t] for t in range(min(rows, cols)))
    return diag, tuple(map(tuple, p)), tuple(map(tuple, q))
