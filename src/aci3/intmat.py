"""Exact rank and determinant of integer matrices by fraction-free elimination.

Bareiss's algorithm: after each elimination step every entry is divided by
the previous pivot; all divisions are exact, so the arithmetic stays in the
integers and results are exact in characteristic zero.
"""

from __future__ import annotations

from .errors import as_ints, as_tuple


def _echelon(m: list[list[int]]) -> tuple[int, int, int]:
    """Bring ``m`` to fraction-free row echelon form in place.

    Columns are taken left to right; one with no nonzero entry at or below
    the current row is skipped, otherwise the first such row is swapped up
    and the rows below it are eliminated.  Returns (rank, sign of the row
    permutation, last pivot); each pivot is a minor of the row-permuted
    input, so for a square matrix of full rank sign * last pivot is the
    determinant.
    """
    nr = len(m)
    nc = len(m[0]) if m else 0
    rank, sign, prev = 0, 1, 1
    for col in range(nc):
        if rank == nr:
            break
        for p in range(rank, nr):
            if m[p][col] != 0:
                break
        else:
            continue
        if p != rank:
            m[p], m[rank] = m[rank], m[p]
            sign = -sign
        top = m[rank]
        piv = top[col]
        for i in range(rank + 1, nr):
            row = m[i]
            fac = row[col]
            for j in range(col + 1, nc):
                row[j] = (row[j] * piv - fac * top[j]) // prev
            row[col] = 0
        prev = piv
        rank += 1
    return rank, sign, prev


def int_rank(rows) -> int:
    """Rank over the rationals of an integer matrix (list of rows)."""
    m = [list(as_ints(r, "matrix entries")) for r in as_tuple(rows, "matrix rows")]
    return _echelon(m)[0]


def int_det(mat) -> int:
    """Determinant of a square integer matrix."""
    m = [list(as_ints(r, "matrix entries")) for r in as_tuple(mat, "matrix rows")]
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("matrix is not square")
    rank, sign, last = _echelon(m)
    return sign * last if rank == n else 0
