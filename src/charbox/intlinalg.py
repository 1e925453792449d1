"""Exact integer linear algebra for the field and lattice layers, on Python ints.

Fraction-free (Bareiss 1968) determinant and adjugate, which give basis
inverses over F_p and polar lattices; the Hermite upper-triangular form that
shell enumeration walks. The rank test that picks minima witnesses lives in
`charbox.lattice` next to its only caller.
"""

from __future__ import annotations

from typing import Sequence


def _int_adjugate(rows: Sequence[Sequence[int]]) -> tuple[int, list[list[int]] | None]:
    """(det, adj) with adj @ rows = det * I, by fraction-free Gauss-Jordan
    elimination (Bareiss) of [rows | I]; adj is None when det = 0."""
    m = len(rows)
    a = [[int(v) for v in r] + [int(i == j) for j in range(m)] for i, r in enumerate(rows)]
    sign = 1
    prev = 1
    for k in range(m):
        piv = next((r for r in range(k, m) if a[r][k] != 0), None)
        if piv is None:
            return 0, None
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        ak = a[k]
        for i in range(m):
            if i != k:
                ai = a[i]
                a[i] = [(ak[k] * x - ai[k] * y) // prev for x, y in zip(ai, ak)]
        prev = ak[k]
    # the left block is now prev * I with prev = det of the row-swapped matrix
    return sign * prev, [[sign * v for v in r[m:]] for r in a]


def _hnf_upper(rows: Sequence[Sequence[int]]) -> list[list[int]] | None:
    """Row-span-preserving upper-triangular form with positive diagonal and
    entries above each pivot reduced into [0, pivot)."""
    h = [list(map(int, r)) for r in rows]
    m = len(h)
    for col in range(m):
        while True:
            nz = [r for r in range(col, m) if h[r][col] != 0]
            if not nz:
                return None
            if len(nz) == 1:
                break
            nz.sort(key=lambda r: abs(h[r][col]))
            r0, r1 = nz[0], nz[1]
            q = h[r1][col] // h[r0][col]
            h[r1] = [a - q * b for a, b in zip(h[r1], h[r0])]
        r = nz[0]
        if h[r][col] < 0:
            h[r] = [-a for a in h[r]]
        h[col], h[r] = h[r], h[col]
        for rr in range(col):
            q = h[rr][col] // h[col][col]
            if q:
                h[rr] = [a - q * b for a, b in zip(h[rr], h[col])]
    return h
