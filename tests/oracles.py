"""Slow reference computations that the tests compare charbox against, plus
the seeded basis the CLI and the survey use.

Each oracle follows the textbook definition with no shared kernel, so an
agreement with the library is independent evidence. Tiny inputs only.
"""

from collections import Counter
from itertools import product

import numpy as np

from charbox.sampling import rng_for, sample_basis


def seeded_basis(ctx, seed: int):
    """The basis that `charbox ... --basis-seed seed` and the survey use."""
    return sample_basis(ctx, rng_for(seed, ctx.p, ctx.n, 7))


def energy_bruteforce(ctx, elements) -> int:
    """Quadruple-definition oracle, O(|B|^3)."""
    elems = list(elements)
    count = 0
    for x in elems:
        for y in elems:
            xy = ctx.mul(x, y)
            for w in elems:
                for t in elems:
                    if ctx.mul(w, t) == xy:
                        count += 1
    return count


def omega_line_count_bruteforce(box) -> int:
    """Enumerate B and count elements proportional to omega_n."""
    count = 0
    for _, elem in box.elements():
        coords = box.basis.coords_of(elem)
        if not any(coords[:-1]):
            count += 1
    return count


def bad_tuple_count_bruteforce(alphabet: int, r: int) -> int:
    """Exhaustive oracle over alphabet^(2r) tuples."""
    count = 0
    for tup in product(range(alphabet), repeat=2 * r):
        if all(v >= 2 for v in Counter(tup).values()):
            count += 1
    return count


def min_poly_degree(ctx, a) -> int:
    """Degree of the minimal polynomial of a over F_p (1..n)."""
    rows = []
    power = ctx.one()
    for k in range(ctx.n + 1):
        rows.append(power)
        power = ctx.mul(power, a)
        mat = np.array(rows, dtype=np.int64)
        if rank_mod_p(mat, ctx.p) < len(rows):
            return k  # 1, a, ..., a^k dependent: degree k
    return ctx.n


def rank_mod_p(mat: np.ndarray, p: int) -> int:
    a = mat.astype(np.int64) % p
    rank = 0
    rows, cols = a.shape
    for col in range(cols):
        piv = next((r for r in range(rank, rows) if a[r, col] % p), None)
        if piv is None:
            continue
        a[[rank, piv]] = a[[piv, rank]]
        s = pow(int(a[rank, col]), p - 2, p)
        a[rank] = a[rank] * s % p
        for r in range(rows):
            if r != rank and a[r, col]:
                a[r] = (a[r] - int(a[r, col]) * a[rank]) % p
        rank += 1
    return rank
