"""Boxes (axis-aligned parallelepipeds) in F_{p^n} and their transforms.

A box is a basis plus integer offsets N_i and edges H_i; its elements are
sum_i x_i omega_i with N_i + 1 <= x_i <= N_i + H_i. Offsets are arbitrary
integers; reduction mod p happens at element construction. An edge is
small when H < sqrt(p/2), tested exactly as H <= small_edge_cap(p). Box and
basis are immutable, so each Box computes its encoded elements once and
hands out that one read-only array. The tall walk (B divided by omega_n, row
by row) is the one kernel behind the tall-box identity and the degenerate
outer-pair set; both are checks on integer indices.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .field import BasisMatrix, FieldCtx, FqElem


class BoxError(ValueError):
    pass


def _sorted_distinct(x: np.ndarray) -> np.ndarray:
    """np.unique(x) by one sort and an adjacent-difference mask (np.unique
    hashes integer input, several times slower than a sort)."""
    s = np.sort(x, axis=None)
    keep = np.ones(s.shape, dtype=bool)
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


def _lex_grid(N: tuple[int, ...], H: tuple[int, ...]) -> np.ndarray:
    """Coordinate vectors of ranges N_i + 1 .. N_i + H_i, shape (prod H, len H),
    lexicographic order; exact Python ints (object) where int64 would wrap."""
    fits = all(-(2**63) <= nn and nn + hh < 2**63 for nn, hh in zip(N, H))
    start = np.array([nn + 1 for nn in N], dtype=np.int64 if fits else object)
    return np.indices(H, dtype=np.int64).reshape(len(H), -1).T + start


def small_edge_cap(p: int) -> int:
    """Largest integer edge strictly below sqrt(p/2) (c^2 < p/2 iff c^2 <= (p-1)//2)."""
    return max(1, math.isqrt((p - 1) // 2))


@dataclass(frozen=True, eq=False)
class Box:
    basis: BasisMatrix
    N: tuple[int, ...]
    H: tuple[int, ...]

    def __post_init__(self):
        n = self.ctx.n
        object.__setattr__(self, "N", tuple(int(v) for v in self.N))
        object.__setattr__(self, "H", tuple(int(v) for v in self.H))
        if len(self.N) != n or len(self.H) != n:
            raise BoxError(f"box needs {n} offset:edge pairs")
        for h in self.H:
            if not 1 <= h <= self.ctx.p:
                raise BoxError(f"edges must satisfy 1 <= H_i <= p, got {h}")

    @property
    def ctx(self) -> FieldCtx:
        return self.basis.ctx

    @property
    def size(self) -> int:
        return math.prod(self.H)

    def ranges(self) -> list[range]:
        return [range(nn + 1, nn + hh + 1) for nn, hh in zip(self.N, self.H)]

    def normalize(self) -> "Box":
        """Permute coordinates (basis columns with N, H) so H is ascending."""
        order = sorted(range(len(self.H)), key=lambda i: self.H[i])
        if order == list(range(len(self.H))):
            return self
        return Box(
            self.basis.permute(order),
            tuple(self.N[i] for i in order),
            tuple(self.H[i] for i in order),
        )

    def coords_grid(self) -> np.ndarray:
        """All coordinate vectors, shape (size, n), lexicographic order."""
        return _lex_grid(self.N, self.H)

    def element_indices(self) -> np.ndarray:
        """Encoded field elements in lexicographic coordinate order; the same
        read-only array on every call."""
        return self._element_indices

    @functools.cached_property
    def _element_indices(self) -> np.ndarray:
        coords = np.asarray(self.coords_grid() % self.ctx.p, dtype=np.int64)
        idx = self.ctx.encode_array((coords @ self.basis.cols.T) % self.ctx.p)
        idx.setflags(write=False)
        return idx

    def elements(self) -> Iterator[tuple[tuple[int, ...], FqElem]]:
        """Stream of (coords, element), lexicographic in box coordinates."""
        coords = self.coords_grid()
        for row in coords:
            yield tuple(int(v) for v in row), self.basis.elem_from_coords(row)

    def __repr__(self) -> str:
        return f"Box(p={self.ctx.p}, n={self.ctx.n}, N={self.N}, H={self.H})"


def parse_box_spec(basis: BasisMatrix, spec: str) -> Box:
    """Parse the CLI literal "N1:H1,N2:H2[,N3:H3]"."""
    parts = spec.split(",")
    try:
        pairs = [tuple(int(v) for v in part.split(":")) for part in parts]
        if any(len(pair) != 2 for pair in pairs):
            raise ValueError
    except ValueError:
        raise BoxError(f"bad box literal {spec!r}; expected N1:H1,N2:H2[,N3:H3]") from None
    return Box(basis, tuple(p[0] for p in pairs), tuple(p[1] for p in pairs))


def format_box_spec(box: Box) -> str:
    return ",".join(f"{nn}:{hh}" for nn, hh in zip(box.N, box.H))


def difference_box(box: Box) -> Box:
    """Symmetric set of coordinate differences: ranges [-H_i, H_i]."""
    if any(2 * h + 1 > box.ctx.p for h in box.H):
        raise BoxError("difference box needs 2H_i + 1 <= p for distinct elements")
    return Box(box.basis, tuple(-h - 1 for h in box.H), tuple(2 * h + 1 for h in box.H))


def scaled_box(box: Box, delta: float) -> Box:
    """Shrunk nonnegative box with ranges [0, floor(p^(-2 delta) H_i)]."""
    if not 0 < delta < 0.5:
        raise BoxError(f"delta must lie in (0, 1/2), got {delta}")
    shrink = box.ctx.p ** (-2 * delta)
    return Box(box.basis, (-1,) * box.ctx.n, tuple(int(shrink * h) + 1 for h in box.H))


def _multiple_of_p(box: Box, i: int) -> int | None:
    """The multiple of p in the range of coordinate i (unique as H_i <= p), or None."""
    p = box.ctx.p
    mult = (box.N[i] + box.H[i]) // p * p
    return mult if mult > box.N[i] else None


def omega_line_intersection(box: Box) -> int:
    """|B intersect omega_n F_p|: H_n if every range x_i, i < n, covers a
    multiple of p (the coordinate 0 mod p), else 0."""
    if any(_multiple_of_p(box, i) is None for i in range(box.ctx.n - 1)):
        return 0
    return box.H[box.ctx.n - 1]


def subdivide_box(box: Box) -> list[Box]:
    """Split every edge into the fewest near-equal integer pieces of at most
    small_edge_cap(p), ceil(H / cap) of them; pieces of one edge differ in
    length by at most 1. At p <= 7 the cap is 1 and every piece is a single
    coordinate."""
    cap = small_edge_cap(box.ctx.p)
    per_axis: list[list[tuple[int, int]]] = []
    for nn, hh in zip(box.N, box.H):
        k = -(-hh // cap)
        base, rem = divmod(hh, k)  # the first rem pieces get base + 1
        per_axis.append([(nn + j * base + min(j, rem), base + (j < rem)) for j in range(k)])
    return [Box(box.basis, *zip(*combo)) for combo in itertools.product(*per_axis)]


def degenerate_pair_closed_form(box: Box) -> set[tuple[int, int]]:
    """Closed form of the degenerate pair set: the unique pair of
    coordinates that are 0 mod p, when both outer ranges contain one."""
    hits = [_multiple_of_p(box, i) for i in range(2)]
    return set() if None in hits else {(hits[0], hits[1])}


def tall_walk(box: Box) -> tuple[np.ndarray, np.ndarray]:
    """B divided by omega_n, row by row: outer is the lexicographic grid of the
    first n - 1 axes, and walk[r, j] is the index of a_r + t_j, where
    a_r = sum_{i<n} x_i omega_i/omega_n at outer row r and t_j runs over the
    last range. Row r times omega_n is row r of B, so the walk never
    enumerates B."""
    ctx, n = box.ctx, box.ctx.n
    if n < 2:
        raise BoxError("the tall walk needs n >= 2")
    ratios = ctx.mul_matrix(ctx.inv(box.basis.omega(n))) @ box.basis.cols[:, : n - 1] % ctx.p
    outer = _lex_grid(box.N[: n - 1], box.H[: n - 1])
    base_idx = ctx.encode_array(np.asarray(outer % ctx.p, dtype=np.int64) @ ratios.T % ctx.p)
    ts = np.arange(box.H[n - 1], dtype=np.int64) + (box.N[n - 1] % ctx.p + 1)  # t mod p suffices
    return outer, ctx.add_int_array(base_idx[:, None], ts)


def tall_box_identity(box: Box) -> bool:
    """The pull-out-omega_n split B = omega_n (a_r + t), checked exactly:
    the tall walk times omega_n equals B's indices elementwise."""
    ctx = box.ctx
    _, walk = tall_walk(box)
    scaled = ctx.decode_array(walk.ravel()) @ ctx.mul_matrix(box.basis.omega(ctx.n)).T % ctx.p
    return np.array_equal(ctx.encode_array(scaled), box.element_indices())


def degenerate_pair_set(box: Box) -> set[tuple[int, int]]:
    """A = {(x_1, x_2): x_1 omega_1/omega_3 + x_2 omega_2/omega_3 lies in F_p}:
    the outer rows of the tall walk whose a_r has index below p. Only the
    first layer (H_3 = 1) is walked: a_r + t is in F_p iff a_r is."""
    if box.ctx.n != 3:
        raise BoxError("degenerate pair set is defined for n = 3 boxes")
    outer, walk = tall_walk(Box(box.basis, box.N, box.H[:2] + (1,)))
    rows = np.flatnonzero(walk[:, 0] < box.ctx.p)
    return {(int(outer[r, 0]), int(outer[r, 1])) for r in rows}
