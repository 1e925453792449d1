"""Exact successive minima of weighted lattices in dimension 2n.

Gamma_z couples multiplication by z to a rank-2n integer lattice; the gauge
bodies are the weighted sup-norm box D and its weighted l1 polar D*. All
gauge comparisons are integer cross-multiplications and every lambda comes
out as an exact Fraction together with an integer witness vector, so the
Minkowski certificate is a hard zero-tolerance assertion.

Enumeration pipeline, integer arithmetic throughout: a fraction-free integral
LLL on the integer-rescaled basis sizes one shell, the gauge U of the 2n-th
independent vector among the {-1, 0, 1} combinations of the reduced rows
(so lambda_2n <= U). A blocked numpy walk of the enumeration tree over the
Hermite triangular basis (computed once per lattice, in the lattice's own
coordinate order) then lists every lattice vector of gauge <= U. Witnesses
are picked in at most 2n batched rounds, each a numpy rank test N v != 0
against integer rows N spanning the complement of the witnesses so far.
Polar lattices come from the integer adjugate (`charbox.intlinalg`, like the
Hermite form).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .boxes import Box
from .field import BasisMatrix, FieldCtx, FqElem
from .intlinalg import _hnf_upper, _int_adjugate

DEFAULT_NODE_BUDGET = 10_000_000


class EnumerationBudgetError(RuntimeError):
    """A shell enumeration needed more tree nodes than its budget."""


# ---------------------------------------------------------------------------
# lattices and gauge bodies


@dataclass(frozen=True, eq=False)
class IntLattice:
    """Full-rank lattice {c @ rows / denom : c integer row vector}."""

    rows: tuple[tuple[int, ...], ...]
    denom: int = 1

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(tuple(int(v) for v in r) for r in self.rows))
        if self.denom < 1:
            raise ValueError("denom must be positive")
        if self.det == 0:
            raise ValueError("lattice basis is singular")

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def det(self) -> int:
        return self._adjugate[0]

    @functools.cached_property
    def _adjugate(self) -> tuple[int, list[list[int]] | None]:
        return _int_adjugate(self.rows)

    @functools.cached_property
    def _hermite_form(self) -> list[list[int]]:
        """Hermite form of the rows, the basis every shell enumeration walks;
        the rows are nonsingular, so it exists."""
        return _hnf_upper(self.rows)

    @property
    def covolume(self) -> Fraction:
        return Fraction(abs(self.det), self.denom**self.dim)

    def coefficients_of(self, vec: Sequence[Fraction | int]) -> list[Fraction]:
        det, adj = self._adjugate
        scaled = [Fraction(v) * self.denom for v in vec]
        return [sum(scaled[k] * adj[k][i] for k in range(self.dim)) / det for i in range(self.dim)]

    def contains(self, vec: Sequence[Fraction | int]) -> bool:
        return all(c.denominator == 1 for c in self.coefficients_of(vec))

    def vectors(self) -> list[list[Fraction]]:
        return [[Fraction(v, self.denom) for v in row] for row in self.rows]


def polar_of(lattice: IntLattice) -> IntLattice:
    """Dual lattice {u : <u, v> integer for all v in the lattice}.

    For rows R / denom the dual rows are denom * adj(R)^T / det(R)."""
    det, adj = lattice._adjugate
    sign = 1 if det > 0 else -1
    rows = [[sign * lattice.denom * adj[j][i] for j in range(lattice.dim)] for i in range(lattice.dim)]
    g = math.gcd(abs(det), *(abs(v) for r in rows for v in r))
    return IntLattice(tuple(tuple(v // g for v in r) for r in rows), abs(det) // g)


@dataclass(frozen=True)
class GaugeBody:
    """Weighted sup-norm box D ('box') or its weighted l1 polar D* ('polar').

    Coordinates pair up as (x_1..x_n, y_1..y_n) with shared weights H_i.
    """

    kind: str
    weights: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in ("box", "polar"):
            raise ValueError("kind must be 'box' or 'polar'")
        if any(w < 1 for w in self.weights):
            raise ValueError("weights must be positive integers")
        object.__setattr__(self, "weights", tuple(int(w) for w in self.weights))

    @property
    def dim(self) -> int:
        return 2 * len(self.weights)

    def coord_weights(self) -> tuple[int, ...]:
        return self.weights + self.weights

    def volume(self) -> Fraction:
        prod_sq = math.prod(self.weights) ** 2
        if self.kind == "box":
            return Fraction(2**self.dim * prod_sq)
        return Fraction(2**self.dim, math.factorial(self.dim) * prod_sq)

    def gauge_scale(self, denom: int) -> int:
        """L such that every gauge value of a denom-scaled integer vector is
        an integer key over L."""
        if self.kind == "box":
            return denom * math.lcm(*self.weights)
        return denom

    def _stretch(self) -> tuple[int, ...]:
        """Integer s_j with gauge(vec/denom) = max_j (box) or sum_j (polar) of
        |vec_j| s_j over gauge_scale(denom): lcm(w)/w_j for the box, w_j for
        the polar."""
        w = self.coord_weights()
        if self.kind == "box":
            top = math.lcm(*w)
            return tuple(top // wi for wi in w)
        return w

    def gauge_key(self, vec: Sequence[int], denom: int) -> int:
        """Integer K with gauge(vec/denom) = K / gauge_scale(denom)."""
        terms = [abs(v) * s for v, s in zip(vec, self._stretch())]
        return max(terms) if self.kind == "box" else sum(terms)

    def gauge(self, vec: Sequence[int], denom: int) -> Fraction:
        return Fraction(self.gauge_key(vec, denom), self.gauge_scale(denom))

    def coordinate_bounds(self, lam: Fraction, denom: int) -> list[int]:
        """Largest |v_j| compatible with gauge <= lam: |v_j| s_j <= floor(lam L)."""
        cap = int(lam * self.gauge_scale(denom))
        return [cap // s for s in self._stretch()]

    def l1_cap(self, lam: Fraction, denom: int) -> int | None:
        if self.kind == "polar":
            return int(lam * denom)
        return None


def sup_box_body(weights: Sequence[int]) -> GaugeBody:
    return GaugeBody("box", tuple(weights))


def polar_body(weights: Sequence[int]) -> GaugeBody:
    return GaugeBody("polar", tuple(weights))


# ---------------------------------------------------------------------------
# integral LLL seeding


def _lll_rows(rows: Sequence[Sequence[int]], scale: Sequence[int]) -> list[list[int]]:
    """LLL-reduce (delta = 3/4) independent integer rows under the l2 metric
    with coordinate j stretched by scale[j]: fraction-free integral LLL (Cohen,
    Alg. 2.6.7) with d[i] the Gram determinant of the first i rows and
    lam[k][j] = mu_kj * d[j + 1]. Row k is fully size-reduced before its
    Lovasz test; mu rounds half to even."""
    b = [list(map(int, r)) for r in rows]
    m = len(b)
    sq = [s * s for s in scale]
    d = [1] * (m + 1)
    lam = [[0] * m for _ in range(m)]
    for k in range(m):
        for j in range(k + 1):
            u = sum(x * y * w for x, y, w in zip(b[k], b[j], sq))
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            lam[k][j] = u
        d[k + 1] = lam[k][k]  # the diagonal of lam is never read again
    k = 1
    guard = 0
    while k < m and guard < 10_000:
        guard += 1
        lk = lam[k]
        for j in range(k - 1, -1, -1):
            dj = d[j + 1]
            if 2 * abs(lk[j]) > dj:
                q, r = divmod(lk[j], dj)
                if 2 * r > dj or (2 * r == dj and q & 1):
                    q += 1
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                lk[j] -= q * dj
                for i in range(j):
                    lk[i] -= q * lam[j][i]
        t = lk[k - 1]
        if 4 * d[k + 1] * d[k - 1] >= 3 * d[k] * d[k] - 4 * t * t:
            k += 1
            continue
        # swap rows k-1, k and update d, lam in place (Cohen's SWAPI)
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        dk = (d[k - 1] * d[k + 1] + t * t) // d[k]
        for i in range(k + 1, m):
            li = lam[i]
            old = li[k]
            li[k] = (d[k + 1] * li[k - 1] - t * old) // d[k]
            li[k - 1] = (dk * old + t * li[k]) // d[k + 1]
        d[k] = dk
        k = max(k - 1, 1)
    return b


# ---------------------------------------------------------------------------
# Hermite-triangular enumeration


_BLOCK = 1 << 14  # rows per child slice in _enumerate_shell


class _NodeCounter:
    __slots__ = ("nodes", "budget")

    def __init__(self, budget: int):
        self.nodes = 0
        self.budget = budget

    def spend(self, k: int = 1):
        self.nodes += k
        if self.nodes > self.budget:
            raise EnumerationBudgetError(f"enumeration exceeded {self.budget} nodes")


def _enumerate_shell(
    hnf: list[list[int]],
    bounds: list[int],
    l1_weights: tuple[int, ...] | None,
    l1_cap: int | None,
    counter: _NodeCounter,
) -> np.ndarray:
    """All nonzero lattice vectors v = c @ hnf with |v_j| <= bounds[j]
    (and the l1 cap, when given).

    Level i fixes coefficient c_i, which fixes coordinate i. The tree is
    walked depth first over blocks of partial vectors (acc, running l1 sum):
    a level spends the summed child counts of its block on the counter and
    yields the children in slices of at most _BLOCK rows, one at a time, so
    scratch memory stays near m * _BLOCK rows besides the output. Leaf
    slices wait in the narrowest integer type that holds the bounds, so the
    int64 result is the only full-width copy of the shell.
    """
    m = len(hnf)
    _check_int64_range(hnf, bounds, l1_weights, l1_cap)
    h = np.array(hnf, dtype=np.int64)

    def children(level: int, acc: np.ndarray, running: np.ndarray):
        piv = hnf[level][level]
        base = acc[:, level]
        cb = bounds[level]
        if l1_cap is not None:
            cb = np.minimum(cb, (l1_cap - running) // l1_weights[level])
        c_lo = -((cb + base) // piv)
        width = np.maximum((cb - base) // piv - c_lo + 1, 0)
        ends = np.cumsum(width)
        total = int(ends[-1])
        counter.spend(total)
        first = ends - width
        for start in range(0, total, _BLOCK):
            idx = np.arange(start, min(start + _BLOCK, total))
            parent = np.searchsorted(ends, idx, side="right")
            child = acc[parent]
            child += (c_lo[parent] + idx - first[parent])[:, None] * h[level]
            if l1_cap is None:
                yield child, running
            else:
                yield child, running[parent] + l1_weights[level] * np.abs(child[:, level])

    out: list[np.ndarray] = []
    narrow = np.min_scalar_type(-max(bounds) - 1)  # leaf slices: every |v_j| <= bounds[j]
    stack = [children(0, np.zeros((1, m), dtype=np.int64), np.zeros(1, dtype=np.int64))]
    while stack:
        block = next(stack[-1], None)
        if block is None:
            stack.pop()
        elif len(stack) < m:
            stack.append(children(len(stack), *block))
        else:
            vecs = block[0]
            out.append(vecs[vecs.any(axis=1)].astype(narrow))
    return np.concatenate(out, dtype=np.int64)  # the zero vector's leaf always exists


def _check_int64_range(
    hnf: list[list[int]], bounds: list[int], l1_weights: tuple[int, ...] | None, l1_cap: int | None
) -> None:
    """Raise OverflowError unless every value _enumerate_shell forms fits int64:
    |c_i| <= (bounds[i] + |base_i|) // pivot_i, |partial v_j| <= sum_k |c_k hnf[k][j]|."""
    m = len(hnf)
    cmax: list[int] = []
    for i in range(m):
        reach = sum(c * abs(hnf[k][i]) for k, c in enumerate(cmax))
        cmax.append((bounds[i] + reach) // hnf[i][i])
    reach = max(sum(c * abs(hnf[k][j]) for k, c in enumerate(cmax)) for j in range(m))
    top = reach + max(bounds)
    if l1_cap is not None:
        top += l1_cap + sum(w * b for w, b in zip(l1_weights, bounds))
    if 4 * _BLOCK * top >= 2**63:
        raise OverflowError("shell enumeration would overflow int64")


@dataclass(frozen=True, eq=False)
class MinimaResult:
    """Exact successive minima with independent witnesses."""

    lattice: IntLattice
    body: GaugeBody
    lambdas: tuple[Fraction, ...]
    witnesses: tuple[tuple[int, ...], ...]
    nodes: int

    @property
    def s(self) -> int:
        """max{j : lambda_j <= 1} (0 when even lambda_1 exceeds 1)."""
        return sum(1 for lam in self.lambdas if lam <= 1)

    def minkowski_product(self) -> Fraction:
        return math.prod(self.lambdas, start=Fraction(1)) * self.body.volume() / self.lattice.covolume

    def minkowski_certificate(self) -> tuple[Fraction, Fraction, Fraction]:
        """(lower, product, upper) with lower <= product <= upper exactly iff
        the two-sided Minkowski second theorem holds."""
        d = self.body.dim
        return Fraction(2**d, math.factorial(d)), self.minkowski_product(), Fraction(2**d)

    def minkowski_ok(self) -> bool:
        lo, mid, hi = self.minkowski_certificate()
        return lo <= mid <= hi


def _shell_vectors(
    lattice: IntLattice, body: GaugeBody, lam: Fraction, counter: _NodeCounter
) -> np.ndarray:
    l1_cap = body.l1_cap(lam, lattice.denom)
    l1_weights = body.coord_weights() if l1_cap is not None else None
    return _enumerate_shell(lattice._hermite_form, body.coordinate_bounds(lam, lattice.denom),
                            l1_weights, l1_cap, counter)


@functools.cache
def _unit_combinations(m: int) -> np.ndarray:
    """The 3^m - 1 nonzero coefficient rows in {-1, 0, 1}^m, read-only."""
    coeffs = np.indices((3,) * m, dtype=np.int64).reshape(m, -1).T - 1
    coeffs = coeffs[coeffs.any(axis=1)]
    coeffs.setflags(write=False)
    return coeffs


def _combination_bound(lattice: IntLattice, body: GaugeBody) -> Fraction:
    """U >= lambda_m: the gauge of the m-th greedy pick among the nonzero
    {-1, 0, 1} combinations of the LLL-reduced rows, m independent lattice
    vectors of gauge <= U; the rows are among them, so U is at most their
    largest gauge. A combination's gauge key is at most m times the largest
    row key; Python ints when that could overflow int64."""
    # LLL under the gauge's per-coordinate stretch; the common factor
    # 1/gauge_scale leaves every LLL decision unchanged
    reduced = _lll_rows(lattice.rows, body._stretch())
    top = len(reduced) * max(body.gauge_key(r, lattice.denom) for r in reduced)
    dtype = np.int64 if top < 2**63 else object
    vecs = _unit_combinations(len(reduced)).astype(dtype) @ np.array(reduced, dtype=dtype)
    lams, _ = _greedy_minima(lattice, body, vecs)
    return lams[-1]


def successive_minima(
    lattice: IntLattice, body: GaugeBody, node_budget: int = DEFAULT_NODE_BUDGET
) -> MinimaResult:
    """Exact lambda_1..lambda_dim with greedy canonical witnesses.

    One shell at the combination bound U >= lambda_dim holds every vector of
    gauge <= lambda_dim, so the greedy over it makes the picks it would make
    over the whole lattice.
    """
    if body.dim != lattice.dim:
        raise ValueError("body dimension does not match lattice")
    counter = _NodeCounter(node_budget)
    vecs = _shell_vectors(lattice, body, _combination_bound(lattice, body), counter)
    lams, wits = _greedy_minima(lattice, body, vecs)
    return MinimaResult(lattice, body, tuple(lams), tuple(wits), counter.nodes)


def _greedy_minima(lattice: IntLattice, body: GaugeBody, vecs: np.ndarray, limit: int | None = None):
    """The first `limit` (default: the dimension) vectors in (gauge, canonical
    order) that are independent of those before them. Sign-normalizes vecs
    in place.

    At most `limit` rounds: accept the least candidate left, then drop every
    candidate in the span of the witnesses so far. The span test keeps
    integer rows `null` spanning {u : W u = 0} for the witness rows W, so v
    is outside the span iff null @ v != 0."""
    if len(vecs) == 0:
        return None
    m = lattice.dim
    limit = m if limit is None else limit
    scale = body.gauge_scale(lattice.denom)
    terms = (np.abs(vecs[:, j]) * s for j, s in enumerate(body._stretch()))  # one column at a time
    keys = functools.reduce(np.maximum if body.kind == "box" else np.add, terms)
    first = np.argmax(vecs != 0, axis=1)  # canonical sign: first nonzero entry > 0
    vecs *= np.sign(vecs[np.arange(len(vecs)), first])[:, None]
    vmax = max(int(vecs.max()), -int(vecs.min()))
    null = [[int(i == j) for j in range(m)] for i in range(m)]
    cand = np.arange(len(vecs))
    lams: list[Fraction] = []
    wits: list[tuple[int, ...]] = []
    while len(cand) and len(wits) < limit:
        cand_keys = keys[cand]
        tied = cand[cand_keys == cand_keys.min()]
        for j in range(m):  # ties break by lexicographic vector order
            col = vecs[tied, j]
            tied = tied[col == col.min()]
        wit = tuple(int(x) for x in vecs[tied[0]])
        lams.append(Fraction(int(keys[tied[0]]), scale))
        wits.append(wit)
        if len(wits) < limit:
            null = _null_cut(null, wit)
            cand = cand[_outside_span(vecs, cand, null, vmax)]
    return lams, wits


def _null_cut(null: list[list[int]], wit: tuple[int, ...]) -> list[list[int]]:
    """Rows spanning {u in span(null) : u . wit = 0}, one fewer than null:
    a fraction-free cut on the row with the least nonzero d_i = null_i . wit."""
    d = [sum(a * b for a, b in zip(row, wit)) for row in null]
    piv = min((i for i in range(len(d)) if d[i]), key=lambda i: abs(d[i]))
    out = []
    for i, row in enumerate(null):
        if i != piv:
            cut = [d[piv] * a - d[i] * b for a, b in zip(row, null[piv])]
            g = math.gcd(*cut)
            out.append([v // g for v in cut])
    return out


def _outside_span(vecs: np.ndarray, cand: np.ndarray, null: list[list[int]], vmax: int) -> np.ndarray:
    """Mask of the candidates v with null @ v != 0, over _BLOCK-row slices;
    Python ints when max_i |null_i|_1 * max|v| could overflow int64."""
    top = max(sum(map(abs, row)) for row in null) * vmax
    dtype = np.int64 if top < 2**63 else object
    basis = np.array(null, dtype=dtype).T
    return np.concatenate([
        ((vecs[cand[s:s + _BLOCK]].astype(dtype, copy=False) @ basis) != 0).any(axis=1)
        for s in range(0, len(cand), _BLOCK)
    ])


def first_minimum(
    lattice: IntLattice, body: GaugeBody, node_budget: int = DEFAULT_NODE_BUDGET
) -> tuple[Fraction, tuple[int, ...]]:
    """lambda_1 with its canonical witness (cheaper than full minima)."""
    counter = _NodeCounter(node_budget)
    lam_min = min(body.gauge(r, lattice.denom) for r in _lll_rows(lattice.rows, body._stretch()))
    vecs = _shell_vectors(lattice, body, lam_min, counter)
    picked = _greedy_minima(lattice, body, vecs, limit=1)
    assert picked is not None, "seed shell contains an LLL basis vector"
    return picked[0][0], picked[1][0]


# ---------------------------------------------------------------------------
# the multiplication lattices Gamma_z


def mult_matrix(ctx: FieldCtx, basis: BasisMatrix, z: FqElem) -> np.ndarray:
    """A_z with coords(z * x) = A_z @ coords(x) mod p, coords in the omega basis:
    A_z = inv_cols @ M(z) @ cols mod p, entries in [0, p)."""
    return basis.inv_cols @ (ctx.mul_matrix(z) @ basis.cols % ctx.p) % ctx.p


def gamma_z(ctx: FieldCtx, basis: BasisMatrix, z: FqElem) -> IntLattice:
    """{(x, y) in Z^{2n} : z * (sum x_i omega_i) = sum y_i omega_i mod p}."""
    eye = np.eye(ctx.n, dtype=np.int64)  # rows (e_i, A_z e_i), then (0, p e_j)
    rows = np.block([[eye, mult_matrix(ctx, basis, z).T], [0 * eye, ctx.p * eye]])
    return IntLattice(tuple(map(tuple, rows.tolist())))


def gamma_z_contains(ctx: FieldCtx, basis: BasisMatrix, z: FqElem, vec: Sequence[int]) -> bool:
    """Congruence-side membership oracle: y = A_z x mod p."""
    n = ctx.n
    a = mult_matrix(ctx, basis, z)
    x = np.array(vec[:n], dtype=np.int64)
    y = np.array(vec[n:], dtype=np.int64)
    return bool((((a @ x) - y) % ctx.p == 0).all())


def minima_for_z(box: Box, z: FqElem, node_budget: int = DEFAULT_NODE_BUDGET) -> MinimaResult:
    """Successive minima of the box gauge D for Gamma_z of the given box."""
    ctx = box.ctx
    return successive_minima(gamma_z(ctx, box.basis, z), sup_box_body(box.H), node_budget)


def lambda1_star(
    box: Box, z: FqElem, node_budget: int = DEFAULT_NODE_BUDGET
) -> tuple[Fraction, tuple[int, ...]]:
    """First minimum of the polar body D* over the polar lattice Gamma_z^*.

    The witness is in the polar integer scale: the vector is witness / denom
    of the polar lattice (denom = p for Gamma_z^*).
    """
    dual = polar_of(gamma_z(box.ctx, box.basis, z))
    return first_minimum(dual, polar_body(box.H), node_budget)


@dataclass(frozen=True, eq=False)
class ZClassification:
    """Dyadic classes and s(z) for one z, with witness recovery."""

    z: FqElem
    lambdas: tuple[Fraction, ...]
    lambda1_star: Fraction
    j: int
    j_star: int | None
    s: int
    recovered_z: FqElem
    witness: tuple[int, ...]
    transference_product: Fraction  # lambda_1^* x lambda_{2n}


def _dyadic_index(t: Fraction) -> int:
    """j with 2^(j-1) <= t < 2^j (so j = floor(log2 t) + 1), t > 0."""
    if t <= 0:
        raise ValueError("dyadic index needs t > 0")
    j = t.numerator.bit_length() - t.denominator.bit_length()  # 2^(j-1) < t < 2^(j+1)
    return j + 1 if t >= Fraction(2) ** j else j


def classify_z(box: Box, z: FqElem, node_budget: int = DEFAULT_NODE_BUDGET) -> ZClassification:
    """Dyadic class j from H_{n-1} lambda_1, polar class j' from p lambda_1^*/H_1,
    s(z), and recovery of z from the first witness."""
    nb = box.normalize()
    ctx = nb.ctx
    n = ctx.n
    if ctx.in_prime_subfield(z):
        raise ValueError("classification applies to z outside F_p")
    minima = minima_for_z(nb, z, node_budget)
    if minima.lambdas[0] > 1:
        raise ValueError("z is not in Z for this box (lambda_1 > 1)")
    weight = nb.H[n - 2] if n >= 2 else nb.H[0]
    j = _dyadic_index(weight * minima.lambdas[0])

    # the polar of the same Gamma_z: one lattice and one adjugate for both minima
    lam_star, _wit = first_minimum(polar_of(minima.lattice), polar_body(nb.H), node_budget)
    j_star = None
    if lam_star <= 1:
        j_star = _dyadic_index(Fraction(ctx.p) * lam_star / nb.H[0])

    wit = minima.witnesses[0]
    x_elem = nb.basis.elem_from_coords(wit[:n])
    y_elem = nb.basis.elem_from_coords(wit[n:])
    if not any(x_elem):
        raise RuntimeError("lambda_1 witness has zero x-half (internal error)")
    recovered = ctx.div(y_elem, x_elem)
    return ZClassification(
        z,
        minima.lambdas,
        lam_star,
        j,
        j_star,
        minima.s,
        recovered,
        wit,
        lam_star * minima.lambdas[-1],
    )
