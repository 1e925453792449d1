"""The benchmark's three workloads: survey, amplify and certify.

Each workload turns the seed into plain-data items with
`charbox.sampling.rng_for`, outside any timed region. Every execution of an
item builds fresh `BasisMatrix`, `Box` and `Character` objects (`prepare`),
because a `Character` caches its value table on the object and users build
new ones per question. `execute` holds only the public charbox calls that are
timed; `check` verifies every output afterwards and returns the failures.

All fields come from `cached_field(p, n, seed=<workload seed>)`, built in
set-up; the survey's `cfg.seed` is the workload seed for the same reason
(it also picks the field modulus).
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass
from fractions import Fraction

from charbox.sampling import rng_for, sample_basis, sample_character, sample_z, small_edge_cap

# Modules by import path: the package re-exports a function named `energy`.
# Calls go through module attributes so the tracer's wrappers are seen.
boxes, characters, energy, field, harness, lattice, survey_mod = (
    importlib.import_module(f"charbox.{m}")
    for m in ("boxes", "characters", "energy", "field", "harness", "lattice", "survey")
)

EPS = 0.3
REGIMES = ("small", "admissible", "tall", "any")


@dataclass(frozen=True)
class BoxItem:
    """One (basis, box, character or z) input as plain data."""

    kind: str
    p: int
    n: int
    cols: tuple
    N: tuple
    H: tuple
    k: int = 0
    z: tuple = ()


# Edge shapes as fractions of the largest small edge, one per round. Box sizes
# are stated, not drawn, so every seed does the same amount of work; the seed
# picks bases, offsets, characters and z.
SHAPES = ((1.0, 1.0, 1.0), (0.5, 1.0, 1.0), (0.5, 0.5, 1.0), (0.25, 0.5, 0.75))


def shape_edges(p: int, n: int, r: int) -> tuple[int, ...]:
    """Sorted small edges (all below sqrt(p/2)) of shape number r."""
    cap = small_edge_cap(p)
    return tuple(sorted(max(1, round(f * cap)) for f in SHAPES[r % len(SHAPES)][-n:]))


def _small_box(ctx, rng, r: int):
    """Plain-data basis columns, offsets and edges of a small box."""
    basis = sample_basis(ctx, rng)
    N = tuple(int(v) for v in rng.integers(-ctx.p, ctx.p, size=ctx.n))
    return tuple(map(tuple, basis.cols.tolist())), N, shape_edges(ctx.p, ctx.n, r)


class Workload:
    name = ""

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny
        if tiny:
            self.timed_rounds = self.traced_rounds = 1

    def fields(self) -> list[tuple[int, int]]:
        raise NotImplementedError

    def build_fields(self) -> None:
        for p, n in self.fields():
            field.cached_field(p, n, seed=self.seed)

    def ctx(self, p: int, n: int):
        return field.cached_field(p, n, seed=self.seed)

    # rounds of the item grid: the timed loop cycles through `timed_rounds`
    # (enough that a run repeats few items), a traced pass runs `traced_rounds`
    timed_rounds = 1
    traced_rounds = 1

    def items(self, rounds: int) -> list:
        raise NotImplementedError

    def warmups(self) -> list:
        """One untimed item per field, run in set-up."""
        raise NotImplementedError

    def kind(self, item) -> str:
        return item.kind

    def _objects(self, item: BoxItem):
        ctx = self.ctx(item.p, item.n)
        basis = field.BasisMatrix(ctx, item.cols)
        return ctx, basis, boxes.Box(basis, item.N, item.H)


# ---------------------------------------------------------------------------


class Amplify(Workload):
    """s_decomposition then burgess_trace on a fresh small box and character."""

    name = "amplify"

    def cells(self) -> list[tuple[int, int]]:
        if self.tiny:
            return [(31, 2), (31, 3)]
        base = [(p, n) for n in (2, 3) for p in (31, 61, 101)] + [(211, 2)]
        return base * 3 + [(127, 3)]

    def fields(self):
        return sorted(set(self.cells()))

    def _item(self, p, n, r, *key) -> BoxItem:
        ctx = self.ctx(p, n)
        rng = rng_for(self.seed, 2, p, n, r, *key)
        cols, N, H = _small_box(ctx, rng, r)
        k = sample_character(ctx, rng).k
        return BoxItem("trace", p, n, cols, N, H, k=k)

    timed_rounds = 3 * len(SHAPES)
    traced_rounds = len(SHAPES)

    def items(self, rounds):
        return [self._item(p, n, r, i) for r in range(rounds) for i, (p, n) in enumerate(self.cells())]

    def warmups(self):
        return [self._item(p, n, 0, 99) for p, n in self.fields()]

    def prepare(self, item):
        ctx, basis, box = self._objects(item)
        return box, characters.Character(ctx, item.k)

    def execute(self, state):
        box, chi = state
        return energy.s_decomposition(box), harness.burgess_trace(box, chi, EPS)

    def check(self, item, state, output):
        rp, tr = output
        fails = [f"s_decomposition.{k}" for k, ok in rp.checks.items() if k != "zero_in_B" and not ok]
        if not rp.hypothesis_ok:
            fails.append("s_decomposition.hypothesis_ok")
        fails += [f"burgess_trace.{k}" for k, ok in tr.checks.items() if not ok]
        return fails


# ---------------------------------------------------------------------------


class Certify(Workload):
    """Alternating random-z minima certificates and ratio-z classification."""

    name = "certify"

    def cells(self):
        if self.tiny:
            return [(31, 2), (31, 3)]
        # n = 3 items cost ~10x n = 2 items; listing n = 3 twice puts the
        # median inside the n = 3 mode instead of in the gap between modes
        return [(p, n) for n in (2, 3, 3) for p in (31, 101, 211)]

    def fields(self):
        return sorted(set(self.cells()))

    def _random_z(self, p, n, r, *key) -> BoxItem:
        ctx = self.ctx(p, n)
        rng = rng_for(self.seed, 3, p, n, r, *key)
        cols, N, H = _small_box(ctx, rng, r)
        z = sample_z(ctx, rng, outside_prime_subfield=True)
        return BoxItem("random_z", p, n, cols, N, H, z=z)

    def _ratio_z(self, p, n, r, *key) -> BoxItem:
        """z = y/x for nonzero x, y in the difference box, so lambda_1 <= 1."""
        ctx = self.ctx(p, n)
        rng = rng_for(self.seed, 4, p, n, r, *key)
        cols, N, H = _small_box(ctx, rng, r)
        basis = field.BasisMatrix(ctx, cols)
        while True:
            x = basis.elem_from_coords([int(rng.integers(-h, h + 1)) for h in H])
            y = basis.elem_from_coords([int(rng.integers(-h, h + 1)) for h in H])
            if any(x) and any(y):
                z = ctx.div(y, x)
                if not ctx.in_prime_subfield(z):
                    return BoxItem("ratio_z", p, n, cols, N, H, z=z)

    timed_rounds = 4 * len(SHAPES)
    traced_rounds = len(SHAPES)

    def items(self, rounds):
        out = []
        for r in range(rounds):
            for i, (p, n) in enumerate(self.cells()):
                out.append(self._random_z(p, n, r, i))
                out.append(self._ratio_z(p, n, r, i))
        return out

    def warmups(self):
        return [self._random_z(p, n, 0, 99) for p, n in self.fields()]

    def prepare(self, item):
        return item.kind, item.z, *self._objects(item)

    def execute(self, state):
        kind, z, ctx, basis, box = state
        if kind == "ratio_z":
            return lattice.classify_z(box, z)
        return (
            lattice.gamma_z(ctx, basis, z),
            lattice.minima_for_z(box, z),
            lattice.lambda1_star(box, z),
        )

    def check(self, item, state, output):
        _, z, ctx, basis, box = state
        n, p = item.n, item.p
        if item.kind == "ratio_z":
            return [] if output.recovered_z == z else ["classify_z.recovered_z"]
        lat, res, (lam_star, wit_star) = output
        fails = []
        if lat.det != p**n:
            fails.append("gamma_z.det")
        lo, mid, hi = res.minkowski_certificate()
        if not lo <= mid <= hi:
            fails.append("minima.minkowski")
        if n == 3:
            bounds_ok = res.lambdas[0] >= Fraction(1, box.H[1]) and res.lambdas[1] >= Fraction(1, box.H[0])
        else:
            bounds_ok = res.lambdas[0] >= Fraction(1, box.H[0])
        if not bounds_ok:
            fails.append("minima.lambda_lower_bounds")
        wit = res.witnesses[0]
        x_elem = basis.elem_from_coords(wit[:n])
        y_elem = basis.elem_from_coords(wit[n:])
        if not (any(x_elem) and ctx.div(y_elem, x_elem) == z):
            fails.append("minima.witness_recovery")
        if not lattice.gamma_z_contains(ctx, basis, z, wit) or res.body.gauge(wit, 1) != res.lambdas[0]:
            fails.append("minima.witness_in_lattice")
        if not (lam_star > 0 and any(wit_star)):
            fails.append("lambda1_star")
        return fails


# ---------------------------------------------------------------------------


class Survey(Workload):
    """theorem_survey jobs cycling through degrees, regimes and routes."""

    name = "survey"
    workers = 1

    def grid(self) -> dict:
        """(n, regime) -> (primes, random boxes per prime) of that job.

        'admissible' and 'any' boxes are drawn by the survey itself and can
        fill the whole field, so their sizes swing with the seed; they stay at
        small q with many draws, where per-row overhead outweighs box size and
        a job's cost hardly depends on the seed. 'small' and 'tall' boxes stay
        small at every p, so they carry the larger fields, where the q-sized
        character tables dominate.
        """
        if self.tiny:
            return {(n, regime): ((31, 61) if n == 2 else (31,), 2) for n in (2, 3) for regime in REGIMES}
        return {
            (2, "small"): ((101, 211, 509, 1021), 2), (2, "admissible"): ((31, 101, 211), 8),
            (2, "tall"): ((101, 211, 509, 1021), 2), (2, "any"): ((31, 101, 211), 8),
            (3, "small"): ((31, 61, 101), 2), (3, "admissible"): ((31,), 24),
            (3, "tall"): ((31, 61, 101), 2), (3, "any"): ((31,), 24),
        }

    def big_field(self):
        # q = 4093^2 ~ 2^24, at the table budget: values_at runs without a table
        return None if self.tiny else (4093, 2)

    def medium(self):
        return [(61, 2)] if self.tiny else [(211, 2), (101, 3)]

    def fields(self):
        out = {(p, n) for (n, _), (primes, _) in self.grid().items() for p in primes}
        out.update(self.medium())
        if self.big_field():
            out.add(self.big_field())
        return sorted(out)

    def _job(self, **kw) -> dict:
        job = dict(random_chars=1, seed=self.seed)
        job.update(kw)
        return job

    def _medium_boxes(self, rng, p, n) -> list[str]:
        """Explicit boxes with edges in [sqrt(p/2), p^0.65]: the subdivided route."""
        lo = math.isqrt(p // 2) + 1
        hi = int(p ** (0.5 + EPS / 2))
        specs = []
        for edges in ((hi,) * n, (lo,) * (n - 1) + (hi,)):
            offsets = rng.integers(-p, p, size=n)
            specs.append(",".join(f"{int(a)}:{b}" for a, b in zip(offsets, edges)))
        return specs

    timed_rounds = 3  # a serial pass re-runs every distinct job to compare CSV bytes
    traced_rounds = 3

    def items(self, rounds):
        jobs = []
        for r in range(rounds):
            rng = rng_for(self.seed, 1, r)
            for (n, regime), (primes, boxes_per_p) in self.grid().items():
                p_list = list(primes[r % len(primes):] + primes[: r % len(primes)])
                jobs.append(self._job(p_list=p_list, n=n, box_regime=regime,
                                      random_boxes=boxes_per_p,
                                      basis_seed=int(rng.integers(1, 2**31))))
            for p, n in self.medium():
                jobs.append(self._job(p_list=[p], n=n, boxes=self._medium_boxes(rng, p, n),
                                      basis_seed=int(rng.integers(1, 2**31))))
            if self.big_field():
                p, n = self.big_field()
                jobs.append(self._job(p_list=[p], n=n, box_regime="small", random_boxes=2,
                                      basis_seed=int(rng.integers(1, 2**31))))
        return jobs

    def warmups(self):
        return [self._job(p_list=[p], n=n, box_regime="small", random_boxes=1, basis_seed=1)
                for p, n in self.fields()]

    def kind(self, item) -> str:
        return "survey"

    def prepare(self, item):
        return survey_mod.ExperimentConfig(**item, workers=self.workers)

    def execute(self, cfg):
        report = survey_mod.theorem_survey(cfg)
        return report, survey_mod.render_csv(report)

    def check(self, item, state, output):
        report, _ = output
        return [f"row{i}:{row['pass_flags']}" for i, row in enumerate(report.rows) if not row["_ok"]]


WORKLOADS = {cls.name: cls for cls in (Survey, Amplify, Certify)}
