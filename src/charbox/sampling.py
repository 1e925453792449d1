"""Deterministic seeded sampling of bases, boxes, characters and z-values.

Every sampler derives its stream from a SeedSequence keyed by the caller's
seed plus a structural key, so grids are reproducible row by row and do not
depend on worker scheduling.
"""

from __future__ import annotations

import math

import numpy as np

from .boxes import Box, small_edge_cap
from .characters import Character
from .field import BasisMatrix, FieldCtx, FieldError, FqElem


_BOX_REGIMES = ("any", "small", "tall", "admissible")


def rng_for(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=[seed, *key]))


def sample_basis(ctx: FieldCtx, rng: np.random.Generator) -> BasisMatrix:
    """Invertible basis by rejection sampling; the CLI and survey basis seed
    s draws from rng_for(s, p, n, 7)."""
    while True:
        cols = rng.integers(0, ctx.p, size=(ctx.n, ctx.n))
        try:
            return BasisMatrix(ctx, cols)
        except FieldError:
            continue


def sample_box(basis: BasisMatrix, rng: np.random.Generator, regime: str = "small") -> Box:
    """regime: 'small' (all H_i < sqrt(p/2)), 'any', 'tall' (H_n near p, others
    small), or 'admissible' (|B| >= p^{n(1/4 + 0.3)})."""
    ctx = basis.ctx
    p, n = ctx.p, ctx.n
    cap = small_edge_cap(p)
    offsets = tuple(int(v) for v in rng.integers(-p, p + 1, size=n))
    if regime == "small":
        edges = tuple(int(v) for v in rng.integers(1, cap + 1, size=n))
    elif regime == "any":
        edges = tuple(int(v) for v in rng.integers(1, p + 1, size=n))
    elif regime == "tall":
        lo = int(p ** 0.85)
        edges = tuple(int(v) for v in rng.integers(1, cap + 1, size=n - 1)) + (
            int(rng.integers(max(2, lo), p + 1)),
        )
    elif regime == "admissible":
        target = p ** (n * (0.25 + 0.3))
        while True:
            edges = tuple(int(v) for v in rng.integers(1, p + 1, size=n))
            if math.prod(edges) >= target:
                break
    else:
        raise ValueError(f"unknown box regime {regime!r}")
    return Box(basis, offsets, edges)


def sample_character(ctx: FieldCtx, rng: np.random.Generator,
                     trivial_on_prime_subfield: bool | None = None) -> Character:
    """A nontrivial character: k is drawn from [1, q - 1)."""
    while True:
        if trivial_on_prime_subfield:
            # multiples of p-1 restrict trivially to F_p^*
            k = (ctx.p - 1) * int(rng.integers(1, ctx.q1 // (ctx.p - 1)))
        else:
            k = int(rng.integers(1, ctx.q1))
        chi = Character(ctx, k)
        if trivial_on_prime_subfield is False and chi.is_trivial_on_prime_subfield():
            continue
        return chi


def sample_z(ctx: FieldCtx, rng: np.random.Generator, outside_prime_subfield: bool = True):
    while True:
        z = ctx.decode(int(rng.integers(1, ctx.q)))
        if outside_prime_subfield and ctx.in_prime_subfield(z):
            continue
        return z


def sample_ratio_z(ctx: FieldCtx, nonzero: np.ndarray, rng: np.random.Generator) -> FqElem:
    """z = y/x outside F_p for x, y drawn (x first) from the encoded nonzero
    elements `nonzero`, redrawn until z leaves F_p. A difference box always
    holds two F_p-independent elements (+-omega_1, +-omega_2), so at n >= 2
    the draw ends."""
    while True:
        x, y = (ctx.decode(int(nonzero[i])) for i in rng.integers(0, len(nonzero), size=2))
        z = ctx.div(y, x)
        if not ctx.in_prime_subfield(z):
            return z
