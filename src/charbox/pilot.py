"""Pilot measurements of the otherwise-unspecified implied constants.

The asymptotic inequalities under study only pin shapes, not constants, so
each constant is realized as a measured fixture over a fixed seeded grid: K_E for the energy bound, K_2 for
the per-coordinate solution-count sums, K_c for the point-count-versus-minima
bound, K_j for dyadic class sizes, K_T for transference, K_tau for the
tau-squared sum, and c_est for the generator interval sums. Regression runs
re-measure and must not exceed the stored fixtures.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction

import numpy as np

from .boxes import Box, difference_box, scaled_box
from .characters import Character, _max_interval_ratio, interval_sums_scan
from .energy import _check_pairs, _pair_chunks, f_count, one_dim_f_counts, s_decomposition, tau_profile
from .field import cached_field, is_generating
from .harness import choose_parameters
from .lattice import classify_z, sup_box_body
from .sampling import rng_for, sample_basis, sample_box, sample_character, sample_ratio_z

DEFAULT_PILOT_SEED = 20260801
DEFAULT_FIXTURES_PATH = os.path.join("fixtures", "fixtures.json")
PILOT_GRID = {"p": [31, 61, 101], "n": [2, 3]}
BOXES_PER_CELL = 6
Z_PER_BOX = 3
C_EST_PRIMES = [31, 61]


def _lambda1_key_table(box: Box) -> tuple[np.ndarray, int]:
    """Exact lambda_1(z) = key/scale for every z in Z, via one sweep over
    ordered pairs of nonzero difference-box elements."""
    ctx = box.ctx
    b0 = difference_box(box)
    _check_pairs(b0.size**2)
    coords, idx = b0.coords_grid(), b0.element_indices()
    nz = idx != 0
    coords, idx = coords[nz], idx[nz]
    body = sup_box_body(box.H)  # D on Gamma_z (denom 1): x and y share the first n stretches
    keys = (np.abs(coords) * np.array(body._stretch()[: ctx.n], dtype=np.int64)).max(axis=1)
    dlogs = ctx.dlog_at(idx)

    table = np.full(ctx.q1, np.iinfo(np.int64).max, dtype=np.int64)
    for rows, dd in _pair_chunks(dlogs, dlogs, -1, ctx.q1):  # dlog(y) - dlog(x)
        kk = np.maximum(keys[rows, None], keys[None, :])
        np.minimum.at(table, dd.ravel(), kk.ravel())
    return table, body.gauge_scale(1)


def _dyadic_class_ratios(box: Box) -> list[tuple[int, int, float]]:
    """(j, |Z_j|, |Z_j| / shape bound) for the dyadic classes of lambda_1."""
    ctx = box.ctx
    n = ctx.n
    table, scale = _lambda1_key_table(box)
    weight = box.H[n - 2]

    subfield = np.zeros(ctx.q1, dtype=bool)
    subfield[np.arange(0, ctx.q1, ctx.q1 // (ctx.p - 1))] = True
    in_z = table < np.iinfo(np.int64).max
    keep = in_z & ~subfield

    out = []
    j_max = weight.bit_length()
    tv = np.where(keep, table, 0)  # avoid weight * intmax overflow outside Z
    for j in range(1, j_max + 1):
        lo, hi = (1 << (j - 1)) * scale, (1 << j) * scale
        members = keep & (weight * tv >= lo) & (weight * tv < hi)
        count = int(members.sum())
        bound = math.prod(max(1.0, h * 2**j / weight) ** 2 for h in box.H)
        out.append((j, count, count / bound))
    return out


def _prime_interval_scan(chi: Character, omega_n) -> float:
    """max over subintervals I of [1, p] of |sum chi(x omega_n)| normalized
    by sqrt(p) log p (the Polya-Vinogradov shape)."""
    ctx = chi.ctx
    ts = np.arange(1, ctx.p + 1, dtype=np.int64)
    coords = (ts[:, None] * np.array(omega_n, dtype=np.int64)[None, :]) % ctx.p
    return _max_interval_ratio(chi.values_at(ctx.encode_array(coords)), ctx.p)


def pilot_fixtures(seed: int = DEFAULT_PILOT_SEED) -> dict:
    """Measure every fixture over the standard seeded grid."""
    k_e = 0.0
    k_2 = 0.0
    k_c = 0.0
    k_j = 0.0
    k_t = 0.0
    k_tau = 0.0
    pv_max = 0.0
    c_est: dict[str, float] = {}
    polar_report = []

    for n in PILOT_GRID["n"]:
        for p in PILOT_GRID["p"]:
            ctx = cached_field(p, n, seed=0)
            log_p = math.log(p)
            for bi in range(BOXES_PER_CELL):
                rng = rng_for(seed, p, n, bi)
                basis = sample_basis(ctx, rng)
                box = sample_box(basis, rng, regime="small").normalize()

                prof = s_decomposition(box)
                k_e = max(k_e, prof.E / (box.size**2 * log_p**3))
                z_ints = np.arange(1, p, dtype=np.int64)
                for h in box.H:
                    comp = one_dim_f_counts(p, h, z_ints)
                    k_2 = max(k_2, int((comp**2).sum()) / (h**2 * log_p))

                delta = choose_parameters(0.3, p).delta
                b0_scaled = scaled_box(box, delta)
                tau = tau_profile(box, b0_scaled)
                k_tau = max(k_tau, tau.sum_tau_sq / (box.size * b0_scaled.size * log_p**3))

                for j, _count, ratio in _dyadic_class_ratios(box):
                    k_j = max(k_j, ratio)

                b0 = difference_box(box)
                b0_idx = b0.element_indices()
                nz = b0_idx[b0_idx != 0]
                for zi in range(Z_PER_BOX):
                    z = sample_ratio_z(ctx, nz, rng_for(seed, p, n, bi, zi, 5))
                    cls = classify_z(box, z)  # box is normalized: the same Gamma_z and D
                    f0 = f_count(ctx, b0_idx, z)
                    denom = math.prod(max(Fraction(1), 1 / lam) for lam in cls.lambdas)
                    k_c = max(k_c, float(Fraction(f0) / denom))
                    k_t = max(k_t, float(cls.transference_product))
                    if cls.j_star is not None:
                        # two candidate readings of the first dyadic breakpoint
                        polar_report.append(
                            {
                                "p": p, "n": n, "H": list(box.H), "j_star": max(0, cls.j_star),
                                "breakpoint_largest_edge": math.log2(box.H[-1] / box.H[0]),
                                "breakpoint_middle_edge": math.log2(box.H[n - 2] / box.H[0]),
                            }
                        )

            # Polya-Vinogradov across interval scans (chi nontrivial on F_p)
            for ci in range(4):
                rng = rng_for(seed, p, n, ci, 17)
                basis = sample_basis(ctx, rng)
                chi = sample_character(ctx, rng, trivial_on_prime_subfield=False)
                pv_max = max(pv_max, _prime_interval_scan(chi, basis.omega(n)))

    for n in PILOT_GRID["n"]:
        best = 0.0
        for p in C_EST_PRIMES:
            ctx = cached_field(p, n, seed=0)
            for ai in range(5):
                rng = rng_for(seed, p, n, ai, 23)
                a = ctx.decode(int(rng.integers(ctx.p, ctx.q)))
                if not is_generating(ctx, a):
                    continue
                for _ in range(5):
                    chi = sample_character(ctx, rng)
                    best = max(best, interval_sums_scan(chi, a))
        c_est[str(n)] = best

    return {
        "version": 1,
        "seed": seed,
        "grid": {**PILOT_GRID, "boxes_per_cell": BOXES_PER_CELL, "z_per_box": Z_PER_BOX},
        "K_E": k_e,
        "K_2": k_2,
        "K_c": k_c,
        "K_j": k_j,
        "K_T": k_t,
        "K_tau": k_tau,
        "c_est": c_est,
        "pv_max_ratio": pv_max,
        "report": {"polar_dyadic_classes": polar_report},
    }


def write_fixtures(fixtures: dict, path: str = DEFAULT_FIXTURES_PATH) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(fixtures, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_fixtures(path: str = DEFAULT_FIXTURES_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
