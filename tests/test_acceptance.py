"""Acceptance suite: one test per criterion, each printing a PASS line.

Grid scales and tolerances are pinned here; nothing is deferred to later
calibration. Run with -s to watch the per-criterion lines.
"""

import json
import math
import pathlib
import time
from fractions import Fraction

import numpy as np

from charbox import (
    Box,
    Character,
    box_char_sum,
    burgess_trace,
    cached_field,
    complete_poly_char_sum,
    gamma_z,
    minima_for_z,
    run_config,
    s_decomposition,
    scaled_box,
    tau_profile,
    theorem_survey,
)
from charbox.pilot import DEFAULT_FIXTURES_PATH, load_fixtures, pilot_fixtures
from charbox.sampling import (
    small_edge_cap,
    rng_for,
    sample_basis,
    sample_box,
    sample_character,
    sample_z,
)
from charbox.survey import ExperimentConfig, render_csv
from oracles import check_tall_split

GRID = [(n, p) for n in (2, 3) for p in (31, 61, 101)]
TRIPLES_PER_CELL = 50
ACCEPT_SEED = 977
REPO = pathlib.Path(__file__).parent.parent


def _cell_samples(n, p, count, regime):
    ctx = cached_field(p, n, seed=0)
    for i in range(count):
        rng = rng_for(ACCEPT_SEED, n, p, i)
        basis = sample_basis(ctx, rng)
        box = sample_box(basis, rng, regime=regime)
        chi = sample_character(ctx, rng)
        yield ctx, basis, box, chi, rng


def test_criterion_1_exact_identities():
    """sum tau = |B|(|B0|-1); f_0 = prod f_i on F_p^*; full-field sum 0;
    |B| = prod H_i; tall-box identity. Runtime target: < 2 min."""
    started = time.monotonic()
    for n, p in GRID:
        ctx = cached_field(p, n, seed=0)
        full_box_edges = (p,) * n
        for i, (ctx, basis, box, chi, rng) in enumerate(
            _cell_samples(n, p, TRIPLES_PER_CELL, "small")
        ):
            # |B| = prod H_i via distinct enumeration
            assert len(np.unique(box.element_indices())) == box.size

            b0 = scaled_box(box, 0.15)
            tau = tau_profile(box, b0)
            assert tau.sum_tau == box.size * (b0.size - 1)

            prof = s_decomposition(box)
            assert prof.checks["f0_factorizes_on_prime_subfield"]

            if chi.k != 0:
                full = Box(basis, (0,) * n, full_box_edges)
                assert abs(box_char_sum(chi, full)) < 1e-9

            tall = Box(
                basis,
                tuple(int(v) for v in rng.integers(-p, p, size=n)),
                tuple(int(v) for v in rng.integers(1, 5, size=n - 1)) + (int(rng.integers(2, p + 1)),),
            )
            check_tall_split(chi, tall)
    elapsed = time.monotonic() - started
    assert elapsed < 120
    print(f"\n[criterion 1] PASS exact identities on {len(GRID)} cells x "
          f"{TRIPLES_PER_CELL} triples in {elapsed:.1f}s")


def test_criterion_2_inequalities_with_explicit_constants():
    """Energy chains, f <= f_0, Cauchy-Schwarz, shift bound, bad-tuple count
    and moment bound; integer comparisons exact, zero tolerance. < 5 min."""
    started = time.monotonic()
    traces = 0
    for n, p in GRID:
        for i, (ctx, basis, box, chi, rng) in enumerate(
            _cell_samples(n, p, TRIPLES_PER_CELL, "small")
        ):
            prof = s_decomposition(box)
            assert prof.hypothesis_ok
            assert prof.E <= 2 * box.size**2 + prof.sum_f_sq_over_zprime
            assert prof.E <= 3 * box.size**2 + prof.S
            assert prof.checks["f_le_f0"]

            trace = burgess_trace(box, chi, 0.3)
            assert trace.checks["cauchy_schwarz"]
            assert trace.checks["sym_diff_bound"]  # every (y, z) in the trace
            assert trace.checks["shift_identity"]
            assert trace.checks["holder_chain"]
            assert trace.checks["moment_bound"]
            assert trace.checks["bad_census"]
            assert trace.checks["assembled_dominates"]
            traces += 1
    elapsed = time.monotonic() - started
    assert elapsed < 300
    print(f"\n[criterion 2] PASS inequality suite over {traces} traces in {elapsed:.1f}s")


WEIL_FIELDS = [(5, 2), (3, 3), (7, 2), (11, 2)]  # q = 25, 27, 49, 121


def _char_matrix(ctx, chi):
    """W[z, u] = chi(u + z) for all z, u; columns indexed by u."""
    q = ctx.q
    digits = ctx.decode_array(np.arange(q, dtype=np.int64))
    rows = np.empty((q, q), dtype=np.complex128)
    for z_idx in range(q):
        rows[z_idx] = chi.values_at(ctx.encode_array((digits + ctx.decode(z_idx)) % ctx.p))
    return rows


def test_criterion_3_weil_theorem_d():
    """Exhaustive (1,1) and (1, q-2) scans at q in {25, 27, 49, 121} plus 10^3
    random admissible inputs at q <= 10^4; zero violations."""
    checked_pairs = 0
    for p, n in WEIL_FIELDS:
        ctx = cached_field(p, n, seed=0)
        q = ctx.q
        k_set = sorted({1, 2, 5 % (q - 1), (q - 1) // 2, q - 2})
        for k in k_set:
            chi = Character(ctx, k)
            w = _char_matrix(ctx, chi)
            pair_11 = w @ w.T  # sum_u chi(u+z1) chi(u+z2)
            pair_1q2 = w @ w.conj().T  # exponents (1, q-2)
            off = ~np.eye(q, dtype=bool)
            assert np.abs(pair_11[off]).max() <= math.sqrt(q) + 1e-6
            assert np.abs(pair_1q2[off] + 1).max() < 1e-9  # exactly -1
            checked_pairs += 2 * int(off.sum())

            # spot-verify the vectorized scan against the public operation
            rng = rng_for(ACCEPT_SEED, p, n, k, 3)
            for _ in range(25):
                z1, z2 = (int(v) for v in rng.integers(0, q, size=2))
                if z1 == z2:
                    continue
                res = complete_poly_char_sum(
                    chi, [(ctx.decode(z1), 1), (ctx.decode(z2), 1)]
                )
                assert abs(res.value - pair_11[z1, z2]) < 1e-9
                res2 = complete_poly_char_sum(
                    chi, [(ctx.decode(z1), 1), (ctx.decode(z2), q - 2)]
                )
                assert abs(res2.value - pair_1q2[z1, z2]) < 1e-9

    random_fields = [(9973, 1), (97, 2), (19, 3), (61, 2), (31, 2), (13, 3)]
    rng = rng_for(ACCEPT_SEED, 4)
    done = 0
    while done < 1000:
        p, n = random_fields[int(rng.integers(0, len(random_fields)))]
        ctx = cached_field(p, n, seed=0)
        q = ctx.q
        chi = sample_character(ctx, rng)
        m = int(rng.integers(2, 5))
        roots_idx = rng.choice(q, size=m, replace=False)
        exps = [int(rng.integers(1, q - 1)) for _ in range(m)]
        if all(e % chi.order == 0 for e in exps):
            exps[0] += 1
        res = complete_poly_char_sum(
            chi, [(ctx.decode(int(zi)), e) for zi, e in zip(roots_idx, exps)]
        )
        assert not res.degenerate
        assert abs(res.value) <= (m - 1) * math.sqrt(q) + 1e-6
        done += 1
    print(f"\n[criterion 3] PASS Weil bound: {checked_pairs} exhaustive pairs, 1000 random inputs")


def test_criterion_4_lattice_certification():
    """Minkowski two-sided certificate, covolume p^n, lambda lower bounds and
    witness recovery for >= 500 random (p, basis, box, z)."""
    started = time.monotonic()
    total = 0
    recovered = 0
    cells = [(n, p) for n in (2, 3) for p in (31, 61, 101)]
    per_cell = 84  # 6 cells x 84 > 500
    for n, p in cells:
        ctx = cached_field(p, n, seed=0)
        cap = small_edge_cap(p)
        for i in range(per_cell):
            rng = rng_for(ACCEPT_SEED, 5, n, p, i)
            basis = sample_basis(ctx, rng)
            box = Box(
                basis,
                tuple(int(v) for v in rng.integers(-p, p, size=n)),
                tuple(sorted(int(v) for v in rng.integers(1, cap + 1, size=n))),
            )
            in_subfield = i % 10 == 9  # mix a few prime-subfield z in
            z = sample_z(ctx, rng, outside_prime_subfield=not in_subfield)

            lat = gamma_z(ctx, basis, z)
            assert lat.det == p**n

            res = minima_for_z(box, z)
            lo, mid, hi = res.minkowski_certificate()
            assert lo <= mid <= hi  # exact rationals

            if not ctx.in_prime_subfield(z):
                if n == 3:
                    assert res.lambdas[0] >= Fraction(1, box.H[1])
                    assert res.lambdas[1] >= Fraction(1, box.H[0])
                else:
                    assert res.lambdas[0] >= Fraction(1, box.H[0])

            wit = res.witnesses[0]
            x_elem = basis.elem_from_coords(wit[:n])
            y_elem = basis.elem_from_coords(wit[n:])
            assert any(x_elem)
            if ctx.div(y_elem, x_elem) == z:
                recovered += 1
            total += 1
    assert total >= 500 and recovered == total
    elapsed = time.monotonic() - started
    assert elapsed < 600
    print(f"\n[criterion 4] PASS lattice certification on {total} samples in {elapsed:.1f}s")


def test_criterion_5_fixture_regression():
    """Pilot fixtures hold on a fresh regression run; Polya-Vinogradov is
    asserted with its explicit constant sqrt(p) log p."""
    stored = load_fixtures(str(REPO / DEFAULT_FIXTURES_PATH))
    fresh = pilot_fixtures(seed=stored["seed"])
    for key in ("K_E", "K_2", "K_c", "K_j", "K_T", "K_tau"):
        assert fresh[key] <= stored[key] + 1e-12, key
    for n_key, value in fresh["c_est"].items():
        assert value <= stored["c_est"][n_key] + 1e-12
    # explicit-constant Polya-Vinogradov: ratio to sqrt(p) log p stays <= 1
    assert fresh["pv_max_ratio"] <= 1.0
    assert stored["pv_max_ratio"] <= 1.0
    print("\n[criterion 5] PASS fixture regression:",
          ", ".join(f"{k}={stored[k]:.4g}" for k in ("K_E", "K_2", "K_c", "K_j", "K_T", "K_tau")))


def test_criterion_6_determinism(tmp_path):
    """Fixed seed, worker counts 1 and 4: byte-identical CSV."""
    base = dict(p_list=[31, 61], n=2, random_boxes=4, random_chars=2, seed=42, basis_seed=3)
    csv1 = render_csv(theorem_survey(ExperimentConfig(**base, workers=1)))
    csv4 = render_csv(theorem_survey(ExperimentConfig(**base, workers=4)))
    assert csv1.encode() == csv4.encode()

    out1, out4 = tmp_path / "w1.csv", tmp_path / "w4.csv"
    cfg_path = REPO / "configs" / "sample_survey.json"
    assert run_config(str(cfg_path), out_override=str(out1)) == 0
    assert run_config(str(cfg_path), out_override=str(out4)) == 0
    assert out1.read_bytes() == out4.read_bytes()
    print("\n[criterion 6] PASS determinism across worker counts")


def test_criterion_7_decay_diagnostic():
    """Reported, not asserted: median normalized sum over 20 random admissible
    boxes for eps = 0.3, n = 2 across p in {31, 61, 101, 151}."""
    cfg = ExperimentConfig(
        p_list=[31, 61, 101, 151],
        n=2,
        eps=0.3,
        random_boxes=20,
        box_regime="admissible",
        random_chars=1,
        seed=ACCEPT_SEED,
        basis_seed=1,
    )
    report = theorem_survey(cfg)
    assert report.all_ok
    medians = report.summary["median_norm_sum_by_p"]
    assert set(medians) == {"31", "61", "101", "151"}

    artifact_dir = REPO / "artifacts"
    artifact_dir.mkdir(exist_ok=True)
    artifact = {
        "eps": 0.3,
        "n": 2,
        "boxes_per_p": 20,
        "seed": ACCEPT_SEED,
        "median_norm_sum_by_p": medians,
        "nonincreasing": report.summary["median_nonincreasing_in_p"],
    }
    (artifact_dir / "decay_diagnostic.json").write_text(
        json.dumps(artifact, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    trend = " >= ".join(f"{medians[str(p)]:.4f}" for p in (31, 61, 101, 151))
    print(f"\n[criterion 7] PASS decay diagnostic reported: {trend} "
          f"(non-increasing: {report.summary['median_nonincreasing_in_p']})")
