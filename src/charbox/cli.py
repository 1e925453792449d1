"""Command-line front end.

Subcommands: field, charsum, energy, minima, burgess, moments, survey,
pilot, run. Every command is deterministic given its flags and seed.
"""

from __future__ import annotations

import argparse
import json
import sys

from .boxes import BoxError, parse_box_spec
from .characters import Character, box_char_sum
from .energy import EnergyBudgetError, s_decomposition
from .field import FieldError, build_field
from .harness import RegimeError, burgess_trace, moment_sum
from .lattice import EnumerationBudgetError, classify_z, minima_for_z
from .pilot import DEFAULT_FIXTURES_PATH, pilot_fixtures, write_fixtures
from .sampling import _BOX_REGIMES, rng_for, sample_basis
from .survey import ConfigError, ExperimentConfig, run_config, theorem_survey, write_report


# Input the command cannot act on: "error: <msg>" on stderr and exit 2, apart
# from exit 1 for a check that ran and failed.
_INPUT_ERRORS = (ConfigError, FieldError, BoxError, RegimeError, EnergyBudgetError,
                 EnumerationBudgetError, OSError)


def _add_field_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p", type=int, required=True, help="odd prime")
    sub.add_argument("--n", type=int, default=2, choices=(1, 2, 3), help="extension degree")
    sub.add_argument("--modulus", type=str, default=None,
                     help="comma-separated modulus coefficients, low degree first")
    sub.add_argument("--basis-seed", type=int, default=1)
    sub.add_argument("--seed", type=int, default=0)


def _build(args) -> tuple:
    modulus = [int(v) for v in args.modulus.split(",")] if args.modulus else None
    ctx = build_field(args.p, args.n, modulus=modulus, seed=args.seed)
    basis = sample_basis(ctx, rng_for(args.basis_seed, ctx.p, ctx.n, 7))
    return ctx, basis


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="charbox")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("field", help="build a field and report its parameters")
    _add_field_flags(sp)

    sp = subs.add_parser("charsum", help="one box character sum")
    _add_field_flags(sp)
    sp.add_argument("--box", type=str, required=True, help="N1:H1,N2:H2[,N3:H3]")
    sp.add_argument("--char-index", type=int, required=True)

    sp = subs.add_parser("energy", help="E(B) and the S decomposition")
    _add_field_flags(sp)
    sp.add_argument("--box", type=str, required=True)

    sp = subs.add_parser("minima", help="lambda spectrum for one z or a sweep")
    _add_field_flags(sp)
    sp.add_argument("--box", type=str, required=True)
    sp.add_argument("--z-index", type=int, default=None, help="encoded element index of z")
    sp.add_argument("--z-sweep", type=int, default=0, help="classify this many seeded z from Z")
    sp.add_argument("--budget", type=int, default=10_000_000)

    sp = subs.add_parser("burgess", help="full amplification trace")
    _add_field_flags(sp)
    sp.add_argument("--box", type=str, required=True)
    sp.add_argument("--char-index", type=int, required=True)
    sp.add_argument("--epsilon", type=float, default=0.3)

    sp = subs.add_parser("moments", help="2r-th moment of interval sums")
    _add_field_flags(sp)
    sp.add_argument("--char-index", type=int, required=True)
    sp.add_argument("--interval-len", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)

    sp = subs.add_parser("survey", help="grid survey from flags")
    sp.add_argument("--p", type=str, required=True, help="comma-separated primes")
    sp.add_argument("--n", type=int, required=True, choices=(2, 3))
    sp.add_argument("--epsilon", type=float, default=0.3)
    sp.add_argument("--basis-seed", type=int, default=1)
    sp.add_argument("--box", type=str, action="append", default=None,
                    help="explicit box literal (repeatable)")
    sp.add_argument("--random-boxes", type=int, default=0)
    sp.add_argument("--box-regime", type=str, default="any", choices=_BOX_REGIMES)
    sp.add_argument("--char-index", type=int, action="append", default=None)
    sp.add_argument("--random-chars", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--out", type=str, default=None)
    sp.add_argument("--format", type=str, default="csv", choices=("csv", "json"))

    sp = subs.add_parser("pilot", help="measure fixtures and write the fixtures file")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", type=str, default=DEFAULT_FIXTURES_PATH)

    sp = subs.add_parser("run", help="execute a JSON config file")
    sp.add_argument("config", type=str)
    sp.add_argument("--out", type=str, default=None)

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "field":
        ctx, basis = _build(args)
        print(json.dumps({
            "p": ctx.p, "n": ctx.n, "q": ctx.q,
            "modulus": list(ctx.modulus), "generator": list(ctx.g),
            "basis_columns": basis.cols.tolist(),
        }, indent=2))
        return 0

    if args.command == "charsum":
        ctx, basis = _build(args)
        box = parse_box_spec(basis, args.box)
        chi = Character(ctx, args.char_index)
        value = box_char_sum(chi, box)
        print(json.dumps({
            "sum_re": value.real, "sum_im": value.imag, "sum_abs": abs(value),
            "norm_sum": abs(value) / box.size, "size": box.size,
        }, indent=2))
        return 0

    if args.command == "energy":
        ctx, basis = _build(args)
        box = parse_box_spec(basis, args.box)
        prof = s_decomposition(box)
        print(json.dumps({
            "E": prof.E, "S": prof.S, "S1": prof.S1, "S2": prof.S2,
            "Z_size": prof.z_count, "Zprime_size": prof.zprime_count,
            "hypothesis_ok": prof.hypothesis_ok, "checks": prof.checks,
        }, indent=2))
        return 0 if all(prof.checks[k] for k in prof.checks if k != "zero_in_B") else 1

    if args.command == "minima":
        ctx, basis = _build(args)
        box = parse_box_spec(basis, args.box)
        outputs = []
        if args.z_index is not None:
            res = minima_for_z(box, ctx.decode(args.z_index), args.budget)
            lo, mid, hi = res.minkowski_certificate()
            outputs.append({
                "z_index": args.z_index,
                "lambdas": [str(l) for l in res.lambdas],
                "witnesses": [list(w) for w in res.witnesses],
                "s": res.s,
                "minkowski": [str(lo), str(mid), str(hi)],
                "minkowski_ok": res.minkowski_ok(),
                "nodes": res.nodes,
            })
        if args.z_sweep:
            from .boxes import difference_box
            b0_idx = difference_box(box).element_indices()
            nz = b0_idx[b0_idx != 0]
            rng = rng_for(args.seed, 31)
            found = 0
            while found < args.z_sweep:
                xi, yi = (int(v) for v in rng.integers(0, len(nz), size=2))
                z = ctx.div(ctx.decode(int(nz[yi])), ctx.decode(int(nz[xi])))
                if ctx.in_prime_subfield(z):
                    continue
                cls = classify_z(box, z, args.budget)
                outputs.append({
                    "z_index": ctx.encode(z), "j": cls.j, "j_star": cls.j_star,
                    "s": cls.s, "lambda1": str(cls.lambdas[0]),
                    "lambda1_star": str(cls.lambda1_star),
                    "recovered_ok": cls.recovered_z == z,
                })
                found += 1
        print(json.dumps(outputs, indent=2))
        return 0

    if args.command == "burgess":
        ctx, basis = _build(args)
        box = parse_box_spec(basis, args.box)
        chi = Character(ctx, args.char_index)
        trace = burgess_trace(box, chi, args.epsilon)
        print(json.dumps({
            "r": trace.r, "delta": trace.delta, "interval_len": trace.interval_len,
            "true_abs": abs(trace.true_sum), "assembled_bound": trace.assembled_bound,
            "max_sym_diff": trace.max_sym_diff, "sym_diff_bound": trace.sym_diff_bound,
            "sum_tau": trace.sum_tau, "sum_tau_sq": trace.sum_tau_sq,
            "moment_value": trace.moment.value, "moment_bound": trace.moment.bound,
            "checks": trace.checks,
        }, indent=2))
        return 0 if trace.ok else 1

    if args.command == "moments":
        ctx, _ = _build(args)
        chi = Character(ctx, args.char_index)
        res = moment_sum(chi, range(1, args.interval_len + 1), args.r)
        print(json.dumps({
            "value": res.value, "bound": res.bound, "good": res.good_count,
            "bad": res.bad_count, "bad_bound": res.bad_bound,
            "within_bound": res.within_bound, "census_ok": res.census_ok,
        }, indent=2))
        return 0 if res.within_bound and res.census_ok else 1

    if args.command == "survey":
        cfg = ExperimentConfig(
            p_list=[int(v) for v in args.p.split(",")],
            n=args.n,
            eps=args.epsilon,
            basis_seed=args.basis_seed,
            boxes=args.box,
            random_boxes=args.random_boxes,
            box_regime=args.box_regime,
            char_indices=args.char_index,
            random_chars=args.random_chars,
            out=args.out,
            format=args.format,
            seed=args.seed,
            workers=args.workers,
        )
        report = theorem_survey(cfg)
        text = write_report(report, cfg.out)
        if not cfg.out:
            sys.stdout.write(text)
        return 0 if report.all_ok else 1

    if args.command == "pilot":
        kwargs = {} if args.seed is None else {"seed": args.seed}
        fixtures = pilot_fixtures(**kwargs)
        write_fixtures(fixtures, args.out)
        print(f"wrote {args.out}")
        for key in ("K_E", "K_2", "K_c", "K_j", "K_T", "K_tau", "c_est", "pv_max_ratio"):
            print(f"  {key} = {fixtures[key]}")
        return 0

    if args.command == "run":
        return run_config(args.config, out_override=args.out)

    raise AssertionError(f"unknown command {args.command}")  # argparse admits only the above


if __name__ == "__main__":
    sys.exit(main())
