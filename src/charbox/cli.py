"""Command-line front end.

Subcommands: field, charsum, energy, minima, burgess, moments, survey,
pilot, run. Every command is deterministic given its flags and seed.
"""

from __future__ import annotations

import argparse
import json
import sys

from .boxes import BoxError, difference_box, parse_box_spec
from .characters import Character, box_char_sum
from .energy import EnergyBudgetError, s_decomposition
from .field import FieldError, build_field
from .harness import RegimeError, burgess_trace, moment_sum
from .lattice import DEFAULT_NODE_BUDGET, EnumerationBudgetError, classify_z, minima_for_z
from .pilot import DEFAULT_FIXTURES_PATH, DEFAULT_PILOT_SEED, pilot_fixtures, write_fixtures
from .sampling import _BOX_REGIMES, rng_for, sample_basis, sample_ratio_z
from .survey import ConfigError, ExperimentConfig, emit_report, run_config, theorem_survey


# Input the command cannot act on: "error: <msg>" on stderr and exit 2, apart
# from exit 1 for a check that ran and failed.
_INPUT_ERRORS = (ConfigError, FieldError, BoxError, RegimeError, EnergyBudgetError,
                 EnumerationBudgetError, OSError)


def _int_list(flag: str, text: str) -> list[int]:
    # parsed here, not by an argparse type=, so a bad list is an input error (exit 2)
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"{flag} takes comma-separated integers, got {text!r}") from None


def _objects(args) -> tuple:
    """(ctx, basis, box, chi) from the field flags; box and chi are None for a
    command without --box or --char-index."""
    modulus = _int_list("--modulus", args.modulus) if args.modulus else None
    ctx = build_field(args.p, args.n, modulus=modulus, seed=args.seed)
    basis = sample_basis(ctx, rng_for(args.basis_seed, ctx.p, ctx.n, 7))
    box = parse_box_spec(basis, args.box) if "box" in args else None
    chi = Character(ctx, args.char_index) if "char_index" in args else None
    return ctx, basis, box, chi


def _field(args, ctx, basis, box, chi) -> tuple:
    return {
        "p": ctx.p, "n": ctx.n, "q": ctx.q,
        "modulus": list(ctx.modulus), "generator": list(ctx.g),
        "basis_columns": basis.cols.tolist(),
    }, True


def _charsum(args, ctx, basis, box, chi) -> tuple:
    value = box_char_sum(chi, box)
    return {
        "sum_re": value.real, "sum_im": value.imag, "sum_abs": abs(value),
        "norm_sum": abs(value) / box.size, "size": box.size,
    }, True


def _energy(args, ctx, basis, box, chi) -> tuple:
    prof = s_decomposition(box)
    return {
        "E": prof.E, "S": prof.S, "S1": prof.S1, "S2": prof.S2,
        "Z_size": prof.z_count, "Zprime_size": prof.zprime_count,
        "hypothesis_ok": prof.hypothesis_ok, "checks": prof.checks,
    }, all(prof.checks[k] for k in prof.checks if k != "zero_in_B")


def _minima(args, ctx, basis, box, chi) -> tuple:
    if args.z_index is None and args.z_sweep < 1:
        raise ConfigError("minima needs --z-index or --z-sweep >= 1")
    if args.z_index is not None and not 0 <= args.z_index < ctx.q:
        raise ConfigError(f"--z-index must lie in [0, q) = [0, {ctx.q}), got {args.z_index}")
    if args.z_sweep and ctx.n < 2:
        raise ConfigError("z-sweep needs n >= 2: every z lies in F_p")
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
        b0_idx = difference_box(box).element_indices()
        nz = b0_idx[b0_idx != 0]
        rng = rng_for(args.seed, 31)
        for _ in range(args.z_sweep):
            z = sample_ratio_z(ctx, nz, rng)
            cls = classify_z(box, z, args.budget)
            outputs.append({
                "z_index": ctx.encode(z), "j": cls.j, "j_star": cls.j_star,
                "s": cls.s, "lambda1": str(cls.lambdas[0]),
                "lambda1_star": str(cls.lambda1_star),
                "recovered_ok": cls.recovered_z == z,
            })
    return outputs, True


def _burgess(args, ctx, basis, box, chi) -> tuple:
    trace = burgess_trace(box, chi, args.epsilon)
    return {
        "r": trace.r, "delta": trace.delta, "interval_len": trace.interval_len,
        "true_abs": abs(trace.true_sum), "assembled_bound": trace.assembled_bound,
        "max_sym_diff": trace.max_sym_diff, "sym_diff_bound": trace.sym_diff_bound,
        "sum_tau": trace.sum_tau, "sum_tau_sq": trace.sum_tau_sq,
        "moment_value": trace.moment.value, "moment_bound": trace.moment.bound,
        "checks": trace.checks,
    }, trace.ok


def _moments(args, ctx, basis, box, chi) -> tuple:
    res = moment_sum(chi, range(1, args.interval_len + 1), args.r)
    return {
        "value": res.value, "bound": res.bound, "good": res.good_count,
        "bad": res.bad_count, "bad_bound": res.bad_bound,
        "within_bound": res.within_bound, "census_ok": res.census_ok,
    }, res.within_bound and res.census_ok


def _survey(args) -> int:
    fields = {k: v for k, v in vars(args).items() if k not in ("command", "execute")}
    cfg = ExperimentConfig(**{**fields, "p_list": _int_list("--p", args.p_list)})
    return emit_report(theorem_survey(cfg), cfg.out)


def _pilot(args) -> int:
    fixtures = pilot_fixtures(args.seed)
    write_fixtures(fixtures, args.out)
    print(f"wrote {args.out}")
    for key in ("K_E", "K_2", "K_c", "K_j", "K_T", "K_tau", "c_est", "pv_max_ratio"):
        print(f"  {key} = {fixtures[key]}")
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="charbox")
    subs = parser.add_subparsers(dest="command", required=True)

    # a JSON command's report(args, ctx, basis, box, chi) returns (payload, ok)
    def json_command(name, help, report, box=False, char=False) -> argparse.ArgumentParser:
        sp = subs.add_parser(name, help=help)
        sp.add_argument("--p", type=int, required=True, help="odd prime")
        sp.add_argument("--n", type=int, default=2, choices=(1, 2, 3), help="extension degree")
        sp.add_argument("--modulus", help="comma-separated modulus coefficients, low degree first")
        sp.add_argument("--basis-seed", type=int, default=1)
        sp.add_argument("--seed", type=int, default=0)
        if box:
            sp.add_argument("--box", type=str, required=True, help="N1:H1,N2:H2[,N3:H3]")
        if char:
            sp.add_argument("--char-index", type=int, required=True)
        sp.set_defaults(report=report)
        return sp

    json_command("field", "build a field and report its parameters", _field)
    json_command("charsum", "one box character sum", _charsum, box=True, char=True)
    json_command("energy", "E(B) and the S decomposition", _energy, box=True)

    sp = json_command("minima", "lambda spectrum for one z or a sweep", _minima, box=True)
    sp.add_argument("--z-index", type=int, default=None, help="encoded element index of z")
    sp.add_argument("--z-sweep", type=int, default=0, help="classify this many seeded z from Z")
    sp.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)

    sp = json_command("burgess", "full amplification trace", _burgess, box=True, char=True)
    sp.add_argument("--epsilon", type=float, default=0.3)

    sp = json_command("moments", "2r-th moment of interval sums", _moments, char=True)
    sp.add_argument("--interval-len", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)

    # a text command's execute(args) prints its own output and returns the exit code
    sp = subs.add_parser("survey", help="grid survey from flags")
    sp.set_defaults(execute=_survey)  # every other dest is an ExperimentConfig field
    sp.add_argument("--p", dest="p_list", metavar="P", required=True, help="comma-separated primes")
    sp.add_argument("--n", type=int, required=True, choices=(2, 3))
    sp.add_argument("--epsilon", dest="eps", metavar="EPSILON", type=float, default=0.3)
    sp.add_argument("--basis-seed", type=int, default=1)
    sp.add_argument("--box", dest="boxes", metavar="BOX", action="append",
                    help="explicit box literal (repeatable)")
    sp.add_argument("--random-boxes", type=int, default=0)
    sp.add_argument("--box-regime", type=str, default="any", choices=_BOX_REGIMES)
    sp.add_argument("--char-index", dest="char_indices", metavar="CHAR_INDEX", type=int,
                    action="append")
    sp.add_argument("--random-chars", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--out", type=str, default=None)
    sp.add_argument("--format", type=str, default="csv", choices=("csv", "json"))

    sp = subs.add_parser("pilot", help="measure fixtures and write the fixtures file")
    sp.set_defaults(execute=_pilot)
    sp.add_argument("--seed", type=int, default=DEFAULT_PILOT_SEED)
    sp.add_argument("--out", type=str, default=DEFAULT_FIXTURES_PATH)

    sp = subs.add_parser("run", help="execute a JSON config file")
    sp.set_defaults(execute=lambda args: run_config(args.config, out_override=args.out))
    sp.add_argument("config", type=str)
    sp.add_argument("--out", type=str, default=None)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        for dest in ("seed", "basis_seed"):  # numpy seeds take no negative entropy
            if getattr(args, dest, 0) < 0:
                raise ConfigError(f"--{dest.replace('_', '-')} must be >= 0, got {getattr(args, dest)}")
        if "execute" in args:
            return args.execute(args)
        payload, ok = args.report(args, *_objects(args))
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:  # such as a moment bound at large r
        print(f"error: a value past the float range: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(payload, indent=2))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
