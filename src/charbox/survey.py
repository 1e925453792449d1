"""Grid surveys of the box character-sum bound, config runs and fixtures.

A survey walks a grid of (p, basis, box, character) cells, routes each box
through the regime split (direct / subdivided / tall), measures the
normalized character sum and runs the per-route identity checks. Rows are
deterministic functions of (config, seed) and are reduced in grid order, so
reports are byte-identical for any worker count.

Surveys with workers > 1 share one process pool, started on the first such
call and kept for later ones; a call with another worker count shuts it down
and starts a new one, so at most one pool is alive. The pool belongs to the
process that started it: a forked child starts without it. If a worker dies,
the pool is dropped and the call runs once more on a fresh pool. Workers are
forked, so they run the code as it was when the pool started (a function
patched later in the parent is not seen until `_shutdown_pool()`), and they
inherit the parent's field cache. A pool is kept past a call only if its
workers built no field of their own: a call that needs a field they did not
inherit starts a fresh pool, and if the parent does not hold that field
either, the workers build it and the pool is shut down when the call ends.
So workers never hold more fields than the parent did when they forked. The
reuse pays only where one process makes several pooled calls; a single call,
as `charbox survey` or `charbox run` makes, forks and joins one pool as before.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
import threading
import typing
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import MISSING, asdict, dataclass

import numpy as np

from .boxes import (
    Box,
    _sorted_distinct,
    degenerate_pair_closed_form,
    degenerate_pair_set,
    format_box_spec,
    parse_box_spec,
    small_edge_cap,
    subdivide_box,
    omega_line_intersection,
)
from .characters import Character, box_char_sum, tall_box_identity
from . import field
from .field import cached_field
from .sampling import _BOX_REGIMES, rng_for, sample_basis, sample_box, sample_character

CSV_HEADERS = [
    "p", "n", "eps", "char_index", "basis_seed", "box", "H_sorted",
    "sum_re", "sum_im", "sum_abs", "norm_sum", "line_term", "route", "pass_flags",
]


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    p_list: list[int]
    n: int
    eps: float = 0.3
    modulus: list[int] | None = None
    basis_seed: int = 1
    boxes: list[str] | None = None
    random_boxes: int = 0
    box_regime: str = "any"
    char_indices: list[int] | None = None
    random_chars: int = 1
    out: str | None = None
    format: str = "csv"
    seed: int = 0
    workers: int = 1

    def validate(self) -> None:
        # an empty p_list is legal: empty report, exit 0
        if self.n not in (2, 3):
            raise ConfigError(f"survey degree must be 2 or 3, got {self.n}")
        if not 0 < self.eps < 0.5:
            raise ConfigError(f"eps must lie in (0, 1/2), got {self.eps}")
        if self.box_regime not in _BOX_REGIMES:
            raise ConfigError(f"box_regime must be one of {_BOX_REGIMES}, got {self.box_regime!r}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.format!r}")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.seed < 0 or self.basis_seed < 0:
            raise ConfigError(f"seed and basis_seed must be >= 0, got {self.seed}, {self.basis_seed}")
        if self.boxes is None and self.random_boxes < 1 and self.p_list:
            raise ConfigError("need explicit boxes or random_boxes >= 1")
        if self.char_indices is None and self.random_chars < 1 and self.p_list:
            raise ConfigError("need explicit char_indices or random_chars >= 1")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        fields = cls.__dataclass_fields__
        unknown = set(data) - set(fields)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        missing = [k for k, f in fields.items() if f.default is MISSING and k not in data]
        if missing:
            raise ConfigError(f"missing config fields: {missing}")
        hints = typing.get_type_hints(cls)
        for key, value in data.items():
            if not _json_fits(value, hints[key]):
                raise ConfigError(f"config field {key} must be {fields[key].type}, got {value!r}")
        cfg = cls(**data)
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        return cls.from_dict(data)


def _json_fits(value, hint) -> bool:
    """Whether a parsed JSON value has the type of a config field: int, float,
    str, list[...] or a union with None."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is list:
        return isinstance(value, list) and all(_json_fits(v, args[0]) for v in value)
    if args:
        return any(_json_fits(value, a) for a in args)
    return isinstance(value, hint) and not isinstance(value, bool)


def _route_for(box: Box, eps: float) -> str:
    p = box.ctx.p
    h_sorted = sorted(box.H)
    if h_sorted[-1] <= small_edge_cap(p):
        return "direct"
    if h_sorted[-1] <= p ** (0.5 + eps / 2):
        return "subdivided"
    return "tall"


def _survey_row(task: dict) -> dict:
    """One grid cell, never raising: failures come back as error rows so a
    long survey keeps going."""
    try:
        return _survey_row_inner(task)
    except Exception as exc:  # recorded per row, survey continues
        return {
            "p": task["p"],
            "n": task["n"],
            "eps": task["eps"],
            "char_index": task["char_index"] if task["char_index"] is not None else -1,
            "basis_seed": task["basis_seed"],
            "box": task["box_spec"] or "",
            "H_sorted": "",
            "sum_re": 0.0,
            "sum_im": 0.0,
            "sum_abs": 0.0,
            "norm_sum": 0.0,
            "line_term": 0,
            "route": "error",
            "pass_flags": f"error={type(exc).__name__}",
            "_ok": False,
            "_error": f"{type(exc).__name__}: {exc}",
        }


def _survey_row_inner(task: dict) -> dict:
    p, n = task["p"], task["n"]
    ctx = cached_field(p, n, modulus=task["modulus"], seed=task["seed"])
    basis = sample_basis(ctx, rng_for(task["basis_seed"], p, n, 7))
    if task["box_spec"] is not None:
        box = parse_box_spec(basis, task["box_spec"])
    else:
        box = sample_box(basis, rng_for(task["seed"], task["p_index"], task["box_index"], 11),
                         regime=task["box_regime"])
    if task["char_index"] is not None:
        chi = Character(ctx, task["char_index"])
    else:
        chi = sample_character(
            ctx, rng_for(task["seed"], task["p_index"], task["box_index"], task["char_slot"], 13)
        )

    eps = task["eps"]
    route = _route_for(box, eps)
    # B is enumerated once: its indices are cached on the box
    split = tall_box_identity(chi, box) if route == "tall" else None
    total = split.lhs if split else box_char_sum(chi, box)
    checks: dict[str, bool] = {}

    if box.size <= 2**22:
        checks["count"] = len(_sorted_distinct(box.element_indices())) == box.size
    if route == "subdivided":
        pieces = subdivide_box(box)
        piece_total = sum(box_char_sum(chi, piece) for piece in pieces)
        checks["partition_sizes"] = sum(piece.size for piece in pieces) == box.size
        checks["partition_sum"] = abs(piece_total - total) <= 1e-6
        checks["piece_edges"] = all(max(piece.H) <= small_edge_cap(p) for piece in pieces)
    elif route == "tall":
        checks["tall_identity"] = abs(total - split.rhs) <= 1e-6
        if n == 3 and box.H[0] * box.H[1] <= 2**18:
            nb = box.normalize()
            checks["degenerate_set"] = degenerate_pair_set(nb) == degenerate_pair_closed_form(nb)

    line_term = omega_line_intersection(box.normalize()) if chi.is_trivial_on_prime_subfield() else 0
    flags = ";".join(f"{name}={'P' if ok else 'F'}" for name, ok in sorted(checks.items()))
    return {
        "p": p,
        "n": n,
        "eps": eps,
        "char_index": chi.k,
        "basis_seed": task["basis_seed"],
        "box": format_box_spec(box),
        "H_sorted": ":".join(str(h) for h in sorted(box.H)),
        "sum_re": total.real,
        "sum_im": total.imag,
        "sum_abs": abs(total),
        "norm_sum": abs(total) / box.size,
        "line_term": line_term,
        "route": route,
        "pass_flags": flags if flags else "none",
        "_ok": all(checks.values()),
    }


@dataclass
class SurveyReport:
    config: ExperimentConfig
    rows: list[dict]
    summary: dict

    @property
    def all_ok(self) -> bool:
        return all(row["_ok"] for row in self.rows)


def _build_tasks(cfg: ExperimentConfig) -> list[dict]:
    # None marks a seeded random box or character
    box_specs = cfg.boxes if cfg.boxes is not None else [None] * cfg.random_boxes
    char_ks = cfg.char_indices if cfg.char_indices is not None else [None] * cfg.random_chars
    tasks = []
    for p_index, p in enumerate(cfg.p_list):
        for box_index, box_spec in enumerate(box_specs):
            for char_slot, char_index in enumerate(char_ks):
                tasks.append(
                    {
                        "p": p,
                        "n": cfg.n,
                        "eps": cfg.eps,
                        "modulus": tuple(cfg.modulus) if cfg.modulus else None,
                        "basis_seed": cfg.basis_seed,
                        "seed": cfg.seed,
                        "p_index": p_index,
                        "box_index": box_index,
                        "box_spec": box_spec,
                        "box_regime": cfg.box_regime,
                        "char_slot": char_slot,
                        "char_index": char_index,
                    }
                )
    return tasks


# The live survey pool as (workers, field keys, pool), or None; the keys are
# those of the parent's field cache when the pool started, which its workers
# inherited. Pooled calls from several threads take turns, so none shuts down a
# pool another is using. A forked child starts with neither its parent's pool
# nor its lock, which the fork may have caught held (pool workers are forked
# inside a pooled call).
_POOL: tuple[int, frozenset, ProcessPoolExecutor] | None = None
_POOL_LOCK = threading.Lock()


def _forget_pool() -> None:
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def _shutdown_pool() -> None:
    """Stop the pool, if any; the next pooled call starts a fresh one."""
    global _POOL
    if _POOL is not None:
        _POOL[2].shutdown()
    _POOL = None


def _pool(workers: int, fields: set) -> ProcessPoolExecutor:
    """The pool of `workers` workers, started afresh unless its workers
    inherited every field in `fields`."""
    global _POOL
    if _POOL is None or _POOL[0] != workers or not fields <= _POOL[1]:
        _shutdown_pool()
        _POOL = (workers, frozenset(field._FIELD_CACHE), ProcessPoolExecutor(max_workers=workers))
    return _POOL[2]


def _pooled_rows(tasks: list[dict], workers: int) -> list[dict]:
    """Rows in grid order. A pool broken by a dead worker, perhaps one that died
    between calls, is dropped and the call runs once more on a fresh pool, so a
    task that kills its worker runs twice before the error comes out. A pool
    whose workers had to build a field is shut down at the end of the call."""
    fields = {field.field_key(t["p"], t["n"], t["modulus"], t["seed"]) for t in tasks}
    for attempt in (0, 1):
        try:
            rows = list(_pool(workers, fields).map(_survey_row, tasks, chunksize=1))
        except BrokenProcessPool:
            _shutdown_pool()
            if attempt:
                raise
            continue
        if not fields <= _POOL[1]:
            _shutdown_pool()
        return rows


def theorem_survey(cfg: ExperimentConfig) -> SurveyReport:
    cfg.validate()
    tasks = _build_tasks(cfg)
    if cfg.workers > 1 and len(tasks) > 1:
        with _POOL_LOCK:
            rows = _pooled_rows(tasks, cfg.workers)
    else:
        rows = [_survey_row(t) for t in tasks]

    medians = {}
    for p in cfg.p_list:
        vals = sorted(row["norm_sum"] for row in rows if row["p"] == p)
        if vals:
            medians[str(p)] = float(np.median(vals))
    summary = {
        "rows": len(rows),
        "failures": sum(not row["_ok"] for row in rows),
        "median_norm_sum_by_p": medians,
        "median_nonincreasing_in_p": all(
            medians[str(a)] >= medians[str(b)] - 1e-12
            for a, b in zip(cfg.p_list, cfg.p_list[1:])
            if str(a) in medians and str(b) in medians
        ),
    }
    return SurveyReport(cfg, rows, summary)


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def render_csv(report: SurveyReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADERS)
    for row in report.rows:
        writer.writerow([_fmt(row[h]) for h in CSV_HEADERS])
    return buf.getvalue()


def render_json(report: SurveyReport) -> str:
    payload = {
        "config": asdict(report.config),
        "rows": [{h: row[h] for h in CSV_HEADERS} for row in report.rows],
        "summary": report.summary,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def emit_report(report: SurveyReport, out: str | None) -> int:
    """Write the report to `out` or stdout, print `error row <i>: <message>` on
    stderr per error row (i in grid order; the report keeps only the exception
    type), and return the exit code: 0 iff every hard check passed."""
    text = render_csv(report) if report.config.format == "csv" else render_json(report)
    if out:
        os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    for i, row in enumerate(report.rows):
        if "_error" in row:
            print(f"error row {i}: {row['_error']}", file=sys.stderr)
    return 0 if report.all_ok else 1


def run_config(path: str, out_override: str | None = None) -> int:
    """Execute a config file; exit code 0 iff every hard check passed."""
    cfg = ExperimentConfig.from_file(path)
    return emit_report(theorem_survey(cfg), out_override or cfg.out)
