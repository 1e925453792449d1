"""Runs the charbox benchmark: set-up, timed and traced passes, metrics.

`run_workload` is what `run.py` calls; the tests call it with tiny grids.
"""

from __future__ import annotations

import gc
import os
import statistics
import time

from charbox import field

import measure
from tracer import Tracer
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SETUP_REPS = 3
SURVEY_WORKERS = 2

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "items_per_s": ("1/s", "higher"),
    "item_p50_ms": ("ms", "lower"),
    "item_tail_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "failed_frac": ("frac", "lower"),
}

PER_LAYER = {
    "field.build_s": ("s", "lower"),
    "field.builds": ("count", "lower"),
    "field.table_mb": ("MB", "lower"),
    "field.arith_calls": ("count", "lower"),
    "field.arith_s": ("s", "lower"),
    "boxes.enum_s": ("s", "lower"),
    "boxes.elements": ("count", "lower"),
    "boxes.subdivide_s": ("s", "lower"),
    "boxes.pieces": ("count", "lower"),
    "boxes.degenerate_s": ("s", "lower"),
    "characters.box_sum_s": ("s", "lower"),
    "characters.box_sum_elems": ("count", "lower"),
    "characters.values_s": ("s", "lower"),
    "characters.values": ("count", "lower"),
    "characters.chars_evaluated": ("count", "lower"),
    "characters.table_mb": ("MB", "lower"),
    "characters.tall_split_s": ("s", "lower"),
    "energy.s_dec_s": ("s", "lower"),
    "energy.tau_s": ("s", "lower"),
    "energy.energy_s": ("s", "lower"),
    "energy.pairs": ("count", "lower"),
    "harness.moment_s": ("s", "lower"),
    "harness.moment_terms": ("count", "lower"),
    "harness.trace_self_s": ("s", "lower"),
    "harness.shifts": ("count", "lower"),
    "harness.census_s": ("s", "lower"),
    "lattice.minima_s.random_z": ("s", "lower"),
    "lattice.minima_s.ratio_z": ("s", "lower"),
    "lattice.first_min_s": ("s", "lower"),
    "lattice.polar_s": ("s", "lower"),
    "lattice.gamma_s": ("s", "lower"),
    "lattice.classify_self_s": ("s", "lower"),
    "lattice.nodes": ("count", "lower"),
    "lattice.minima_calls": ("count", "lower"),
    "survey.rows_per_s": ("1/s", "higher"),
    "survey.serial_items_per_s": ("1/s", "higher"),
    "survey.pool_speedup": ("ratio", "higher"),
    "survey.self_s": ("s", "lower"),
    "survey.render_s": ("s", "lower"),
    "trace_overhead": ("ratio", "lower"),
}


class Run:
    """Attempted/failed bookkeeping for one benchmark run; one entry per execution."""

    def __init__(self):
        self.attempted = 0
        self.failed: set[int] = set()
        self.failures: list[tuple[int, int, list[str]]] = []  # (execution, item, reasons)

    def record(self, item_id: int, fails: list[str]) -> int:
        exec_id = self.attempted
        self.attempted += 1
        if fails:
            self.fail(exec_id, item_id, fails)
        return exec_id

    def fail(self, exec_id: int, item_id: int, fails: list[str]) -> None:
        self.failed.add(exec_id)
        self.failures.append((exec_id, item_id, fails))


def run_item(wl, item, run: Run, item_id: int, tracer: Tracer | None = None):
    """Prepare fresh objects, time execute(), then check.

    Returns (seconds, output, execution id); output is None if execute raised.
    """
    state = wl.prepare(item)
    if tracer is not None:
        tracer.item, tracer.active = item_id, True
    t0 = time.perf_counter()
    try:
        output = wl.execute(state)
        error = None
    except Exception as exc:  # an item that raises is a failed item
        output, error = None, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    exec_id = run.record(item_id, [error] if error else wl.check(item, state, output))
    return elapsed, output, exec_id


def _csv(output) -> bytes | None:
    return output[1].encode() if output is not None else None


def setup(wl, run: Run, tracer: Tracer | None = None) -> float:
    """Build every field from an empty cache, then one warm-up item per field."""
    field._FIELD_CACHE.clear()  # cached_field never evicts; set-up must start cold
    gc.collect()
    t0 = time.perf_counter()
    if tracer is not None:
        tracer.active = True
    wl.build_fields()
    if tracer is not None:
        tracer.active = False
    for item in wl.warmups():
        run_item(wl, item, run, -1)
    return time.perf_counter() - t0


def check_csv(run: Run, serial: dict, records) -> None:
    """Every parallel survey job's CSV bytes must equal the serial bytes.

    serial: item id -> CSV bytes at workers=1; records: (item id, execution
    id, CSV bytes) of the parallel executions.
    """
    for idx, exec_id, csv_bytes in records:
        if csv_bytes is None or csv_bytes != serial[idx]:
            run.fail(exec_id, idx, ["survey.csv_differs_from_serial"])


def timed(wl, seconds: float, run: Run) -> tuple[dict, dict]:
    setup_s = [setup(wl, run) for _ in range(SETUP_REPS)]
    items = wl.items(wl.timed_rounds)
    wl.workers = min(SURVEY_WORKERS, measure.usable_cpus())
    latencies, records = [], []
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        idx = i % len(items)
        elapsed, output, exec_id = run_item(wl, items[idx], run, idx)
        latencies.append(elapsed)
        if wl.name == "survey":
            records.append((idx, exec_id, _csv(output)))
        i += 1
    if wl.name == "survey":
        wl.workers = 1  # one serial pass over every job the timed phase ran
        ran = sorted({idx for idx, _, _ in records})
        check_csv(run, {idx: _csv(run_item(wl, items[idx], run, idx)[1]) for idx in ran}, records)
    stats = measure.latency_summary(latencies)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "items_per_s": stats["items_per_s"],
        "item_p50_ms": stats["item_p50_ms"],
        "item_tail_ms": stats["item_tail_ms"],
        "peak_rss_mb": measure.peak_rss_mb(),
        # add-one smoothing keeps the metric nonzero; `failed` carries the raw count
        "failed_frac": (len(run.failed) + 1) / (run.attempted + 1),
    }
    detail = {"setup_s_all": setup_s, "tail_percentile": stats["tail_percentile"],
              "samples": stats["samples"]}
    return metrics, detail


def traced(wl, run: Run) -> tuple[dict, dict, dict[str, Tracer]]:
    """One fixed cycle of items, each run once untraced and once traced.

    The order alternates per item so neither side gets the warmer caches.
    The survey runs at workers=1 here, so every span lands in this process;
    a separate untraced pooled pass gives the pool metrics.
    """
    setup_tracer = Tracer()
    with setup_tracer:
        setup(wl, run, setup_tracer)
    items = wl.items(wl.traced_rounds)
    kinds = {i: wl.kind(item) for i, item in enumerate(items)}

    tracer = Tracer()
    wl.workers = 1
    serial, traced_s = [], 0.0
    for i, item in enumerate(items):
        for use_tracer in ((False, True) if i % 2 == 0 else (True, False)):
            if use_tracer:
                with tracer:
                    traced_s += run_item(wl, item, run, i, tracer)[0]
            else:
                serial.append(run_item(wl, item, run, i))
    untraced_s = sum(r[0] for r in serial)

    extra = {"survey.rows_per_s": 0.0, "survey.serial_items_per_s": 0.0, "survey.pool_speedup": 0.0}
    if wl.name == "survey":
        wl.workers = min(SURVEY_WORKERS, measure.usable_cpus())
        pooled = [run_item(wl, item, run, i) for i, item in enumerate(items)]
        pooled_s = sum(r[0] for r in pooled)
        rows = sum(len(r[1][0].rows) for r in pooled if r[1] is not None)
        check_csv(run, {i: _csv(r[1]) for i, r in enumerate(serial)},
                  [(i, r[2], _csv(r[1])) for i, r in enumerate(pooled)])
        extra = {
            "survey.rows_per_s": rows / pooled_s,
            "survey.serial_items_per_s": len(items) / untraced_s,
            "survey.pool_speedup": untraced_s / pooled_s,
        }

    metrics = layer_metrics(setup_tracer, tracer, kinds)
    metrics.update(extra)
    metrics["trace_overhead"] = traced_s / untraced_s
    detail = {"items": len(items), "untraced_s": untraced_s, "traced_s": traced_s}
    return metrics, detail, {"setup": setup_tracer, "items": tracer}


def layer_metrics(setup_tr: Tracer, tr: Tracer, kinds: dict) -> dict:
    inc, c = tr.inclusive_s, tr.counts
    by_kind = {k: {i for i, kind in kinds.items() if kind == k} for k in ("random_z", "ratio_z")}
    return {
        "field.build_s": setup_tr.inclusive_s({"field.build_field"}),
        "field.builds": setup_tr.counts["field.builds"],
        "field.table_mb": setup_tr.counts["field.table_mb"],
        "field.arith_calls": tr.arith_calls,
        "field.arith_s": tr.arith_s,
        "boxes.enum_s": inc({"boxes.Box.element_indices", "boxes.Box.coords_grid"}),
        "boxes.elements": c["boxes.elements"],
        "boxes.subdivide_s": inc({"boxes.subdivide_box"}),
        "boxes.pieces": c["boxes.pieces"],
        "boxes.degenerate_s": inc({"boxes.degenerate_pair_set", "boxes.degenerate_pair_closed_form"}),
        "characters.box_sum_s": inc({"characters.box_char_sum"}),
        "characters.box_sum_elems": c["characters.box_sum_elems"],
        "characters.values_s": inc({"characters.Character.values_at"}),
        "characters.values": c["characters.values"],
        "characters.chars_evaluated": c["characters.chars_evaluated"],
        "characters.table_mb": c["characters.table_mb"],
        "characters.tall_split_s": inc({"characters.tall_box_identity"}),
        "energy.s_dec_s": inc({"energy.s_decomposition"}),
        "energy.tau_s": inc({"energy.tau_profile"}),
        "energy.energy_s": inc({"energy.energy"}),
        "energy.pairs": c["energy.pairs"],
        "harness.moment_s": inc({"harness.moment_sum"}),
        "harness.moment_terms": c["harness.moment_terms"],
        "harness.trace_self_s": tr.self_s("harness.burgess_trace"),
        "harness.shifts": c["harness.shifts"],
        "harness.census_s": inc({"harness.bad_tuple_count"}),
        "lattice.minima_s.random_z": inc({"lattice.minima_for_z"}, by_kind["random_z"]),
        "lattice.minima_s.ratio_z": inc({"lattice.minima_for_z"}, by_kind["ratio_z"]),
        "lattice.first_min_s": inc({"lattice.first_minimum"}),
        "lattice.polar_s": inc({"lattice.polar_of"}),
        "lattice.gamma_s": inc({"lattice.gamma_z"}),
        "lattice.classify_self_s": tr.self_s("lattice.classify_z"),
        "lattice.nodes": c["lattice.nodes"],
        "lattice.minima_calls": c["lattice.minima_calls"],
        "survey.self_s": tr.self_s("survey.theorem_survey"),
        "survey.render_s": inc({"survey.render_csv"}),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run one workload.

    Returns (result line, record for the run file, tracers by pass; empty
    when untraced).
    """
    wl = WORKLOADS[name](seed, tiny=tiny)
    run = Run()
    tracers = {}
    if trace:
        metrics, detail, tracers = traced(wl, run)
        units = PER_LAYER
    else:
        metrics, detail = timed(wl, seconds, run)
        units = END_TO_END
    result = {
        "correct": not run.failed,
        "attempted": run.attempted,
        "failed": len(run.failed),
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k][0]} for k in units},
    }
    record = {"workload": name, "seed": seed, "trace": int(trace), "detail": detail,
              "failures": run.failures[:50], "environment": measure.environment(ROOT)}
    return result, record, tracers
