"""Tests of the benchmark itself: tiny smoke runs, fault injection, repeatable
counts and agreement between BENCHMARK.json and the metric tables in bench.py."""

from __future__ import annotations

import importlib
import json
import math
import os

import pytest

import bench
from bench import END_TO_END, PER_LAYER, run_workload
from workloads import WORKLOADS

lattice = importlib.import_module("charbox.lattice")
survey_mod = importlib.import_module("charbox.survey")

EXACT_COUNTS = ("lattice.nodes", "boxes.elements", "energy.pairs", "harness.moment_terms",
                "field.builds")
BYPASSED = {
    "survey": ("lattice.",),
    "amplify": ("lattice.",),
    "certify": ("characters.", "energy.", "harness."),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_timed(name):
    result, record, _ = run_workload(name, seed=5, seconds=0.3, trace=False, tiny=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(END_TO_END)
    for key, metric in result["metrics"].items():
        assert metric["unit"] == END_TO_END[key][0]
        assert math.isfinite(metric["value"]) and metric["value"] > 0, key
    assert record["detail"]["samples"] >= 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_traced_and_bypasses(name):
    result, _, tracers = run_workload(name, seed=5, seconds=0.3, trace=True, tiny=True)
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == set(PER_LAYER)
    for prefix in BYPASSED[name]:
        assert all(v == 0 for k, v in metrics.items() if k.startswith(prefix)), prefix
    assert metrics["field.builds"] > 0 and metrics["trace_overhead"] > 0
    spans = tracers["items"].spans
    assert spans and all(rec[2] >= rec[1] for rec in spans)
    busy = {"survey": "characters.box_sum_s", "amplify": "harness.moment_s",
            "certify": "lattice.minima_s.random_z"}[name]
    assert metrics[busy] > 0


@pytest.mark.parametrize("name", ["amplify", "certify"])
def test_exact_counts_repeat_for_a_seed(name):
    runs = [run_workload(name, seed=s, seconds=0, trace=True, tiny=True)[0]["metrics"]
            for s in (7, 7, 8)]
    for key in EXACT_COUNTS:
        assert runs[0][key] == runs[1][key], key
    assert set(runs[2]) == set(runs[0])
    other = WORKLOADS[name](8, tiny=True)
    same = WORKLOADS[name](7, tiny=True)
    bench.setup(same, bench.Run())
    first = same.items(1)
    bench.setup(other, bench.Run())
    assert other.items(1) != first


def test_perturbed_witness_counts_as_failed(monkeypatch):
    real = lattice.minima_for_z

    def perturbed(box, z, *args, **kwargs):
        res = real(box, z, *args, **kwargs)
        wit = (res.witnesses[0][0] + 1,) + res.witnesses[0][1:]
        return lattice.MinimaResult(res.lattice, res.body, res.lambdas, (wit,) + res.witnesses[1:],
                                    res.nodes)

    monkeypatch.setattr(lattice, "minima_for_z", perturbed)
    result, record, _ = run_workload("certify", seed=5, seconds=0.3, trace=False, tiny=True)
    assert not result["correct"] and result["failed"] > 0
    reasons = {r for _, _, fails in record["failures"] for r in fails}
    assert "minima.witness_recovery" in reasons or "minima.witness_in_lattice" in reasons
    assert result["metrics"]["failed_frac"]["value"] > 1 / (result["attempted"] + 1)


def test_mismatched_parallel_csv_counts_as_failed(monkeypatch):
    real = survey_mod.render_csv

    def render(report):
        text = real(report)
        return text + "tampered\n" if report.config.workers > 1 else text

    monkeypatch.setattr(survey_mod, "render_csv", render)
    result, record, _ = run_workload("survey", seed=5, seconds=0.3, trace=False, tiny=True)
    parallel = record["detail"]["samples"]
    assert not result["correct"] and result["failed"] >= parallel
    reasons = {r for _, _, fails in record["failures"] for r in fails}
    assert reasons == {"survey.csv_differs_from_serial"}


def test_benchmark_json_matches_metric_tables():
    path = os.path.join(bench.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == ["survey", "amplify", "certify"]
    assert set(WORKLOADS) == {w["name"] for w in spec["workloads"]}
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
