"""Tests of the benchmark itself, on shrunken copies of its workloads.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import run
from layers import layer_metrics, self_times
from workloads import DETUNING_JITTER, WORKLOADS

SMALL = {
    "axial_scan": dict(n_points=21, half_width=10.0),
    "transverse_trap": dict(n_points=11, half_width=10.0),
    "plane_map": dict(n_points=5, half_width=4.0),
    "oracle_suite": dict(n_points=11,
                         commands=WORKLOADS["oracle_suite"].commands[:2]),
}
EXACT_COUNTS = ("quadrature.integrate_calls", "quadrature.nodes",
                "quadrature.rule_lookups")


def small_case(name: str, seed: int = 3):
    return dataclasses.replace(WORKLOADS[name], **SMALL[name]).case(seed)


def workdir(tmp_path: Path, case) -> Path:
    work = tmp_path / case.workload.name
    work.mkdir()
    (work / "case.ini").write_text(case.config_text())
    return work


def test_seed_zero_is_unjittered():
    for workload in WORKLOADS.values():
        case = workload.case(0)
        assert case.detuning == workload.detuning
        assert case.half_width == workload.half_width


@pytest.mark.parametrize("name", WORKLOADS)
def test_seed_jitter_is_repeatable_and_bounded(name):
    workload = WORKLOADS[name]
    step = 2.0 * workload.half_width / (workload.n_points - 1)
    assert workload.range_jitter <= step / 2
    texts = set()
    for seed in range(1, 41):
        case = workload.case(seed)
        assert case.config_text() == workload.case(seed).config_text()
        assert abs(case.detuning - workload.detuning) <= DETUNING_JITTER
        assert abs(case.half_width - workload.half_width) \
            <= workload.range_jitter
        texts.add(case.config_text())
    assert len(texts) == 40


def test_self_time_subtracts_the_union_of_children():
    spans = [(0, "fields.run_scan", 0.0, 10.0, None, 1, 0, 2),
             (1, "quadrature.integrate_sphere", 1.0, 4.0, 0, 2, 0, 0),
             (2, "quadrature.integrate_sphere", 3.0, 6.0, 0, 3, 0, 0),
             (3, "quadrature.integrate_sphere", 8.0, 9.0, 0, 2, 0, 0)]
    assert self_times(spans)[0] == pytest.approx(4.0)
    metrics = layer_metrics(spans, {"plain": 1.0, "refine": 2.0,
                                    "gradient": 3.0})
    assert metrics["fields.self_s"] == pytest.approx(4.0)
    assert metrics["fields.worker_busy_frac"] == pytest.approx(7.0 / 20.0)


def _corrupt(text: str) -> str:
    """Scale the last value of the second data row (or fail the first
    check of a validate report)."""
    if text.startswith("{"):
        report = json.loads(text)
        report["checks"][0]["passed"] = False
        return json.dumps(report)
    lines = text.split("\n")
    fields = lines[2].split(",")
    fields[-1] = repr(float(fields[-1]) * (1.0 + 1e-6) + 1e-6)
    lines[2] = ",".join(fields)
    return "\n".join(lines)


@pytest.mark.parametrize("name", WORKLOADS)
def test_gate_passes_real_output_and_fails_a_corrupted_row(name, tmp_path):
    case = small_case(name)
    sample = run.run_sample(case, workdir(tmp_path, case))
    assert sample.ok
    assert gate.check(case, sample.outputs).ok
    for index in range(len(sample.outputs)):
        outputs = list(sample.outputs)
        outputs[index] = _corrupt(outputs[index])
        assert not gate.check(case, outputs).ok


def test_timed_run_reports_every_end_to_end_metric(tmp_path):
    case = small_case("axial_scan")
    result = run._timed_run(case, workdir(tmp_path, case), 0.5)
    assert result["correct"] and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_counts_repeat_exactly(name, tmp_path):
    case = small_case(name)
    work = workdir(tmp_path, case)
    counts = []
    for _ in range(2):
        sample, spans, sample_s, errors = run.traced_sample(case, work)
        assert sample.ok and not errors
        metrics = layer_metrics(spans, sample_s)
        assert metrics["quadrature.integrate_calls"] > 0
        exact = EXACT_COUNTS
        if case.workload.threads == 1:
            # Worker threads share the rule cache, so with two of them
            # which rules are evicted depends on interleaving.
            exact += ("quadrature.rule_builds",)
        counts.append({key: metrics[key] for key in exact})
    assert counts[0] == counts[1]


def test_metric_names_and_units_match_benchmark_json():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert list(bench["workloads"]) == [
        {"name": w.name, "why": w.why} for w in WORKLOADS.values()]
    layer = layer_metrics([], {"plain": 1.0, "refine": 1.0, "gradient": 1.0})
    names = [*layer, "cli.output_bytes", "trace.wall_s", "trace.overhead_s"]
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        n: run.LAYER_UNITS.get(n.rsplit(".", 1)[1], "s") for n in names}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload",
         "axial_scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
