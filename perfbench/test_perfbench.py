"""Self-tests of the benchmark, at a tiny scale.

Run with ``python3 -m pytest perfbench`` from the root of a checkout.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def tiny_plan(name: str) -> run.Plan:
    """The named plan shrunk to seconds: small capacities, short traces."""
    plan = run.plans()[name]
    accesses = 3000 if plan.trace_workload else 600
    scale = dataclasses.replace(plan.scale, capacity_scale=1 / 256,
                                min_accesses=min(200, accesses),
                                max_accesses=accesses)
    if plan.trace_workload is None:
        plan = dataclasses.replace(
            plan, platforms=run.RATE_PLATFORMS + ("hams-LE",),
            workloads=("seqRd", "update"))
    return dataclasses.replace(plan, scale=scale)


_OUTCOMES = {}


@pytest.fixture
def outcome(tmp_path_factory):
    """``measure()`` of a tiny plan, memoised per (workload, trace)."""
    def get(name: str, trace: bool) -> dict:
        if (name, trace) not in _OUTCOMES:
            work = tmp_path_factory.mktemp(f"{name}-{int(trace)}")
            _OUTCOMES[name, trace] = run.measure(
                tiny_plan(name), seed=7, seconds=0.0, trace=trace,
                work=work, expected=None)
        return _OUTCOMES[name, trace]
    return get


def test_benchmark_json_names_the_metrics_run_py_emits():
    assert set(WORKLOADS) == set(run.plans())
    assert {metric["name"]: metric["unit"]
            for metric in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {metric["name"]: metric["unit"]
            for metric in BENCHMARK["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", WORKLOADS)
def test_every_metric_is_emitted(outcome, name, trace):
    result = outcome(name, trace)["result"]
    section = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {metric["name"]
                                      for metric in BENCHMARK[section]}
    assert result["correct"], result
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    for name_, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name_
        if not trace:
            assert metric["value"] > 0, name_


@pytest.mark.parametrize("name", WORKLOADS)
def test_self_times_and_other_add_up_to_the_traced_wall(outcome, name):
    metrics = {key: value["value"] for key, value in
               outcome(name, True)["result"]["metrics"].items()}
    import spans

    attributed = sum(metrics[metric]
                     for metric in spans.SELF_TIME_METRICS.values())
    assert metrics["other_s"] >= 0
    assert math.isclose(attributed + metrics["other_s"],
                        metrics["tracing.wall_s"], rel_tol=1e-9)


def test_page_granular_replay_bypasses_the_l1_l2_filter(outcome):
    page = outcome("replay-page", True)["result"]["metrics"]
    fine = outcome("replay-fine", True)["result"]["metrics"]
    assert page["host.caches.filter_s"]["value"] == 0
    assert page["host.caches.accesses"]["value"] == 0
    assert fine["host.caches.filter_s"]["value"] > 0


def test_perturbed_or_raising_run_counts_as_failed(outcome):
    done = outcome("replay-fine", False)["passes"][0]
    expected = done.digests()
    assert run.failed_runs(done, expected, expected) == {}

    rid, result = next(iter(done.results.items()))
    perturbed = dataclasses.replace(
        done, results={**done.results, rid: dataclasses.replace(
            result, total_ns=math.nextafter(result.total_ns, math.inf))})
    assert set(run.failed_runs(perturbed, expected, None)) == {rid}
    assert set(run.failed_runs(perturbed, None, expected)) == {rid}

    broken = dataclasses.replace(
        done, results={**done.results, rid: dataclasses.replace(
            result, offchip_accesses=result.memory_accesses + 1)})
    assert set(run.failed_runs(broken, None, None)) == {rid}

    raised = dataclasses.replace(
        done, results={k: v for k, v in done.results.items() if k != rid},
        errors={rid: "Traceback ..."})
    assert set(run.failed_runs(raised, expected, None)) == {rid}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert completed.stdout == ""
