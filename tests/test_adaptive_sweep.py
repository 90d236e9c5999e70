"""Tests for the adaptive sweep driver (:mod:`repro.sweep`) and the
sweep-surface bugfix batch that shipped with it.

The load-bearing contracts:

1. **Grid-cell parity** — every cell an adaptive sweep evaluates is
   bit-identical to the same cell from a fixed-grid ``Session.sweep``,
   and the two share run-cache entries.
2. **Tier determinism** — the refinement path (which cells, which
   rounds) and the knees are identical on the serial, pool and sharded
   executors.
3. **Cost honesty** — the budget cap is honoured, pruned cells are
   recorded rather than silently dropped, and cache-resolved cells cost
   zero (a re-run of the same sweep spends nothing).
4. **The bugfix batch** — duplicate sweep labels raise instead of
   silently collapsing result keys; sharding knobs exist only on
   :class:`~repro.exec.ShardedExecutor`, so no one-shot combination can
   half-apply them; progress ETA edges report ``None`` instead of dividing
   by zero or leaking ``inf`` into event records.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.api import Session, compare, sweep
from repro.exec import (
    Event,
    SerialExecutor,
    ShardedExecutor,
    compute_eta,
)
from repro.runner.artifacts import run_result_to_dict
from repro.runner.events import RUN_FINISH
from repro.runner.specs import RunSpec
from repro.sweep import (
    STOP_BUDGET,
    SWEEP_SCHEMA,
    AdaptiveSweepDriver,
    curvature_scores,
    knee_index,
    load_sweep_record,
    refinement_candidates,
    seed_indices,
    sweep_labels,
    write_sweep_record,
)
from repro.workloads.registry import ExperimentScale

TINY = ExperimentScale(capacity_scale=1 / 512, min_accesses=120,
                       max_accesses=240)
KB = 1024
#: A dense 4 KB-multiple page-size grid (mos_page_bytes validation).
GRID = [4 * KB * step for step in range(1, 17)]


def tiny_session(**kwargs) -> Session:
    return Session(TINY, workers=1, **kwargs)


def run_adaptive(session, workloads=("rndRd",), **kwargs):
    kwargs.setdefault("tolerance", 0.01)
    kwargs.setdefault("seed_points", 5)
    return session.adaptive_sweep("hams-TE", list(workloads), "hams",
                                  "mos_page_bytes", GRID, **kwargs)


# ---------------------------------------------------------------------------
# Refinement geometry (pure helpers)
# ---------------------------------------------------------------------------


class TestRefinementGeometry:
    def test_linear_curve_has_zero_curvature_and_no_knee(self):
        curve = {0: 1.0, 4: 5.0, 9: 10.0}
        assert all(score == 0.0
                   for score in curvature_scores(curve).values())
        assert knee_index(curve) is None
        assert refinement_candidates(curve, tolerance=0.0) == set()

    def test_knee_is_the_max_curvature_index(self):
        curve = {0: 0.0, 4: 8.0, 8: 10.0}  # bends upward at 4
        scores = curvature_scores(curve)
        assert scores[4] == pytest.approx(3.0 / 10.0)
        assert knee_index(curve) == 4

    def test_fewer_than_three_points_score_nothing(self):
        assert curvature_scores({0: 1.0, 9: 2.0}) == {}
        assert knee_index({0: 1.0, 9: 2.0}) is None

    def test_refinement_bisects_both_flanking_intervals(self):
        curve = {0: 0.0, 4: 8.0, 8: 10.0}
        assert refinement_candidates(curve, tolerance=0.1) == {2, 6}

    def test_unit_intervals_cannot_refine_further(self):
        curve = {3: 0.0, 4: 8.0, 5: 10.0}
        assert refinement_candidates(curve, tolerance=0.1) == set()

    def test_tolerance_gates_refinement(self):
        curve = {0: 0.0, 4: 8.0, 8: 10.0}  # score 0.3 at index 4
        assert refinement_candidates(curve, tolerance=0.5) == set()

    def test_all_zero_curve_is_settled(self):
        curve = {0: 0.0, 4: 0.0, 8: 0.0}
        assert knee_index(curve) is None
        assert refinement_candidates(curve, tolerance=0.0) == set()

    def test_seed_indices_include_endpoints(self):
        assert seed_indices(16, 5) == [0, 4, 8, 11, 15]
        assert seed_indices(16, 2) == [0, 15]
        assert seed_indices(2, 5) == [0, 1]
        assert seed_indices(1, 5) == [0]
        with pytest.raises(ValueError):
            seed_indices(0, 5)


# ---------------------------------------------------------------------------
# The driver on a live session
# ---------------------------------------------------------------------------


class TestAdaptiveDriver:
    def test_evaluated_cells_are_bit_identical_to_the_fixed_grid(
            self, tmp_path):
        session = tiny_session(cache_dir=tmp_path / "adaptive")
        adaptive = run_adaptive(session)
        indices = adaptive.evaluated_indices("rndRd")
        assert indices, "the sweep evaluated nothing"
        assert indices[0] == 0 and indices[-1] == len(GRID) - 1, \
            "seeding must pin both grid endpoints"

        grid_session = tiny_session(cache_dir=tmp_path / "grid")
        grid = grid_session.sweep(
            "hams-TE", ["rndRd"], "hams", "mos_page_bytes",
            [GRID[index] for index in indices])
        for cell in adaptive.evaluated_cells:
            ours = adaptive.experiment.get(cell.label, "rndRd")
            theirs = grid.get(cell.label, "rndRd")
            assert json.dumps(run_result_to_dict(ours), sort_keys=True) \
                == json.dumps(run_result_to_dict(theirs), sort_keys=True)

    def test_cells_share_cache_entries_with_the_fixed_grid(self, tmp_path):
        """The grid warms the cache; the adaptive run runs nothing."""
        cache = tmp_path / "shared"
        tiny_session(cache_dir=cache).sweep(
            "hams-TE", ["rndRd"], "hams", "mos_page_bytes", GRID)
        adaptive = run_adaptive(tiny_session(cache_dir=cache))
        assert adaptive.evaluated_cells == []
        assert len(adaptive.skipped_cells) > 0
        assert all(cell.cache_hit and cell.cost == 0
                   for cell in adaptive.skipped_cells)
        assert adaptive.spent_cost == 0

    @pytest.mark.parametrize("executor,shards", [
        ("serial", None), ("pool", None), ("sharded", 2)])
    def test_refinement_path_is_identical_on_every_tier(
            self, tmp_path, executor, shards):
        reference = run_adaptive(
            tiny_session(cache_dir=tmp_path / "reference"))
        session = tiny_session(
            cache_dir=tmp_path / "tier",
            executor=ShardedExecutor(shards=shards) if shards else executor)
        result = run_adaptive(session)
        path = [(round_.number,
                 sorted((cell.workload, cell.index)
                        for cell in round_.evaluated))
                for round_ in result.rounds]
        expected = [(round_.number,
                     sorted((cell.workload, cell.index)
                            for cell in round_.evaluated))
                    for round_ in reference.rounds]
        assert path == expected
        assert result.knees == reference.knees
        assert result.stop_reason == reference.stop_reason
        for cell in result.evaluated_cells:
            ours = result.experiment.get(cell.label, "rndRd")
            theirs = reference.experiment.get(cell.label, "rndRd")
            assert run_result_to_dict(ours) == run_result_to_dict(theirs)

    def test_budget_is_honoured_and_pruning_is_recorded(self, tmp_path):
        probe = AdaptiveSweepDriver(
            tiny_session(), "hams-TE", ["rndRd"], "hams", "mos_page_bytes",
            GRID)
        per_cell = probe.grid_cost() // len(GRID)
        budget = per_cell * 4  # room for 4 of the 5 seed cells
        result = run_adaptive(tiny_session(cache_dir=tmp_path / "budget"),
                              tolerance=0.0, budget=budget)
        assert result.spent_cost <= budget
        assert result.pruned_cells, "over-budget cells must be recorded"
        assert result.stop_reason == STOP_BUDGET
        # Pruned cells never entered the experiment.
        resolved = {cell.index for cell in result.evaluated_cells}
        assert all(index not in resolved
                   for _, index in result.pruned_cells)

    def test_rerun_resolves_everything_from_cache(self, tmp_path):
        session = tiny_session(cache_dir=tmp_path / "cache")
        first = run_adaptive(session)
        assert first.evaluated_cells and first.spent_cost > 0
        second = run_adaptive(session)
        assert second.evaluated_cells == []
        assert {cell.index for cell in second.skipped_cells} \
            == {cell.index for cell in first.evaluated_cells}
        assert second.spent_cost == 0
        assert second.knees == first.knees

    def test_settle_rounds_stops_a_stable_workload(self, tmp_path):
        result = run_adaptive(tiny_session(cache_dir=tmp_path / "settle"),
                              tolerance=0.0, settle_rounds=1, max_rounds=6)
        # tolerance 0 refines forever on a noisy curve; the settled knee
        # must cut it off with the remaining candidates recorded.
        assert result.settled_cells or result.stop_reason != "max-rounds"

    def test_driver_rejects_bad_grids(self):
        session = tiny_session()
        with pytest.raises(ValueError, match="strictly increasing"):
            session.adaptive_sweep("hams-TE", ["rndRd"], "hams",
                                   "mos_page_bytes", [8192, 4096])
        with pytest.raises(ValueError, match="numeric"):
            session.adaptive_sweep("hams-TE", ["rndRd"], "hams",
                                   "mos_page_bytes", ["a", "b"])
        with pytest.raises(ValueError, match="at least one value"):
            session.adaptive_sweep("hams-TE", ["rndRd"], "hams",
                                   "mos_page_bytes", [])
        with pytest.raises(ValueError, match="at least one workload"):
            session.adaptive_sweep("hams-TE", [], "hams",
                                   "mos_page_bytes", GRID)
        with pytest.raises(ValueError, match="tolerance"):
            run_adaptive(session, tolerance=-0.1)
        with pytest.raises(ValueError, match="budget"):
            run_adaptive(session, budget=-1)
        with pytest.raises(ValueError, match="metric"):
            run_adaptive(session, metric="no_such_attribute")

    def test_sweep_record_round_trips(self, tmp_path):
        session = tiny_session(cache_dir=tmp_path / "cache")
        result = run_adaptive(session, name="recorded")
        path = write_sweep_record(tmp_path, "recorded", result,
                                  session.config)
        payload = load_sweep_record(path)
        assert payload["schema"] == SWEEP_SCHEMA
        assert payload["values"] == GRID
        assert payload["knees"] == {
            workload: value for workload, value in result.knees.items()}
        totals = payload["totals"]
        assert totals["evaluated"] == len(result.evaluated_cells)
        assert totals["spent_cost"] == result.spent_cost
        assert totals["grid_cost"] == result.grid_cost
        evaluated = [cell for round_ in payload["rounds"]
                     for cell in round_["evaluated"]]
        assert len(evaluated) == totals["evaluated"]
        assert all(cell["key"] for cell in evaluated)
        with pytest.raises(ValueError, match="schema"):
            bad = tmp_path / "bad.sweep.json"
            bad.write_text("{}", encoding="utf-8")
            load_sweep_record(bad)


# ---------------------------------------------------------------------------
# Bugfix: duplicate sweep labels
# ---------------------------------------------------------------------------


class TestDuplicateSweepLabels:
    def test_int_and_string_value_collapse_is_rejected(self):
        # 4096 and "4096" stringify identically: before the fix the second
        # run silently overwrote the first under the same result key.
        with pytest.raises(ValueError, match="duplicate sweep label"):
            tiny_session().sweep("hams-TE", ["seqRd"], "hams",
                                 "mos_page_bytes", [4096, "4096"])

    def test_duplicate_explicit_labels_are_rejected(self):
        with pytest.raises(ValueError, match="duplicate sweep label"):
            tiny_session().sweep("hams-TE", ["seqRd"], "hams",
                                 "mos_page_bytes", [4 * KB, 8 * KB],
                                 labels=["same", "same"])

    def test_one_shot_sweep_rejects_duplicates_too(self):
        with pytest.raises(ValueError, match="duplicate sweep label"):
            sweep("hams-TE", ["seqRd"], "hams", "mos_page_bytes",
                  [4096, "4096"], scale=TINY, workers=1)

    def test_adaptive_sweep_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="duplicate sweep label"):
            tiny_session().adaptive_sweep(
                "hams-TE", ["seqRd"], "hams", "mos_page_bytes",
                [4 * KB, 8 * KB], labels=["x", "x"])

    def test_distinct_labels_still_work(self):
        assert sweep_labels([4 * KB, 8 * KB]) == ["4096", "8192"]
        assert sweep_labels([4 * KB, 8 * KB], ["4KB", "8KB"]) \
            == ["4KB", "8KB"]

    def test_label_count_mismatch_still_raises(self):
        with pytest.raises(ValueError, match="labels must match values"):
            sweep_labels([1, 2, 3], ["one"])


# ---------------------------------------------------------------------------
# Sharding knobs live only on ShardedExecutor
# ---------------------------------------------------------------------------


class TestOneShotKnobValidation:
    """The old conflicting combinations are no longer expressible."""

    def test_non_sharded_tier_rejects_shards(self):
        with pytest.raises(TypeError, match="shards"):
            compare(["mmap"], ["seqRd"], scale=TINY, workers=1,
                    executor="pool", **{"shards": 2})

    def test_executor_instance_rejects_shards(self):
        with pytest.raises(TypeError, match="shards"):
            sweep("hams-TE", ["seqRd"], "hams", "mos_page_bytes",
                  [4 * KB], scale=TINY, workers=1,
                  executor=SerialExecutor(), **{"shards": 2})

    def test_sharded_only_knobs_need_a_sharded_tier(self, tmp_path):
        with pytest.raises(TypeError, match="spool_dir"):
            compare(["mmap"], ["seqRd"], scale=TINY, workers=1,
                    spool_dir=tmp_path / "spool")
        with pytest.raises(TypeError, match="wait_timeout"):
            Session(TINY, workers=1, wait_timeout=5.0)
        with pytest.raises(TypeError):
            SerialExecutor(spool_dir=tmp_path / "spool")

    def test_legal_sharded_combinations_still_pass(self, tmp_path):
        # Every sharded spelling works: the tier name with its defaults,
        # or an instance carrying shards + spool_dir + wait_timeout.
        compare(["mmap"], ["seqRd"], scale=TINY, workers=1,
                executor="sharded")
        compare(["mmap"], ["seqRd"], scale=TINY, workers=1,
                executor=ShardedExecutor(shards=2,
                                         spool_dir=tmp_path / "c",
                                         wait_timeout=60.0))
        assert list((tmp_path / "c" / "results").glob("shard-*.json"))


# ---------------------------------------------------------------------------
# Bugfix: progress ETA guards
# ---------------------------------------------------------------------------


class TestProgressEtaGuards:
    def test_zero_completed_has_no_eta(self):
        assert compute_eta(0, 5, 10.0) is None

    def test_done_has_no_eta(self):
        assert compute_eta(5, 5, 10.0) is None
        assert compute_eta(6, 5, 10.0) is None

    def test_zero_elapsed_has_no_eta(self):
        # A clock too coarse to have ticked yet (or a burst of pure cache
        # hits) must not extrapolate a zero or negative ETA.
        assert compute_eta(2, 5, 0.0) is None
        assert compute_eta(2, 5, -1.0) is None

    def test_non_finite_extrapolation_has_no_eta(self):
        assert compute_eta(1, 5, float("inf")) is None

    def test_happy_path_still_estimates(self):
        assert compute_eta(2, 6, 10.0) == pytest.approx(20.0)

    def test_fresh_handle_reports_none_eta(self):
        handle = tiny_session().submit([RunSpec("mmap", "seqRd")])
        snapshot = handle.progress()
        assert snapshot.completed == 0
        assert snapshot.eta_s is None
        assert "eta" not in snapshot.format()
        handle.result()
        assert handle.progress().eta_s is None

    def test_events_never_serialise_non_finite_floats(self):
        event = Event(kind=RUN_FINISH, index=0,
                      operations_per_second=float("inf"))
        record = event.to_record()
        assert "operations_per_second" not in record
        nan_event = Event(kind=RUN_FINISH, index=0,
                          operations_per_second=float("nan"))
        assert "operations_per_second" not in nan_event.to_record()
        # The emitted line is strict JSON (no bare Infinity/NaN tokens).
        parsed = json.loads(event.to_line(), parse_constant=lambda _: (
            pytest.fail("non-finite constant leaked into the record")))
        assert parsed["kind"] == RUN_FINISH
        finite = Event(kind=RUN_FINISH, index=0,
                       operations_per_second=123.5)
        assert finite.to_record()["operations_per_second"] == 123.5
        assert math.isfinite(json.loads(finite.to_line())
                             ["operations_per_second"])


# ---------------------------------------------------------------------------
# The CLI verb
# ---------------------------------------------------------------------------


class TestSweepCli:
    def test_adaptive_cli_writes_artifact_and_record(self, tmp_path,
                                                     capsys):
        from repro.runner.cli import main
        argv = ["sweep", "--platform", "hams-TE", "--workloads", "rndRd",
                "--section", "hams", "--field", "mos_page_bytes",
                "--values"] + [str(value) for value in GRID] + [
                "--adaptive", "--tolerance", "0.01", "--seed-points", "5",
                "--capacity-scale", str(1 / 512),
                "--min-accesses", "120", "--max-accesses", "240",
                "--workers", "1", "--executor", "serial",
                "--name", "cli-adaptive",
                "--output-dir", str(tmp_path)]
        assert main(argv) == 0
        artifact = json.loads(
            (tmp_path / "cli-adaptive.json").read_text(encoding="utf-8"))
        assert artifact["meta"]["sweep"]["mode"] == "adaptive"
        record = load_sweep_record(tmp_path / "cli-adaptive.sweep.json")
        assert record["totals"]["evaluated"] == len(artifact["runs"])
        out = capsys.readouterr().out
        assert "knees:" in out

    def test_fixed_grid_cli_diffs_clean_against_adaptive(self, tmp_path,
                                                         capsys):
        from repro.runner.cli import main
        scale_args = ["--capacity-scale", str(1 / 512),
                      "--min-accesses", "120", "--max-accesses", "240",
                      "--workers", "1", "--executor", "serial",
                      "--output-dir", str(tmp_path)]
        base = ["sweep", "--platform", "hams-TE", "--workloads", "rndRd",
                "--section", "hams", "--field", "mos_page_bytes",
                "--values"] + [str(value) for value in GRID]
        assert main(base + ["--adaptive", "--name", "adaptive", "--quiet"]
                    + scale_args) == 0
        assert main(base + ["--name", "grid", "--quiet"] + scale_args) == 0
        # One-directional on purpose: every adaptive cell must exist in
        # the grid artifact, bit-identical (threshold 0).
        assert main(["report", "--diff", str(tmp_path / "adaptive.json"),
                     str(tmp_path / "grid.json"), "--threshold", "0"]) == 0

    def test_duplicate_label_error_exits_2(self, tmp_path, capsys):
        from repro.runner.cli import main
        argv = ["sweep", "--platform", "hams-TE", "--workloads", "seqRd",
                "--section", "hams", "--field", "mos_page_bytes",
                "--values", "4096", "8192", "--labels", "x", "x",
                "--capacity-scale", str(1 / 512),
                "--min-accesses", "120", "--max-accesses", "240",
                "--workers", "1", "--executor", "serial",
                "--output-dir", str(tmp_path)]
        assert main(argv) == 2
        assert "duplicate sweep label" in capsys.readouterr().err
