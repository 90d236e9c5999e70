"""Tests for the parallel experiment runner, its cache and its artifacts.

The load-bearing property is determinism: a pool run must be bit-identical
to the serial tier's run, and a cache hit must reproduce the original
result exactly (the figures' assertions compare floats without tolerance).
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.experiments import ExperimentResult
from repro.api import Session
from repro.platforms.registry import create_platform
from repro.runner import (
    EXPERIMENT_SCHEMA,
    RunCache,
    RunSpec,
    apply_config_overrides,
    experiment_from_artifact,
    load_experiment_artifact,
    matrix_specs,
    run_cache_key,
    run_result_from_dict,
    run_result_to_dict,
    write_experiment_artifact,
)
from repro.runner import parallel as parallel_module
from repro.units import KB
from repro.workloads.registry import ExperimentScale, TraceSpec

#: Small enough that a full matrix run stays sub-second, large enough that
#: the platforms do real work (cache fills, evictions, energy accounting).
TINY = ExperimentScale(capacity_scale=1 / 512, min_accesses=120,
                       max_accesses=240)
PLATFORMS = ["mmap", "hams-TE"]
WORKLOADS = ["seqRd", "update"]


def _as_dicts(experiment: ExperimentResult) -> dict:
    return {key: run_result_to_dict(result)
            for key, result in experiment.results.items()}


def tiny_session(**kwargs) -> Session:
    return Session(TINY, workers=1, **kwargs)


class TestDeterminism:
    def test_serial_runner_equivalence(self):
        """The pool tier at workers=1 reproduces the serial tier exactly."""
        serial = tiny_session(executor="serial").compare(PLATFORMS,
                                                         WORKLOADS)
        inline = tiny_session(executor="pool").compare(PLATFORMS, WORKLOADS)
        assert _as_dicts(inline) == _as_dicts(serial)

    def test_pool_equivalence(self):
        """A multi-process pool run is bit-identical to the serial tier."""
        serial = tiny_session(executor="serial").compare(PLATFORMS,
                                                         WORKLOADS)
        pooled = Session(TINY, workers=3, executor="pool").compare(
            PLATFORMS, WORKLOADS)
        assert _as_dicts(pooled) == _as_dicts(serial)

    def test_matrix_spec_order_matches_serial_loop(self):
        specs = matrix_specs(["a", "b"], ["w1", "w2"])
        assert [spec.result_key for spec in specs] == [
            ("a", "w1"), ("b", "w1"), ("a", "w2"), ("b", "w2")]

    def test_trace_spec_builds_identical_trace(self):
        spec = TraceSpec("seqRd", TINY)
        first, second = spec.build(), spec.build()
        assert first.dataset_bytes == second.dataset_bytes
        assert [(access.address, access.is_write)
                for access in first.stream] == \
               [(access.address, access.is_write)
                for access in second.stream]


class TestRunSpecs:
    def test_config_override_changes_behaviour(self):
        default, tiny_pages = tiny_session().run([
            RunSpec("hams-TE", "seqSel"),
            RunSpec("hams-TE", "seqSel",
                    config_overrides={"hams": {"mos_page_bytes": KB(4)}})])
        assert tiny_pages.total_ns != default.total_ns

    def test_unknown_config_section_rejected(self):
        with pytest.raises(ValueError, match="unknown config section"):
            apply_config_overrides(tiny_session().config,
                                   {"bogus": {"x": 1}})

    def test_unknown_config_field_rejected(self):
        """An unknown field is a ValueError naming the section and its
        valid fields, not a TypeError from the dataclass constructor."""
        with pytest.raises(ValueError) as error:
            apply_config_overrides(tiny_session().config,
                                   {"hams": {"mos_page_bytes": KB(4),
                                             "no_such": 1}})
        message = str(error.value)
        assert "'no_such'" in message and "'hams'" in message
        assert "mos_page_bytes" in message

    def test_platform_kwargs_reach_constructor(self):
        result = tiny_session().simulate(
            "oracle", "seqRd", platform_kwargs={"capacity_bytes": 1 << 26})
        assert result.platform == "oracle"

    def test_label_renames_result_key(self):
        experiment = tiny_session().collect([
            RunSpec("hams-TE", "seqRd", label="sweep-point")])
        assert ("sweep-point", "seqRd") in experiment.results

    def test_run_one_matches_legacy_signature(self):
        """simulate(platform, workload, override) == a hand-built replay."""
        session = tiny_session(executor="serial")
        override = TINY.scaled_bytes(1 << 34)
        result = session.simulate("mmap", "seqRd",
                                  dataset_bytes_override=override)
        direct = create_platform("mmap", session.config).run(
            session.trace("seqRd", override))
        assert run_result_to_dict(result) == run_result_to_dict(direct)


class TestRunCache:
    def test_miss_then_hit(self, tmp_path):
        first = tiny_session(cache_dir=tmp_path)
        baseline = first.compare(PLATFORMS, WORKLOADS)
        assert first.runner.cache.hits == 0
        assert first.runner.cache.misses == len(PLATFORMS) * len(WORKLOADS)

        second = tiny_session(cache_dir=tmp_path)
        replay = second.compare(PLATFORMS, WORKLOADS)
        assert second.runner.cache.hits == len(PLATFORMS) * len(WORKLOADS)
        assert second.runner.cache.misses == 0
        assert _as_dicts(replay) == _as_dicts(baseline)

    def test_hit_skips_execution(self, tmp_path, monkeypatch):
        tiny_session(cache_dir=tmp_path).run([RunSpec("mmap", "seqRd")])

        def boom(*args, **kwargs):
            raise AssertionError("cached run must not re-execute")

        monkeypatch.setattr(parallel_module, "execute_spec", boom)
        fresh = tiny_session(cache_dir=tmp_path)
        fresh.run([RunSpec("mmap", "seqRd")])
        assert fresh.runner.cache.hits == 1

    def test_scale_change_invalidates(self, tmp_path):
        spec = RunSpec("mmap", "seqRd")
        tiny_session(cache_dir=tmp_path).run([spec])
        other_scale = ExperimentScale(capacity_scale=1 / 512,
                                      min_accesses=120, max_accesses=240,
                                      seed=7)
        other = Session(other_scale, workers=1, cache_dir=tmp_path)
        other.run([spec])
        assert other.runner.cache.hits == 0
        assert other.runner.cache.misses == 1

    def test_config_change_invalidates_key(self):
        runner = tiny_session().runner
        spec = RunSpec("hams-TE", "seqRd")
        base_key = run_cache_key(spec, runner.config, runner.scale)
        tweaked = runner.config.with_hams(mos_page_bytes=KB(4))
        assert run_cache_key(spec, tweaked, runner.scale) != base_key

    def test_spec_knobs_change_key(self):
        runner = tiny_session().runner
        base = run_cache_key(RunSpec("mmap", "seqRd"), runner.config,
                             runner.scale)
        for variant in (
                RunSpec("mmap", "rndRd"),
                RunSpec("mmap", "seqRd", dataset_bytes_override=1 << 22),
                RunSpec("mmap", "seqRd",
                        config_overrides={"hams": {"tag_check_ns": 11.0}}),
        ):
            assert run_cache_key(variant, runner.config,
                                 runner.scale) != base

    def test_force_reexecutes_but_restores(self, tmp_path):
        spec = RunSpec("mmap", "seqRd")
        tiny_session(cache_dir=tmp_path).run([spec])
        forced = tiny_session(cache_dir=tmp_path, force=True)
        forced.run([spec])
        assert forced.runner.cache.hits == 0

    def test_disabled_cache(self):
        cache = RunCache(None)
        assert not cache.enabled
        assert cache.load("deadbeef") is None

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        session = tiny_session(cache_dir=tmp_path)
        spec = RunSpec("mmap", "seqRd")
        session.run([spec])
        path = session.runner.cache.path_for(session.runner.cache_key(spec))
        path.write_text("{not json", encoding="utf-8")
        fresh = tiny_session(cache_dir=tmp_path)
        [result] = fresh.run([spec])
        assert fresh.runner.cache.hits == 0
        assert result.platform == "mmap"


class TestArtifacts:
    def test_run_result_round_trip(self):
        result = tiny_session().simulate("hams-TE", "update")
        payload = run_result_to_dict(result)
        rebuilt = run_result_from_dict(
            json.loads(json.dumps(payload)))
        assert run_result_to_dict(rebuilt) == payload
        assert rebuilt.energy.total_nj == result.energy.total_nj
        assert rebuilt.operations_per_second == result.operations_per_second

    def test_experiment_artifact_round_trip(self, tmp_path):
        session = tiny_session()
        experiment = session.compare(PLATFORMS, WORKLOADS)
        path = write_experiment_artifact(tmp_path, "tiny", experiment,
                                         session.config,
                                         meta={"workers": session.workers})
        payload = load_experiment_artifact(path)
        assert payload["schema"] == EXPERIMENT_SCHEMA
        assert payload["experiment"] == "tiny"
        assert payload["config_hash"].startswith("sha256:")
        assert len(payload["runs"]) == len(PLATFORMS) * len(WORKLOADS)
        rebuilt = experiment_from_artifact(payload)
        assert rebuilt.scale == experiment.scale
        assert _as_dicts(rebuilt) == _as_dicts(experiment)

    def test_bad_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "nope/9", "runs": []}),
                        encoding="utf-8")
        with pytest.raises(ValueError, match="unsupported artifact schema"):
            load_experiment_artifact(path)


class TestExperimentResultMerge:
    def test_merge_combines_shards(self):
        session = tiny_session()
        left = session.compare(["mmap"], WORKLOADS)
        right = session.compare(["hams-TE"], WORKLOADS)
        merged = left.merge(right)
        assert merged is left
        assert set(merged.platforms()) == {"mmap", "hams-TE"}
        assert merged.get("hams-TE", "update").platform == "hams-TE"

    def test_speedup_tolerates_non_rectangular_results(self):
        """Merged shards need not be rectangular; missing cells are skipped."""
        session = tiny_session()
        experiment = session.compare(["mmap", "hams-TE"], ["seqRd"])
        experiment.merge(session.compare(["hams-TE"], ["update"]))
        speedups = experiment.speedup_over("hams-TE", "mmap")
        assert list(speedups) == ["seqRd"]
        assert experiment.mean_speedup("hams-TE", "mmap") > 0
        assert experiment.energy_ratio("hams-TE", "mmap") > 0

    def test_merge_rejects_scale_mismatch(self):
        left = ExperimentResult(scale=TINY)
        right = ExperimentResult(scale=ExperimentScale())
        with pytest.raises(ValueError, match="different scales"):
            left.merge(right)
