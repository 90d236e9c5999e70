"""Tests for the repro.distrib sharded execution tier.

The load-bearing properties, in order of importance:

1. **Merge exactness** — for any shard count and any shard execution
   order, plan + work + merge produces runs bit-identical (as canonically
   serialised) to an unsharded serial ``Session.collect`` over the same
   specs.
2. **Resume** — a worker killed mid-shard and restarted resumes from the
   shared run cache: finished runs are not recomputed, and the shard
   result neither drops nor duplicates runs.
3. **Coordination safety** — the spool's claim-by-rename hands each shard
   to exactly one worker, and the coordinator refuses to merge shards with
   mismatched provenance or an incomplete/duplicated shard set.
"""

from __future__ import annotations

import json

import pytest

from repro.api import Session
from repro.distrib import (
    SHARD_MANIFEST_SCHEMA,
    SHARD_RESULT_SCHEMA,
    ShardSpool,
    estimate_spec_cost,
    execute_shard,
    execute_shard_file,
    experiment_id_of,
    merge_shards,
    partition_bounds,
    partition_bounds_by_cost,
    plan_shards,
    validate_manifest,
    work_spool,
)
from repro.runner import spool as spool_module
from repro.exec import ShardedExecutor
from repro.runner import parallel as parallel_module
from repro.runner.artifacts import (
    RunCache,
    experiment_to_artifact,
    run_cache_key,
)
from repro.runner.parallel import ParallelExperimentRunner
from repro.runner.specs import RunSpec, matrix_specs
from repro.units import KB
from repro.workloads.registry import ExperimentScale

#: Small enough for sub-second shards, large enough for real platform work.
TINY = ExperimentScale(capacity_scale=1 / 512, min_accesses=120,
                       max_accesses=240)
PLATFORMS = ["mmap", "hams-TE", "oracle"]
WORKLOADS = ["seqRd", "update"]


def tiny_runner(**kwargs) -> ParallelExperimentRunner:
    return ParallelExperimentRunner(TINY, workers=1, **kwargs)


def tiny_session(**kwargs) -> Session:
    return Session(TINY, workers=1, **kwargs)


def unsharded(specs):
    """The serial tier's result: the reference every sharded run matches."""
    return tiny_session(executor="serial").collect(specs)


def sharded(name, specs, shard_count, *, force=False, **executor_kwargs):
    """Plan, work and merge *specs* through the sharded executor."""
    return tiny_session(force=force, executor=ShardedExecutor(
        shards=shard_count, **executor_kwargs)).collect(specs, name=name)


def canonical_runs(experiment, config) -> str:
    """The artifact 'runs' array exactly as it would be written to disk."""
    return json.dumps(experiment_to_artifact("x", experiment, config)["runs"],
                      sort_keys=True)


class TestPartition:
    def test_balanced_contiguous(self):
        assert partition_bounds(6, 2) == [(0, 3), (3, 6)]
        assert partition_bounds(7, 3) == [(0, 3), (3, 5), (5, 7)]
        assert partition_bounds(2, 5) == [(0, 1), (1, 2), (2, 2), (2, 2),
                                          (2, 2)]

    def test_sizes_differ_by_at_most_one(self):
        for total in range(0, 20):
            for count in range(1, 8):
                sizes = [end - start
                         for start, end in partition_bounds(total, count)]
                assert sum(sizes) == total
                assert max(sizes) - min(sizes) <= 1

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError, match="shard_count"):
            partition_bounds(4, 0)


class TestCostPartition:
    """Satellite: `shard plan --balance cost` weighs specs, not counts."""

    def test_contiguous_and_complete(self):
        for costs in ([5, 5, 5, 5], [100, 1, 1, 1, 1, 1], [1, 1, 100],
                      [3, 7, 2, 9, 4, 4, 8], []):
            for count in range(1, 6):
                bounds = partition_bounds_by_cost(costs, count)
                assert len(bounds) == count
                assert bounds[0][0] == 0 and bounds[-1][1] == len(costs)
                for (_, end), (start, _) in zip(bounds, bounds[1:]):
                    assert end == start

    def test_equal_costs_reduce_to_near_even_counts(self):
        sizes = [end - start
                 for start, end in partition_bounds_by_cost([7] * 10, 3)]
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1

    def test_skewed_costs_balance_better_than_counts(self):
        # One expensive spec followed by many cheap ones: a count split
        # puts the expensive one *plus* half the cheap ones on shard 0.
        costs = [100] + [10] * 10
        by_cost = partition_bounds_by_cost(costs, 2)
        by_count = partition_bounds(len(costs), 2)

        def imbalance(bounds):
            totals = [sum(costs[start:end]) for start, end in bounds]
            return max(totals) - min(totals)

        assert imbalance(by_cost) < imbalance(by_count)

    def test_zero_total_cost_falls_back_to_counts(self):
        assert partition_bounds_by_cost([0, 0, 0, 0], 2) == \
            partition_bounds(4, 2)

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError, match="shard_count"):
            partition_bounds_by_cost([1, 2], 0)

    def test_estimate_tracks_scale_and_workload(self):
        spec = RunSpec("mmap", "seqRd")
        cost = estimate_spec_cost(spec, TINY)
        assert TINY.min_accesses <= cost <= TINY.max_accesses
        wider = ExperimentScale(capacity_scale=1 / 512, min_accesses=1,
                                max_accesses=10 ** 9)
        # Unclamped, the update workload (more instructions in Table III
        # than the microbenchmarks) must cost more than seqRd.
        assert estimate_spec_cost(RunSpec("oracle", "update"), wider) > \
            estimate_spec_cost(RunSpec("oracle", "seqRd"), wider)

    def test_plan_rejects_unknown_balance(self):
        runner = tiny_runner()
        with pytest.raises(ValueError, match="balance"):
            plan_shards("exp", matrix_specs(["mmap"], ["seqRd"]),
                        runner.config, TINY, 1, balance="fastest")

    def test_balance_modes_get_distinct_experiment_ids(self):
        runner = tiny_runner()
        specs = matrix_specs(PLATFORMS, WORKLOADS)
        by_count = plan_shards("exp", specs, runner.config, TINY, 2)
        by_cost = plan_shards("exp", specs, runner.config, TINY, 2,
                              balance="cost")
        # Different partitions must never alias into one mergeable plan.
        assert by_count[0]["experiment_id"] != by_cost[0]["experiment_id"]
        assert by_cost[0]["balance"] == "cost"

    @pytest.mark.parametrize("shards", [1, 2, 5])
    def test_cost_balanced_merge_is_golden(self, shards):
        """Merge exactness holds for the cost partition, like for count."""
        runner = tiny_runner()
        specs = matrix_specs(PLATFORMS, WORKLOADS)
        expected = canonical_runs(unsharded(specs), runner.config)
        manifests = plan_shards("golden-cost", specs, runner.config, TINY,
                                shards, balance="cost")
        indices = [entry["index"] for manifest in manifests
                   for entry in manifest["specs"]]
        assert indices == list(range(len(specs)))
        results = [execute_shard(manifest, workers=1)
                   for manifest in manifests]
        merged = merge_shards(results)
        assert canonical_runs(merged.result, runner.config) == expected


class TestManifests:
    def test_plan_layout(self):
        runner = tiny_runner()
        specs = matrix_specs(PLATFORMS, WORKLOADS)
        manifests = plan_shards("exp", specs, runner.config, TINY, 2)
        assert len(manifests) == 2
        for shard_index, manifest in enumerate(manifests):
            validate_manifest(manifest)
            assert manifest["schema"] == SHARD_MANIFEST_SCHEMA
            assert manifest["shard_index"] == shard_index
            assert manifest["shard_count"] == 2
            assert manifest["experiment"] == "exp"
        indices = [entry["index"]
                   for manifest in manifests
                   for entry in manifest["specs"]]
        assert indices == list(range(len(specs)))
        for manifest in manifests:
            for entry in manifest["specs"]:
                spec = RunSpec.from_dict(entry["spec"])
                assert entry["key"] == run_cache_key(spec, runner.config,
                                                     TINY)

    def test_spec_round_trip_preserves_label_and_overrides(self):
        spec = RunSpec("hams-TE", "seqRd", dataset_bytes_override=1 << 22,
                       config_overrides={"hams": {"mos_page_bytes": KB(4)}},
                       platform_kwargs={"capacity_bytes": 1 << 26},
                       label="4KB")
        rebuilt = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec
        assert rebuilt.result_key == ("4KB", "seqRd")

    def test_experiment_id_digests_the_whole_plan(self):
        runner = tiny_runner()
        specs = matrix_specs(PLATFORMS, WORKLOADS)
        base = experiment_id_of("exp", specs, runner.config, TINY, 2)
        assert base == experiment_id_of("exp", specs, runner.config, TINY, 2)
        assert base != experiment_id_of("other", specs, runner.config,
                                        TINY, 2)
        assert base != experiment_id_of("exp", specs[:-1], runner.config,
                                        TINY, 2)
        assert base != experiment_id_of("exp", specs, runner.config, TINY, 3)
        other_scale = ExperimentScale(capacity_scale=1 / 512,
                                      min_accesses=120, max_accesses=240,
                                      seed=7)
        assert base != experiment_id_of("exp", specs, runner.config,
                                        other_scale, 2)

    def test_validate_rejects_bad_payloads(self):
        with pytest.raises(ValueError, match="unsupported shard manifest"):
            validate_manifest({"schema": "nope/1"})
        runner = tiny_runner()
        manifest = plan_shards("exp", matrix_specs(["mmap"], ["seqRd"]),
                               runner.config, TINY, 1)[0]
        broken = dict(manifest)
        del broken["config_hash"]
        with pytest.raises(ValueError, match="missing fields"):
            validate_manifest(broken)
        out_of_range = dict(manifest)
        out_of_range["shard_index"] = 5
        with pytest.raises(ValueError, match="out of range"):
            validate_manifest(out_of_range)


class TestMergeExactness:
    """Acceptance criterion: sharded == unsharded, bit for bit."""

    @pytest.mark.parametrize("shards", [1, 2, 5])
    def test_golden_against_unsharded(self, shards):
        runner = tiny_runner()
        specs = matrix_specs(PLATFORMS, WORKLOADS)
        expected = canonical_runs(unsharded(specs), runner.config)
        merged = sharded("golden", specs, shards)
        assert canonical_runs(merged, runner.config) == expected

    def test_shard_execution_order_is_irrelevant(self, tmp_path):
        runner = tiny_runner()
        specs = matrix_specs(PLATFORMS, WORKLOADS)
        expected = canonical_runs(unsharded(specs), runner.config)
        manifests = plan_shards("golden", specs, runner.config, TINY, 3)
        # Execute the shards back to front, merge the results shuffled.
        results = [execute_shard(manifest, cache_dir=tmp_path / "cache",
                                 workers=1)
                   for manifest in reversed(manifests)]
        merged = merge_shards([results[1], results[0], results[2]])
        assert canonical_runs(merged.result, runner.config) == expected

    def test_sweep_labels_survive_sharding(self):
        runner = tiny_runner()
        specs = [RunSpec("hams-TE", "seqRd",
                         config_overrides={"hams": {"mos_page_bytes": size}},
                         label=label)
                 for size, label in ((KB(4), "4KB"), (KB(128), "128KB"))]
        expected = canonical_runs(unsharded(specs), runner.config)
        merged = sharded("sweep", specs, 2)
        assert canonical_runs(merged, runner.config) == expected
        assert ("4KB", "seqRd") in merged.results


class TestResume:
    def test_killed_worker_resumes_from_cache(self, tmp_path, monkeypatch):
        runner = tiny_runner()
        specs = matrix_specs(PLATFORMS, WORKLOADS)
        expected = canonical_runs(unsharded(specs), runner.config)
        manifest = plan_shards("resume", specs, runner.config, TINY, 1)[0]
        cache_dir = tmp_path / "cache"

        real = parallel_module.execute_spec
        calls = {"n": 0}

        def dies_after_three(*args, **kwargs):
            if calls["n"] >= 3:
                raise RuntimeError("worker killed")
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(parallel_module, "execute_spec",
                            dies_after_three)
        with pytest.raises(RuntimeError, match="worker killed"):
            execute_shard(manifest, cache_dir=cache_dir, workers=1)
        monkeypatch.setattr(parallel_module, "execute_spec", real)

        # The three finished runs were streamed into the cache before the
        # crash; the restarted worker loads them and only executes the rest.
        result = execute_shard(manifest, cache_dir=cache_dir, workers=1)
        assert result["cache_hits"] == 3
        assert result["cache_misses"] == len(specs) - 3
        assert [run["index"] for run in result["runs"]] == \
            list(range(len(specs)))
        merged = merge_shards([result])
        assert canonical_runs(merged.result, runner.config) == expected

    def test_partially_written_cache_entry_recovers(self, tmp_path):
        """Satellite: a torn JSON entry is a miss, then healed by store."""
        session = tiny_session(cache_dir=tmp_path)
        spec = RunSpec("mmap", "seqRd")
        [result] = session.run([spec])
        path = session.runner.cache.path_for(session.runner.cache_key(spec))
        complete = path.read_text(encoding="utf-8")
        path.write_text(complete[:len(complete) // 2], encoding="utf-8")

        fresh = tiny_session(cache_dir=tmp_path)
        recovered = fresh.run([spec])
        assert fresh.runner.cache.hits == 0 and fresh.runner.cache.misses == 1
        assert recovered == [result]
        # The re-run healed the entry (atomically), so it hits again.
        assert json.loads(path.read_text(encoding="utf-8"))["schema"]
        again = tiny_session(cache_dir=tmp_path)
        assert again.run([spec]) == [result]
        assert again.runner.cache.hits == 1

    def test_store_is_atomic_under_a_crashed_rename(self, tmp_path,
                                                    monkeypatch):
        """A store that dies before the rename leaves no partial entry."""
        runner = tiny_runner()
        spec = RunSpec("mmap", "seqRd")
        [result] = tiny_session().run([spec])
        cache = RunCache(tmp_path)
        key = run_cache_key(spec, runner.config, TINY)

        import repro.runner.artifacts as artifacts_module

        def crash(src, dst):
            raise OSError("killed mid-store")

        monkeypatch.setattr(artifacts_module.os, "replace", crash)
        with pytest.raises(OSError, match="killed mid-store"):
            cache.store(key, spec, result)
        monkeypatch.undo()
        # Nothing at the final path, no stray temp files left behind.
        assert cache.load(key) is None
        assert list(tmp_path.iterdir()) == []


class TestSpool:
    def _spooled(self, tmp_path, shard_count=2):
        runner = tiny_runner()
        specs = matrix_specs(["mmap", "hams-TE"], ["seqRd"])
        manifests = plan_shards("spooled", specs, runner.config, TINY,
                                shard_count)
        spool = ShardSpool(tmp_path / "spool").prepare()
        spool.add_manifests(manifests)
        return spool, specs, runner

    def test_claim_is_exclusive(self, tmp_path):
        spool, _, _ = self._spooled(tmp_path)
        first = spool.claim_next("worker-a")
        second = spool.claim_next("worker-b")
        assert first.shard_index != second.shard_index
        assert spool.claim_next("worker-c") is None
        assert first.payload["claim"]["owner"] == "worker-a"

    def test_lost_rename_race_moves_to_next_shard(self, tmp_path,
                                                  monkeypatch):
        spool, _, _ = self._spooled(tmp_path)
        real_replace = spool_module.os.replace
        raced = {"done": False}

        def lose_first_race(src, dst):
            if not raced["done"]:
                raced["done"] = True
                raise FileNotFoundError(src)  # another worker won shard 0
            return real_replace(src, dst)

        monkeypatch.setattr(spool_module.os, "replace", lose_first_race)
        claim = spool.claim_next("worker-b")
        assert claim.shard_index == 1

    def test_release_returns_shard_to_pending(self, tmp_path):
        spool, _, _ = self._spooled(tmp_path)
        claim = spool.claim_next("worker-a")
        spool.release(claim)
        status = spool.status()
        labels = sorted(status.pending)
        assert [label.rsplit(":", 1)[-1] for label in labels] == \
            ["0000", "0001"]
        assert all(label.startswith("spooled#") for label in labels)
        assert not status.running
        reclaimed = spool.claim_next("worker-b")
        assert "claim" in reclaimed.payload
        assert reclaimed.payload["claim"]["owner"] == "worker-b"

    def test_work_spool_drains_and_status_completes(self, tmp_path):
        spool, specs, runner = self._spooled(tmp_path)
        published = work_spool(spool, owner="worker-a", workers=1)
        assert len(published) == 2
        status = spool.status()
        assert status.complete
        assert [label.rsplit(":", 1)[-1]
                for label in sorted(status.done)] == ["0000", "0001"]
        merged = merge_shards(spool.load_results())
        assert merged.hosts == ["worker-a", "worker-a"]
        expected = canonical_runs(unsharded(specs), runner.config)
        assert canonical_runs(merged.result, runner.config) == expected

    def test_failed_shard_is_released_before_the_error_surfaces(
            self, tmp_path, monkeypatch):
        spool, _, _ = self._spooled(tmp_path)

        def boom(*args, **kwargs):
            raise RuntimeError("host lost power")

        monkeypatch.setattr(parallel_module, "execute_spec", boom)
        with pytest.raises(RuntimeError, match="host lost power"):
            work_spool(spool, owner="worker-a")
        status = spool.status()
        assert [label.rsplit(":", 1)[-1]
                for label in sorted(status.pending)] == ["0000", "0001"]
        assert not status.running

    def test_force_reexecutes_published_shard_results(self, tmp_path):
        """force must refresh shard artifacts, not return stale ones."""
        runner = tiny_runner()
        spool_dir = tmp_path / "spool"
        specs = matrix_specs(["mmap"], ["seqRd"])
        expected = canonical_runs(unsharded(specs), runner.config)
        sharded("forced", specs, 1, spool_dir=spool_dir)
        # Poison the published shard result and drop its progress records
        # (a worker that published without them): a non-forced re-run
        # consumes the artifact as published, a forced one recomputes it.
        spool = ShardSpool(spool_dir)
        result_path = spool.result_paths()[0]
        poisoned = json.loads(result_path.read_text(encoding="utf-8"))
        poisoned["runs"][0]["result"]["total_ns"] *= 1000
        result_path.write_text(json.dumps(poisoned), encoding="utf-8")
        spool.progress_path(result_path.name).unlink()
        stale = sharded("forced", specs, 1, spool_dir=spool_dir)
        assert canonical_runs(stale, runner.config) != expected
        fresh = sharded("forced", specs, 1, spool_dir=spool_dir, force=True)
        assert canonical_runs(fresh, runner.config) == expected
        # The forced run re-published a healed shard artifact.
        assert json.loads(result_path.read_text(encoding="utf-8")) \
            != poisoned

    def test_spool_is_reusable_across_plans(self, tmp_path):
        """Two experiments can share one spool without cross-talk."""
        runner = tiny_runner()
        spool_dir = tmp_path / "spool"
        specs_a = matrix_specs(["mmap"], ["seqRd"])
        specs_b = matrix_specs(["hams-TE"], ["seqRd"])
        merged_a = sharded("plan-a", specs_a, 2, spool_dir=spool_dir)
        merged_b = sharded("plan-b", specs_b, 2, spool_dir=spool_dir)
        assert canonical_runs(merged_a, runner.config) == \
            canonical_runs(unsharded(specs_a), runner.config)
        assert canonical_runs(merged_b, runner.config) == \
            canonical_runs(unsharded(specs_b), runner.config)
        # Both plans' shard artifacts coexist under unique names.
        assert len(ShardSpool(spool_dir).result_paths()) == 4

    def test_claim_filter_leaves_foreign_plans_alone(self, tmp_path):
        runner = tiny_runner()
        spool = ShardSpool(tmp_path / "spool").prepare()
        plan_a = plan_shards("plan-a", matrix_specs(["mmap"], ["seqRd"]),
                             runner.config, TINY, 1)
        plan_b = plan_shards("plan-b", matrix_specs(["hams-TE"], ["seqRd"]),
                             runner.config, TINY, 1)
        spool.add_manifests(plan_a)
        spool.add_manifests(plan_b)
        claim = spool.claim_next(
            "worker-a", experiment_id=plan_b[0]["experiment_id"])
        assert claim.payload["experiment"] == "plan-b"
        assert spool.claim_next(
            "worker-a", experiment_id=plan_b[0]["experiment_id"]) is None
        # plan-a's shard is still pending, untouched.
        pending = spool.status().pending
        assert len(pending) == 1
        assert pending[0].startswith("plan-a#")
        assert pending[0].endswith(":0000")

    def test_sharded_run_waits_for_a_foreign_workers_shard(self, tmp_path):
        """A shard claimed by another host is waited for, not merged around."""
        import threading
        import time as time_module

        runner = tiny_runner()
        specs = matrix_specs(["mmap", "hams-TE"], ["seqRd"])
        manifests = plan_shards("waited", specs, runner.config, TINY, 2)
        spool = ShardSpool(tmp_path / "spool").prepare()
        spool.add_manifests(manifests)
        claim = spool.claim_next("foreign-host")
        assert claim is not None

        def foreign_worker():
            time_module.sleep(0.2)
            spool.finish(claim, execute_shard(
                claim.payload, cache_dir=spool.cache_dir, workers=1,
                owner="foreign-host"))

        thread = threading.Thread(target=foreign_worker)
        thread.start()
        try:
            merged = sharded("waited", specs, 2, spool_dir=spool.root)
        finally:
            thread.join()
        assert canonical_runs(merged, runner.config) == \
            canonical_runs(unsharded(specs), runner.config)

    def test_replanning_skips_claimed_and_done_shards(self, tmp_path):
        spool, specs, runner = self._spooled(tmp_path)
        manifests = plan_shards("spooled", specs, runner.config, TINY, 2)
        claim = spool.claim_next("worker-a")
        spool.finish(claim, execute_shard(claim.payload,
                                          cache_dir=spool.cache_dir,
                                          workers=1, owner="worker-a"))
        other = spool.claim_next("worker-b")
        assert other is not None
        written = spool.add_manifests(manifests)
        # One shard is done, the other is claimed: nothing to re-queue.
        assert written == []
        assert spool.claim_next("worker-c") is None
        # worker-b still holds an unfinished claim, so the plan is live.
        assert spool.outstanding(manifests[0]["experiment_id"])

    def test_malformed_pending_manifest_is_skipped_not_orphaned(
            self, tmp_path):
        spool, _, _ = self._spooled(tmp_path)
        bad = spool.pending_dir / "shard-deadbeef-0000.json"
        bad.write_text("{not json", encoding="utf-8")
        drained = work_spool(spool, owner="worker-a", workers=1)
        assert len(drained) == 2  # both healthy shards executed
        # The malformed file never became an unowned claim: it stays in
        # pending/, visible to the operator under its file name.
        assert bad.exists()
        assert "shard-deadbeef-0000" in spool.status().pending

    def test_execute_shard_file_recovers_an_orphaned_claim(self, tmp_path):
        spool, specs, runner = self._spooled(tmp_path)
        claim = spool.claim_next("worker-a")  # worker dies here
        published = execute_shard_file(claim.path, spool, workers=1,
                                       owner="worker-b")
        assert published.parent == spool.results_dir
        assert not claim.path.exists()
        work_spool(spool, owner="worker-b", workers=1)
        assert spool.status().complete


class TestCoordinator:
    def _results(self, tmp_path, shard_count=2):
        runner = tiny_runner()
        specs = matrix_specs(["mmap", "hams-TE"], ["seqRd"])
        manifests = plan_shards("exp", specs, runner.config, TINY,
                                shard_count)
        return [execute_shard(manifest, cache_dir=tmp_path / "cache",
                              workers=1, owner=f"host-{index}")
                for index, manifest in enumerate(manifests)]

    def test_merged_artifact_carries_shard_provenance(self, tmp_path):
        merged = merge_shards(self._results(tmp_path))
        payload = merged.artifact_payload()
        assert payload["schema"] == "repro.experiment/1"
        assert payload["meta"]["sharded"]["shard_count"] == 2
        assert payload["meta"]["sharded"]["hosts"] == ["host-0", "host-1"]
        assert payload["meta"]["sharded"]["experiment_id"].startswith(
            "sha256:")

    def test_rejects_wrong_schema(self, tmp_path):
        results = self._results(tmp_path)
        results[0]["schema"] = "repro.experiment/1"
        with pytest.raises(ValueError, match="unsupported shard result"):
            merge_shards(results)

    def test_rejects_mixed_plans(self, tmp_path):
        results = self._results(tmp_path)
        results[1]["experiment_id"] = "sha256:" + "0" * 64
        with pytest.raises(ValueError, match="disagree on 'experiment_id'"):
            merge_shards(results)

    def test_rejects_missing_shard(self, tmp_path):
        results = self._results(tmp_path)
        with pytest.raises(ValueError, match=r"missing shard\(s\) \[1\]"):
            merge_shards(results[:1])

    def test_rejects_duplicate_shard(self, tmp_path):
        results = self._results(tmp_path)
        with pytest.raises(ValueError, match="duplicate shard"):
            merge_shards([results[0], results[0], results[1]])

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError, match="no shard results"):
            merge_shards([])

    def test_rejects_truncated_runs_array(self, tmp_path):
        """A torn shard result must not merge into a short artifact."""
        results = self._results(tmp_path)
        results[0]["runs"] = []
        with pytest.raises(ValueError, match="truncated"):
            merge_shards(results)

    def test_rejects_duplicated_run_indices(self, tmp_path):
        results = self._results(tmp_path)
        results[1]["runs"] = list(results[0]["runs"])
        with pytest.raises(ValueError, match="exactly once"):
            merge_shards(results)


class TestWorkerValidation:
    def test_tampered_config_is_refused(self, tmp_path):
        runner = tiny_runner()
        manifest = plan_shards("exp", matrix_specs(["mmap"], ["seqRd"]),
                               runner.config, TINY, 1)[0]
        manifest = json.loads(json.dumps(manifest))
        manifest["config"]["hams"]["tag_check_ns"] = 99.0
        with pytest.raises(ValueError, match="reconstructed config hashes"):
            execute_shard(manifest, cache_dir=tmp_path, workers=1)

    def test_tampered_spec_key_is_refused(self, tmp_path):
        runner = tiny_runner()
        manifest = plan_shards("exp", matrix_specs(["mmap"], ["seqRd"]),
                               runner.config, TINY, 1)[0]
        manifest = json.loads(json.dumps(manifest))
        manifest["specs"][0]["key"] = "0" * 64
        with pytest.raises(ValueError, match="content-addresses"):
            execute_shard(manifest, cache_dir=tmp_path, workers=1)

    def test_empty_shard_produces_empty_result(self, tmp_path):
        runner = tiny_runner()
        specs = matrix_specs(["mmap"], ["seqRd"])
        manifests = plan_shards("exp", specs, runner.config, TINY, 3)
        results = [execute_shard(manifest, cache_dir=tmp_path / "cache",
                                 workers=1)
                   for manifest in manifests]
        assert [len(result["runs"]) for result in results] == [1, 0, 0]
        merged = merge_shards(results)
        assert canonical_runs(merged.result, runner.config) == \
            canonical_runs(unsharded(specs), runner.config)
        assert merged.result.scale == TINY

    def test_result_schema(self, tmp_path):
        runner = tiny_runner()
        manifest = plan_shards("exp", matrix_specs(["mmap"], ["seqRd"]),
                               runner.config, TINY, 1)[0]
        result = execute_shard(manifest, cache_dir=tmp_path, workers=1,
                               owner="me")
        assert result["schema"] == SHARD_RESULT_SCHEMA
        assert result["host"] == "me"
        assert result["experiment_id"] == manifest["experiment_id"]
        assert result["runs"][0]["operations_per_second"] > 0
