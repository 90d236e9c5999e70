"""The public repro.api facade: Session and the one-shot conveniences."""

import pytest

import repro
from repro.api import (
    Session,
    compare,
    platforms,
    simulate,
    sweep,
    workloads,
)
from repro.exec import ShardedExecutor
from repro.runner.artifacts import run_result_to_dict
from repro.platforms.registry import PLATFORM_NAMES, available_platforms
from repro.runner.specs import RunSpec
from repro.units import KB
from repro.workloads.registry import ExperimentScale, all_workload_names

#: Tiny scale so the facade tests run in milliseconds per replay.
SCALE = ExperimentScale(capacity_scale=1 / 256, min_accesses=100,
                        max_accesses=200)


@pytest.fixture(scope="module")
def session():
    return Session(SCALE, workers=1)


class TestSession:
    def test_simulate_matches_runner(self, session):
        result = session.simulate("oracle", "seqRd")
        [(_, reference, _, _)] = session.runner.iter_specs(
            [RunSpec("oracle", "seqRd")])
        assert result == reference
        assert result.platform == "oracle"
        assert result.operations_per_second > 0

    def test_compare_builds_full_matrix(self, session):
        experiment = session.compare(["mmap", "oracle"], ["seqRd", "update"])
        assert set(experiment.results) == {
            ("mmap", "seqRd"), ("mmap", "update"),
            ("oracle", "seqRd"), ("oracle", "update")}
        assert experiment.mean_speedup("oracle", "mmap") > 1.0

    def test_sweep_labels_runs(self, session):
        experiment = session.sweep("hams-TE", ["update"], "hams",
                                   "mos_page_bytes", [KB(4), KB(128)],
                                   labels=["4KB", "128KB"])
        assert sorted(experiment.platforms()) == ["128KB", "4KB"]
        assert experiment.get("4KB", "update").operations_per_second > 0

    def test_sweep_default_labels_and_validation(self, session):
        experiment = session.sweep("hams-TE", ["update"], "hams",
                                   "mos_page_bytes", [KB(4)])
        assert experiment.platforms() == [str(KB(4))]
        with pytest.raises(ValueError):
            session.sweep("hams-TE", ["update"], "hams", "mos_page_bytes",
                          [KB(4)], labels=["a", "b"])

    def test_run_and_collect_take_explicit_specs(self, session):
        specs = [RunSpec("oracle", "seqRd"), RunSpec("mmap", "seqRd")]
        results = session.run(specs)
        assert [result.platform for result in results] == ["oracle", "mmap"]
        experiment = session.collect(specs)
        assert set(experiment.results) == {("oracle", "seqRd"),
                                           ("mmap", "seqRd")}

    def test_list_verbs_ride_the_session_executor(self, monkeypatch):
        """run/simulate on a serial session never fork a process pool."""
        from repro.runner import parallel as parallel_module

        def no_pool():
            raise AssertionError("the serial tier must not fork a pool")

        monkeypatch.setattr(parallel_module, "_pool_context", no_pool)
        serial = Session(SCALE, workers=2, executor="serial")
        results = serial.run([RunSpec("oracle", "seqRd"),
                              RunSpec("mmap", "seqRd")])
        assert [result.platform for result in results] == ["oracle", "mmap"]
        assert serial.simulate("oracle", "seqRd") == results[0]

    def test_context_accessors(self, session):
        assert session.scale == SCALE
        assert session.workers == 1
        assert session.config.nvdimm.capacity_bytes > 0
        assert len(session.trace("seqRd")) >= 100

    def test_simulate_forwards_spec_knobs(self, session):
        stressed = session.simulate(
            "oracle", "seqRd", dataset_bytes_override=KB(512),
            platform_kwargs={"capacity_bytes": KB(1024)})
        assert stressed.operations_per_second > 0


class TestModuleLevelHelpers:
    def test_simulate_one_shot(self):
        result = simulate("oracle", "seqRd", scale=SCALE, workers=1)
        assert result.platform == "oracle"

    def test_compare_one_shot(self):
        experiment = compare(["oracle"], ["seqRd"], scale=SCALE, workers=1)
        assert ("oracle", "seqRd") in experiment.results

    def test_sweep_one_shot(self):
        experiment = sweep("hams-TE", ["update"], "hams", "mos_page_bytes",
                           [KB(128)], labels=["128KB"], scale=SCALE,
                           workers=1)
        assert experiment.platforms() == ["128KB"]

    def test_axis_helpers(self):
        assert platforms() == available_platforms()
        assert platforms(figure_order=True) == list(PLATFORM_NAMES)
        assert workloads() == all_workload_names()


def _as_dicts(experiment):
    return {key: run_result_to_dict(result)
            for key, result in experiment.results.items()}


class TestShardedFacade:
    def test_sharded_executor_matches_compare(self, session):
        direct = session.compare(["mmap", "oracle"], ["seqRd", "update"])
        sharded = Session(SCALE, workers=1,
                          executor=ShardedExecutor(shards=3)).compare(
            ["mmap", "oracle"], ["seqRd", "update"])
        assert _as_dicts(sharded) == _as_dicts(direct)

    def test_session_default_shards_routes_every_verb(self, session,
                                                      monkeypatch):
        sharded_session = Session(SCALE, workers=1,
                                  executor=ShardedExecutor(shards=2))
        direct = session.compare(["mmap", "oracle"], ["seqRd"])
        assert _as_dicts(sharded_session.compare(
            ["mmap", "oracle"], ["seqRd"])) == _as_dicts(direct)
        assert _as_dicts(sharded_session.collect(
            [RunSpec("mmap", "seqRd"), RunSpec("oracle", "seqRd")])) == \
            _as_dicts(direct)
        # The single-spec and list verbs ride the session's tier too.
        submitted = []
        real_submit = ShardedExecutor.submit

        def spy(executor, specs, ctx):
            submitted.append(ctx.name)
            return real_submit(executor, specs, ctx)

        monkeypatch.setattr(ShardedExecutor, "submit", spy)
        assert sharded_session.simulate("mmap", "seqRd") == \
            direct.get("mmap", "seqRd")
        assert sharded_session.run([RunSpec("oracle", "seqRd")]) == \
            [direct.get("oracle", "seqRd")]
        assert submitted == ["simulate", "run"]

    def test_sweep_accepts_shards(self, session):
        direct = session.sweep("hams-TE", ["update"], "hams",
                               "mos_page_bytes", [KB(4), KB(128)],
                               labels=["4KB", "128KB"])
        sharded = Session(SCALE, workers=1,
                          executor=ShardedExecutor(shards=2)).sweep(
            "hams-TE", ["update"], "hams", "mos_page_bytes",
            [KB(4), KB(128)], labels=["4KB", "128KB"])
        assert _as_dicts(sharded) == _as_dicts(direct)

    def test_sharded_session_honors_its_cache_dir(self, tmp_path,
                                                  monkeypatch):
        cache_dir = tmp_path / "cache"
        first = Session(SCALE, workers=1, executor="sharded",
                        cache_dir=cache_dir)
        expected = _as_dicts(first.compare(["mmap", "oracle"], ["seqRd"]))
        assert list(cache_dir.glob("*.json"))

        # A later sharded session over the same cache resolves every run
        # from it without executing anything.
        from repro.runner import parallel as parallel_module

        def boom(*args, **kwargs):
            raise AssertionError("cached sharded run must not re-execute")

        monkeypatch.setattr(parallel_module, "execute_spec", boom)
        replay = Session(SCALE, workers=1, executor="sharded",
                         cache_dir=cache_dir)
        assert _as_dicts(replay.compare(["mmap", "oracle"],
                                        ["seqRd"])) == expected

    def test_shards_zero_means_unsharded(self):
        """Sharding is opt-in via the executor; a count below 1 is refused."""
        session = Session(SCALE, workers=1)
        experiment = session.compare(["mmap"], ["seqRd"])
        assert ("mmap", "seqRd") in experiment.results
        assert session.submit([]).executor == "pool"
        with pytest.raises(ValueError, match="shard count"):
            ShardedExecutor(shards=0)

    def test_sharded_executor_keeps_spool_artifacts(self, tmp_path):
        Session(SCALE, workers=1, executor=ShardedExecutor(
            shards=2, spool_dir=tmp_path / "spool")).compare(
            ["mmap"], ["seqRd"])
        results = sorted(
            (tmp_path / "spool" / "results").glob("shard-*.json"))
        assert len(results) == 2


class TestTopLevelExports:
    def test_facade_reexported_from_repro(self):
        assert repro.Session is Session
        assert repro.simulate is simulate
        assert repro.compare is compare
        assert repro.sweep is sweep
        assert repro.ShardedExecutor is ShardedExecutor
        assert not hasattr(repro, "ExperimentRunner")

    def test_batch_protocol_exported(self):
        for name in ("AccessStream", "MemoryRequestBatch",
                     "MemoryServiceBatch"):
            assert hasattr(repro, name), name
        assert not hasattr(repro, "MemoryServiceResult")
