"""Tests for the unified executor layer (:mod:`repro.exec`).

The load-bearing contracts, in order of importance:

1. **Tier parity** — ``ExperimentHandle.result()`` is bit-identical (as
   canonically serialised) to the serial reference tier on the serial,
   pool and sharded executors, for the same specs.
2. **Exactly-once streaming** — ``iter_results()`` yields every run
   exactly once, in completion order, with correct cache-hit flags.
3. **Clean cancellation** — ``cancel()`` mid-matrix stops between runs,
   leaves the content-addressed cache (and any spool claims) consistent,
   and a resumed ``submit()`` completes from cache.
4. **Observability** — ``progress()`` advances monotonically to done,
   ``events()`` carries the typed records, and the ``repro.events/1``
   JSONL artifact round-trips.
"""

from __future__ import annotations

import json
import threading
import time as time_module

import pytest

from repro.api import Session, compare
from repro.distrib import (
    ShardSpool,
    execute_shard,
    plan_shards,
    shard_file_name,
    work_spool,
)
from repro.exec import (
    EVENTS_SCHEMA,
    CancelToken,
    Event,
    ExperimentCancelled,
    Executor,
    PoolExecutor,
    SerialExecutor,
    ShardedExecutor,
    read_events,
    resolve_executor,
)
from repro.runner.artifacts import experiment_to_artifact
from repro.runner.specs import RunSpec, matrix_specs
from repro.workloads.registry import ExperimentScale

#: Small enough for sub-second matrices, large enough for real replay work.
TINY = ExperimentScale(capacity_scale=1 / 512, min_accesses=120,
                       max_accesses=240)
#: >= 3 platforms — the acceptance criterion's parity matrix.
PLATFORMS = ["mmap", "hams-TE", "oracle"]
WORKLOADS = ["seqRd", "update"]

EXECUTORS = ["serial", "pool", "sharded"]


def tiny_session(**kwargs) -> Session:
    return Session(TINY, workers=1, **kwargs)


def canonical_runs(experiment) -> str:
    """The artifact 'runs' array exactly as it would be written to disk."""
    config = tiny_session().config
    return json.dumps(experiment_to_artifact("x", experiment, config)["runs"],
                      sort_keys=True)


def reference_runs(specs) -> str:
    """The serial tier's canonical runs: the reference every tier matches."""
    return canonical_runs(tiny_session(executor="serial").collect(specs))


@pytest.fixture()
def specs():
    return matrix_specs(PLATFORMS, WORKLOADS)


class TestExecutorParity:
    """Acceptance criterion: every tier folds to the identical result."""

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_result_is_bit_identical_to_blocking_collect(self, executor,
                                                         specs):
        expected = reference_runs(specs)
        session = tiny_session(executor=executor)
        handle = session.submit(specs, name="parity")
        assert canonical_runs(handle.result()) == expected

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_blocking_verbs_ride_the_executor(self, executor, specs):
        """collect/compare are thin consumers of submit() on every tier."""
        expected = reference_runs(specs)
        session = tiny_session(executor=executor)
        assert canonical_runs(session.collect(specs)) == expected
        assert canonical_runs(
            session.compare(PLATFORMS, WORKLOADS)) == expected

    def test_sweep_labels_survive_every_tier(self):
        baseline = None
        for executor in EXECUTORS:
            session = tiny_session(executor=executor)
            experiment = session.sweep(
                "hams-TE", ["seqRd"], "hams", "mos_page_bytes",
                [4096, 131072], labels=["4KB", "128KB"])
            assert sorted(experiment.platforms()) == ["128KB", "4KB"]
            serialised = canonical_runs(experiment)
            if baseline is None:
                baseline = serialised
            assert serialised == baseline

    def test_pool_executor_with_real_pool_matches(self, specs):
        """workers > 1 exercises imap_unordered streaming, same result."""
        expected = reference_runs(specs)
        session = Session(TINY, workers=2, executor="pool")
        assert canonical_runs(session.submit(specs).result()) == expected

    def test_sharded_executor_with_spool_matches(self, tmp_path, specs):
        expected = reference_runs(specs)
        session = tiny_session(executor=ShardedExecutor(
            shards=3, spool_dir=tmp_path / "spool"))
        assert canonical_runs(session.submit(specs).result()) == expected
        # The spool keeps the shard artifacts behind, like the old tier.
        results = list((tmp_path / "spool" / "results").glob("shard-*.json"))
        assert len(results) == 3
        # ... and per-run progress records for each executed shard.
        progress = list((tmp_path / "spool" / "progress").glob("*.jsonl"))
        assert len(progress) == 3

    def test_one_shot_compare_accepts_the_new_knobs(self, tmp_path):
        """The one-shot compare() takes a configured ShardedExecutor."""
        direct = compare(["mmap", "oracle"], ["seqRd"], scale=TINY,
                         workers=1)
        sharded = compare(["mmap", "oracle"], ["seqRd"], scale=TINY,
                          workers=1, executor=ShardedExecutor(
                              shards=2, spool_dir=tmp_path / "spool",
                              wait_timeout=60.0))
        assert canonical_runs(sharded) == canonical_runs(direct)
        assert list((tmp_path / "spool" / "results").glob("shard-*.json"))


class TestStreaming:
    def test_iter_results_yields_every_run_exactly_once(self, specs):
        handle = tiny_session().submit(specs)
        runs = list(handle.iter_results())
        assert sorted(run.index for run in runs) == list(range(len(specs)))
        assert all(not run.cache_hit for run in runs)
        assert [run.spec for run in runs] == \
            [specs[run.index] for run in runs]
        # Resuming the iterator after exhaustion yields nothing more.
        assert list(handle.iter_results()) == []

    def test_cache_hits_are_flagged(self, tmp_path, specs):
        cache_dir = tmp_path / "cache"
        tiny_session(cache_dir=cache_dir).submit(specs).result()
        handle = tiny_session(cache_dir=cache_dir).submit(specs)
        runs = list(handle.iter_results())
        assert len(runs) == len(specs)
        assert all(run.cache_hit for run in runs)
        assert handle.progress().cache_hits == len(specs)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_mixed_cache_hits_per_tier(self, tmp_path, executor):
        """A partially warm cache flags exactly the warm runs."""
        cache_dir = tmp_path / f"cache-{executor}"
        warm = [RunSpec("mmap", "seqRd")]
        tiny_session(cache_dir=cache_dir).submit(warm).result()
        session = tiny_session(cache_dir=cache_dir, executor=executor)
        specs = [RunSpec("mmap", "seqRd"), RunSpec("oracle", "seqRd")]
        flags = {run.spec.platform: run.cache_hit
                 for run in session.submit(specs).iter_results()}
        assert flags == {"mmap": True, "oracle": False}

    def test_progress_monotonic_to_done(self, specs):
        handle = tiny_session().submit(specs)
        last = -1
        for _ in handle.iter_results():
            snapshot = handle.progress()
            assert snapshot.total == len(specs)
            assert snapshot.completed > last
            last = snapshot.completed
        final = handle.progress()
        assert final.done and final.completed == len(specs)
        assert final.eta_s is None
        assert "6/6" in final.format()

    def test_result_can_be_taken_without_iterating(self, specs):
        assert len(tiny_session().submit(specs).result().results) == \
            len(specs)


class TestEvents:
    def test_serial_event_stream_is_typed_and_ordered(self, specs):
        handle = tiny_session(executor="serial").submit(specs)
        handle.result()
        events = handle.events()
        assert events[0].kind == "submitted"
        assert events[0].executor == "serial"
        assert events[0].total == len(specs)
        per_index = {}
        for event in events[1:]:
            per_index.setdefault(event.index, []).append(event.kind)
        assert per_index == {index: ["start", "finish"]
                             for index in range(len(specs))}

    def test_cache_hit_events(self, tmp_path):
        cache_dir = tmp_path / "cache"
        specs = [RunSpec("mmap", "seqRd")]
        tiny_session(cache_dir=cache_dir).submit(specs).result()
        handle = tiny_session(cache_dir=cache_dir,
                              executor="serial").submit(specs)
        handle.result()
        kinds = [event.kind for event in handle.events()]
        assert kinds == ["submitted", "cache-hit"]

    def test_sharded_events_carry_shard_claims(self, specs):
        handle = tiny_session(executor="sharded").submit(specs)
        handle.result()
        kinds = [event.kind for event in handle.events()]
        assert kinds.count("shard-claimed") == 2
        assert kinds.count("finish") == len(specs)

    def test_events_jsonl_artifact(self, tmp_path, specs):
        events_path = tmp_path / "exp.events.jsonl"
        handle = tiny_session().submit(specs, events_path=events_path)
        handle.result()
        lines = events_path.read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines]
        assert all(record["schema"] == EVENTS_SCHEMA for record in records)
        assert records[0]["kind"] == "submitted"
        finishes = [record for record in records
                    if record["kind"] == "finish"]
        assert sorted(record["index"] for record in finishes) == \
            list(range(len(specs)))
        # Run records never embed the full result (it lives in the cache
        # and the experiment artifact, addressed by "key" when caching).
        assert all("result" not in record for record in records)
        # The tail reader round-trips the artifact.
        events, offset = read_events(events_path)
        assert offset == events_path.stat().st_size
        assert [event.kind for event in events] == \
            [record["kind"] for record in records]

    def test_events_artifact_is_truncated_on_resubmit(self, tmp_path):
        events_path = tmp_path / "exp.events.jsonl"
        specs = [RunSpec("mmap", "seqRd")]
        tiny_session().submit(specs, events_path=events_path).result()
        first = events_path.read_text(encoding="utf-8")
        tiny_session().submit(specs, events_path=events_path).result()
        lines = events_path.read_text(encoding="utf-8").splitlines()
        # Same number of records as the first submission — not doubled.
        assert len(lines) == len(first.splitlines())

    def test_read_events_leaves_incomplete_tail_lines(self, tmp_path):
        path = tmp_path / "progress.jsonl"
        complete = Event(kind="finish", index=0).to_line()
        path.write_text(complete + "\n" + '{"torn', encoding="utf-8")
        events, offset = read_events(path)
        assert [event.index for event in events] == [0]
        assert offset == len(complete) + 1
        # The writer finishes the line; a re-poll picks it up.
        with path.open("a", encoding="utf-8") as handle:
            handle.write('...ignored\n')
        more, _ = read_events(path, offset)
        assert more == []  # malformed completed line is skipped, not fatal


class TestCancellation:
    """Acceptance criterion: cancel() leaves the cache consistent and a
    resumed submit() completes from cache."""

    @pytest.mark.parametrize("executor", ["serial", "pool"])
    def test_cancel_mid_matrix_then_resume_from_cache(self, tmp_path,
                                                      executor, specs):
        cache_dir = tmp_path / "cache"
        expected = reference_runs(specs)

        session = tiny_session(cache_dir=cache_dir, executor=executor)
        handle = session.submit(specs, name="cancelled")
        iterator = handle.iter_results()
        first = next(iterator)
        handle.cancel()
        remaining = list(iterator)
        # Stopped between runs: nothing after the in-flight run.
        assert len(remaining) <= 1
        assert handle.cancelled
        with pytest.raises(ExperimentCancelled, match="cancelled"):
            handle.result()

        # Every finished run is in the cache, bit for bit.
        finished = [first] + remaining
        assert len(list(cache_dir.glob("*.json"))) == len(finished)

        # A resumed submit completes, serving the finished runs from cache.
        resumed = tiny_session(cache_dir=cache_dir,
                               executor=executor).submit(specs)
        runs = {run.index: run for run in resumed.iter_results()}
        assert canonical_runs(resumed.result()) == expected
        for run in finished:
            assert runs[run.index].cache_hit

    def test_cancel_sharded_releases_the_claim(self, tmp_path, specs):
        spool_dir = tmp_path / "spool"
        session = tiny_session(
            executor=ShardedExecutor(spool_dir=spool_dir),
            cache_dir=tmp_path / "cache")
        handle = session.submit(specs, name="cancelled")
        iterator = handle.iter_results()
        next(iterator)  # shard 0 is claimed and executing
        handle.cancel()
        list(iterator)
        with pytest.raises(ExperimentCancelled):
            handle.result()
        status = ShardSpool(spool_dir).status()
        # The interrupted claim went back to pending; nothing is orphaned.
        assert not status.running
        assert len(status.pending) + len(status.done) == 2

        resumed = tiny_session(
            executor=ShardedExecutor(spool_dir=spool_dir),
            cache_dir=tmp_path / "cache")
        expected = reference_runs(specs)
        assert canonical_runs(
            resumed.submit(specs, name="cancelled").result()) == expected

    def test_abandoned_handle_releases_its_claim(self, tmp_path, specs):
        """Dropping a handle mid-shard must not orphan the claim."""
        spool_dir = tmp_path / "spool"
        session = tiny_session(executor=ShardedExecutor(spool_dir=spool_dir))
        handle = session.submit(specs, name="dropped")
        next(handle.iter_results())
        del handle  # generator close -> GeneratorExit -> release
        import gc
        gc.collect()
        assert not ShardSpool(spool_dir).status().running

    def test_cancel_before_first_pump_executes_nothing(self, tmp_path,
                                                       specs):
        cache_dir = tmp_path / "cache"
        handle = tiny_session(cache_dir=cache_dir).submit(specs)
        handle.cancel()
        assert list(handle.iter_results()) == []
        assert list(cache_dir.glob("*.json")) == []


class TestShardedRemoteProgress:
    def test_handle_tails_a_foreign_workers_progress(self, tmp_path, specs):
        """A shard claimed by another host streams in via progress records."""
        spool_dir = tmp_path / "spool"
        expected = reference_runs(specs)
        manifests = plan_shards("remote", specs, tiny_session().config,
                                TINY, 2)
        spool = ShardSpool(spool_dir).prepare()
        spool.add_manifests(manifests)
        claim = spool.claim_next("foreign-host")
        assert claim is not None

        def foreign_worker():
            time_module.sleep(0.2)
            execute_shard(claim.payload, cache_dir=spool.cache_dir,
                          workers=1, owner="foreign-host", spool=spool,
                          claim=claim)

        thread = threading.Thread(target=foreign_worker)
        thread.start()
        try:
            session = tiny_session(
                executor=ShardedExecutor(spool_dir=spool_dir))
            handle = session.submit(specs, name="remote")
            runs = list(handle.iter_results())
        finally:
            thread.join()
        assert canonical_runs(handle.result()) == expected
        remote = [run for run in runs if run.remote]
        assert remote, "the foreign shard's runs must stream in as remote"
        owners = {event.owner for event in handle.events()
                  if event.remote and event.owner}
        assert owners == {"foreign-host"}

    def test_work_spool_emits_progress_records(self, tmp_path, specs):
        manifests = plan_shards("progress", specs, tiny_session().config,
                                TINY, 2)
        spool = ShardSpool(tmp_path / "spool").prepare()
        spool.add_manifests(manifests)
        work_spool(spool, owner="worker-a", workers=1)
        total = 0
        for manifest in manifests:
            path = spool.progress_path(shard_file_name(
                manifest["experiment_id"], manifest["shard_index"]))
            events, _ = read_events(path)
            indices = {event.index for event in events}
            assert len(indices) == len(manifest["specs"])
            assert all(event.key for event in events)
            total += len(indices)
        assert total == len(specs)


class TestExecutorResolution:
    def test_names_resolve(self):
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        assert isinstance(resolve_executor("pool"), PoolExecutor)
        assert isinstance(resolve_executor("sharded"), ShardedExecutor)

    def test_default_depends_on_shards(self):
        """No executor means the pool; sharding is only ever opted into."""
        assert isinstance(resolve_executor(None), PoolExecutor)
        sharded = resolve_executor("sharded")
        assert (sharded.shards, sharded.spool_dir,
                sharded.wait_timeout) == (2, None, None)

    def test_instances_pass_through(self):
        executor = ShardedExecutor(shards=3, balance="cost")
        assert resolve_executor(executor) is executor
        assert isinstance(executor, Executor)

    def test_unknown_name_is_an_error(self):
        with pytest.raises(ValueError, match="unknown executor"):
            resolve_executor("hyperspace")
        with pytest.raises(ValueError, match="unknown executor"):
            resolve_executor(42)  # type: ignore[arg-type]

    def test_custom_executor_in_session(self, specs):
        """Anything implementing the protocol plugs into Session."""
        session = tiny_session(
            executor=ShardedExecutor(shards=2, balance="cost"))
        expected = reference_runs(specs)
        assert canonical_runs(session.collect(specs)) == expected

    def test_cancel_token_is_callable(self):
        token = CancelToken()
        assert not token() and not token.cancelled
        token.cancel()
        assert token() and token.cancelled
