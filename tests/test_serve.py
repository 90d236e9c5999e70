"""Tests for the serve subsystem (:mod:`repro.serve`).

The load-bearing contracts, in order of importance:

1. **Service parity** — an artifact produced through HTTP submission is
   bit-identical (as canonically serialised runs) to a local
   ``Session.submit()`` on the same specs, including after the daemon is
   killed mid-experiment and restarted (the queue crash-safety
   satellite, mirroring the spool kill/resume test).
2. **Submission dedup** — the execution key IS the run-cache key set
   (hypothesis-pinned), and two tenants submitting the same specs share
   one execution while both receive complete event streams and correct
   per-tenant artifacts.
3. **Crash-safe queue** — every transition is atomic; ``running/`` jobs
   requeue on restart; a graceful drain requeues in-flight jobs with
   their finished runs persisted in the cache.
4. **Scheduling policy** — priority strictly first, then per-tenant
   fairness, then FIFO; pending duplicates of a running execution are
   never started (they are adopted at finish).
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.parse
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.runner.parallel as parallel_module
from repro.api import ServeClient, Session
from repro.config import default_config
from repro.exec import resolve_executor
from repro.runner.artifacts import experiment_to_artifact, run_cache_key
from repro.runner.events import (
    CACHE_HIT,
    JOB_FINISH,
    RUN_FINISH,
    append_event,
    job_event,
    tail_bytes,
)
from repro.runner.parallel import ParallelExperimentRunner
from repro.runner.specs import RunSpec, matrix_specs
from repro.serve import (
    CANCELLED,
    DONE,
    QUEUED,
    RUNNING,
    Job,
    JobQueue,
    ServeClient as ServeClientAlias,
    ServeClientError,
    ServeConfig,
    ServeDaemon,
    ServeUnavailable,
    execution_key,
    pick_next,
    tenant_snapshot,
    waiting_duplicates,
)
from repro.serve.client import ServeExecutor
from repro.serve.server import MAX_BODY_BYTES
from repro.workloads.registry import ExperimentScale, scale_system_config

TINY = ExperimentScale(capacity_scale=1 / 512, min_accesses=120,
                       max_accesses=240)
PLATFORMS = ["mmap", "hams-TE", "oracle"]
WORKLOADS = ["seqRd", "update"]

CONFIG = scale_system_config(default_config(), TINY)


def canonical_runs(experiment) -> str:
    """The artifact 'runs' array exactly as it would be written to disk."""
    return json.dumps(experiment_to_artifact("x", experiment, CONFIG)["runs"],
                      sort_keys=True)


def make_job(job_id="j000001", tenant="default", priority=0,
             specs=None, state=QUEUED, submitted=1000.0) -> Job:
    specs = specs if specs is not None else [RunSpec("mmap", "seqRd")]
    job = Job(id=job_id, tenant=tenant, name="t", priority=priority,
              specs=specs, exec_key=execution_key(specs, CONFIG, TINY),
              submitted_unix=submitted)
    job.state = state
    return job


@pytest.fixture()
def daemon(tmp_path):
    """An in-process daemon on an ephemeral port over a temp state dir."""
    instance = ServeDaemon(ServeConfig(state_dir=tmp_path / "state",
                                       fleet=2, scale=TINY)).start()
    yield instance
    instance.request_shutdown(drain=True)
    assert instance.wait(timeout=60.0)


# ---------------------------------------------------------------------------
# The persistent queue
# ---------------------------------------------------------------------------


class TestJobQueue:
    def test_submit_claim_finish_transitions(self, tmp_path):
        queue = JobQueue(tmp_path / "q").prepare()
        job = make_job(queue.next_id())
        queue.submit(job)
        assert (queue.pending_dir / f"{job.id}.json").is_file()

        queue.claim(job, owner="me:1")
        assert job.state == RUNNING and job.owner == "me:1"
        assert not (queue.pending_dir / f"{job.id}.json").exists()
        assert (queue.running_dir / f"{job.id}.json").is_file()

        queue.finish(job, DONE)
        assert not (queue.running_dir / f"{job.id}.json").exists()
        reloaded = queue.get(job.id)
        assert reloaded.state == DONE
        assert reloaded.finished_unix is not None

    def test_finish_rejects_non_terminal_state(self, tmp_path):
        queue = JobQueue(tmp_path / "q").prepare()
        job = make_job()
        queue.submit(job)
        with pytest.raises(ValueError, match="terminal"):
            queue.finish(job, RUNNING)

    def test_requeue_running_recovers_killed_daemon(self, tmp_path):
        queue = JobQueue(tmp_path / "q").prepare()
        job = make_job(queue.next_id())
        queue.submit(job)
        queue.claim(job, owner="dead:42")
        job.completed = 3  # progress the dead daemon had made

        fresh = JobQueue(tmp_path / "q")  # the restarted daemon's view
        requeued = fresh.requeue_running()
        assert [j.id for j in requeued] == [job.id]
        recovered = fresh.get(job.id)
        assert recovered.state == QUEUED
        assert recovered.owner is None
        assert recovered.completed == 0  # progress re-counts on re-execution
        assert fresh.running() == []

    def test_round_trip_preserves_specs_and_metadata(self, tmp_path):
        queue = JobQueue(tmp_path / "q").prepare()
        specs = [RunSpec("hams-TE", "seqRd",
                         config_overrides={"hams": {"mos_page_bytes": 4096}},
                         label="4KB")]
        job = make_job("j000007", tenant="alice", priority=3, specs=specs)
        queue.submit(job)
        loaded = queue.get("j000007")
        assert loaded.tenant == "alice" and loaded.priority == 3
        assert loaded.specs == specs
        assert loaded.exec_key == job.exec_key

    def test_torn_file_does_not_wedge_the_queue(self, tmp_path):
        queue = JobQueue(tmp_path / "q").prepare()
        queue.submit(make_job("j000001"))
        (queue.pending_dir / "j000002.json").write_text("{\"truncat")
        (queue.pending_dir / "foreign.json").write_text("{\"schema\": \"x\"}")
        assert [job.id for job in queue.pending()] == ["j000001"]

    def test_next_id_unique_across_states_and_restarts(self, tmp_path):
        queue = JobQueue(tmp_path / "q").prepare()
        first = make_job(queue.next_id())
        queue.submit(first)
        queue.claim(first, "me:1")
        queue.finish(first, DONE)
        second = make_job(queue.next_id())
        assert second.id == "j000002"
        queue.submit(second)
        assert JobQueue(tmp_path / "q").next_id() == "j000003"


# ---------------------------------------------------------------------------
# Scheduling policy (pure)
# ---------------------------------------------------------------------------


class TestScheduler:
    def test_priority_strictly_first(self):
        low = make_job("j000001", tenant="busy", priority=0, submitted=1.0)
        high = make_job("j000002", tenant="busy", priority=5, submitted=2.0)
        assert pick_next([low, high], [], {}) is high

    def test_fewest_in_flight_tenant_wins_within_band(self):
        # Distinct spec sets: dedup must not block what fairness ranks.
        hog_pending = make_job("j000003", tenant="hog", submitted=1.0,
                               specs=[RunSpec("mmap", "update")])
        newcomer = make_job("j000004", tenant="new", submitted=2.0,
                            specs=[RunSpec("oracle", "update")])
        running = [make_job("j000001", tenant="hog", state=RUNNING,
                            specs=[RunSpec("mmap", "seqRd")]),
                   make_job("j000002", tenant="hog", state=RUNNING,
                            specs=[RunSpec("oracle", "seqRd")])]
        assert pick_next([hog_pending, newcomer], running, {}) is newcomer

    def test_least_recently_served_round_robin(self):
        a = make_job("j000001", tenant="a", submitted=1.0)
        b = make_job("j000002", tenant="b", submitted=2.0)
        # Tenant a was served more recently than b: b's turn, despite FIFO.
        assert pick_next([a, b], [], {"a": 7, "b": 3}) is b

    def test_fifo_within_one_tenant(self):
        older = make_job("j000001", tenant="a", submitted=1.0)
        newer = make_job("j000002", tenant="a", submitted=2.0)
        assert pick_next([newer, older], [], {}) is older

    def test_running_execution_blocks_its_duplicates(self):
        specs = matrix_specs(["mmap"], ["seqRd"])
        running = make_job("j000001", specs=specs, state=RUNNING)
        duplicate = make_job("j000002", specs=specs)
        other = make_job("j000003", specs=matrix_specs(["mmap"], ["update"]),
                         submitted=9999.0)
        # The duplicate is older but not startable; the other job runs.
        assert pick_next([duplicate, other], [running], {}) is other
        assert pick_next([duplicate], [running], {}) is None
        adopted = waiting_duplicates([duplicate, other], running.exec_key)
        assert adopted == [duplicate]

    def test_tenant_snapshot_counts(self):
        pending = [make_job("j000001", tenant="a"),
                   make_job("j000002", tenant="a")]
        running = [make_job("j000003", tenant="b", state=RUNNING)]
        assert tenant_snapshot(pending, running) == {
            "a": {"queued": 2, "running": 0},
            "b": {"queued": 0, "running": 1}}


# ---------------------------------------------------------------------------
# Dedup identity == cache identity (hypothesis satellite)
# ---------------------------------------------------------------------------


spec_strategy = st.builds(
    RunSpec,
    platform=st.sampled_from(PLATFORMS),
    workload=st.sampled_from(WORKLOADS),
    label=st.one_of(st.none(), st.sampled_from(["a", "b", "swept"])),
)
spec_lists = st.lists(spec_strategy, min_size=1, max_size=5)


class TestExecutionKey:
    @settings(max_examples=50, deadline=None)
    @given(spec_lists, st.randoms())
    def test_key_is_hash_of_sorted_run_cache_keys(self, specs, rng):
        """The dedup address is exactly the run-cache key set: reordering
        specs or renaming labels — which do not change what executes or
        where it is cached — cannot change it, and it equals the pinned
        sha256-over-sorted-keys construction."""
        expected = hashlib.sha256("\n".join(
            sorted(run_cache_key(spec, CONFIG, TINY)
                   for spec in specs)).encode("ascii")).hexdigest()
        assert execution_key(specs, CONFIG, TINY) == expected

        shuffled = list(specs)
        rng.shuffle(shuffled)
        relabelled = [RunSpec(platform=spec.platform, workload=spec.workload,
                              label="renamed")
                      for spec in shuffled
                      if not spec.config_overrides
                      and not spec.platform_kwargs
                      and spec.dataset_bytes_override is None]
        assert execution_key(shuffled, CONFIG, TINY) == expected
        if len(relabelled) == len(specs):
            assert execution_key(relabelled, CONFIG, TINY) == expected

    @settings(max_examples=50, deadline=None)
    @given(spec_lists, spec_lists)
    def test_two_submissions_dedup_iff_cache_key_sets_match(self, one, two):
        keys_of = lambda specs: sorted(  # noqa: E731
            run_cache_key(spec, CONFIG, TINY) for spec in specs)
        same_execution = execution_key(one, CONFIG, TINY) == \
            execution_key(two, CONFIG, TINY)
        assert same_execution == (keys_of(one) == keys_of(two))

    def test_config_overrides_change_the_key(self):
        plain = [RunSpec("hams-TE", "seqRd")]
        swept = [RunSpec("hams-TE", "seqRd",
                         config_overrides={"hams": {"mos_page_bytes": 4096}})]
        assert execution_key(plain, CONFIG, TINY) != \
            execution_key(swept, CONFIG, TINY)


# ---------------------------------------------------------------------------
# The raw tail primitive
# ---------------------------------------------------------------------------


class TestTailBytes:
    def test_incomplete_final_line_waits(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_bytes(b'{"a":1}\n{"b":2}\n{"torn')
        data, offset = tail_bytes(path)
        assert data == b'{"a":1}\n{"b":2}\n'
        assert offset == len(data)
        path.write_bytes(b'{"a":1}\n{"b":2}\n{"torn":3}\n')
        data, offset = tail_bytes(path, offset)
        assert data == b'{"torn":3}\n'

    def test_truncated_file_resets_to_zero(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_bytes(b'{"a":1}\n' * 10)
        _data, offset = tail_bytes(path)
        path.write_bytes(b'{"fresh":1}\n')  # re-execution rewrote the file
        data, offset = tail_bytes(path, offset)
        assert data == b'{"fresh":1}\n'
        assert offset == len(data)

    def test_missing_file_reads_empty(self, tmp_path):
        assert tail_bytes(tmp_path / "absent.jsonl", 17) == (b"", 17)


# ---------------------------------------------------------------------------
# End-to-end service parity over real HTTP
# ---------------------------------------------------------------------------


class TestServiceParity:
    def test_http_artifact_bit_identical_to_local_submit(self, daemon):
        specs = matrix_specs(PLATFORMS, WORKLOADS)
        expected = canonical_runs(
            Session(TINY, workers=1, executor="serial").submit(
                specs, name="local").result())

        client = ServeClient(daemon.url, tenant="alice")
        job = client.submit(specs, name="parity")
        record = client.wait(job["id"], timeout=300.0)
        assert record["state"] == DONE
        artifact = client.result(job["id"])
        assert json.dumps(artifact["runs"], sort_keys=True) == expected
        assert artifact["meta"]["tenant"] == "alice"
        # The artifact lives in the tenant's namespace on the daemon side.
        assert (daemon.results_dir / "alice" / f"{job['id']}.json").is_file()

    def test_two_tenants_one_execution_two_full_streams(self, daemon):
        specs = matrix_specs(PLATFORMS, ["seqRd"])
        reordered = list(reversed(specs))
        alice = ServeClient(daemon.url, tenant="alice")
        bob = ServeClient(daemon.url, tenant="bob")

        first = alice.submit(specs, name="shared-a")
        second = bob.submit(reordered, name="shared-b")
        done_a = alice.wait(first["id"], timeout=300.0)
        done_b = bob.wait(second["id"], timeout=300.0)
        assert done_a["state"] == DONE and done_b["state"] == DONE

        # One execution served both submissions...
        assert daemon.counters.executions == 1
        assert done_a["exec_key"] == done_b["exec_key"]
        assert done_b["deduped_against"] == first["id"] or \
            done_a["deduped_against"] == second["id"]
        # ...and both tenants stream the complete event history: every run
        # record plus their own terminal job-finish marker.
        for client, record in ((alice, done_a), (bob, done_b)):
            events = list(client.watch(record["id"]))
            finished_keys = {event.key for event in events
                             if event.kind in (RUN_FINISH, CACHE_HIT)}
            assert len(finished_keys) == len(specs)
            assert any(event.kind == JOB_FINISH and event.job == record["id"]
                       for event in events)
        # Each artifact is folded against the tenant's own spec order.
        expected = canonical_runs(
            Session(TINY, workers=1, executor="serial").submit(
                specs, name="local").result())
        assert json.dumps(alice.result(first["id"])["runs"],
                          sort_keys=True) == expected
        reordered_expected = canonical_runs(
            Session(TINY, workers=1, executor="serial").submit(
                reordered, name="local").result())
        assert json.dumps(bob.result(second["id"])["runs"],
                          sort_keys=True) == reordered_expected

    def test_serve_executor_tier_parity(self, daemon):
        specs = matrix_specs(["mmap", "hams-TE"], ["seqRd"])
        expected = canonical_runs(
            Session(TINY, workers=1, executor="serial").submit(
                specs, name="local").result())
        session = Session(TINY, workers=1, executor=f"serve:{daemon.url}")
        handle = session.submit(specs, name="via-tier")
        streamed = list(handle.iter_results())
        assert sorted(run.index for run in streamed) == \
            list(range(len(specs)))
        assert all(run.remote for run in streamed)
        assert canonical_runs(handle.result()) == expected
        assert handle.progress().done

    def test_serve_executor_rejects_mismatched_scale(self, daemon):
        session = Session(ExperimentScale(capacity_scale=1 / 256,
                                          min_accesses=100,
                                          max_accesses=200),
                          workers=1, executor=f"serve:{daemon.url}")
        with pytest.raises(ServeClientError, match="config"):
            session.submit(matrix_specs(["mmap"], ["seqRd"]), name="bad")

    def test_submission_validation_rejects_garbage(self, daemon):
        client = ServeClient(daemon.url)
        with pytest.raises(ServeClientError, match="platform"):
            client.submit([RunSpec("not-a-platform", "seqRd")])
        with pytest.raises(ServeClientError, match="workload"):
            client.submit([RunSpec("mmap", "not-a-workload")])
        with pytest.raises(ServeClientError, match="tenant"):
            client.submit([RunSpec("mmap", "seqRd")], tenant="../escape")
        with pytest.raises(ServeClientError, match="specs"):
            client._request("POST", "/v1/jobs", {"tenant": "x", "name": "x",
                                                 "priority": 0, "specs": []})

    def test_request_body_length_is_bounded(self, daemon):
        """A malformed Content-Length is a typed 400 and an oversized one a
        413 sent before the body is read; the daemon keeps serving."""
        url = urllib.parse.urlsplit(daemon.url)
        cases = [("abc", 400), ("-5", 400), ("1e3", 400),
                 (str(MAX_BODY_BYTES + 1), 413)]
        for length, status in cases:
            connection = http.client.HTTPConnection(url.hostname, url.port,
                                                    timeout=30.0)
            try:
                connection.putrequest("POST", "/v1/jobs")
                connection.putheader("Content-Length", length)
                connection.endheaders()
                response = connection.getresponse()
                assert response.status == status, length
                assert "error" in json.loads(response.read())
            finally:
                connection.close()
        assert ServeClient(daemon.url).status()["schema"]

    def test_cancel_queued_job(self, daemon):
        # Saturate the fleet so a third job stays queued long enough.
        client = ServeClient(daemon.url)
        blocker_specs = matrix_specs(PLATFORMS, WORKLOADS)
        client.submit(blocker_specs, name="blocker-1")
        client.submit(matrix_specs(PLATFORMS, ["update"]), name="blocker-2")
        victim = client.submit(matrix_specs(["oracle"], ["seqRd"]),
                               name="victim")
        try:
            record = client.cancel(victim["id"])
        except ServeClientError as error:
            assert error.status == 409  # raced: terminal before the cancel
            return
        assert record["state"] in (CANCELLED, RUNNING, DONE)
        if record["state"] == CANCELLED:
            final = client.job(victim["id"])
            assert final["state"] == CANCELLED

    def test_status_and_discovery(self, daemon, tmp_path):
        status = ServeClient(daemon.url).status()
        assert status["schema"] == "repro.serve-status/1"
        assert status["queue"]["failed"] == 0
        assert 0.0 <= status["runs"]["cache_hit_rate"] <= 1.0
        via_record = ServeClient.from_state_dir(daemon.state_dir)
        assert via_record.url == daemon.url
        with pytest.raises(ServeUnavailable):
            ServeClient.from_state_dir(tmp_path / "nowhere")

    def test_second_daemon_on_same_state_dir_refuses(self, tmp_path):
        state = tmp_path / "state"
        state.mkdir()
        # A server.json owned by another *live* process (pid 1 always is).
        (state / "server.json").write_text(json.dumps(
            {"schema": "repro.serve/1", "url": "http://127.0.0.1:1",
             "pid": 1, "state_dir": str(state)}))
        with pytest.raises(RuntimeError, match="already owns"):
            ServeDaemon(ServeConfig(state_dir=state, scale=TINY)).start()


# ---------------------------------------------------------------------------
# Drain and crash safety
# ---------------------------------------------------------------------------


class TestDrainAndResume:
    def test_drain_requeues_in_flight_job_and_restart_resumes(
            self, tmp_path, monkeypatch):
        specs = matrix_specs(PLATFORMS, ["seqRd"])
        expected = canonical_runs(
            Session(TINY, workers=1, executor="serial").submit(
                specs, name="local").result())

        real = parallel_module.execute_spec
        first_running = threading.Event()
        proceed = threading.Event()
        calls = {"n": 0}

        def gated(spec, config, scale, trace_cache):
            calls["n"] += 1
            result = real(spec, config, scale, trace_cache)
            if calls["n"] == 1:
                first_running.set()
                assert proceed.wait(timeout=60.0)
            return result

        monkeypatch.setattr(parallel_module, "execute_spec", gated)
        daemon = ServeDaemon(ServeConfig(state_dir=tmp_path / "state",
                                         fleet=1, scale=TINY)).start()
        client = ServeClient(daemon.url)
        job = client.submit(specs, name="drained")
        assert first_running.wait(timeout=60.0)
        # Drain lands while run 1 holds the gate: the run must finish and
        # persist, then the job returns to pending for the next daemon.
        daemon.request_shutdown(drain=True)
        proceed.set()
        assert daemon.wait(timeout=60.0)
        monkeypatch.setattr(parallel_module, "execute_spec", real)

        queue = JobQueue(tmp_path / "state" / "queue")
        assert [j.id for j in queue.pending()] == [job["id"]]
        assert queue.running() == []

        restarted = ServeDaemon(ServeConfig(state_dir=tmp_path / "state",
                                            fleet=1, scale=TINY)).start()
        try:
            client = ServeClient(restarted.url)
            record = client.wait(job["id"], timeout=300.0)
            assert record["state"] == DONE
            # The drained run resolved from the cache instead of re-running.
            assert record["cache_hits"] >= 1
            assert json.dumps(client.result(job["id"])["runs"],
                              sort_keys=True) == expected
        finally:
            restarted.request_shutdown(drain=True)
            assert restarted.wait(timeout=60.0)

    def test_kill_daemon_mid_experiment_restart_bit_identical(
            self, tmp_path):
        """The crash-safety satellite: SIGKILL a real daemon subprocess
        mid-experiment, restart it over the same state directory, and the
        resumed job's artifact is bit-identical to an uninterrupted local
        run (mirrors the spool kill/resume test one layer up)."""
        specs = matrix_specs(PLATFORMS, WORKLOADS)
        expected = canonical_runs(
            Session(TINY, workers=1, executor="serial").submit(
                specs, name="local").result())
        state = tmp_path / "state"

        # The first daemon holds the job after two finished runs, so the
        # kill lands mid-experiment however fast the runs are.
        first = _spawn_daemon(state, tmp_path / "daemon1.log",
                              hold_after_runs=2)
        try:
            client = ServeClient.from_state_dir(state)
            job = client.submit(specs, name="interrupted")
            deadline = time.monotonic() + 300.0
            while time.monotonic() < deadline:
                if client.job(job["id"])["completed"] >= 2:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("daemon made no progress to interrupt")
        finally:
            first.kill()  # SIGKILL: no drain, no cleanup
            first.wait(timeout=30.0)

        # The kill left the claim behind; the queue recovers it on restart.
        queue = JobQueue(state / "queue")
        assert [j.id for j in queue.running()] == [job["id"]]

        second = _spawn_daemon(state, tmp_path / "daemon2.log")
        try:
            client = ServeClient.from_state_dir(state)
            record = client.wait(job["id"], timeout=300.0)
            assert record["state"] == DONE
            # Resumed, not recomputed: the interrupted runs came from cache.
            assert record["cache_hits"] >= 2
            artifact = client.result(job["id"])
            assert json.dumps(artifact["runs"], sort_keys=True) == expected
            client.shutdown()
            second.wait(timeout=60.0)
        finally:
            if second.poll() is None:
                second.kill()
                second.wait(timeout=30.0)


# Runs `python -m repro` with every run after the first N (argv[1]) held
# forever, so a job can be interrupted at a known point.
_HOLD_AFTER_RUNS = """
import runpy, sys, threading
import repro.runner.parallel as parallel
hold_after = int(sys.argv.pop(1))
real_execute_spec = parallel.execute_spec
finished = []
def execute_spec(*args, **kwargs):
    if len(finished) >= hold_after:
        threading.Event().wait()
    result = real_execute_spec(*args, **kwargs)
    finished.append(result)
    return result
parallel.execute_spec = execute_spec
runpy.run_module("repro", run_name="__main__", alter_sys=True)
"""


def _spawn_daemon(state, log_path,
                  hold_after_runs=None) -> subprocess.Popen:
    """Start a real `repro serve start` subprocess and wait for its record.

    With *hold_after_runs*, the daemon stalls every run after that many
    have finished (until it is killed).
    """
    env = dict(os.environ)
    src = str((_repo_root() / "src").resolve())
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    if hold_after_runs is None:
        command = [sys.executable, "-m", "repro"]
    else:
        command = [sys.executable, "-c", _HOLD_AFTER_RUNS,
                   str(hold_after_runs)]
    with log_path.open("wb") as log:
        process = subprocess.Popen(
            command + ["serve", "start", "--state", str(state),
                       "--capacity-scale", str(TINY.capacity_scale),
                       "--min-accesses", str(TINY.min_accesses),
                       "--max-accesses", str(TINY.max_accesses)],
            stdout=log, stderr=subprocess.STDOUT, env=env)
    record = state / "server.json"
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        if record.is_file():
            try:
                payload = json.loads(record.read_text(encoding="utf-8"))
            except json.JSONDecodeError:
                payload = {}
            if payload.get("pid") == process.pid:
                return process
        if process.poll() is not None:
            raise RuntimeError(
                f"daemon died at startup: {log_path.read_text()}")
        time.sleep(0.05)
    process.kill()
    raise RuntimeError(f"daemon never published {record}")


def _repo_root():
    from pathlib import Path
    return Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# Wiring
# ---------------------------------------------------------------------------


class TestWiring:
    def test_resolve_executor_serve_prefix(self):
        executor = resolve_executor("serve:http://127.0.0.1:1")
        assert isinstance(executor, ServeExecutor)
        assert executor.client.url == "http://127.0.0.1:1"
        with pytest.raises(ValueError, match="URL"):
            resolve_executor("serve:")
        with pytest.raises(ValueError, match="unknown executor"):
            resolve_executor("telnet")

    def test_facade_exports(self):
        import repro
        assert repro.ServeClient is ServeClient
        assert ServeClientAlias is ServeClient

    def test_job_events_round_trip(self, tmp_path):
        path = tmp_path / "log.jsonl"
        append_event(path, job_event(JOB_FINISH, "j000001", "alice",
                                     state=DONE, key="k" * 64, total=6))
        data, _offset = tail_bytes(path)
        record = json.loads(data)
        assert record["schema"] == "repro.events/1"
        assert record["kind"] == JOB_FINISH
        assert record["job"] == "j000001"
        assert record["tenant"] == "alice"
        assert record["state"] == DONE

    def test_cli_serve_help_registered(self):
        from repro.runner.cli import build_parser
        parser = build_parser()
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(["serve"])  # missing sub-verb => argparse error
        assert excinfo.value.code == 2
        args = parser.parse_args(["serve", "status", "--url", "http://x:1"])
        assert args.serve_command == "status"

    def test_events_endpoint_offset_clamp(self, daemon):
        client = ServeClient(daemon.url)
        job = client.submit(matrix_specs(["mmap"], ["seqRd"]), name="clamp")
        client.wait(job["id"], timeout=300.0)
        # An offset far past EOF must clamp to zero, not hang or error.
        path = (f"{daemon.url}/v1/jobs/{job['id']}/events"
                f"?offset=999999&wait=0")
        with urllib.request.urlopen(path, timeout=30.0) as response:
            assert response.headers["X-Repro-Events-Offset"] == "0"
            assert b"submitted" in response.read()


def test_unreachable_daemon_raises_serve_unavailable():
    client = ServeClient("http://127.0.0.1:9", timeout=0.5)
    with pytest.raises(ServeUnavailable):
        client.status()
