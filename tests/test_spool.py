"""The one state-directory protocol (:mod:`repro.runner.spool`) and its users.

Three contracts, each checked against every reader or transition built on
the primitive:

1. **Hostile files never crash a reader.**  Torn JSON, valid JSON that is
   not an object, foreign schemas, missing keys and non-UTF-8 bytes are a
   cache miss, a skipped queue entry, or a shard reported by its file
   name — in the run cache, the shard spool, ``repro shard status`` and
   the serve job queue alike.
2. **A transition is one rename.**  A process killed at the rename of any
   shard or job transition leaves exactly one whole file, in the source
   state, and the next claim or startup recovery picks it up.
3. **One tail.**  ``read_events`` parses what ``tail_bytes`` returns, so
   a stream rewritten shorter than the reader's offset is re-read.
"""

from __future__ import annotations

import contextlib
import json
from pathlib import Path

import pytest

from repro.config import default_config
from repro.distrib import ShardSpool, plan_shards
from repro.runner import spool as spool_module
from repro.runner.artifacts import RunCache
from repro.runner.cli import _spool_run_progress, main
from repro.runner.events import (
    RUN_START,
    SUBMITTED,
    Event,
    append_event,
    read_events,
)
from repro.runner.specs import RunSpec, matrix_specs
from repro.serve import DONE, QUEUED, RUNNING, Job, JobQueue, execution_key
from repro.workloads.registry import ExperimentScale, scale_system_config

TINY = ExperimentScale(capacity_scale=1 / 512, min_accesses=120,
                       max_accesses=240)
CONFIG = scale_system_config(default_config(), TINY)

#: A shard file name of a plan whose experiment id starts ``deadbeef``.
SHARD = "shard-deadbeef-0000.json"
EXPERIMENT_ID = "sha256:deadbeef" + "0" * 56

#: Hostile file contents; ``@SCHEMA@`` becomes the reader's own schema,
#: so "missing keys" passes the schema check and fails further in.
HOSTILE = {
    "truncated": b'{"schema": "@SCHEMA@", "result": {"platf',
    "list": b"[]",
    "string": b'"x"',
    "claim-string": b'{"claim": "x"}',
    "wrong-schema": b'{"schema": "repro.elsewhere/9", "claim": []}',
    "missing-keys": b'{"schema": "@SCHEMA@"}',
    "non-utf8": b'{"schema": "\xff\xfe"}',
}


def plant(path: Path, raw: bytes, schema: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(raw.replace(b"@SCHEMA@", schema.encode("ascii")))
    return path


def make_job(job_id="j000001") -> Job:
    specs = [RunSpec("mmap", "seqRd")]
    return Job(id=job_id, tenant="default", name="t", priority=0,
               specs=specs, exec_key=execution_key(specs, CONFIG, TINY))


def manifests():
    return plan_shards("crash", matrix_specs(["mmap"], ["seqRd"]), CONFIG,
                       TINY, 1)


# ---------------------------------------------------------------------------
# 1. Hostile files: every reader misses, skips or reports by name
# ---------------------------------------------------------------------------


def read_run_cache(tmp_path, raw):
    cache = RunCache(tmp_path)
    plant(tmp_path / "k.json", raw, "repro.run/1")
    assert cache.load("k") is None
    assert (cache.hits, cache.misses) == (0, 1)


def read_claim_next(tmp_path, raw):
    spool = ShardSpool(tmp_path).prepare()
    bad = plant(spool.pending_dir / SHARD, raw, "repro.shard/1")
    assert spool.claim_next("worker") is None
    assert bad.exists()  # left for the operator, never an orphaned claim


def read_status(tmp_path, raw):
    spool = ShardSpool(tmp_path).prepare()
    plant(spool.claims_dir / SHARD, raw, "repro.shard/1")
    status = spool.status()
    assert status.running == {"shard-deadbeef-0000": "unknown"}
    assert not status.pending and not status.done


def read_outstanding(tmp_path, raw):
    spool = ShardSpool(tmp_path).prepare()
    plant(spool.claims_dir / SHARD, raw, "repro.shard/1")
    assert spool.outstanding(EXPERIMENT_ID) == [SHARD]


def read_spool_progress(tmp_path, raw):
    spool = ShardSpool(tmp_path).prepare()
    plant(spool.claims_dir / SHARD, raw, "repro.shard/1")
    plant(spool.results_dir / "shard-deadbeef-0001.json", raw,
          "repro.shard-result/1")
    assert _spool_run_progress(spool) == (0, 0)


def read_job_pending(tmp_path, raw):
    queue = JobQueue(tmp_path).prepare()
    plant(queue.pending_dir / "j000001.json", raw, "repro.job/1")
    assert queue.pending() == [] and queue.all_jobs() == []


def read_job_get(tmp_path, raw):
    queue = JobQueue(tmp_path).prepare()
    plant(queue.done_dir / "j000001.json", raw, "repro.job/1")
    assert queue.get("j000001") is None


def read_job_requeue(tmp_path, raw):
    queue = JobQueue(tmp_path).prepare()
    bad = plant(queue.running_dir / "j000001.json", raw, "repro.job/1")
    assert queue.requeue_running() == []
    assert bad.exists()


def read_job_next_id(tmp_path, raw):
    queue = JobQueue(tmp_path).prepare()
    plant(queue.pending_dir / "j000004.json", raw, "repro.job/1")
    assert queue.next_id() == "j000005"  # never reuses a planted name


READERS = {
    "RunCache.load": read_run_cache,
    "ShardSpool.claim_next": read_claim_next,
    "ShardSpool.status": read_status,
    "ShardSpool.outstanding": read_outstanding,
    "_spool_run_progress": read_spool_progress,
    "JobQueue.pending": read_job_pending,
    "JobQueue.get": read_job_get,
    "JobQueue.requeue_running": read_job_requeue,
    "JobQueue.next_id": read_job_next_id,
}


@pytest.mark.parametrize("raw", list(HOSTILE.values()), ids=list(HOSTILE))
@pytest.mark.parametrize("reader", list(READERS.values()), ids=list(READERS))
def test_hostile_state_file_never_crashes_a_reader(tmp_path, reader, raw):
    reader(tmp_path / "state", raw)


def test_shard_status_cli_reports_hostile_claims(tmp_path, capsys):
    spool = ShardSpool(tmp_path / "spool").prepare()
    (spool.claims_dir / SHARD).write_text("[]", encoding="utf-8")
    (spool.claims_dir / "shard-deadbeef-0001.json").write_text(
        '{"claim": "x"}', encoding="utf-8")
    assert main(["shard", "status", "--spool", str(spool.root)]) == 3
    out = capsys.readouterr().out
    assert "0 done, 2 running, 0 pending" in out
    assert "shard-deadbeef-0000  running  (unknown)" in out
    assert main(["shard", "work", "--spool", str(spool.root)]) == 0
    assert "no pending shards" in capsys.readouterr().out


def test_load_results_still_fails_loudly_on_a_torn_result(tmp_path):
    spool = ShardSpool(tmp_path).prepare()
    (spool.results_dir / SHARD).write_text("[]", encoding="utf-8")
    with pytest.raises(ValueError, match="unsupported shard result"):
        spool.load_results()


# ---------------------------------------------------------------------------
# 2. Crash injection: a transition killed at its rename
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def crash_at_rename():
    """Make every cross-directory rename raise, as if killed right there.

    Atomic writes rename within one directory and keep working, so this
    kills exactly the one ``os.replace`` of :meth:`Spool.move`.
    """
    real = spool_module.os.replace

    def replace(src, dst):
        if Path(src).parent != Path(dst).parent:
            raise OSError("killed at the transition rename")
        return real(src, dst)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spool_module.os, "replace", replace)
        yield


def whole_files(root: Path) -> dict:
    """Every file under *root*, parsed: each must be whole JSON."""
    return {str(path.relative_to(root)): json.loads(path.read_text("utf-8"))
            for path in sorted(root.rglob("*")) if path.is_file()}


def test_shard_claim_killed_at_rename(tmp_path):
    spool = ShardSpool(tmp_path).prepare()
    [manifest] = manifests()
    [path] = spool.add_manifests([manifest])
    with crash_at_rename():
        with pytest.raises(OSError, match="transition rename"):
            spool.claim_next("worker-a")
    assert whole_files(tmp_path) == {f"pending/{path.name}": manifest}
    claim = spool.claim_next("worker-b")
    assert claim.payload["claim"]["owner"] == "worker-b"


def test_shard_release_killed_at_rename(tmp_path):
    spool = ShardSpool(tmp_path).prepare()
    [manifest] = manifests()
    spool.add_manifests([manifest])
    claim = spool.claim_next("worker-a")
    with crash_at_rename():
        with pytest.raises(OSError, match="transition rename"):
            spool.release(claim)
    # The claim was already rewritten without its annotation, in claims/.
    assert whole_files(tmp_path) == {f"claims/{claim.path.name}": manifest}
    spool.release(claim)
    assert spool.claim_next("worker-b").payload["claim"]["owner"] == \
        "worker-b"


@pytest.mark.parametrize("transition", ["claim", "finish", "release"])
def test_job_transition_killed_at_rename(tmp_path, transition):
    queue = JobQueue(tmp_path).prepare()
    job = make_job()
    queue.submit(job)
    source = "pending"
    if transition != "claim":
        queue.claim(job, "dead:1")
        source = "running"
    with crash_at_rename():
        with pytest.raises(OSError, match="transition rename"):
            if transition == "claim":
                queue.claim(job, "dead:1")
            elif transition == "finish":
                queue.finish(job, DONE)
            else:
                queue.release(job)
    files = whole_files(tmp_path)
    assert list(files) == [f"{source}/{job.id}.json"]

    restarted = JobQueue(tmp_path)  # the restarting daemon's view
    assert [j.id for j in restarted.requeue_running()] == [job.id]
    assert [j.state for j in restarted.pending()] == [QUEUED]
    assert list(whole_files(tmp_path)) == [f"pending/{job.id}.json"]
    assert restarted.claim(restarted.get(job.id), "me:2").state == RUNNING


# ---------------------------------------------------------------------------
# 3. One tail
# ---------------------------------------------------------------------------


def test_read_events_rereads_a_stream_rewritten_shorter(tmp_path):
    path = tmp_path / "events.jsonl"
    append_event(path, Event(kind=SUBMITTED, unix=1.0, experiment="first",
                             total=1, executor="serial"))
    append_event(path, Event(kind=RUN_START, unix=2.0, index=0,
                             platform_key="mmap", workload_key="seqRd"))
    events, offset = read_events(path)
    assert len(events) == 2 and offset == path.stat().st_size
    # A restarted execution truncates and rewrites its stream.
    append_event(path, Event(kind=SUBMITTED, unix=3.0, experiment="again"),
                 mode="w")
    assert path.stat().st_size < offset
    events, offset = read_events(path, offset)
    assert [event.experiment for event in events] == ["again"]
    assert offset == path.stat().st_size


def test_read_events_skips_non_object_lines(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_bytes(b'[]\n"x"\n{"schema": "\xff"}\n{"torn\n')
    append_event(path, Event(kind=RUN_START, unix=1.0, index=3))
    events, offset = read_events(path)
    assert [event.index for event in events] == [3]
    assert offset == path.stat().st_size
