"""Versioned ``repro.job/1`` records and the crash-safe persistent job queue.

A **job** is one tenant's submission to the serve daemon: a named list of
:class:`~repro.runner.specs.RunSpec` records plus scheduling metadata
(tenant, priority).  Jobs are plain JSON files in a
:class:`~repro.runner.spool.Spool` — the one crash-safe state-directory
protocol the distrib shard spool uses too — with one subdirectory per
state:

* ``queue/pending/<job-id>.json`` — submitted, waiting for a worker;
* ``queue/running/<job-id>.json`` — claimed by a worker thread (one daemon
  owns a queue; its scheduler lock serialises claims);
* ``queue/done/<job-id>.json`` — terminal (``done``/``failed``/
  ``cancelled``, recorded inside the file).

Every transition rewrites the record in place, then renames it once, so
a daemon killed at any instant leaves one whole file: on restart,
:meth:`JobQueue.requeue_running` returns claimed-but-unfinished jobs to
``pending/`` and execution resumes — finished runs of the interrupted
experiment are already in the content-addressed run cache, so the rerun
recomputes nothing and folds a bit-identical artifact (the same
invariant the distrib spool workers keep).

The **execution key** is the submission-dedup address: the SHA-256 over the
*sorted run-cache keys* of the job's specs.  Two tenants submitting the
same spec set — regardless of spec order or result-key labels, which do
not change what executes — get the same execution key, share one
execution and one ``repro.events/1`` stream, and each receives an artifact
folded from their own spec list.  Anything that changes any run-cache key
(spec, scale, any config field) changes the execution key, exactly as it
changes the cache address.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..config import SystemConfig
from ..runner.artifacts import run_cache_key
from ..runner.specs import RunSpec
from ..runner.spool import Spool, read_json_object
from ..workloads.registry import ExperimentScale

#: Bump when the serialised job-record layout changes.
JOB_SCHEMA = "repro.job/1"

#: Job states; the first two are *active* (occupying a queue directory
#: other than ``done/``), the rest are terminal.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
JOB_STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)
ACTIVE_STATES = (QUEUED, RUNNING)
TERMINAL_STATES = (DONE, FAILED, CANCELLED)
#: The queue subdirectory holding a job in each state.
_STATE_DIRS = {QUEUED: "pending", RUNNING: "running", DONE: "done",
               FAILED: "done", CANCELLED: "done"}

#: Tenant used when a submission names none.
DEFAULT_TENANT = "default"


def execution_key(specs: List[RunSpec], config: SystemConfig,
                  scale: ExperimentScale) -> str:
    """The submission-dedup address of one spec set under one session.

    Defined as the SHA-256 of the sorted per-run cache keys, so dedup
    identity and cache identity can never drift apart: two submissions
    dedupe if and only if every run of one would resolve from the cache
    entries the other produces.
    """
    keys = sorted(run_cache_key(spec, config, scale) for spec in specs)
    return hashlib.sha256("\n".join(keys).encode("ascii")).hexdigest()


@dataclass
class Job:
    """One submitted experiment: specs plus scheduling/provenance metadata.

    ``exec_key`` addresses the execution (shared across deduped jobs);
    ``result_path``/``events_path`` are state-dir-relative so a state
    directory can be moved or mounted elsewhere without breaking records.
    ``completed``/``total`` are live progress counters (refreshed in the
    terminal record; advisory while running).
    """

    id: str
    tenant: str
    name: str
    priority: int
    specs: List[RunSpec]
    exec_key: str
    state: str = QUEUED
    submitted_unix: float = field(default_factory=time.time)
    started_unix: Optional[float] = None
    finished_unix: Optional[float] = None
    owner: Optional[str] = None
    error: Optional[str] = None
    completed: int = 0
    cache_hits: int = 0
    deduped_against: Optional[str] = None
    result_path: Optional[str] = None
    events_path: Optional[str] = None

    @property
    def total(self) -> int:
        return len(self.specs)

    def to_payload(self) -> Dict[str, Any]:
        payload = dataclasses.asdict(self)
        payload["schema"] = JOB_SCHEMA
        payload["specs"] = [spec.to_dict() for spec in self.specs]
        payload["total"] = self.total
        return payload


def validate_job(payload: Dict[str, Any]) -> Job:
    """Rebuild (and structurally validate) a job from its JSON payload."""
    if payload.get("schema") != JOB_SCHEMA:
        raise ValueError(f"unsupported job schema {payload.get('schema')!r} "
                         f"(expected {JOB_SCHEMA})")
    if payload.get("state") not in JOB_STATES:
        raise ValueError(f"unknown job state {payload.get('state')!r}")
    known = {f.name for f in dataclasses.fields(Job)}
    kwargs = {name: value for name, value in payload.items()
              if name in known}
    kwargs["specs"] = [RunSpec.from_dict(spec)
                       for spec in payload["specs"]]
    return Job(**kwargs)


def _job_from(payload: Optional[Dict[str, Any]]) -> Optional[Job]:
    """The job a queue file holds; ``None`` for a torn or foreign one."""
    if payload is None:
        return None
    try:
        return validate_job(payload)
    except (ValueError, KeyError, TypeError, AttributeError):
        return None


class JobQueue(Spool):
    """The persistent pending/running/done queue under one state directory.

    Methods mutate job files atomically but do **not** lock against each
    other — the owning daemon serialises queue access under one
    ``threading.Lock`` (a queue belongs to exactly one daemon process; the
    on-disk states exist so a *killed* daemon restarts without losing or
    duplicating work, not so two daemons can share a queue).
    """

    def __init__(self, root: Path) -> None:
        super().__init__(root, ("pending", "running", "done"))
        self.pending_dir = self.root / "pending"
        self.running_dir = self.root / "running"
        self.done_dir = self.root / "done"

    # -- transitions ---------------------------------------------------------------

    def _transition(self, job: Job, source: str, **changes: Any) -> Job:
        """Apply *changes*, then move the record from the *source*
        directory to its new state's: rewrite in place, one rename."""
        for name, value in changes.items():
            setattr(job, name, value)
        self.move(f"{job.id}.json", source, _STATE_DIRS[job.state],
                  job.to_payload())
        return job

    def submit(self, job: Job) -> Path:
        """Persist a freshly submitted job into ``pending/``."""
        self.prepare()
        job.state = QUEUED
        return self.put("pending", f"{job.id}.json", job.to_payload())

    def claim(self, job: Job, owner: str) -> Job:
        """Move one pending job to ``running/``."""
        return self._transition(job, "pending", state=RUNNING, owner=owner,
                                started_unix=time.time())

    def finish(self, job: Job, state: str, *,
               error: Optional[str] = None) -> Job:
        """Move a job to ``done/`` with a terminal state."""
        if state not in TERMINAL_STATES:
            raise ValueError(f"not a terminal job state: {state!r}")
        return self._transition(job, _STATE_DIRS[job.state], state=state,
                                error=error, finished_unix=time.time())

    def release(self, job: Job) -> Job:
        """Return a running job to ``pending/`` (drain or worker failure).

        Progress fields are reset — the re-execution re-counts them — but
        the submission identity (id, tenant, priority, submit time) is
        kept, so a released job neither loses its queue position class nor
        duplicates: the run cache carries everything already computed.
        """
        return self._requeue(job, _STATE_DIRS[job.state])

    def _requeue(self, job: Job, source: str) -> Job:
        return self._transition(job, source, state=QUEUED, owner=None,
                                started_unix=None, completed=0,
                                cache_hits=0)

    def requeue_running(self) -> List[Job]:
        """Startup recovery: every job a dead daemon left claimed.

        That is each record in ``running/`` — including one whose finish or
        release was cut between its rewrite and its rename — plus a
        ``pending/`` record whose claim was cut the same way.  Each is
        rewritten as queued in ``pending/``; the caller (the restarting
        daemon) schedules them normally and the content-addressed cache
        turns the re-execution into a resume.
        """
        self.prepare()
        requeued = []
        for source in ("running", "pending"):
            for job in self._jobs(source):
                if source == "running" or job.state != QUEUED:
                    requeued.append(self._requeue(job, source))
        return requeued

    # -- inspection ----------------------------------------------------------------

    def _jobs(self, state: str) -> List[Job]:
        jobs = (_job_from(payload) for _path, payload in self.scan(state))
        return [job for job in jobs if job is not None]

    def pending(self) -> List[Job]:
        return self._jobs("pending")

    def running(self) -> List[Job]:
        return self._jobs("running")

    def finished(self) -> List[Job]:
        return self._jobs("done")

    def all_jobs(self) -> List[Job]:
        return self.pending() + self.running() + self.finished()

    def get(self, job_id: str) -> Optional[Job]:
        for state in self.states:
            job = _job_from(read_json_object(
                self.root / state / f"{job_id}.json"))
            if job is not None:
                return job
        return None

    def next_id(self) -> str:
        """A fresh job id, unique across restarts of the same state dir.

        Ids are ordinal (``j000001`` ...) so listings sort in submission
        order; the max-scan over file names keeps them unique after a
        restart without a separate counter file to keep crash-consistent.
        """
        self.prepare()
        highest = 0
        for state in self.states:
            for name in self.names(state, "j*.json"):
                try:
                    highest = max(highest, int(Path(name).stem[1:]))
                except ValueError:
                    continue
        return f"j{highest + 1:06d}"
