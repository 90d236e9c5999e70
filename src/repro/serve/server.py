"""The ``repro serve`` daemon: a multi-tenant experiment service.

One :class:`ServeDaemon` owns a **state directory**:

* ``queue/`` — the crash-safe persistent job queue
  (:class:`~repro.serve.jobs.JobQueue`, ``repro.job/1`` records);
* ``cache/`` — the content-addressed run cache every execution shares
  (what makes restarts resume and duplicate submissions cheap);
* ``events/<exec-key>.jsonl`` — one ``repro.events/1`` stream per
  *execution* (deduped jobs share the file, and therefore the stream);
* ``results/<tenant>/<job-id>.json`` — per-tenant ``repro.experiment/1``
  artifacts (the tenant namespace is a directory, so tenants can never
  collide on artifact names);
* ``serve.log.jsonl`` — the daemon's own job-lifecycle event log
  (``job-queued``/``job-start``/``job-finish`` records);
* ``server.json`` — the endpoint record (``repro.serve/1``: url + pid)
  CLI verbs use to find a running daemon.

Submissions arrive over HTTP/JSON (stdlib ``http.server``, threaded); a
bounded fleet of worker threads multiplexes them, each job executing
through a fresh :class:`~repro.api.Session` bound to the shared cache.
Scheduling is priority-plus-per-tenant-fair (:mod:`repro.serve.scheduler`),
and identical submissions dedupe on their execution key: one execution,
one event stream, one artifact per subscribing job.

Crash safety is inherited, not invented: every queue transition is an
atomic write + rename, every finished run streams into the run cache the
moment it completes, and a daemon killed at any instant restarts by
requeueing ``running/`` jobs — the re-execution resolves finished runs
from the cache and folds a bit-identical artifact.  ``SIGTERM`` drains
gracefully: in-flight *runs* finish and persist, their jobs return to
``pending/``, and the restarted daemon picks the queue up without
duplicating or dropping anything.

HTTP API (all JSON; ``/v1`` prefix)::

    GET  /v1/status                      daemon + queue + tenant snapshot
    GET  /v1/jobs[?tenant=T]             job listing (records sans specs)
    POST /v1/jobs                        submit {tenant,name,priority,specs}
    GET  /v1/jobs/<id>                   one job record
    GET  /v1/jobs/<id>/events?offset=N   chunked long-poll repro.events/1
    GET  /v1/jobs/<id>/result            the job's experiment artifact
    POST /v1/jobs/<id>/cancel            cancel (cooperative when running)
    GET  /v1/cache/<key>                 one repro.run/1 cache entry
    POST /v1/shutdown {"drain": bool}    stop the daemon
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
import urllib.parse
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..api import Session
from ..config import default_config
from ..exec import ExperimentCancelled
from ..platforms.registry import available_platforms
from ..runner.artifacts import (
    atomic_write_json,
    config_hash_of,
    experiment_to_artifact,
    run_cache_key,
    scale_to_dict,
)
from ..runner.events import (
    JOB_FINISH,
    JOB_QUEUED,
    JOB_START,
    append_event,
    job_event,
    tail_bytes,
)
from ..runner.specs import RunSpec, apply_config_overrides
from ..runner.spool import default_owner, read_json_object
from ..workloads.registry import (
    ExperimentScale,
    all_workload_names,
    scale_system_config,
)
from .jobs import (
    CANCELLED,
    DEFAULT_TENANT,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    Job,
    JobQueue,
    execution_key,
)
from .scheduler import pick_next, tenant_snapshot, waiting_duplicates

#: Schema of the ``server.json`` endpoint record.
SERVER_SCHEMA = "repro.serve/1"
#: Schema of the ``GET /v1/status`` payload.
STATUS_SCHEMA = "repro.serve-status/1"

#: Tenant / job-name grammar: path-safe, no dots-only names, no separators.
_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

#: Long-poll bounds for the event-stream endpoint (seconds).
DEFAULT_WAIT_S = 30.0
MAX_WAIT_S = 120.0

#: Largest request body the daemon reads; a job submission is a few KB.
MAX_BODY_BYTES = 1 << 20


@dataclass(frozen=True)
class ServeConfig:
    """Everything a daemon needs: where its state lives and how it executes.

    *fleet* bounds the worker threads multiplexing jobs; *job_workers* and
    *job_executor* shape the :class:`~repro.api.Session` each job runs
    under (serial by default — the fleet provides the concurrency, and
    forking pools from worker threads is an opt-in).  *scale* is daemon-
    wide: every tenant's submission executes under one scale + config, so
    execution keys, cache entries and artifacts are mutually consistent.
    """

    state_dir: Path
    host: str = "127.0.0.1"
    port: int = 0
    fleet: int = 2
    job_workers: int = 1
    job_executor: str = "serial"
    scale: Optional[ExperimentScale] = None
    quiet: bool = True


@dataclass
class _Counters:
    """Daemon-lifetime run accounting behind the status endpoint."""

    executions: int = 0
    runs_completed: int = 0
    run_cache_hits: int = 0
    deduped_jobs: int = 0

    @property
    def cache_hit_rate(self) -> float:
        if self.runs_completed == 0:
            return 0.0
        return self.run_cache_hits / self.runs_completed

    def snapshot(self) -> Dict[str, Any]:
        return {"executions": self.executions,
                "runs_completed": self.runs_completed,
                "run_cache_hits": self.run_cache_hits,
                "cache_hit_rate": self.cache_hit_rate,
                "deduped_jobs": self.deduped_jobs}


class ServeError(Exception):
    """An HTTP-mappable request error."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def server_record_path(state_dir: Path) -> Path:
    return Path(state_dir) / "server.json"


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except (OSError, TypeError):
        return False
    return True


class ServeDaemon:
    """The long-running service: queue + scheduler + worker fleet + HTTP."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.state_dir = Path(config.state_dir)
        self.queue = JobQueue(self.state_dir / "queue")
        self.cache_dir = self.state_dir / "cache"
        self.events_dir = self.state_dir / "events"
        self.results_dir = self.state_dir / "results"
        self.log_path = self.state_dir / "serve.log.jsonl"
        self.scale = config.scale if config.scale is not None \
            else ExperimentScale()
        self.session_config = scale_system_config(default_config(),
                                                  self.scale)
        self.config_hash = config_hash_of(self.session_config)
        self.owner = default_owner()

        self._lock = threading.RLock()
        self._wake = threading.Condition(self._lock)
        self._jobs: Dict[str, Job] = {}
        self._handles: Dict[str, Any] = {}
        self._user_cancelled: set = set()
        self._last_served: Dict[str, int] = {}
        self._serve_serial = 0
        self.counters = _Counters()
        self._stopping = threading.Event()
        self._stopped = threading.Event()
        self._draining = False
        self._started_unix = time.time()
        self._http: Optional[ThreadingHTTPServer] = None
        self._threads: List[threading.Thread] = []

    # -- lifecycle -------------------------------------------------------------------

    def start(self) -> "ServeDaemon":
        """Bind, recover the queue, launch the fleet; returns immediately."""
        record_path = server_record_path(self.state_dir)
        pid = (read_json_object(record_path) or {}).get("pid")
        if pid != os.getpid() and _pid_alive(pid):
            raise RuntimeError(
                f"a serve daemon (pid {pid}) already owns "
                f"{self.state_dir}; two daemons sharing a queue would "
                f"double-execute jobs")
        for directory in (self.cache_dir, self.events_dir, self.results_dir):
            directory.mkdir(parents=True, exist_ok=True)
        self.queue.prepare()
        # Startup recovery: jobs a killed daemon left mid-flight go back to
        # pending; their finished runs are in the cache, so re-execution
        # resumes instead of recomputing.
        self.queue.requeue_running()
        with self._lock:
            for job in self.queue.all_jobs():
                self._jobs[job.id] = job

        self._http = _ServeHTTPServer((self.config.host, self.config.port),
                                      _ServeHandler, daemon=self)
        atomic_write_json(record_path, {
            "schema": SERVER_SCHEMA,
            "url": self.url,
            "pid": os.getpid(),
            "state_dir": str(self.state_dir),
            "started_unix": self._started_unix,
        })
        http_thread = threading.Thread(target=self._http.serve_forever,
                                       name="repro-serve-http", daemon=True)
        http_thread.start()
        self._threads.append(http_thread)
        for index in range(max(1, self.config.fleet)):
            worker = threading.Thread(target=self._worker_loop,
                                      name=f"repro-serve-worker-{index}",
                                      daemon=True)
            worker.start()
            self._threads.append(worker)
        return self

    @property
    def url(self) -> str:
        assert self._http is not None, "daemon not started"
        host, port = self._http.server_address[:2]
        return f"http://{host}:{port}"

    def request_shutdown(self, drain: bool = True) -> None:
        """Begin stopping; returns immediately (callable from HTTP threads).

        With *drain* (the default), running jobs are cooperatively
        cancelled — the current run finishes and persists — and requeued as
        pending, so a restarted daemon resumes them.  Without drain the
        same cooperative stop happens but the daemon does not wait for
        workers before tearing the HTTP server down.
        """
        with self._lock:
            if self._stopping.is_set():
                return
            self._draining = True
            self._stopping.set()
            for handle in self._handles.values():
                handle.cancel()
            self._wake.notify_all()
        threading.Thread(target=self._finalise_stop, args=(drain,),
                         name="repro-serve-stop", daemon=True).start()

    def _finalise_stop(self, drain: bool) -> None:
        if drain:
            for thread in self._threads:
                if thread.name.startswith("repro-serve-worker"):
                    thread.join(timeout=60.0)
        if self._http is not None:
            self._http.shutdown()
            self._http.server_close()
        server_record_path(self.state_dir).unlink(missing_ok=True)
        self._stopped.set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the daemon has fully stopped."""
        return self._stopped.wait(timeout)

    # -- submission ------------------------------------------------------------------

    def submit(self, payload: Dict[str, Any]) -> Job:
        """Validate one HTTP submission and enqueue it."""
        tenant = payload.get("tenant", DEFAULT_TENANT)
        name = payload.get("name", "experiment")
        priority = payload.get("priority", 0)
        if not isinstance(tenant, str) or not _NAME_RE.match(tenant):
            raise ServeError(400, f"invalid tenant {tenant!r}")
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise ServeError(400, f"invalid job name {name!r}")
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise ServeError(400, f"priority must be an integer, "
                                  f"got {priority!r}")
        raw_specs = payload.get("specs")
        if not isinstance(raw_specs, list) or not raw_specs:
            raise ServeError(400, "specs must be a non-empty list")
        specs = self._validate_specs(raw_specs)
        exec_key = execution_key(specs, self.session_config, self.scale)
        with self._wake:
            if self._stopping.is_set():
                raise ServeError(503, "daemon is shutting down")
            duplicate_of = next(
                (job.id for job in self._jobs.values()
                 if job.exec_key == exec_key and job.state in (QUEUED,
                                                               RUNNING)),
                None)
            job = Job(id=self.queue.next_id(), tenant=tenant, name=name,
                      priority=priority, specs=specs, exec_key=exec_key,
                      deduped_against=duplicate_of,
                      events_path=f"events/{exec_key}.jsonl")
            self.queue.submit(job)
            self._jobs[job.id] = job
            self._wake.notify_all()
        self._log(job_event(JOB_QUEUED, job.id, job.tenant, key=exec_key,
                            experiment=job.name, total=job.total))
        return job

    def _validate_specs(self, raw_specs: List[Any]) -> List[RunSpec]:
        """Reject bad submissions at the door, not deep inside a worker."""
        platforms = set(available_platforms())
        workloads = set(all_workload_names())
        specs = []
        for position, raw in enumerate(raw_specs):
            try:
                spec = RunSpec.from_dict(raw)
                # Unknown override sections/fields raise here, eagerly.
                apply_config_overrides(self.session_config,
                                       spec.config_overrides)
            except (ValueError, KeyError, TypeError) as error:
                raise ServeError(
                    400, f"specs[{position}]: {error}") from None
            if spec.platform not in platforms:
                raise ServeError(
                    400, f"specs[{position}]: unknown platform "
                         f"{spec.platform!r}")
            if spec.workload.startswith("scenario:"):
                # Scenario sources carry their spec inline; parse it now
                # so a malformed mix fails the submission, not a worker.
                from ..scenario.spec import parse_scenario_source
                try:
                    scenario = parse_scenario_source(spec.workload)
                except ValueError as error:
                    raise ServeError(
                        400, f"specs[{position}]: {error}") from None
                for tenant in scenario.tenants:
                    if (not tenant.workload.startswith("trace:")
                            and tenant.workload not in workloads):
                        raise ServeError(
                            400, f"specs[{position}]: unknown tenant "
                                 f"workload {tenant.workload!r}")
            elif (spec.workload not in workloads
                    and not spec.workload.startswith("trace:")):
                raise ServeError(
                    400, f"specs[{position}]: unknown workload "
                         f"{spec.workload!r}")
            specs.append(spec)
        return specs

    # -- cancellation ----------------------------------------------------------------

    def cancel(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise ServeError(404, f"no such job {job_id!r}")
            if job.state == QUEUED:
                self.queue.finish(job, CANCELLED)
                self._log(job_event(JOB_FINISH, job.id, job.tenant,
                                    state=CANCELLED, key=job.exec_key))
                return job
            if job.state == RUNNING:
                self._user_cancelled.add(job.id)
                handle = self._handles.get(job.id)
                if handle is not None:
                    handle.cancel()
                return job
            raise ServeError(409, f"job {job_id} already terminal "
                                  f"({job.state})")

    # -- the worker fleet ------------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            with self._wake:
                if self._stopping.is_set():
                    return
                pending = [job for job in self._jobs.values()
                           if job.state == QUEUED]
                running = [job for job in self._jobs.values()
                           if job.state == RUNNING]
                job = pick_next(pending, running, self._last_served)
                if job is None:
                    self._wake.wait(timeout=0.2)
                    continue
                self.queue.claim(job, self.owner)
                self._last_served[job.tenant] = self._serve_serial
                self._serve_serial += 1
            self._execute(job)

    def _job_session(self) -> Session:
        """A fresh per-job session bound to the daemon's shared cache."""
        return Session(scale=self.scale, workers=self.config.job_workers,
                       cache_dir=self.cache_dir,
                       executor=self.config.job_executor)

    def _execute(self, job: Job) -> None:
        started = time.monotonic()
        with self._lock:
            # This job is executing itself (its duplicate-of hint, if any,
            # pointed at a job that finished or was cancelled first).
            job.deduped_against = None
        events_path = self.state_dir / job.events_path
        self._log(job_event(JOB_START, job.id, job.tenant, key=job.exec_key,
                            experiment=job.name, total=job.total,
                            owner=self.owner))
        session = self._job_session()
        try:
            handle = session.submit(job.specs, name=job.name,
                                    events_path=events_path)
            with self._lock:
                self._handles[job.id] = handle
                self.counters.executions += 1
            for run in handle.iter_results():
                with self._lock:
                    job.completed += 1
                    job.cache_hits += int(run.cache_hit)
                    self.counters.runs_completed += 1
                    self.counters.run_cache_hits += int(run.cache_hit)
            experiment = handle.result()
        except ExperimentCancelled:
            self._finish_cancelled(job, events_path)
            return
        except Exception as error:  # noqa: BLE001 - worker must survive
            self._finish_terminal(job, FAILED, events_path,
                                  error=f"{type(error).__name__}: {error}")
            return
        finally:
            with self._lock:
                self._handles.pop(job.id, None)

        elapsed = time.monotonic() - started
        self._publish(job, experiment, elapsed)
        self._finish_terminal(job, DONE, events_path)
        self._adopt_duplicates(job, experiment, events_path)

    def _finish_cancelled(self, job: Job, events_path: Path) -> None:
        """Route a cooperative stop: user cancel vs shutdown drain."""
        with self._lock:
            user = job.id in self._user_cancelled
            self._user_cancelled.discard(job.id)
            draining = self._draining
        if user or not draining:
            self._finish_terminal(job, CANCELLED, events_path)
        else:
            # Drain: the job goes back to pending intact; finished runs
            # are in the cache, so the restarted daemon resumes it.
            with self._lock:
                self.queue.release(job)

    def _finish_terminal(self, job: Job, state: str, events_path: Path, *,
                         error: Optional[str] = None) -> None:
        with self._lock:
            self.queue.finish(job, state, error=error)
        marker = job_event(JOB_FINISH, job.id, job.tenant, state=state,
                           key=job.exec_key, experiment=job.name,
                           total=job.total)
        # The stream-terminal marker: watchers of this execution's events
        # see the job reach a terminal state in-band.
        try:
            append_event(events_path, marker)
        except OSError:  # pragma: no cover - events dir removed underneath
            pass
        self._log(marker)

    def _publish(self, job: Job, experiment, elapsed: float) -> None:
        """Write the job's artifact into its tenant's result namespace."""
        directory = self.results_dir / job.tenant
        payload = experiment_to_artifact(
            job.name, experiment, self.session_config,
            meta={"tenant": job.tenant, "job": job.id,
                  "exec_key": job.exec_key, "executor": "serve",
                  "elapsed_s": elapsed, "cache_hits": job.cache_hits,
                  "cache_misses": job.total - job.cache_hits,
                  "events": job.events_path,
                  **({"deduped_against": job.deduped_against}
                     if job.deduped_against else {})})
        path = directory / f"{job.id}.json"
        atomic_write_json(path, payload)
        with self._lock:
            job.result_path = str(path.relative_to(self.state_dir))

    def _adopt_duplicates(self, job: Job, experiment, events_path) -> None:
        """Complete every pending duplicate of a just-finished execution.

        Their artifacts are folded from the shared run cache against each
        duplicate's *own* spec list (labels and spec order may differ
        between tenants without changing the execution), so nothing
        re-executes and every subscriber gets a correct, complete result.
        """
        session = None
        while True:
            with self._wake:
                pending = [j for j in self._jobs.values()
                           if j.state == QUEUED]
                duplicates = waiting_duplicates(pending, job.exec_key)
                for duplicate in duplicates:
                    self.queue.claim(duplicate, self.owner)
            if not duplicates:
                return
            if session is None:
                session = self._job_session()
            for duplicate in duplicates:
                self._log(job_event(JOB_START, duplicate.id,
                                    duplicate.tenant, key=duplicate.exec_key,
                                    experiment=duplicate.name,
                                    total=duplicate.total, owner=self.owner))
                try:
                    folded = self._fold_from_cache(duplicate, session)
                except Exception as error:  # noqa: BLE001
                    self._finish_terminal(
                        duplicate, FAILED, events_path,
                        error=f"{type(error).__name__}: {error}")
                    continue
                with self._lock:
                    duplicate.completed = duplicate.total
                    duplicate.cache_hits = duplicate.total
                    duplicate.deduped_against = job.id
                    self.counters.deduped_jobs += 1
                self._publish(duplicate, folded, 0.0)
                self._finish_terminal(duplicate, DONE, events_path)

    def _fold_from_cache(self, job: Job, session: Session):
        """Fold a duplicate's ExperimentResult from cached runs by key."""
        from ..analysis.experiments import ExperimentResult
        cache = session.runner.cache
        experiment = ExperimentResult(scale=self.scale)
        for spec in job.specs:
            key = run_cache_key(spec, self.session_config, self.scale)
            result = cache.load(key)
            if result is None:
                raise RuntimeError(
                    f"cache entry {key} vanished while folding a deduped "
                    f"job; resubmit {job.id}")
            platform_key, workload_key = spec.result_key
            experiment.add(platform_key, workload_key, result)
        return experiment

    # -- observability ---------------------------------------------------------------

    def _log(self, event) -> None:
        try:
            append_event(self.log_path, event)
        except OSError:  # pragma: no cover - state dir removed underneath
            pass

    def status(self) -> Dict[str, Any]:
        with self._lock:
            jobs = list(self._jobs.values())
            counters = self.counters.snapshot()
            draining = self._draining
        states: Dict[str, int] = {state: 0 for state in
                                  (QUEUED, RUNNING, DONE, FAILED, CANCELLED)}
        for job in jobs:
            states[job.state] = states.get(job.state, 0) + 1
        pending = [job for job in jobs if job.state == QUEUED]
        running = [job for job in jobs if job.state == RUNNING]
        return {
            "schema": STATUS_SCHEMA,
            "url": self.url,
            "pid": os.getpid(),
            "state_dir": str(self.state_dir),
            "uptime_s": time.time() - self._started_unix,
            "scale": scale_to_dict(self.scale),
            "config_hash": self.config_hash,
            "fleet": self.config.fleet,
            "job_workers": self.config.job_workers,
            "job_executor": self.config.job_executor,
            "draining": draining,
            "queue": states,
            "tenants": tenant_snapshot(pending, running),
            "runs": counters,
        }

    def job_payload(self, job_id: str) -> Dict[str, Any]:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise ServeError(404, f"no such job {job_id!r}")
            return job_public(job)

    def jobs_payload(self, tenant: Optional[str] = None
                     ) -> List[Dict[str, Any]]:
        with self._lock:
            jobs = sorted(self._jobs.values(), key=lambda job: job.id)
        return [job_public(job) for job in jobs
                if tenant is None or job.tenant == tenant]


def job_public(job: Job) -> Dict[str, Any]:
    """A job record as served over HTTP: the payload minus the spec bodies.

    Spec lists can be large (sweeps) and the submitting client already has
    them; ``total`` keeps the run count visible.
    """
    payload = job.to_payload()
    payload.pop("specs")
    return payload


# ---------------------------------------------------------------------------
# HTTP plumbing
# ---------------------------------------------------------------------------


class _ServeHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying its daemon (handlers need it)."""

    daemon_threads = True
    # Long-poll watchers occupy threads; do not linger on socket close.
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], handler,
                 daemon: ServeDaemon) -> None:
        self.serve_daemon = daemon
        super().__init__(address, handler)


class _ServeHandler(BaseHTTPRequestHandler):
    """Route table + JSON plumbing for the daemon's API."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1"

    # -- helpers ---------------------------------------------------------------------

    @property
    def daemon(self) -> ServeDaemon:
        return self.server.serve_daemon  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        if not self.daemon.config.quiet:  # pragma: no cover - debug aid
            super().log_message(format, *args)

    def _send_json(self, payload: Any, status: int = 200) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json({"error": message}, status=status)

    def _read_json_body(self) -> Dict[str, Any]:
        raw = (self.headers.get("Content-Length") or "0").strip()
        if not re.fullmatch(r"[0-9]+", raw):
            # The body's extent is unknown: answer, then drop the
            # connection rather than parse the body as the next request.
            self.close_connection = True
            raise ServeError(400, f"invalid Content-Length {raw!r}")
        length = int(raw)
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            raise ServeError(413, f"request body of {length} bytes exceeds "
                                  f"the {MAX_BODY_BYTES}-byte limit")
        if length == 0:
            return {}
        try:
            payload = json.loads(self.rfile.read(length).decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            raise ServeError(400, "request body is not valid JSON") \
                from None
        if not isinstance(payload, dict):
            raise ServeError(400, "request body must be a JSON object")
        return payload

    def _route(self) -> Tuple[str, Dict[str, str]]:
        parsed = urllib.parse.urlsplit(self.path)
        query = {key: values[-1] for key, values
                 in urllib.parse.parse_qs(parsed.query).items()}
        return parsed.path.rstrip("/") or "/", query

    # -- verbs -----------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path, query = self._route()
        try:
            if path == "/v1/status":
                self._send_json(self.daemon.status())
            elif path == "/v1/jobs":
                self._send_json(
                    {"jobs": self.daemon.jobs_payload(query.get("tenant"))})
            elif match := re.fullmatch(r"/v1/jobs/([^/]+)", path):
                self._send_json(self.daemon.job_payload(match.group(1)))
            elif match := re.fullmatch(r"/v1/jobs/([^/]+)/events", path):
                self._stream_events(match.group(1), query)
            elif match := re.fullmatch(r"/v1/jobs/([^/]+)/result", path):
                self._send_result(match.group(1))
            elif match := re.fullmatch(r"/v1/cache/([0-9a-f]{64})", path):
                self._send_cache_entry(match.group(1))
            else:
                self._send_error_json(404, f"unknown path {path!r}")
        except ServeError as error:
            self._send_error_json(error.status, str(error))
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path, _query = self._route()
        try:
            body = self._read_json_body()
            if path == "/v1/jobs":
                job = self.daemon.submit(body)
                self._send_json(job_public(job), status=201)
            elif match := re.fullmatch(r"/v1/jobs/([^/]+)/cancel", path):
                job = self.daemon.cancel(match.group(1))
                self._send_json(job_public(job))
            elif path == "/v1/shutdown":
                drain = bool(body.get("drain", True))
                self._send_json({"stopping": True, "drain": drain})
                self.daemon.request_shutdown(drain=drain)
            else:
                self._send_error_json(404, f"unknown path {path!r}")
        except ServeError as error:
            self._send_error_json(error.status, str(error))
        except (BrokenPipeError, ConnectionResetError):
            pass

    # -- endpoint bodies -------------------------------------------------------------

    def _send_result(self, job_id: str) -> None:
        payload = self.daemon.job_payload(job_id)
        if payload["state"] != DONE:
            raise ServeError(
                409, f"job {job_id} is {payload['state']}"
                     + (f": {payload['error']}" if payload.get("error")
                        else ""))
        path = self.daemon.state_dir / payload["result_path"]
        try:
            body = path.read_bytes()
        except OSError:
            raise ServeError(410, f"artifact of job {job_id} is gone "
                                  f"({payload['result_path']})") from None
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_cache_entry(self, key: str) -> None:
        path = self.daemon.cache_dir / f"{key}.json"
        try:
            body = path.read_bytes()
        except OSError:
            raise ServeError(404, f"no cache entry {key}") from None
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _stream_events(self, job_id: str, query: Dict[str, str]) -> None:
        """Chunked long-poll over the job's ``repro.events/1`` stream.

        Sends complete lines from byte ``offset`` as they are appended,
        ending when the job is terminal (and fully relayed) or after
        ``wait`` seconds; the client resumes with its byte count as the
        next offset.  The ``X-Repro-Events-Offset`` header echoes the
        offset actually used — the server clamps an offset past EOF back
        to zero when a resumed execution truncated the stream.
        """
        payload = self.daemon.job_payload(job_id)
        events_path = self.daemon.state_dir / payload["events_path"]
        try:
            offset = max(0, int(query.get("offset", "0")))
        except ValueError:
            raise ServeError(400, "offset must be an integer") from None
        try:
            wait = min(MAX_WAIT_S,
                       max(0.0, float(query.get("wait", DEFAULT_WAIT_S))))
        except ValueError:
            raise ServeError(400, "wait must be a number") from None
        try:
            size = events_path.stat().st_size
        except OSError:
            size = 0
        if offset > size:
            offset = 0

        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.send_header("X-Repro-Events-Offset", str(offset))
        self.end_headers()

        deadline = time.monotonic() + wait
        try:
            while True:
                data, offset = tail_bytes(events_path, offset)
                if data:
                    self._write_chunk(data)
                terminal = self.daemon.job_payload(job_id)["state"] not in \
                    (QUEUED, RUNNING)
                if terminal and not data:
                    break
                if time.monotonic() >= deadline:
                    break
                time.sleep(0.05)
            self._write_chunk(b"")
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True

    def _write_chunk(self, data: bytes) -> None:
        self.wfile.write(f"{len(data):X}\r\n".encode("ascii"))
        if data:
            self.wfile.write(data)
            self.wfile.write(b"\r\n")
        else:
            self.wfile.write(b"\r\n")
        self.wfile.flush()
