"""HTTP client for the ``repro serve`` daemon, and the ``serve:`` executor.

:class:`ServeClient` is the typed wrapper over the daemon's JSON API —
submit, list, watch, fetch results, cancel, shut down — built on
``urllib.request`` only (the ``http.client`` layer underneath decodes the
daemon's chunked event stream transparently, so a long-poll segment is just
a blocking read).

:class:`ServeExecutor` plugs the daemon into the executor protocol:
``Session(executor="serve:http://host:port")`` makes ``Session.submit()``
POST the specs as a job and return a normal streaming
:class:`~repro.exec.ExperimentHandle` whose events are relayed from the
daemon's ``repro.events/1`` stream.  Run records in that stream carry the
content-addressed cache ``key`` of each run; the executor maps keys back to
the *local* spec indexes (the daemon may execute a deduped twin submitted
in a different order) and pulls each :class:`~repro.platforms.base.RunResult`
from the daemon's cache endpoint, so ``handle.result()`` folds exactly the
same matrix — bit-identical — as a local ``Session.submit()`` on the same
specs.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.parse
import urllib.request
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..exec.handle import CancelToken, ExperimentHandle
from ..runner.artifacts import (
    config_hash_of,
    experiment_from_artifact,
    read_json_object,
    run_cache_key,
    run_result_from_dict,
)
from ..runner.events import (
    CACHE_HIT,
    JOB_FINISH,
    RUN_FINISH,
    RUN_START,
    Event,
    parse_event_lines,
)
from ..runner.specs import RunSpec
from .jobs import ACTIVE_STATES, CANCELLED, DEFAULT_TENANT, DONE, FAILED

#: Default per-request timeout (seconds); event long-polls add their wait.
DEFAULT_TIMEOUT_S = 30.0


class ServeClientError(RuntimeError):
    """A request the daemon rejected (carries the HTTP status)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class ServeUnavailable(RuntimeError):
    """The daemon could not be reached at all."""


class ServeClient:
    """Typed access to one serve daemon's HTTP API, as one tenant."""

    def __init__(self, url: str, *, tenant: str = DEFAULT_TENANT,
                 timeout: float = DEFAULT_TIMEOUT_S) -> None:
        self.url = url.rstrip("/")
        self.tenant = tenant
        self.timeout = timeout

    @classmethod
    def from_state_dir(cls, state_dir: Path, *,
                       tenant: str = DEFAULT_TENANT,
                       timeout: float = DEFAULT_TIMEOUT_S) -> "ServeClient":
        """Connect via the ``server.json`` record a running daemon wrote."""
        record_path = Path(state_dir) / "server.json"
        url = (read_json_object(record_path) or {}).get("url")
        if not isinstance(url, str):
            raise ServeUnavailable(
                f"no running daemon found under {state_dir} "
                f"({record_path} is missing or unreadable)")
        return cls(url, tenant=tenant, timeout=timeout)

    # -- plumbing --------------------------------------------------------------------

    def _request(self, method: str, path: str,
                 payload: Optional[Dict[str, Any]] = None,
                 timeout: Optional[float] = None) -> Any:
        body = None if payload is None \
            else json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(
            self.url + path, data=body, method=method,
            headers={"Content-Type": "application/json"} if body else {})
        try:
            with urllib.request.urlopen(
                    request, timeout=timeout or self.timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            detail = error.read().decode("utf-8", "replace")
            try:
                detail = json.loads(detail).get("error", detail)
            except json.JSONDecodeError:
                pass
            raise ServeClientError(error.code, detail) from None
        except urllib.error.URLError as error:
            raise ServeUnavailable(
                f"cannot reach serve daemon at {self.url}: "
                f"{error.reason}") from None

    # -- verbs -----------------------------------------------------------------------

    def status(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/status")

    def jobs(self, tenant: Optional[str] = None) -> List[Dict[str, Any]]:
        query = f"?tenant={urllib.parse.quote(tenant)}" if tenant else ""
        return self._request("GET", f"/v1/jobs{query}")["jobs"]

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET",
                             f"/v1/jobs/{urllib.parse.quote(job_id)}")

    def submit(self, specs: Sequence[RunSpec], *, name: str = "experiment",
               priority: int = 0,
               tenant: Optional[str] = None) -> Dict[str, Any]:
        """POST one job; returns its ``repro.job/1`` record (sans specs)."""
        return self._request("POST", "/v1/jobs", {
            "tenant": tenant or self.tenant,
            "name": name,
            "priority": priority,
            "specs": [spec.to_dict() for spec in specs],
        })

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request(
            "POST", f"/v1/jobs/{urllib.parse.quote(job_id)}/cancel", {})

    def shutdown(self, drain: bool = True) -> Dict[str, Any]:
        return self._request("POST", "/v1/shutdown", {"drain": drain})

    def result(self, job_id: str) -> Dict[str, Any]:
        """The finished job's ``repro.experiment/1`` artifact payload."""
        return self._request(
            "GET", f"/v1/jobs/{urllib.parse.quote(job_id)}/result")

    def experiment(self, job_id: str):
        """The finished job's result as an ExperimentResult."""
        return experiment_from_artifact(self.result(job_id))

    def cache_entry(self, key: str) -> Dict[str, Any]:
        return self._request("GET", f"/v1/cache/{key}")

    # -- the event stream ------------------------------------------------------------

    def events(self, job_id: str, offset: int = 0,
               wait: float = 10.0) -> Tuple[List[Event], int]:
        """One long-poll segment of the job's ``repro.events/1`` stream.

        Returns the parsed events plus the byte offset to resume from.  The
        daemon clamps an offset past EOF back to zero (a resumed execution
        truncated the stream) and echoes the offset it used, so resuming
        just works; run-event consumers dedupe on index/key, making a
        replayed prefix harmless.
        """
        path = (f"/v1/jobs/{urllib.parse.quote(job_id)}/events"
                f"?offset={offset}&wait={wait}")
        request = urllib.request.Request(self.url + path, method="GET")
        try:
            with urllib.request.urlopen(
                    request, timeout=wait + self.timeout) as response:
                start = int(response.headers.get("X-Repro-Events-Offset",
                                                 offset))
                data = response.read()
        except urllib.error.HTTPError as error:
            detail = error.read().decode("utf-8", "replace")
            try:
                detail = json.loads(detail).get("error", detail)
            except json.JSONDecodeError:
                pass
            raise ServeClientError(error.code, detail) from None
        except urllib.error.URLError as error:
            raise ServeUnavailable(
                f"cannot reach serve daemon at {self.url}: "
                f"{error.reason}") from None
        return parse_event_lines(data), start + len(data)

    def watch(self, job_id: str, *, offset: int = 0,
              wait: float = 10.0) -> Iterator[Event]:
        """Yield the job's events until it reaches a terminal state.

        Ends at the job's own terminal ``job-finish`` marker; as a
        belt-and-braces fallback (the marker can be truncated away by a
        drain/restart), an empty segment on an already-terminal job record
        also ends the stream.
        """
        while True:
            events, offset = self.events(job_id, offset, wait=wait)
            terminal = False
            for event in events:
                yield event
                if event.kind == JOB_FINISH and event.job == job_id:
                    terminal = True
            if terminal:
                return
            if not events and \
                    self.job(job_id)["state"] not in ACTIVE_STATES:
                return

    def wait(self, job_id: str,
             timeout: Optional[float] = None) -> Dict[str, Any]:
        """Block until the job is terminal; returns its final record.

        Long-polls the event stream between state checks (the deadline is
        enforced per segment, so a silent job cannot hang past *timeout*).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        offset = 0
        while True:
            record = self.job(job_id)
            if record["state"] not in ACTIVE_STATES:
                return record
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} still active after {timeout:.1f}s")
            _events, offset = self.events(job_id, offset, wait=5.0)


# ---------------------------------------------------------------------------
# The executor tier
# ---------------------------------------------------------------------------


class ServeExecutor:
    """Run submissions through a serve daemon (``executor="serve:<url>"``).

    The handle's drive generator relays the daemon's event stream: run
    records are re-indexed from their cache ``key`` into the local spec
    order and their results fetched from the daemon's cache endpoint, so
    streaming consumption (``iter_results``/``progress``) and the final
    index-ordered fold behave exactly like the local tiers.  Requires the
    local session's scale + config to match the daemon's (checked against
    the daemon's ``config_hash`` at submit time) — otherwise the cache
    keys, and therefore the results, would not correspond.
    """

    name = "serve"

    def __init__(self, url: str, *, tenant: str = DEFAULT_TENANT,
                 priority: int = 0, poll_s: float = 5.0) -> None:
        self.client = ServeClient(url, tenant=tenant)
        self.priority = priority
        self.poll_s = poll_s

    def submit(self, specs: Sequence[RunSpec], ctx) -> ExperimentHandle:
        specs = list(specs)
        status = self.client.status()
        local_hash = config_hash_of(ctx.runner.config)
        if status["config_hash"] != local_hash:
            raise ServeClientError(
                409,
                f"daemon at {self.client.url} runs config "
                f"{status['config_hash'][:12]} (scale {status['scale']}) "
                f"but this session is configured for {local_hash[:12]}; "
                f"point the session at the daemon's scale")
        indexes_for_key: Dict[str, List[int]] = {}
        for index, spec in enumerate(specs):
            key = run_cache_key(spec, ctx.runner.config, ctx.runner.scale)
            indexes_for_key.setdefault(key, []).append(index)
        record = self.client.submit(specs, name=ctx.name,
                                    priority=self.priority)
        token = CancelToken()
        drive = self._drive(record["id"], specs, indexes_for_key, token)
        return ExperimentHandle(ctx.name, specs, ctx.runner.scale, drive,
                                token, executor=self.name,
                                events_path=ctx.events_path)

    # -- the relay -------------------------------------------------------------------

    def _drive(self, job_id: str, specs: List[RunSpec],
               indexes_for_key: Dict[str, List[int]],
               token: CancelToken) -> Iterator[Event]:
        seen: set = set()
        offset = 0
        cancelled_sent = False
        while True:
            if token.cancelled and not cancelled_sent:
                self.client.cancel(job_id)
                cancelled_sent = True
            events, offset = self.client.events(job_id, offset,
                                                wait=self.poll_s)
            terminal_state: Optional[str] = None
            for event in events:
                if event.kind == JOB_FINISH and event.job == job_id:
                    terminal_state = event.state
                    continue
                if event.kind == RUN_START:
                    continue  # foreign indexes; starts are not re-mapped
                if event.kind not in (RUN_FINISH, CACHE_HIT) \
                        or event.key is None:
                    continue
                for index in indexes_for_key.get(event.key, ()):
                    if index in seen:
                        continue
                    seen.add(index)
                    yield self._run_event(event, index)
            if terminal_state is None and not events:
                state = self.client.job(job_id)["state"]
                if state not in ACTIVE_STATES:
                    terminal_state = state
            if terminal_state is None:
                continue
            if terminal_state == FAILED:
                record = self.client.job(job_id)
                raise RuntimeError(
                    f"serve job {job_id} failed: "
                    f"{record.get('error') or 'unknown error'}")
            if terminal_state == CANCELLED:
                return
            if terminal_state == DONE:
                # Belt and braces: fill any run the relayed stream missed
                # (e.g. truncated by a drain/restart) from the artifact.
                missing = [index for indexes in indexes_for_key.values()
                           for index in indexes if index not in seen]
                if missing:
                    experiment = self.client.experiment(job_id)
                    for index in missing:
                        seen.add(index)
                        platform_key, workload_key = \
                            specs[index].result_key
                        result = experiment.get(platform_key, workload_key)
                        yield Event(kind=CACHE_HIT, index=index,
                                    platform_key=platform_key,
                                    workload_key=workload_key,
                                    cache_hit=True,
                                    operations_per_second=result
                                    .operations_per_second,
                                    remote=True, result=result)
                return

    def _run_event(self, event: Event, index: int) -> Event:
        """Re-index a relayed run record and attach its fetched result."""
        entry = self.client.cache_entry(event.key)
        result = run_result_from_dict(entry["result"])
        return Event(kind=event.kind, unix=event.unix, index=index,
                     platform_key=event.platform_key,
                     workload_key=event.workload_key,
                     cache_hit=event.cache_hit,
                     operations_per_second=event.operations_per_second,
                     key=event.key, remote=True, result=result)


__all__ = [
    "ServeClient",
    "ServeClientError",
    "ServeExecutor",
    "ServeUnavailable",
]
