"""Typed execution events and the versioned ``repro.events/1`` JSONL format.

Every executor (see :mod:`repro.exec`) narrates an experiment as a stream of
:class:`Event` records: a run was dispatched, finished, resolved from the
content-addressed cache, a shard was claimed.  The same records serve three
consumers:

* :class:`~repro.exec.handle.ExperimentHandle` collects them in memory and
  exposes ``events()`` / ``progress()`` / ``iter_results()``;
* when an events path is given, each record is appended as one JSON line —
  the ``repro.events/1`` artifact CI uploads next to the experiment JSON;
* distributed shard workers append their per-run ``finish`` records to the
  spool's ``progress/`` directory, which is how a coordinating handle (or
  ``repro shard status --watch``) observes runs completing on other hosts.

The line format is deliberately self-contained: every line carries the
schema tag, so a tail reader never needs a header, and a file of lines can
be split or concatenated freely.  Run-level records carry the run's
content-addressed cache ``key``, which lets a remote tail reader load the
full :class:`~repro.platforms.base.RunResult` from the shared cache instead
of waiting for the shard artifact.

This module sits at the bottom of the layering on purpose: it imports
nothing from :mod:`repro.distrib` or :mod:`repro.exec`, so both can use it
without an import cycle.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..platforms.base import RunResult
from .specs import RunSpec

#: Bump when the JSONL event-record layout changes.
EVENTS_SCHEMA = "repro.events/1"

#: Event kinds (the ``kind`` field of every record).
SUBMITTED = "submitted"          #: experiment handed to an executor
RUN_START = "start"              #: a run was dispatched for execution
RUN_FINISH = "finish"            #: a run finished executing
CACHE_HIT = "cache-hit"          #: a run resolved from the run cache
SHARD_CLAIMED = "shard-claimed"  #: a shard manifest was claimed by a worker
JOB_QUEUED = "job-queued"        #: a service job entered the persistent queue
JOB_START = "job-start"          #: a service job was claimed by a worker
JOB_FINISH = "job-finish"        #: a service job reached a terminal state

EVENT_KINDS = (SUBMITTED, RUN_START, RUN_FINISH, CACHE_HIT, SHARD_CLAIMED,
               JOB_QUEUED, JOB_START, JOB_FINISH)


@dataclass(frozen=True)
class Event:
    """One typed execution event.

    Only ``kind`` and ``unix`` are always present; the remaining fields are
    populated per kind (run events carry ``index``/keys/throughput, shard
    events carry ``shard_index``/``owner``, service-job events carry
    ``job``/``tenant``/``state``).  ``result`` is the in-process payload
    riding along to the handle — it never enters the JSON record (run
    results live in the run cache and the experiment artifact, keyed by
    ``key``).
    """

    kind: str
    unix: float = field(default_factory=time.time)
    index: Optional[int] = None
    platform_key: Optional[str] = None
    workload_key: Optional[str] = None
    cache_hit: Optional[bool] = None
    operations_per_second: Optional[float] = None
    key: Optional[str] = None
    shard_index: Optional[int] = None
    owner: Optional[str] = None
    remote: bool = False
    experiment: Optional[str] = None
    total: Optional[int] = None
    executor: Optional[str] = None
    job: Optional[str] = None
    tenant: Optional[str] = None
    state: Optional[str] = None
    result: Optional[RunResult] = dataclasses.field(
        default=None, compare=False)

    def to_record(self) -> Dict[str, Any]:
        """The JSON-line payload: schema + kind + every populated field."""
        record: Dict[str, Any] = {"schema": EVENTS_SCHEMA, "kind": self.kind,
                                  "unix": self.unix}
        for name in ("index", "platform_key", "workload_key", "cache_hit",
                     "operations_per_second", "key", "shard_index", "owner",
                     "experiment", "total", "executor", "job", "tenant",
                     "state"):
            value = getattr(self, name)
            if value is None:
                continue
            # json.dumps would happily emit bare Infinity/NaN — tokens no
            # strict JSON parser (or a tail reader on another host) accepts.
            # A non-finite metric is "no value", same as None.
            if isinstance(value, float) and not math.isfinite(value):
                continue
            record[name] = value
        if self.remote:
            record["remote"] = True
        return record

    def to_line(self) -> str:
        return json.dumps(self.to_record(), sort_keys=True,
                          separators=(",", ":"))


def event_from_record(payload: Dict[str, Any]) -> Event:
    """Rebuild an :class:`Event` from one parsed JSON-line record.

    Raises ``ValueError`` on anything but an object of this schema, so
    tail readers can skip lines that are not event records.
    """
    schema = payload.get("schema") if isinstance(payload, dict) else None
    if schema != EVENTS_SCHEMA:
        raise ValueError(
            f"unsupported event schema {schema!r} "
            f"(expected {EVENTS_SCHEMA})")
    known = {f.name for f in dataclasses.fields(Event)} - {"result"}
    return Event(**{name: value for name, value in payload.items()
                    if name in known})


def run_event(index: int, spec: RunSpec, result: RunResult,
              cache_hit: bool, *,
              key: Optional[str] = None,
              shard_index: Optional[int] = None,
              owner: Optional[str] = None,
              remote: bool = False) -> Event:
    """The ``finish`` (or ``cache-hit``) record of one completed run."""
    platform_key, workload_key = spec.result_key
    return Event(kind=CACHE_HIT if cache_hit else RUN_FINISH,
                 index=index, platform_key=platform_key,
                 workload_key=workload_key, cache_hit=cache_hit,
                 operations_per_second=result.operations_per_second,
                 key=key, shard_index=shard_index, owner=owner,
                 remote=remote, result=result)


def start_event(index: int, spec: RunSpec, *,
                shard_index: Optional[int] = None) -> Event:
    """The ``start`` record of one dispatched run."""
    platform_key, workload_key = spec.result_key
    return Event(kind=RUN_START, index=index, platform_key=platform_key,
                 workload_key=workload_key, shard_index=shard_index)


def claim_event(shard_index: int, owner: str) -> Event:
    """The ``shard-claimed`` record of the sharded tier."""
    return Event(kind=SHARD_CLAIMED, shard_index=shard_index, owner=owner)


def job_event(kind: str, job_id: str, tenant: str, *,
              state: Optional[str] = None,
              key: Optional[str] = None,
              experiment: Optional[str] = None,
              total: Optional[int] = None,
              owner: Optional[str] = None) -> Event:
    """A service-job lifecycle record (``job-queued``/``job-start``/
    ``job-finish``).

    ``key`` carries the job's execution key (the submission-dedup address,
    see :mod:`repro.serve.jobs`), and a terminal ``job-finish`` record in an
    execution's event stream is the marker long-poll watchers use to tell
    "stream complete" from "worker still running".
    """
    return Event(kind=kind, job=job_id, tenant=tenant, state=state, key=key,
                 experiment=experiment, total=total, owner=owner)


def append_event(path: Path, event: Event, *, mode: str = "a") -> Path:
    """Append one event line to *path* (``mode="w"`` truncates first).

    Appends are plain ``O_APPEND`` writes of one short line: every progress
    file has exactly one writer (the worker owning that shard), so lines
    never interleave, and a reader polling the file sees only whole lines
    plus at most one incomplete tail — which :func:`read_events` leaves for
    the next poll.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open(mode, encoding="utf-8") as handle:
        handle.write(event.to_line() + "\n")
    return path


def parse_event_lines(data: bytes) -> List[Event]:
    """The events of complete JSONL bytes; malformed or foreign lines
    are skipped rather than wedging the reader."""
    events: List[Event] = []
    for raw in data.splitlines():
        try:
            events.append(event_from_record(json.loads(raw)))
        except (ValueError, RecursionError):  # undecodable, invalid JSON
            continue
    return events


def read_events(path: Path, offset: int = 0) -> Tuple[List[Event], int]:
    """Parse the complete event lines :func:`tail_bytes` returns.

    Returns the parsed events and the new offset.  This is the tail
    primitive: callers keep the returned offset and poll again later; an
    incomplete final line (a worker mid-append) is not consumed, a file
    rewritten shorter than *offset* is re-read from the start, and
    malformed complete lines are skipped.  A missing file reads as empty
    — the worker has not started yet.
    """
    data, offset = tail_bytes(path, offset)
    return parse_event_lines(data), offset


def tail_bytes(path: Path, offset: int = 0) -> Tuple[bytes, int]:
    """Raw complete-line bytes of *path* from byte *offset*, plus new offset.

    The one tail reader: :func:`read_events` parses its lines, and the
    serve daemon's HTTP event streamer relays them verbatim to clients,
    which parse them with :func:`parse_event_lines`.  An incomplete final
    line is left for the next poll, and a missing file reads as empty.
    When the file is *shorter* than the requested offset — a restarted
    execution truncated and rewrote the stream — reading restarts from
    byte 0 rather than waiting forever past the end; run-event consumers
    dedupe on ``index``, so the replayed prefix is harmless.
    """
    try:
        with Path(path).open("rb") as handle:
            if os.fstat(handle.fileno()).st_size < offset:
                offset = 0
            handle.seek(offset)
            data = handle.read()
    except OSError:
        return b"", offset
    cut = data.rfind(b"\n")
    if cut < 0:
        return b"", offset
    return data[:cut + 1], offset + cut + 1
