"""The streaming experiment handle: observe, consume and cancel a run.

:meth:`repro.api.Session.submit` hands specs to an executor and returns an
:class:`ExperimentHandle` immediately.  The handle is *pull-driven*: the
executor behind it is a lazy event generator, and execution advances exactly
as far as the consumer pulls — ``iter_results()`` one run at a time,
``result()`` to the end.  That keeps every tier single-threaded and
deterministic: there is no background thread racing the consumer, and
abandoning the handle (dropping it, or ``break``-ing out of
``iter_results()``) tears the execution down cleanly through generator
close.

The handle exposes four views of the same event stream:

* :meth:`iter_results` — one :class:`StreamedRun` per completed run, in
  completion order, each flagged with whether it was a cache hit and
  whether it ran on a remote host;
* :meth:`progress` — a completed/total/ETA snapshot (advances as the
  handle is consumed);
* :meth:`events` — every typed :class:`~repro.runner.events.Event` observed
  so far; with an ``events_path`` the same records are dumped as a
  ``repro.events/1`` JSONL artifact;
* :meth:`result` — drains the stream and folds the runs *index-ordered*
  into an :class:`~repro.analysis.experiments.ExperimentResult` that is
  bit-identical to the blocking verbs (``Session.collect`` et al.) on
  every executor tier.

:meth:`cancel` flips a token the executors poll between runs: execution
stops after the current run, finished runs stay in the content-addressed
cache (a later ``submit`` of the same specs resumes from it), and
``result()`` raises :class:`ExperimentCancelled`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

from ..analysis.experiments import ExperimentResult
from ..platforms.base import RunResult
from ..runner.events import (
    CACHE_HIT,
    RUN_FINISH,
    SUBMITTED,
    Event,
    append_event,
)
from ..runner.specs import RunSpec
from ..workloads.registry import ExperimentScale


class ExperimentCancelled(RuntimeError):
    """``result()`` was asked for a matrix whose execution was cancelled."""


class CancelToken:
    """Shared cancel flag between a handle and its executor's generator.

    Callable so it can be passed verbatim as the ``should_stop`` hook of
    :meth:`~repro.runner.parallel.ParallelExperimentRunner.iter_specs`.
    """

    __slots__ = ("_cancelled",)

    def __init__(self) -> None:
        self._cancelled = False

    def cancel(self) -> None:
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def __call__(self) -> bool:
        return self._cancelled


@dataclass(frozen=True)
class StreamedRun:
    """One completed run as yielded by :meth:`ExperimentHandle.iter_results`.

    ``index`` is the run's position in the submitted spec list (the fold
    order of :meth:`ExperimentHandle.result`), ``cache_hit`` says whether
    the result came from the content-addressed cache instead of executing,
    and ``remote`` marks runs observed from another host's shard worker.
    """

    index: int
    spec: RunSpec
    result: RunResult
    cache_hit: bool
    remote: bool = False


def compute_eta(completed: int, total: int,
                elapsed_s: float) -> Optional[float]:
    """Linear-extrapolation ETA, or ``None`` when there is no basis for one.

    The guards matter more than the estimate: with nothing completed, an
    already-finished run, zero elapsed time (a clock too coarse to have
    ticked between submit and the first snapshot — or a burst of pure
    cache hits) or a non-finite extrapolation, the honest answer is "no
    estimate", never a division by zero or an ``inf`` that would poison a
    ``repro.events/1`` record downstream.
    """
    if completed <= 0 or total <= completed or elapsed_s <= 0.0:
        return None
    eta = elapsed_s / completed * (total - completed)
    return eta if math.isfinite(eta) else None


@dataclass(frozen=True)
class ProgressSnapshot:
    """Point-in-time progress of a handle: counts, elapsed, crude ETA."""

    completed: int
    total: int
    cache_hits: int
    elapsed_s: float
    eta_s: Optional[float]

    @property
    def done(self) -> bool:
        return self.completed >= self.total

    @property
    def fraction(self) -> float:
        return 1.0 if self.total == 0 else self.completed / self.total

    def format(self) -> str:
        """One-line ticker text used by ``repro run --progress``."""
        eta = "" if self.eta_s is None else f", eta {self.eta_s:.1f}s"
        return (f"{self.completed}/{self.total} runs "
                f"({self.fraction * 100.0:3.0f}%), "
                f"{self.cache_hits} cached, "
                f"{self.elapsed_s:.1f}s elapsed{eta}")


class ExperimentHandle:
    """A submitted experiment: stream results, watch progress, cancel.

    Built by :meth:`Executor.submit`; not constructed directly by users.
    """

    def __init__(self, name: str, specs: Sequence[RunSpec],
                 scale: ExperimentScale, drive: Iterator[Event],
                 token: CancelToken, *,
                 executor: str = "unknown",
                 events_path: Optional[Path] = None) -> None:
        self.name = name
        self.executor = executor
        self._specs = list(specs)
        self._scale = scale
        self._drive = drive
        self._token = token
        self._events_path = Path(events_path) if events_path else None
        self._events: List[Event] = []
        self._runs: Dict[int, StreamedRun] = {}
        self._order: List[int] = []
        self._yielded = 0
        self._exhausted = False
        self._started = time.monotonic()
        # The submitted record opens (and truncates) the events artifact,
        # so a re-run never appends onto a stale file.
        self._record(Event(kind=SUBMITTED, experiment=name,
                           total=len(self._specs), executor=executor),
                     mode="w")

    # -- introspection ---------------------------------------------------------------

    @property
    def specs(self) -> List[RunSpec]:
        return list(self._specs)

    @property
    def total(self) -> int:
        return len(self._specs)

    @property
    def completed(self) -> int:
        return len(self._runs)

    @property
    def cancelled(self) -> bool:
        return self._token.cancelled

    @property
    def events_path(self) -> Optional[Path]:
        return self._events_path

    def events(self) -> List[Event]:
        """Every event observed so far (complete once ``result()`` returns)."""
        return list(self._events)

    def progress(self) -> ProgressSnapshot:
        """Snapshot of completion; advances as the handle is consumed."""
        completed, total = len(self._runs), len(self._specs)
        elapsed = time.monotonic() - self._started
        return ProgressSnapshot(
            completed=completed, total=total,
            cache_hits=sum(1 for run in self._runs.values()
                           if run.cache_hit),
            elapsed_s=elapsed,
            eta_s=compute_eta(completed, total, elapsed))

    # -- event pump ------------------------------------------------------------------

    def _record(self, event: Event, mode: str = "a") -> None:
        self._events.append(event)
        if self._events_path is not None:
            append_event(self._events_path, event, mode=mode)
        if event.kind in (RUN_FINISH, CACHE_HIT) \
                and event.index is not None and event.result is not None \
                and event.index not in self._runs:
            self._runs[event.index] = StreamedRun(
                index=event.index, spec=self._specs[event.index],
                result=event.result, cache_hit=bool(event.cache_hit),
                remote=event.remote)
            self._order.append(event.index)

    def _pump(self) -> bool:
        """Advance the executor by one event; False when the stream ended."""
        if self._exhausted:
            return False
        try:
            event = next(self._drive)
        except StopIteration:
            self._exhausted = True
            return False
        self._record(event)
        return True

    # -- consumption -----------------------------------------------------------------

    def iter_results(self) -> Iterator[StreamedRun]:
        """Yield every run exactly once, as it completes.

        The stream ends when the experiment is complete — or early, without
        error, when the handle was cancelled.  Safe to resume: a second
        ``iter_results()`` call continues where the first stopped instead
        of replaying runs.
        """
        while True:
            while self._yielded < len(self._order):
                index = self._order[self._yielded]
                self._yielded += 1
                yield self._runs[index]
            if not self._pump():
                return

    def cancel(self) -> None:
        """Stop after the current run; finished runs stay in the cache.

        Cancellation is cooperative and clean by construction: executors
        poll the token between runs, the pool/spool tiers release what they
        hold (claims return to ``pending/``), and because every finished
        run was already streamed into the content-addressed cache, a later
        ``submit()`` of the same specs completes from cache.
        """
        self._token.cancel()

    def result(self) -> ExperimentResult:
        """Drain the stream and fold the runs into an ExperimentResult.

        The fold is index-ordered over the submitted spec list — exactly
        the insertion order of the sharded merge — so the returned
        experiment is bit-identical on every executor tier.
        """
        experiment = ExperimentResult(scale=self._scale)
        for spec, result in zip(self._specs, self.run_results()):
            platform_key, workload_key = spec.result_key
            experiment.add(platform_key, workload_key, result)
        return experiment

    def run_results(self) -> List[RunResult]:
        """Drain the stream; every run's result in submitted-spec order."""
        while self._pump():
            pass
        if len(self._runs) != len(self._specs):
            raise ExperimentCancelled(
                f"{self.name}: execution "
                f"{'was cancelled' if self.cancelled else 'ended'} after "
                f"{len(self._runs)} of {len(self._specs)} runs; finished "
                f"runs are cached — submit() the same specs to resume")
        return [self._runs[index].result for index in range(len(self._specs))]
