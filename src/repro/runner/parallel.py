"""Process-pool experiment runner with a content-addressed run cache.

Every (platform, workload) replay of an experiment is independent and
deterministic, so the matrix fans out over a ``multiprocessing`` pool.
Workers never receive live device objects — pickling a half-run SSD model
would be both expensive and wrong.  Instead each worker is initialised once
with the (picklable, frozen) scaled :class:`~repro.config.SystemConfig` and
:class:`~repro.workloads.registry.ExperimentScale`, receives plain
:class:`~repro.runner.specs.RunSpec` records, rebuilds the trace through a
per-process :class:`~repro.workloads.registry.TraceSpec` cache and the
platform through the registry, and ships back only the ``RunResult``.

Because trace synthesis is fully seeded and the replay is pure float
arithmetic in a fixed order, a worker-built run is bit-identical to the same
run executed inline — ``ParallelExperimentRunner(workers=N)`` produces
exactly the same metrics for any N.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..config import SystemConfig, default_config
from ..platforms.base import RunResult
from ..platforms.registry import create_platform
from ..workloads.registry import (
    ExperimentScale,
    TraceSpec,
    scale_system_config,
)
from .artifacts import RunCache, run_cache_key
from .specs import RunSpec, apply_config_overrides

#: Environment variable consulted when no explicit worker count is given.
WORKERS_ENV = "REPRO_WORKERS"


def resolve_worker_count(workers: Optional[int] = None) -> int:
    """Pick the worker count: explicit arg > $REPRO_WORKERS > CPU count."""
    if workers is None:
        env = os.environ.get(WORKERS_ENV, "").strip()
        if env:
            try:
                workers = int(env)
            except ValueError:
                raise ValueError(
                    f"${WORKERS_ENV} must be an integer, got {env!r}"
                ) from None
        else:
            workers = os.cpu_count() or 1
    return max(1, int(workers))


def execute_spec(spec: RunSpec, config: SystemConfig, scale: ExperimentScale,
                 trace_cache: Optional[Dict[tuple, object]] = None
                 ) -> RunResult:
    """Run one spec from scratch: build config, trace and platform, replay.

    This is the single execution path shared by the serial fallback and the
    pool workers, which is what guarantees serial/parallel equivalence.
    """
    if spec.workload.startswith("scenario:"):
        # Scenario runs add a QoS-policy install and per-tenant attribution
        # around the same build-config/trace/platform steps; the branch
        # lives in repro.scenario so this hot module stays lean.
        from ..scenario.engine import execute_scenario_spec
        return execute_scenario_spec(spec, config, scale, trace_cache)
    run_config = apply_config_overrides(config, spec.config_overrides)
    trace_spec = TraceSpec(workload=spec.workload, scale=scale,
                           dataset_bytes_override=spec.dataset_bytes_override)
    trace = None if trace_cache is None else trace_cache.get(trace_spec.cache_key)
    if trace is None:
        trace = trace_spec.build()
        if trace_cache is not None:
            trace_cache[trace_spec.cache_key] = trace
    platform = create_platform(spec.platform, run_config,
                               **dict(spec.platform_kwargs))
    return platform.run(trace)


# -- worker-process state -------------------------------------------------------
#
# Pool workers are initialised once per process; the trace cache lives for
# the lifetime of the worker so a workload's trace is synthesised at most
# once per process regardless of how many platforms replay it.

_WORKER_CONFIG: Optional[SystemConfig] = None
_WORKER_SCALE: Optional[ExperimentScale] = None
_WORKER_TRACES: Dict[tuple, object] = {}


def _worker_init(config: SystemConfig, scale: ExperimentScale) -> None:
    global _WORKER_CONFIG, _WORKER_SCALE, _WORKER_TRACES
    _WORKER_CONFIG = config
    _WORKER_SCALE = scale
    _WORKER_TRACES = {}


def _worker_run(spec: RunSpec) -> RunResult:
    assert _WORKER_CONFIG is not None and _WORKER_SCALE is not None
    return execute_spec(spec, _WORKER_CONFIG, _WORKER_SCALE, _WORKER_TRACES)


def _worker_run_indexed(item: tuple) -> tuple:
    """(index, spec) -> (index, result), for order-free result streaming."""
    index, spec = item
    return index, _worker_run(spec)


def _pool_context():
    """Fork on Linux (cheap), spawn everywhere else.

    macOS can fork but fork-without-exec is unsafe there (Accelerate/ObjC
    frameworks may already hold locks), which is why CPython's own default
    start method on macOS is spawn; mirror that rather than overriding it.
    """
    if sys.platform == "linux":
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context("spawn")  # pragma: no cover


class ParallelExperimentRunner:
    """The execution core every executor tier drives via :meth:`iter_specs`.

    Parameters
    ----------
    scale:
        Experiment scale (default: the library scale); *base_config* (the
        unscaled Table II system, default :func:`~repro.config
        .default_config`) is shrunk by it.  *scaled_config* instead installs
        an already-scaled configuration verbatim — shard workers rebuild
        the planner's frozen scaled config, which must not shrink twice.
    workers:
        Process count; ``None`` resolves via ``$REPRO_WORKERS`` then the CPU
        count.  ``workers=1`` executes inline (no pool) and is bit-identical
        to any other worker count.
    cache_dir:
        Directory of the content-addressed run cache; ``None`` disables
        caching.  A cached run is returned without building anything.
    force:
        Ignore cache hits (re-execute everything) but still refresh the
        cache with the new results.
    """

    def __init__(self, scale: Optional[ExperimentScale] = None,
                 base_config: Optional[SystemConfig] = None,
                 workers: Optional[int] = None,
                 cache_dir: Optional[Path] = None,
                 force: bool = False,
                 scaled_config: Optional[SystemConfig] = None) -> None:
        self.scale = scale if scale is not None else ExperimentScale()
        if scaled_config is not None:
            if base_config is not None:
                raise ValueError(
                    "pass either base_config (to be scaled) or scaled_config "
                    "(used verbatim), not both")
            self.config = scaled_config
        else:
            self.config = scale_system_config(
                base_config if base_config is not None else default_config(),
                self.scale)
        self.workers = resolve_worker_count(workers)
        self.cache = RunCache(cache_dir)
        self.force = force
        # Inline runs memoise traces here, keyed like the pool workers' cache.
        self._trace_cache: Dict[tuple, object] = {}

    def trace(self, workload: str,
              dataset_bytes_override: Optional[int] = None):
        """Build (and memoise) the trace for one workload."""
        spec = TraceSpec(workload=workload, scale=self.scale,
                         dataset_bytes_override=dataset_bytes_override)
        if spec.cache_key not in self._trace_cache:
            self._trace_cache[spec.cache_key] = spec.build()
        return self._trace_cache[spec.cache_key]

    # -- cache plumbing ------------------------------------------------------------

    def cache_key(self, spec: RunSpec) -> str:
        return run_cache_key(spec, self.config, self.scale)

    # -- execution -----------------------------------------------------------------

    def iter_specs(self, specs: Sequence[RunSpec], *,
                   should_stop: Optional[Callable[[], bool]] = None,
                   on_start: Optional[Callable[[int], None]] = None,
                   workers: Optional[int] = None
                   ) -> Iterator[Tuple[int, RunResult, bool,
                                       Optional[str]]]:
        """Stream ``(position, result, cache_hit, key)`` as runs complete.

        Cache hits are yielded first, in position order (they cost one file
        read each); the remaining runs follow in *completion* order —
        serially inline for one worker, via ``imap_unordered`` over the pool
        otherwise — and each result streams into the cache the moment it
        lands, not in one batch at the end, so a runner killed mid-way
        leaves every finished run behind and a restart resumes instead of
        recomputing (the resume contract of distributed shard workers).
        ``key`` is the run's content address (``None`` with caching off),
        computed exactly once here so consumers never re-hash the config.

        *should_stop* is polled between runs; returning ``True`` ends the
        stream cleanly after the current run (the pool, if any, is torn
        down by the ``with`` block), leaving the cache consistent — this is
        the cancellation hook of :meth:`repro.exec.ExperimentHandle.cancel`.
        *on_start* fires with a position when that run is dispatched: per
        run under serial execution, once per pending run at pool submission
        time otherwise (a pool dispatches its whole batch up front).
        *workers* overrides the runner's pool size for this stream —
        ``workers=1`` is how the serial executor forces inline execution
        without duplicating any of the cache semantics above.
        """
        specs = list(specs)
        effective_workers = self.workers if workers is None else workers
        pending: List[int] = []
        keys: List[Optional[str]] = [None] * len(specs)
        for index, spec in enumerate(specs):
            if self.cache.enabled:
                keys[index] = self.cache_key(spec)
            cached = (None if self.force or not self.cache.enabled
                      else self.cache.load(keys[index]))
            if cached is not None:
                yield index, cached, True, keys[index]
            else:
                pending.append(index)
        if not pending:
            return

        def store(index: int, result: RunResult) -> None:
            if self.cache.enabled:
                self.cache.store(keys[index], specs[index], result)

        if effective_workers <= 1 or len(pending) == 1:
            for index in pending:
                if should_stop is not None and should_stop():
                    return
                if on_start is not None:
                    on_start(index)
                result = execute_spec(specs[index], self.config, self.scale,
                                      self._trace_cache)
                store(index, result)
                yield index, result, False, keys[index]
        else:
            if should_stop is not None and should_stop():
                return
            context = _pool_context()
            processes = min(effective_workers, len(pending))
            # Chunks keep per-task IPC overhead low and, with the
            # workload-major spec order, let a worker reuse its cached
            # trace across a chunk; 4 chunks per worker still load-
            # balances the uneven per-platform run times.
            chunksize = max(1, len(pending) // (processes * 4))
            with context.Pool(processes=processes,
                              initializer=_worker_init,
                              initargs=(self.config, self.scale)) as pool:
                if on_start is not None:
                    for index in pending:
                        on_start(index)
                # Unordered: each result is cached the moment its chunk
                # finishes, not held behind slower earlier chunks; the
                # explicit index keeps the output order deterministic.
                for index, result in pool.imap_unordered(
                        _worker_run_indexed,
                        [(index, specs[index]) for index in pending],
                        chunksize=chunksize):
                    store(index, result)
                    yield index, result, False, keys[index]
                    if should_stop is not None and should_stop():
                        return
