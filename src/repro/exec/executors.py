"""The Executor protocol and its three tiers: serial, pool, sharded.

One pluggable abstraction replaces the three divergent execution paths the
facade used to hard-wire (the serial walk, ``ParallelExperimentRunner``'s
blocking ``collect``, and the ``repro.distrib`` plan/work/merge pipeline):

    ``executor.submit(specs, ctx) -> ExperimentHandle``

Every executor is a lazy generator of typed
:class:`~repro.runner.events.Event` records wrapped in an
:class:`~repro.exec.handle.ExperimentHandle`; execution advances only as
the handle is consumed, and all three tiers fold to bit-identical
:class:`~repro.analysis.experiments.ExperimentResult` matrices — the golden
contract ``tests/test_exec.py`` pins.

* :class:`SerialExecutor` — one run at a time, in this process, no pool.
  The reference tier: debugging, profiling, environments where forking is
  unwelcome.
* :class:`PoolExecutor` — wraps the session's
  :class:`~repro.runner.parallel.ParallelExperimentRunner`, streaming each
  finished run out of ``imap_unordered`` the moment its chunk completes.
* :class:`ShardedExecutor` — wraps :mod:`repro.distrib`: plans shard
  manifests (count- or cost-balanced), claims and executes them through
  the spool protocol, appends per-run progress records for remote
  observers, and tails other hosts' progress records (loading their
  results from the shared cache by content address) so the handle sees
  every run — local or remote — as it completes.  It is the only place
  the sharding knobs (shard count, balance, spool, wait timeout) live.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Set,
    Union,
    runtime_checkable,
)

from ..distrib.manifest import plan_shards
from ..distrib.spool import ShardSpool, default_owner, shard_file_name
from ..distrib.worker import iter_shard
from ..runner.artifacts import RunCache, run_result_from_dict
from ..runner.events import (
    Event,
    claim_event,
    read_events,
    run_event,
    start_event,
)
from ..runner.parallel import ParallelExperimentRunner
from ..runner.specs import RunSpec
from .handle import CancelToken, ExperimentHandle

#: The names ``Session(executor=...)`` and ``repro run --executor`` accept.
#: ``serve:<url>`` (e.g. ``serve:http://127.0.0.1:8642``) routes through a
#: running ``repro serve`` daemon.
EXECUTOR_NAMES = ("serial", "pool", "sharded", "serve:<url>")


@dataclass(frozen=True)
class ExecutionContext:
    """Everything an executor needs from the session submitting to it.

    The *runner* carries the scaled config, the scale, the worker count,
    the content-addressed cache and the force flag; *name* labels the
    submission and *events_path* optionally dumps its event stream.
    """

    runner: ParallelExperimentRunner
    name: str = "experiment"
    events_path: Optional[Path] = None


@runtime_checkable
class Executor(Protocol):
    """The execution tier protocol: submit specs, get a streaming handle."""

    name: str

    def submit(self, specs: Sequence[RunSpec],
               ctx: ExecutionContext) -> ExperimentHandle:
        """Begin executing *specs* and return the handle observing them."""
        ...  # pragma: no cover - protocol signature


class _ExecutorBase:
    """Shared submit plumbing: wrap the tier's event generator in a handle."""

    name = "unknown"

    def submit(self, specs: Sequence[RunSpec],
               ctx: ExecutionContext) -> ExperimentHandle:
        specs = list(specs)
        token = CancelToken()
        return ExperimentHandle(
            name=ctx.name, specs=specs, scale=ctx.runner.scale,
            drive=self._drive(specs, ctx, token), token=token,
            executor=self.name, events_path=ctx.events_path)

    def _drive(self, specs: List[RunSpec], ctx: ExecutionContext,
               token: CancelToken) -> Iterator[Event]:
        raise NotImplementedError  # pragma: no cover - abstract


class _RunnerExecutor(_ExecutorBase):
    """Shared drive of the serial and pool tiers.

    Both are thin skins over
    :meth:`~repro.runner.parallel.ParallelExperimentRunner.iter_specs` —
    the single home of the cache load/force/store semantics — differing
    only in the worker override they pass (``1`` forces inline
    execution).  Cache hits stream first, then each finished run leaves
    the runner (and enters the cache) the moment it completes.  ``start``
    events fire at dispatch — per run under inline execution, as one
    batch when the pool takes over.
    """

    #: Worker-count override handed to ``iter_specs`` (None: the session's).
    workers_override: Optional[int] = None

    def _drive(self, specs: List[RunSpec], ctx: ExecutionContext,
               token: CancelToken) -> Iterator[Event]:
        dispatched: List[int] = []
        for index, result, cache_hit, key in ctx.runner.iter_specs(
                specs, should_stop=token, on_start=dispatched.append,
                workers=self.workers_override):
            while dispatched:
                started = dispatched.pop(0)
                yield start_event(started, specs[started])
            yield run_event(index, specs[index], result, cache_hit, key=key)
        # Runs dispatched to the pool but torn down by a cancellation
        # still surface their start records for an honest event log.
        while dispatched:
            started = dispatched.pop(0)
            yield start_event(started, specs[started])


class SerialExecutor(_RunnerExecutor):
    """Execute every spec inline, one at a time, with no process pool.

    Cache-aware exactly like the pool tier (it is the same drive, forced
    to inline execution), and bit-identical to it — the replay is pure
    deterministic float arithmetic, so where a run executes cannot change
    what it produces.
    """

    name = "serial"
    workers_override = 1


class PoolExecutor(_RunnerExecutor):
    """Fan pending runs over the session's process pool, streaming results.

    Each finished run leaves ``imap_unordered`` the moment its chunk
    completes, rather than blocking behind the full matrix.
    """

    name = "pool"
    workers_override = None


class ShardedExecutor(_ExecutorBase):
    """Plan, claim and execute shard manifests; tail the ones other hosts run.

    Without a *spool_dir* the planned manifests execute directly in this
    process (the "cluster of one"), still per-run streaming.  With a
    spool, the full multi-host protocol runs: manifests queue under
    ``pending/``, this executor claims and executes what it can (appending
    per-run progress records other observers tail), and shards claimed by
    workers on other hosts are *tailed* — their progress records stream in
    as events, with full results loaded from the shared content-addressed
    cache by key — rather than silently blocked on.

    *shards* is the shard count; *balance* selects the partition
    (``"count"`` or ``"cost"``, see
    :func:`~repro.distrib.manifest.plan_shards`); *spool_dir* keeps the
    shard artifacts and lets ``repro shard work`` helpers on other hosts
    join in; *wait_timeout* bounds how long a spooled run waits on shards
    claimed elsewhere (``None``: indefinitely, with stderr notices).
    """

    name = "sharded"

    def __init__(self, shards: int = 2, balance: str = "count",
                 spool_dir: Optional[Path] = None,
                 wait_timeout: Optional[float] = None) -> None:
        if shards < 1:
            raise ValueError(f"shard count must be >= 1, got {shards}")
        self.shards = shards
        self.balance = balance
        self.spool_dir = spool_dir
        self.wait_timeout = wait_timeout

    def _drive(self, specs: List[RunSpec], ctx: ExecutionContext,
               token: CancelToken) -> Iterator[Event]:
        runner = ctx.runner
        manifests = plan_shards(ctx.name, specs, runner.config, runner.scale,
                                self.shards, balance=self.balance)
        owner = default_owner()
        if self.spool_dir is None:
            for manifest in manifests:
                if token():
                    return
                if not manifest["specs"]:
                    continue
                yield claim_event(manifest["shard_index"], owner)
                # The session's own cache keeps serving (and absorbing)
                # runs when execution is sharded.
                yield from iter_shard(
                    manifest, cache_dir=runner.cache.root,
                    workers=runner.workers, force=runner.force, owner=owner,
                    should_stop=token)
            return
        yield from self._drive_spool(manifests, ctx, token, owner)

    # -- the spool protocol ----------------------------------------------------------

    def _drive_spool(self, manifests: List[Dict[str, Any]],
                     ctx: ExecutionContext, token: CancelToken,
                     owner: str) -> Iterator[Event]:
        runner = ctx.runner
        # The session's own cache keeps serving (and absorbing) runs; the
        # spool's shared cache is the fallback.
        cache_root = runner.cache.root
        experiment_id = manifests[0]["experiment_id"]
        spool = ShardSpool(self.spool_dir).prepare()
        if runner.force:
            # force's contract is "re-execute everything": published shard
            # results of this plan would otherwise short-circuit the
            # re-queue (add_manifests skips done shards).  Limitation:
            # force cannot reach a shard currently claimed by a worker on
            # another host — that worker runs with its own flags and its
            # result is consumed as published.
            for manifest in manifests:
                (spool.results_dir / shard_file_name(
                    experiment_id, manifest["shard_index"])
                 ).unlink(missing_ok=True)
        spool.add_manifests(manifests)
        expected = sorted(
            shard_file_name(experiment_id, manifest["shard_index"])
            for manifest in manifests)
        seen: Set[int] = set()
        offsets: Dict[str, int] = {}
        # Fresh RunCache views for tailing remote runs, so their loads do
        # not pollute the session cache's hit/miss accounting.
        remote_caches = [RunCache(spool.cache_dir)]
        if cache_root is not None:
            remote_caches.insert(0, RunCache(cache_root))

        started = last_notice = time.monotonic()
        poll = 0.05
        first_invisible: Optional[float] = None
        while True:
            if token():
                return
            claim = spool.claim_next(owner, experiment_id=experiment_id)
            if claim is not None:
                yield claim_event(claim.shard_index, owner)
                for event in iter_shard(
                        claim.payload,
                        cache_dir=cache_root or spool.cache_dir,
                        workers=runner.workers, force=runner.force,
                        owner=owner, spool=spool, claim=claim,
                        should_stop=token):
                    seen.add(event.index)
                    yield event
                if token():
                    return
                continue
            # Nothing claimable: stream what remote workers have finished.
            yield from self._tail_progress(spool, expected, offsets, seen,
                                           remote_caches)
            # Done is judged solely by published results — renames bounce
            # shards between pending/ and claims/, so directory scans can
            # transiently miss a live shard, but a result file only ever
            # appears.
            in_flight = [shard for shard in expected
                         if not (spool.results_dir / shard).exists()]
            if not in_flight:
                break
            visible = spool.outstanding(experiment_id)
            now = time.monotonic()
            if visible:
                first_invisible = None
            else:
                # Seen in neither directory: either the shard files are
                # gone without results (deleted claim, wiped spool) or a
                # remote host's rename is hidden by filesystem caching
                # (NFS negative-dentry caches last seconds).  Only declare
                # the shards lost after a sustained wall-clock absence.
                if first_invisible is None:
                    first_invisible = now
                elif now - first_invisible >= 10.0:
                    break
            if self.wait_timeout is not None and \
                    now - started >= self.wait_timeout:
                raise TimeoutError(
                    f"{ctx.name}: still waiting on shard(s) {in_flight} "
                    f"after {now - started:.0f}s; if their worker died, "
                    f"recover with `repro shard work --spool {spool.root} "
                    f"{spool.claims_dir}/<shard>.json` or "
                    f"ShardSpool.release")
            if now - last_notice >= 5.0:
                last_notice = now
                print(f"{ctx.name}: waiting on shard(s) claimed elsewhere: "
                      f"{', '.join(in_flight)}", file=sys.stderr)
            time.sleep(poll)
            poll = min(poll * 2, 1.0)

        # Drain any progress records that landed after the last poll, then
        # fill whatever runs were never observed (a remote worker that
        # published its artifact without progress records, a cache the
        # tailer could not read) from the shard artifacts themselves.
        yield from self._tail_progress(spool, expected, offsets, seen,
                                       remote_caches)
        specs_by_index = {entry["index"]: RunSpec.from_dict(entry["spec"])
                          for manifest in manifests
                          for entry in manifest["specs"]}
        for payload in sorted(spool.load_results(experiment_id),
                              key=lambda p: p["shard_index"]):
            if payload["config_hash"] != manifests[0]["config_hash"]:
                raise ValueError(
                    f"{ctx.name}: shard {payload['shard_index']} was "
                    f"executed against a different config than planned")
            for run in sorted(payload["runs"], key=lambda r: r["index"]):
                if run["index"] in seen:
                    continue
                seen.add(run["index"])
                yield run_event(
                    run["index"], specs_by_index[run["index"]],
                    run_result_from_dict(run["result"]),
                    bool(run.get("cache_hit", False)), key=run.get("key"),
                    shard_index=payload["shard_index"],
                    owner=payload.get("host"), remote=True)

    def _tail_progress(self, spool: ShardSpool, expected: List[str],
                       offsets: Dict[str, int], seen: Set[int],
                       caches: List[RunCache]) -> Iterator[Event]:
        """Stream new remote progress records whose results are loadable.

        A record whose result is not yet in any shared cache is *not*
        consumed as a run (its offset advances, but the index stays
        unseen); the shard-artifact fill at the end guarantees it is
        delivered exactly once regardless.
        """
        for shard_name in expected:
            path = spool.progress_path(shard_name)
            events, offsets[shard_name] = read_events(
                path, offsets.get(shard_name, 0))
            for event in events:
                if event.index is None or event.index in seen \
                        or event.key is None:
                    continue
                result = None
                for cache in caches:
                    result = cache.load(event.key)
                    if result is not None:
                        break
                if result is None:
                    continue
                seen.add(event.index)
                yield Event(
                    kind=event.kind, index=event.index,
                    platform_key=event.platform_key,
                    workload_key=event.workload_key,
                    cache_hit=event.cache_hit,
                    operations_per_second=event.operations_per_second,
                    key=event.key, shard_index=event.shard_index,
                    owner=event.owner, remote=True, result=result)


def resolve_executor(executor: Union[str, Executor, None]) -> Executor:
    """Turn a ``Session(executor=...)`` value into an Executor instance.

    ``None`` is the pool tier.  Strings name the built-in tiers (``"sharded"``
    with :class:`ShardedExecutor`'s defaults); anything implementing the
    protocol passes through untouched.
    """
    if executor is None:
        return PoolExecutor()
    if isinstance(executor, str):
        if executor == "serial":
            return SerialExecutor()
        if executor == "pool":
            return PoolExecutor()
        if executor == "sharded":
            return ShardedExecutor()
        if executor.startswith("serve:"):
            # Lazy: the serve tier is optional plumbing on top of this
            # layer, and importing it here eagerly would be a cycle.
            from ..serve.client import ServeExecutor
            url = executor[len("serve:"):]
            if not url:
                raise ValueError(
                    "serve executor needs a URL: \"serve:http://host:port\"")
            return ServeExecutor(url)
        raise ValueError(f"unknown executor {executor!r}; expected one of "
                         f"{EXECUTOR_NAMES} or an Executor instance")
    if isinstance(executor, Executor):
        return executor
    raise ValueError(f"unknown executor {executor!r}; expected one of "
                     f"{EXECUTOR_NAMES} or an Executor instance")
