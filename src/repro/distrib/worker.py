"""Shard worker: execute one manifest's specs and emit a shard artifact.

A worker is just a :class:`~repro.runner.parallel.ParallelExperimentRunner`
pointed at the shard's run cache: it rebuilds the frozen scale/config from
the manifest, verifies that its reconstruction content-addresses to exactly
the cache keys the planner computed (any drift — a changed default, a
different library version — fails loudly *before* any cycles are burned),
replays the shard's specs over its local process pool, and publishes a
``repro.shard-result/1`` payload.

Resume semantics come entirely from the run cache: the runner streams every
finished run into the cache as it completes, so a worker killed mid-shard
and restarted (on the same host or any host sharing the spool) loads the
finished runs back as cache hits and only executes the remainder.  The
shard result is assembled from the full, ordered spec list either way — a
resumed shard can neither drop nor duplicate runs.

Progress is observable while a shard runs: :func:`iter_shard` — the one
routine behind :func:`work_spool`, the ``repro shard work`` CLI and the
streaming :class:`~repro.exec.ShardedExecutor` — appends one
``repro.events/1`` record per finished run to the spool's ``progress/``
directory, which is what lets a coordinating
:class:`~repro.exec.ExperimentHandle` on another host — or ``repro shard
status --watch`` — tail remote execution run by run instead of waiting for
the shard artifact.
"""

from __future__ import annotations

from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..platforms.base import RunResult
from ..runner.artifacts import (
    config_from_dict,
    config_hash_of,
    run_result_to_dict,
    scale_from_dict,
)
from ..runner.events import Event, append_event, run_event
from ..runner.parallel import ParallelExperimentRunner
from ..runner.specs import RunSpec
from .manifest import (
    SHARD_RESULT_SCHEMA,
    load_manifest,
    manifest_specs,
    validate_manifest,
)
from .spool import ClaimedShard, ShardSpool, default_owner, shard_file_name

def shard_runner(manifest: Dict[str, Any], *,
                 cache_dir: Optional[Path] = None,
                 workers: Optional[int] = None,
                 force: bool = False
                 ) -> Tuple[ParallelExperimentRunner, List[RunSpec]]:
    """Validate *manifest* and build the runner + specs that execute it.

    This is the planner/worker drift check: the reconstructed config must
    hash to the manifest's ``config_hash`` and every rebuilt spec must
    content-address to the planner's ``key``, or the worker refuses the
    shard before burning any cycles.  :func:`iter_shard` starts here.
    """
    validate_manifest(manifest)
    scale = scale_from_dict(manifest["scale"])
    config = config_from_dict(manifest["config"])
    config_hash = config_hash_of(config)
    if config_hash != manifest["config_hash"]:
        raise ValueError(
            f"shard {manifest['shard_index']}: reconstructed config hashes "
            f"to {config_hash} but the manifest was planned against "
            f"{manifest['config_hash']}")

    runner = ParallelExperimentRunner(
        scale=scale, scaled_config=config, workers=workers,
        cache_dir=cache_dir, force=force)
    specs = manifest_specs(manifest)
    for entry, spec in zip(manifest["specs"], specs):
        key = runner.cache_key(spec)
        if key != entry["key"]:
            raise ValueError(
                f"shard {manifest['shard_index']}: spec #{entry['index']} "
                f"({spec.platform}/{spec.workload}) content-addresses to "
                f"{key[:12]}..., manifest says {entry['key'][:12]}... — "
                f"the worker's library diverges from the planner's")
    return runner, specs


def shard_result_payload(manifest: Dict[str, Any],
                         runner: ParallelExperimentRunner,
                         outcomes: Sequence[Tuple[RunResult, bool]],
                         host: Optional[str] = None) -> Dict[str, Any]:
    """Assemble the ``repro.shard-result/1`` payload from ordered outcomes.

    *outcomes* pairs each run's result with its cache-hit flag, in manifest
    spec order.  The per-run ``cache_hit`` field is carried so downstream
    consumers (the streaming handle filling in a remote shard) keep exact
    flags without re-deriving them.
    """
    runs: List[Dict[str, Any]] = []
    specs = manifest_specs(manifest)
    for entry, spec, (result, cache_hit) in zip(manifest["specs"], specs,
                                                outcomes):
        platform_key, workload_key = spec.result_key
        runs.append({
            "index": entry["index"],
            "key": entry["key"],
            "platform_key": platform_key,
            "workload_key": workload_key,
            "cache_hit": cache_hit,
            "operations_per_second": result.operations_per_second,
            "result": run_result_to_dict(result),
        })
    return {
        "schema": SHARD_RESULT_SCHEMA,
        "experiment": manifest["experiment"],
        "experiment_id": manifest["experiment_id"],
        "shard_index": manifest["shard_index"],
        "shard_count": manifest["shard_count"],
        "baseline": manifest.get("baseline"),
        "scale": manifest["scale"],
        "config": manifest["config"],
        "config_hash": manifest["config_hash"],
        "host": host or default_owner(),
        "cache_hits": runner.cache.hits,
        "cache_misses": runner.cache.misses,
        "runs": runs,
    }


def iter_shard(manifest: Dict[str, Any], *,
               cache_dir: Optional[Path] = None,
               workers: Optional[int] = None,
               force: bool = False,
               owner: Optional[str] = None,
               spool: Optional[ShardSpool] = None,
               claim: Optional[ClaimedShard] = None,
               should_stop: Optional[Callable[[], bool]] = None
               ) -> Generator[Event, None, Optional[Dict[str, Any]]]:
    """Execute one shard manifest, yielding a run event per finished run.

    The single shard-execution routine: the streaming
    :class:`~repro.exec.ShardedExecutor`, :func:`work_spool` and
    :func:`execute_shard_file` all consume it.  It validates the manifest
    (:func:`shard_runner`), streams the shard's runs in completion order
    and returns the ``repro.shard-result/1`` payload once every run is in.

    *cache_dir* should be shared by all workers of one plan (the spool's
    ``cache/`` by default when going through :func:`work_spool`); it is
    what makes re-execution after a crash resume rather than recompute.
    With a *spool*, each run is also appended to the shard's progress
    records; with a *claim* as well, the finished shard is published as a
    shard artifact, while a stop requested by *should_stop* (returning
    ``None``) or any error — including an abandoned generator — releases
    the claim back to ``pending/`` so another worker, or a resumed
    submit, completes it from the shared cache.
    """
    owner = owner or default_owner()
    try:
        runner, specs = shard_runner(manifest, cache_dir=cache_dir,
                                     workers=workers, force=force)
        progress_path = None if spool is None else spool.progress_path(
            shard_file_name(manifest["experiment_id"],
                            manifest["shard_index"]))
        outcomes: List[Optional[Tuple[RunResult, bool]]] = [None] * len(specs)
        for position, result, cache_hit, _key in runner.iter_specs(
                specs, should_stop=should_stop):
            outcomes[position] = (result, cache_hit)
            entry = manifest["specs"][position]
            event = run_event(entry["index"], specs[position], result,
                              cache_hit, key=entry["key"],
                              shard_index=manifest["shard_index"],
                              owner=owner)
            if progress_path is not None:
                # One shard has one writer, so appends never interleave.
                append_event(progress_path, event)
            yield event
        if any(outcome is None for outcome in outcomes):
            # should_stop fired mid-shard: hand the remainder back.
            if claim is not None:
                spool.release(claim)
            return None
        payload = shard_result_payload(
            manifest, runner,
            outcomes,  # type: ignore[arg-type]  # every spec finished
            host=owner)
        if claim is not None:
            spool.finish(claim, payload)
        return payload
    except BaseException:
        # Includes GeneratorExit: an abandoned stream must not leave an
        # orphaned claim behind.
        if claim is not None:
            spool.release(claim)
        raise


def execute_shard(manifest: Dict[str, Any], **kwargs: Any
                  ) -> Dict[str, Any]:
    """Run one shard to completion and return its result payload.

    The blocking consumer of :func:`iter_shard` (same keyword arguments).
    """
    stream = iter_shard(manifest, **kwargs)
    while True:
        try:
            next(stream)
        except StopIteration as done:
            return done.value


def execute_shard_file(path: Path, spool: ShardSpool, *,
                       workers: Optional[int] = None,
                       force: bool = False,
                       owner: Optional[str] = None) -> Path:
    """Execute one explicit manifest (or claim) file into the spool.

    This is the recovery path: pointing a worker at an orphaned
    ``claims/shard-NNNN.json`` re-runs that shard — resuming from the shared
    cache — and publishes its result; the stale claim file is cleaned up if
    the executed manifest was it.  A failure returns the shard to
    ``pending/``, as for any claimed shard.
    """
    path = Path(path)
    manifest = load_manifest(path)
    spool.prepare()
    claim = ClaimedShard(
        path=spool.claims_dir / shard_file_name(manifest["experiment_id"],
                                                manifest["shard_index"]),
        payload=manifest)
    execute_shard(manifest, cache_dir=spool.cache_dir, workers=workers,
                  force=force, owner=owner, spool=spool, claim=claim)
    # Resolve before comparing: the manifest may have been named relative
    # to the cwd while the spool was given absolute (or vice versa).
    resolved = path.resolve()
    if resolved != claim.path.resolve() and resolved.parent in (
            spool.pending_dir.resolve(), spool.claims_dir.resolve()):
        path.unlink(missing_ok=True)
    return spool.results_dir / claim.path.name


def work_spool(spool: ShardSpool, *,
               owner: Optional[str] = None,
               workers: Optional[int] = None,
               force: bool = False,
               max_shards: Optional[int] = None,
               cache_dir: Optional[Path] = None,
               experiment_id: Optional[str] = None) -> List[Path]:
    """Claim-and-execute pending shards until the spool runs dry.

    Returns the shard-result paths this worker published.  On a failure the
    claimed shard is released back to ``pending/`` before the exception
    propagates, so other workers (or a retry) can pick it up.  *cache_dir*
    overrides the spool's shared ``cache/``.  *experiment_id* restricts
    this worker to one plan's shards.  Every finished run is additionally
    appended to the spool's ``progress/`` records, so remote observers see
    the shard advance run by run.
    """
    owner = owner or default_owner()
    published: List[Path] = []
    while max_shards is None or len(published) < max_shards:
        claim = spool.claim_next(owner, experiment_id=experiment_id)
        if claim is None:
            break
        execute_shard(claim.payload, cache_dir=cache_dir or spool.cache_dir,
                      workers=workers, force=force, owner=owner,
                      spool=spool, claim=claim)
        published.append(spool.results_dir / claim.path.name)
    return published
