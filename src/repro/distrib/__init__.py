"""repro.distrib: sharded multi-host experiment execution.

The distributed tier scales the (platform x workload x config-override)
matrix past one host without adding a single dependency or network service:

* :func:`~repro.distrib.manifest.plan_shards` deterministically partitions
  a spec list into N ``repro.shard/1`` manifests,
* :class:`~repro.distrib.spool.ShardSpool` coordinates any number of
  workers over a shared directory with atomic claim-by-rename,
* :func:`~repro.distrib.worker.iter_shard` — the one shard-execution
  routine, behind :func:`~repro.distrib.worker.work_spool` and the
  streaming :class:`~repro.exec.ShardedExecutor` — replays a shard over
  the local process pool, resuming crashed shards from the
  content-addressed run cache,
* :func:`~repro.distrib.coordinator.merge_shards` validates provenance and
  folds the shards into an :class:`~repro.analysis.experiments
  .ExperimentResult` bit-identical to an unsharded run.

``python -m repro shard plan|work|merge|status`` is the CLI skin;
``Session(executor=ShardedExecutor(shards=N, spool_dir=...))`` is the
library skin, and without a spool it is the degenerate "cluster of one".
"""

from __future__ import annotations

from .coordinator import MergedShards, load_shard_results, merge_shards
from .manifest import (
    BALANCE_MODES,
    SHARD_MANIFEST_SCHEMA,
    SHARD_RESULT_SCHEMA,
    estimate_spec_cost,
    experiment_id_of,
    experiment_tag,
    load_manifest,
    manifest_specs,
    partition_bounds,
    partition_bounds_by_cost,
    plan_shards,
    validate_manifest,
)
from .spool import (
    ClaimedShard,
    ShardSpool,
    SpoolStatus,
    default_owner,
    shard_file_name,
    shard_label,
)
from .worker import (
    execute_shard,
    execute_shard_file,
    iter_shard,
    shard_result_payload,
    shard_runner,
    work_spool,
)

__all__ = [
    "BALANCE_MODES",
    "SHARD_MANIFEST_SCHEMA",
    "SHARD_RESULT_SCHEMA",
    "ClaimedShard",
    "MergedShards",
    "ShardSpool",
    "SpoolStatus",
    "default_owner",
    "estimate_spec_cost",
    "execute_shard",
    "execute_shard_file",
    "experiment_id_of",
    "experiment_tag",
    "iter_shard",
    "load_manifest",
    "load_shard_results",
    "manifest_specs",
    "merge_shards",
    "partition_bounds",
    "partition_bounds_by_cost",
    "plan_shards",
    "shard_file_name",
    "shard_label",
    "shard_result_payload",
    "shard_runner",
    "validate_manifest",
    "work_spool",
]

