"""Coordinator: validate shard provenance and fold shards merge-exactly.

The coordinator is the only component that sees more than one shard.  It
refuses to merge anything whose provenance is not airtight — every shard
result must carry the same ``experiment_id`` (which digests the full plan:
name, specs, scale, config, shard count), the same ``config_hash`` and the
same scale, the shard indices must form exactly ``0..shard_count-1`` with
no duplicates, and only then are the shards folded, in index order, with
:meth:`~repro.analysis.experiments.ExperimentResult.merge`.

Because the planner's partition is contiguous and the fold is ordered, the
merged result's runs sit in exactly the insertion order an unsharded
``Session.collect`` over the same specs would have
produced — including the overwrite-keeps-first-position semantics of
duplicate result keys — so the final ``repro.experiment/1`` artifact is
bit-identical in its runs to the unsharded one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from ..analysis.experiments import ExperimentResult
from ..config import SystemConfig
from ..runner.artifacts import (
    atomic_write_json,
    config_from_dict,
    experiment_to_artifact,
    run_result_from_dict,
    scale_from_dict,
)
from .manifest import SHARD_RESULT_SCHEMA


@dataclass
class MergedShards:
    """Outcome of a successful shard merge, ready to write as an artifact."""

    experiment: str
    experiment_id: str
    shard_count: int
    hosts: List[str]
    config: SystemConfig
    result: ExperimentResult
    total_runs: int
    #: Speedup-baseline platform the plan named (presentation metadata).
    baseline: Optional[str] = None

    def artifact_payload(self,
                         meta: Optional[Dict[str, Any]] = None
                         ) -> Dict[str, Any]:
        """The ``repro.experiment/1`` payload with shard provenance meta."""
        merged_meta: Dict[str, Any] = {
            "sharded": {
                "experiment_id": self.experiment_id,
                "shard_count": self.shard_count,
                "hosts": self.hosts,
            },
        }
        if meta:
            merged_meta.update(meta)
        return experiment_to_artifact(self.experiment, self.result,
                                      self.config, meta=merged_meta)

    def write_artifact(self, path: Path,
                       meta: Optional[Dict[str, Any]] = None) -> Path:
        return atomic_write_json(Path(path), self.artifact_payload(meta))


def _require_consistent(payloads: Sequence[Dict[str, Any]],
                        field: str) -> Any:
    values = {json.dumps(payload.get(field), sort_keys=True)
              for payload in payloads}
    if len(values) != 1:
        raise ValueError(
            f"shard results disagree on {field!r}: cannot merge shards "
            f"from different plans")
    return payloads[0].get(field)


def merge_shards(payloads: Sequence[Dict[str, Any]]) -> MergedShards:
    """Validate provenance across shard results and fold them in order."""
    payloads = list(payloads)
    if not payloads:
        raise ValueError("no shard results to merge")
    for payload in payloads:
        schema = payload.get("schema")
        if schema != SHARD_RESULT_SCHEMA:
            raise ValueError(
                f"unsupported shard result schema {schema!r} "
                f"(expected {SHARD_RESULT_SCHEMA})")
    for field in ("experiment", "experiment_id", "config_hash", "scale",
                  "shard_count"):
        _require_consistent(payloads, field)

    shard_count = payloads[0]["shard_count"]
    seen = sorted(payload["shard_index"] for payload in payloads)
    if len(set(seen)) != len(seen):
        duplicates = sorted({index for index in seen
                             if seen.count(index) > 1})
        raise ValueError(f"duplicate shard result(s) for index {duplicates}")
    missing = sorted(set(range(shard_count)) - set(seen))
    if missing:
        raise ValueError(
            f"incomplete shard set: missing shard(s) {missing} of "
            f"{shard_count}")

    # Run-level completeness: every spec's global index must appear exactly
    # once across the shard set, or a truncated/duplicated runs array (a
    # torn file from a non-atomic writer, a hand edit) would merge into a
    # silently incomplete artifact.
    indices = sorted(run["index"]
                     for payload in payloads for run in payload["runs"])
    if indices != list(range(len(indices))):
        raise ValueError(
            f"shard runs do not cover spec indices 0..{len(indices) - 1} "
            f"exactly once: got {indices} — a shard result is truncated, "
            f"duplicated or hand-edited")

    scale = scale_from_dict(payloads[0]["scale"])
    merged = ExperimentResult(scale=scale)
    total_runs = 0
    # Contiguous partition + index-ordered fold == the unsharded insertion
    # order, which is what makes the merged artifact bit-identical.
    for payload in sorted(payloads, key=lambda p: p["shard_index"]):
        shard_result = ExperimentResult(scale=scale)
        for run in sorted(payload["runs"], key=lambda r: r["index"]):
            shard_result.add(run["platform_key"], run["workload_key"],
                             run_result_from_dict(run["result"]))
            total_runs += 1
        merged.merge(shard_result)
    return MergedShards(
        experiment=payloads[0]["experiment"],
        experiment_id=payloads[0]["experiment_id"],
        shard_count=shard_count,
        hosts=[payload.get("host", "unknown")
               for payload in sorted(payloads,
                                     key=lambda p: p["shard_index"])],
        config=config_from_dict(payloads[0]["config"]),
        result=merged,
        total_runs=total_runs,
        baseline=payloads[0].get("baseline"),
    )


def load_shard_results(paths: Sequence[Path]) -> List[Dict[str, Any]]:
    """Read shard-result files (schema-checked lazily by merge_shards)."""
    return [json.loads(Path(path).read_text(encoding="utf-8"))
            for path in paths]
