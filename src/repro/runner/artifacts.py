"""Versioned JSON artifacts and the content-addressed run cache.

Two kinds of files live under the artifact directory:

* ``<experiment>.json`` — one **experiment artifact** per named experiment:
  the schema version, the scale, a hash of the full system configuration and
  one record per run with every metric the figures plot.  CI uploads these
  so a perf regression is a JSON diff, not a rerun.

* ``cache/<key>.json`` — one **run artifact** per executed run, stored under
  the SHA-256 of the canonical JSON of (schema version, run spec, scale,
  config).  Re-executing an experiment whose inputs did not change resolves
  every run from this cache without touching a worker pool; any change to
  the spec, the scale or any config field changes the key and forces a
  re-run.

Round-tripping is exact: JSON serialises Python floats via their shortest
repr, which ``json.loads`` parses back to the identical IEEE-754 double, so
a cache hit reproduces the original ``RunResult`` bit for bit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import socket
import time
import typing
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..analysis.experiments import ExperimentResult
from ..config import SystemConfig
from ..energy.accounting import EnergyBreakdown
from ..platforms.base import RunResult
from ..workloads.registry import ExperimentScale
from .specs import RunSpec

#: Bump when the serialised layout of a run record changes.
RUN_SCHEMA = "repro.run/1"
#: Bump when the experiment artifact layout changes.
EXPERIMENT_SCHEMA = "repro.experiment/1"


def canonical_json(payload: Any) -> str:
    """Deterministic JSON used for hashing (sorted keys, no whitespace)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


#: Disambiguates temp files within one process (several threads/calls).
_TMP_COUNTER = itertools.count()


def atomic_write_text(path: Path, text: str) -> Path:
    """Write *text* to *path* atomically (same-directory temp + rename).

    ``os.replace`` of a file in the same directory is atomic on POSIX and
    NT, so readers polling the path — concurrent shard workers sharing a run
    cache or a spool directory over NFS — observe either the previous
    content or the complete new content, never a torn write.  The temp name
    carries hostname, PID and a counter: PIDs alone collide across hosts
    (and are reused in containers), and two writers sharing a temp path
    would interleave and promote torn bytes.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{socket.gethostname()}"
                         f".{os.getpid()}.{next(_TMP_COUNTER)}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
    return path


def atomic_write_json(path: Path, payload: Any) -> Path:
    """Atomically write *payload* in the one artifact JSON format.

    Every artifact writer (cache entries, experiment artifacts, shard
    manifests/claims/results) goes through here so the on-disk formatting
    can never diverge between them.
    """
    return atomic_write_text(path,
                             json.dumps(payload, sort_keys=True, indent=1))


def read_json_object(path: Path) -> Optional[Dict[str, Any]]:
    """The one reader of persistent JSON state: a dict, or ``None``.

    ``None`` covers every way a state file can be unusable — missing
    (vanished mid-scan), unreadable, not UTF-8, not valid JSON, or valid
    JSON that is not an object — so callers handle one case instead of
    each guessing which exceptions hostile bytes can raise.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError):
        return None
    return payload if isinstance(payload, dict) else None


def config_to_dict(config: SystemConfig) -> Dict[str, Any]:
    return dataclasses.asdict(config)


def _dataclass_from_dict(cls: type, payload: Dict[str, Any]) -> Any:
    """Recursively rebuild a (frozen, nested) config dataclass from asdict."""
    hints = typing.get_type_hints(cls)
    kwargs: Dict[str, Any] = {}
    for field_info in dataclasses.fields(cls):
        value = payload[field_info.name]
        hint = hints[field_info.name]
        if dataclasses.is_dataclass(hint) and isinstance(value, dict):
            value = _dataclass_from_dict(hint, value)
        kwargs[field_info.name] = value
    return cls(**kwargs)


def config_from_dict(payload: Dict[str, Any]) -> SystemConfig:
    """Inverse of :func:`config_to_dict`, exact for every config field.

    Shard manifests freeze the planner's scaled configuration as plain JSON;
    workers on other hosts rebuild the identical ``SystemConfig`` from it,
    which is what keeps their run-cache keys — and therefore their results —
    byte-compatible with the plan.
    """
    return _dataclass_from_dict(SystemConfig, payload)


def config_hash_of(config: SystemConfig) -> str:
    """``sha256:<hex>`` digest of the canonical config JSON."""
    digest = hashlib.sha256(
        canonical_json(config_to_dict(config)).encode("utf-8")).hexdigest()
    return f"sha256:{digest}"


def scale_to_dict(scale: ExperimentScale) -> Dict[str, Any]:
    return dataclasses.asdict(scale)


def scale_from_dict(payload: Dict[str, Any]) -> ExperimentScale:
    return ExperimentScale(**payload)


def run_cache_key(spec: RunSpec, config: SystemConfig,
                  scale: ExperimentScale) -> str:
    """Content address of one run: hash of everything that determines it.

    ``trace:<path>`` workloads are normalised before hashing: a file whose
    recorded provenance matches this run's scale and dataset override is
    bit-identical to the in-memory build of its source workload, so the
    key collapses to the plain workload name — the run cache, shard
    manifests and ``repro serve`` dedup then treat file-backed and
    in-memory submissions of the same workload as the same run.  Any other
    trace file keys on its chunking-invariant content hash, never on its
    path.
    """
    spec_payload = spec.canonical()
    scale_payload = scale_to_dict(scale)
    if spec.workload.startswith("trace:"):
        from ..trace.format import trace_run_identity  # lazy: no cycle
        spec_payload["workload"] = trace_run_identity(
            spec.workload, scale_payload, spec.dataset_bytes_override)
    elif spec.workload.startswith("scenario:"):
        # Same normalisation one level down: every trace-file tenant keys
        # on content (or collapses to its provenance workload), never on
        # a path, so scenario submissions dedup content-addressed too.
        from ..scenario.spec import scenario_run_identity  # lazy: no cycle
        spec_payload["workload"] = scenario_run_identity(
            spec.workload, scale_payload)
    digest = hashlib.sha256(canonical_json({
        "schema": RUN_SCHEMA,
        "spec": spec_payload,
        "scale": scale_payload,
        "config": config_to_dict(config),
    }).encode("utf-8"))
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# RunResult (de)serialisation
# ---------------------------------------------------------------------------


def run_result_to_dict(result: RunResult) -> Dict[str, Any]:
    """Flatten a RunResult into JSON-serialisable plain data."""
    return {
        "platform": result.platform,
        "workload": result.workload,
        "suite": result.suite,
        "operation_unit": result.operation_unit,
        "operations": result.operations,
        "total_ns": result.total_ns,
        "app_ns": result.app_ns,
        "os_ns": result.os_ns,
        "ssd_ns": result.ssd_ns,
        "memory_stall_ns": result.memory_stall_ns,
        "compute_ns": result.compute_ns,
        "instructions": result.instructions,
        "memory_accesses": result.memory_accesses,
        "offchip_accesses": result.offchip_accesses,
        "ipc": result.ipc,
        "mips": result.mips,
        "energy": {
            "cpu_nj": result.energy.cpu_nj,
            "nvdimm_nj": result.energy.nvdimm_nj,
            "internal_dram_nj": result.energy.internal_dram_nj,
            "znand_nj": result.energy.znand_nj,
        },
        "memory_delay": dict(result.memory_delay),
        "extras": dict(result.extras),
        # Per-tenant scenario statistics travel only when present, so
        # pre-scenario artifacts and cache entries stay byte-stable.
        **({"tenants": {name: dict(stats)
                        for name, stats in result.tenants.items()}}
           if result.tenants else {}),
    }


def run_result_from_dict(payload: Dict[str, Any]) -> RunResult:
    """Rebuild the exact RunResult a previous run serialised."""
    return RunResult(
        platform=payload["platform"],
        workload=payload["workload"],
        suite=payload["suite"],
        operation_unit=payload["operation_unit"],
        operations=payload["operations"],
        total_ns=payload["total_ns"],
        app_ns=payload["app_ns"],
        os_ns=payload["os_ns"],
        ssd_ns=payload["ssd_ns"],
        memory_stall_ns=payload["memory_stall_ns"],
        compute_ns=payload["compute_ns"],
        instructions=payload["instructions"],
        memory_accesses=payload["memory_accesses"],
        offchip_accesses=payload["offchip_accesses"],
        ipc=payload["ipc"],
        mips=payload["mips"],
        energy=EnergyBreakdown(**payload["energy"]),
        memory_delay=dict(payload["memory_delay"]),
        extras=dict(payload["extras"]),
        tenants={name: dict(stats)
                 for name, stats in (payload.get("tenants") or {}).items()},
    )


# ---------------------------------------------------------------------------
# Content-addressed run cache
# ---------------------------------------------------------------------------


class RunCache:
    """Stores one JSON file per run, addressed by :func:`run_cache_key`.

    ``root=None`` disables the cache entirely (every lookup misses, stores
    are dropped).  ``--force`` semantics live in the runner: it skips
    :meth:`load` but still calls :meth:`store`, refreshing the entries.
    """

    def __init__(self, root: Optional[Path]) -> None:
        self.root = Path(root) if root is not None else None
        self.hits = 0
        self.misses = 0

    @property
    def enabled(self) -> bool:
        return self.root is not None

    def path_for(self, key: str) -> Optional[Path]:
        if self.root is None:
            return None
        return self.root / f"{key}.json"

    def load(self, key: str) -> Optional[RunResult]:
        path = self.path_for(key)
        if path is None or not path.is_file():
            self.misses += 1
            return None
        payload = read_json_object(path) or {}
        try:
            result = run_result_from_dict(payload["result"]) \
                if payload.get("schema") == RUN_SCHEMA else None
        except (KeyError, TypeError, ValueError, AttributeError):
            result = None  # structurally broken: a miss the next store heals
        if result is None:
            self.misses += 1
            return None
        self.hits += 1
        return result

    def store(self, key: str, spec: RunSpec, result: RunResult) -> None:
        path = self.path_for(key)
        if path is None:
            return
        payload = {
            "schema": RUN_SCHEMA,
            "key": key,
            "spec": spec.canonical(),
            "result": run_result_to_dict(result),
        }
        # Atomic so shard workers sharing one cache directory can never
        # observe (or leave behind, if killed mid-store) a torn entry; two
        # workers racing on the same key both write the identical bytes, and
        # whichever rename lands last wins harmlessly.
        atomic_write_json(path, payload)


# ---------------------------------------------------------------------------
# Experiment artifacts
# ---------------------------------------------------------------------------


def experiment_to_artifact(name: str, experiment: ExperimentResult,
                           config: SystemConfig,
                           meta: Optional[Dict[str, Any]] = None
                           ) -> Dict[str, Any]:
    """Assemble the versioned experiment artifact payload."""
    runs: List[Dict[str, Any]] = []
    for (platform_key, workload_key), result in experiment.results.items():
        runs.append({
            "platform_key": platform_key,
            "workload_key": workload_key,
            "operations_per_second": result.operations_per_second,
            "result": run_result_to_dict(result),
        })
    payload: Dict[str, Any] = {
        "schema": EXPERIMENT_SCHEMA,
        "experiment": name,
        "created_unix": time.time(),
        "scale": scale_to_dict(experiment.scale),
        "config_hash": config_hash_of(config),
        "runs": runs,
    }
    if meta:
        payload["meta"] = dict(meta)
    return payload


def write_experiment_artifact(directory: Path, name: str,
                              experiment: ExperimentResult,
                              config: SystemConfig,
                              meta: Optional[Dict[str, Any]] = None) -> Path:
    """Write ``<directory>/<name>.json`` and return its path."""
    path = Path(directory) / f"{name}.json"
    return atomic_write_json(path,
                             experiment_to_artifact(name, experiment,
                                                    config, meta))


def load_experiment_artifact(path: Path) -> Dict[str, Any]:
    """Read and validate one experiment artifact."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    schema = payload.get("schema") if isinstance(payload, dict) else None
    if schema != EXPERIMENT_SCHEMA:
        raise ValueError(
            f"{path}: unsupported artifact schema {schema!r} "
            f"(expected {EXPERIMENT_SCHEMA})")
    return payload


def experiment_from_artifact(payload: Dict[str, Any]) -> ExperimentResult:
    """Rebuild the ExperimentResult an artifact was written from."""
    experiment = ExperimentResult(scale=scale_from_dict(payload["scale"]))
    for run in payload["runs"]:
        experiment.add(run["platform_key"], run["workload_key"],
                       run_result_from_dict(run["result"]))
    return experiment
