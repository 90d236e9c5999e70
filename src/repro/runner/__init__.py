"""Parallel experiment runner: process-pool fan-out, run cache, artifacts.

Public surface:

* :class:`~repro.runner.parallel.ParallelExperimentRunner` — the execution
  core behind every executor tier: scales the config, memoises traces,
  consults a content-addressed run cache and fans pending runs out over a
  process pool,
* :class:`~repro.runner.specs.RunSpec` — the picklable unit of work,
* the artifact helpers for writing/reading versioned experiment JSON,
* the named experiment presets behind ``python -m repro run``.
"""

from .artifacts import (
    EXPERIMENT_SCHEMA,
    RUN_SCHEMA,
    RunCache,
    atomic_write_text,
    config_from_dict,
    config_hash_of,
    config_to_dict,
    experiment_from_artifact,
    load_experiment_artifact,
    run_cache_key,
    run_result_from_dict,
    run_result_to_dict,
    write_experiment_artifact,
)
from .parallel import (
    ParallelExperimentRunner,
    execute_spec,
    resolve_worker_count,
)
from .presets import SMOKE_SCALE, ExperimentPreset, get_preset, preset_names
from .regression import (
    DEFAULT_THRESHOLD,
    DiffEntry,
    DiffReport,
    diff_artifacts,
    diff_payloads,
)
from .specs import RunSpec, apply_config_overrides, matrix_specs

__all__ = [
    "EXPERIMENT_SCHEMA",
    "RUN_SCHEMA",
    "RunCache",
    "atomic_write_text",
    "config_from_dict",
    "config_hash_of",
    "config_to_dict",
    "experiment_from_artifact",
    "load_experiment_artifact",
    "run_cache_key",
    "run_result_from_dict",
    "run_result_to_dict",
    "write_experiment_artifact",
    "ParallelExperimentRunner",
    "execute_spec",
    "resolve_worker_count",
    "SMOKE_SCALE",
    "ExperimentPreset",
    "get_preset",
    "preset_names",
    "RunSpec",
    "apply_config_overrides",
    "matrix_specs",
    "DEFAULT_THRESHOLD",
    "DiffEntry",
    "DiffReport",
    "diff_artifacts",
    "diff_payloads",
]
