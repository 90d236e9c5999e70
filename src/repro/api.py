"""The stable public facade of the reproduction.

Everything a library user — the CLI, the figure benchmarks, the examples,
out-of-tree scripts — needs to replay (platform x workload) experiments
lives behind this one module:

* :class:`Session` — owns the experiment scale, the scaled Table II system
  configuration, the worker pool, the content-addressed run cache and the
  execution tier, and exposes the replay verbs,
* :meth:`Session.submit` — the unified entry point: hand specs to an
  :class:`~repro.exec.Executor` (serial, pool or sharded) and get a
  streaming :class:`~repro.exec.ExperimentHandle` back immediately,
* :func:`simulate` / :func:`compare` / :func:`sweep` — one-shot conveniences
  that build a throwaway session,
* :func:`platforms` / :func:`workloads` — the valid axis names.

The facade is a thin, stable skin over the execution layer: a
:class:`Session` submits picklable :class:`~repro.runner.specs.RunSpec`
records to an executor, and results come back as
:class:`~repro.platforms.base.RunResult` records or
:class:`~repro.analysis.experiments.ExperimentResult` matrices.  Every
blocking verb (:meth:`Session.simulate` / :meth:`Session.run` /
:meth:`Session.collect` / :meth:`Session.compare` / :meth:`Session.sweep`)
is a consumer of :meth:`Session.submit` — it simply drains the handle —
and stays supported indefinitely; out-of-tree
callers migrate to ``submit()`` only when they want streaming results,
progress or cancellation.  Reaching below the facade (``Platform``,
``WorkloadTrace``, the device models) remains supported for platform
authors, but the names here are the ones the project promises to keep.

Quick start::

    from repro import Session

    session = Session()
    result = session.simulate("hams-TE", "seqRd")
    print(result.operations_per_second)

    experiment = session.compare(["mmap", "hams-TE", "oracle"], ["seqRd"])
    print(experiment.mean_speedup("hams-TE", "mmap"))

Streaming::

    handle = session.submit(specs, name="sweep")
    for run in handle.iter_results():      # as each run completes
        print(run.spec.platform, run.result.operations_per_second,
              "cached" if run.cache_hit else "", handle.progress().format())
    experiment = handle.result()           # == session.collect(specs)

Sharding is an execution tier like any other::

    session = Session(executor=ShardedExecutor(shards=4, spool_dir=spool))
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Iterable, List, Mapping, Optional, Sequence, Union

from .analysis.experiments import ExperimentResult
from .config import SystemConfig
from .exec import (
    ExecutionContext,
    Executor,
    ExperimentHandle,
    resolve_executor,
)
from .platforms.base import RunResult
from .platforms.registry import PLATFORM_NAMES, available_platforms
from .runner.parallel import ParallelExperimentRunner
from .runner.specs import RunSpec, matrix_specs
from .sweep.driver import (
    AdaptiveSweepDriver,
    AdaptiveSweepResult,
    sweep_labels,
)
from .workloads.registry import ExperimentScale, all_workload_names
from .workloads.trace import WorkloadTrace

__all__ = [
    "Session",
    "ServeClient",
    "simulate",
    "compare",
    "sweep",
    "adaptive_sweep",
    "AdaptiveSweepResult",
    "platforms",
    "workloads",
]


def platforms(figure_order: bool = False) -> List[str]:
    """Valid platform names: the full registry, or Figure 16 legend order."""
    return list(PLATFORM_NAMES) if figure_order else available_platforms()


def workloads() -> List[str]:
    """Valid workload names, in Table III order."""
    return all_workload_names()


class Session:
    """One configured experiment context: scale, config, pool, cache.

    Parameters mirror the underlying
    :class:`~repro.runner.parallel.ParallelExperimentRunner`: *scale*
    shrinks instruction streams and capacities together (defaults to the
    library scale), *base_config* is the unscaled Table II system,
    *workers* sizes the process pool (``None``: ``$REPRO_WORKERS`` or the
    CPU count), and *cache_dir* enables the content-addressed run cache.

    *executor* selects the execution tier every verb goes through:
    ``"serial"`` (inline, no pool), ``"pool"`` (the default process-pool
    tier), ``"sharded"`` (the :mod:`repro.distrib` plan/claim/merge
    protocol with :class:`~repro.exec.ShardedExecutor`'s defaults), or any
    object implementing the :class:`~repro.exec.Executor` protocol — a
    configured ``ShardedExecutor(shards=..., spool_dir=...)`` included.
    All tiers produce bit-identical results — the knob trades mechanism,
    not answers.
    """

    def __init__(self, scale: Optional[ExperimentScale] = None,
                 base_config: Optional[SystemConfig] = None, *,
                 workers: Optional[int] = None,
                 cache_dir: Optional[Path] = None,
                 force: bool = False,
                 executor: Union[str, Executor, None] = None) -> None:
        self._runner = ParallelExperimentRunner(
            scale=scale, base_config=base_config, workers=workers,
            cache_dir=cache_dir, force=force)
        self._executor = executor

    # -- context accessors ----------------------------------------------------------

    @property
    def runner(self) -> ParallelExperimentRunner:
        """The underlying pool runner (cache statistics, advanced use)."""
        return self._runner

    @property
    def scale(self) -> ExperimentScale:
        return self._runner.scale

    @property
    def config(self) -> SystemConfig:
        """The scaled system configuration every run of this session uses."""
        return self._runner.config

    @property
    def workers(self) -> int:
        return self._runner.workers

    def trace(self, workload: str,
              dataset_bytes_override: Optional[int] = None) -> WorkloadTrace:
        """Build (and memoise) the columnar trace for one workload."""
        return self._runner.trace(workload, dataset_bytes_override)

    # -- replay verbs ---------------------------------------------------------------

    def simulate(self, platform: str, workload: str, *,
                 dataset_bytes_override: Optional[int] = None,
                 config_overrides: Optional[Mapping[str, Mapping[str, Any]]]
                 = None,
                 platform_kwargs: Optional[Mapping[str, Any]] = None
                 ) -> RunResult:
        """Replay one workload on one platform and return its RunResult."""
        return self.run([RunSpec(
            platform=platform, workload=workload,
            dataset_bytes_override=dataset_bytes_override,
            config_overrides=dict(config_overrides or {}),
            platform_kwargs=dict(platform_kwargs or {}))],
            name="simulate")[0]

    def scenario(self, scenario: "ScenarioSpec", platform: str, *,
                 label: Optional[str] = None,
                 config_overrides: Optional[Mapping[str, Mapping[str, Any]]]
                 = None,
                 platform_kwargs: Optional[Mapping[str, Any]] = None
                 ) -> RunResult:
        """Replay a multi-tenant scenario on one platform.

        *scenario* is a :class:`~repro.scenario.spec.ScenarioSpec` (or a
        plain dict in its ``from_dict`` shape): N tenants whose access
        streams are deterministically interleaved into one shared-system
        trace, replayed under the spec's QoS policy.  The returned
        :class:`~repro.platforms.base.RunResult` carries per-tenant
        statistics in ``result.tenants`` (one entry per tenant plus the
        ``"aggregate"`` merge); every other field describes the mixed run
        exactly as :meth:`simulate` would.  Scenario runs flow through the
        same executor tiers and content-addressed run cache as plain specs.
        """
        from .scenario.engine import scenario_run_spec
        from .scenario.spec import ScenarioSpec

        if isinstance(scenario, Mapping):
            scenario = ScenarioSpec.from_dict(scenario)
        return self.run([scenario_run_spec(
            scenario, platform, label=label,
            config_overrides=config_overrides,
            platform_kwargs=platform_kwargs)], name="scenario")[0]

    def run(self, specs: Sequence[RunSpec], *,
            name: str = "run") -> List[RunResult]:
        """Execute explicit run specs, preserving input order."""
        return self.submit(specs, name=name).run_results()

    def submit(self, specs: Sequence[RunSpec], *,
               name: str = "session",
               executor: Union[str, Executor, None] = None,
               events_path: Optional[Path] = None) -> ExperimentHandle:
        """Hand *specs* to an executor; returns a streaming handle at once.

        The unified entry point every blocking verb consumes.  *executor*
        overrides the session's tier for this submission (with neither, the
        pool tier runs).  *events_path* additionally dumps the typed event
        stream as a ``repro.events/1`` JSONL artifact.

        The handle's :meth:`~repro.exec.ExperimentHandle.result` is
        bit-identical to :meth:`collect` on the same specs, on every tier.
        """
        chosen = resolve_executor(
            executor if executor is not None else self._executor)
        ctx = ExecutionContext(runner=self._runner, name=name,
                               events_path=events_path)
        return chosen.submit(specs, ctx)

    def collect(self, specs: Sequence[RunSpec], *,
                name: str = "session") -> ExperimentResult:
        """Execute specs and merge the runs into one ExperimentResult.

        A blocking consumer of :meth:`submit` (it drains the handle).
        """
        return self.submit(specs, name=name).result()

    def compare(self, platforms: Iterable[str],
                workloads: Iterable[str]) -> ExperimentResult:
        """Replay the full (platform x workload) matrix."""
        return self.collect(matrix_specs(list(platforms), list(workloads)),
                            name="compare")

    def sweep(self, platform: str, workloads: Iterable[str],
              section: str, field: str, values: Sequence[Any], *,
              labels: Optional[Sequence[str]] = None) -> ExperimentResult:
        """Sweep one config field of one platform across *values*.

        Each value becomes one labelled run per workload (default label:
        ``str(value)``), so the result is keyed ``(label, workload)`` —
        the shape the Figure 20a page-size study plots.

        Labels must be unique: two values that stringify identically
        (``4096`` and ``"4096"``) or user-passed duplicate labels would
        silently overwrite each other's result keys, so they raise
        ``ValueError`` instead.
        """
        values = list(values)
        labels = sweep_labels(values, labels)
        return self.collect([
            RunSpec(platform=platform, workload=workload,
                    config_overrides={section: {field: value}},
                    label=label)
            for workload in workloads
            for value, label in zip(values, labels)
        ], name=f"sweep-{platform}-{section}.{field}")

    def adaptive_sweep(self, platform: str, workloads: Iterable[str],
                       section: str, field: str, values: Sequence[Any], *,
                       labels: Optional[Sequence[str]] = None,
                       metric: Any = "operations_per_second",
                       tolerance: float = 0.05,
                       budget: Optional[int] = None,
                       seed_points: int = 5,
                       max_rounds: int = 12,
                       settle_rounds: Optional[int] = 3,
                       name: Optional[str] = None,
                       executor: Union[str, Executor, None] = None,
                       observer: Any = None) -> AdaptiveSweepResult:
        """Sweep one config field adaptively: refine where the curve bends.

        *values* is the **grid** a fixed-grid :meth:`sweep` would
        enumerate, as a strictly increasing numeric sequence.  Instead of
        evaluating every cell, the driver seeds *seed_points* of them per
        workload, then per round bisects the grid intervals around any
        evaluated point whose discrete-curvature score of *metric* (a
        ``RunResult`` attribute name or a callable) exceeds *tolerance* —
        knee finding.  Candidates whose content-addressed run-cache key is
        already resolved cost nothing; *budget* (estimated simulated
        accesses, via :func:`~repro.distrib.manifest.estimate_spec_cost`)
        caps the spend and records what it pruned; a workload whose knee
        estimate holds still for *settle_rounds* rounds stops refining.

        Every evaluated cell is submitted as exactly the spec the
        fixed-grid sweep would build, so the cells both run are
        bit-identical and share cache entries.  Returns an
        :class:`~repro.sweep.AdaptiveSweepResult`: the experiment (same
        ``(label, workload)`` keys as :meth:`sweep`), the per-round
        refinement trace, per-workload knees and the cost accounting.
        """
        return AdaptiveSweepDriver(
            self, platform, list(workloads), section, field, values,
            labels=labels, metric=metric, tolerance=tolerance,
            budget=budget, seed_points=seed_points, max_rounds=max_rounds,
            settle_rounds=settle_rounds, name=name, executor=executor,
            observer=observer).run()


def simulate(platform: str, workload: str, *,
             scale: Optional[ExperimentScale] = None,
             workers: Optional[int] = None, **kwargs) -> RunResult:
    """One-shot :meth:`Session.simulate` with a throwaway session."""
    return Session(scale=scale, workers=workers).simulate(
        platform, workload, **kwargs)


def compare(platforms: Iterable[str], workloads: Iterable[str], *,
            scale: Optional[ExperimentScale] = None,
            workers: Optional[int] = None,
            executor: Union[str, Executor, None] = None) -> ExperimentResult:
    """One-shot :meth:`Session.compare` with a throwaway session.

    *executor* picks the tier, exactly as for :class:`Session`; sharding
    knobs live on the :class:`~repro.exec.ShardedExecutor` instance.
    """
    return Session(scale=scale, workers=workers,
                   executor=executor).compare(platforms, workloads)


def sweep(platform: str, workloads: Iterable[str], section: str, field: str,
          values: Sequence[Any], *, labels: Optional[Sequence[str]] = None,
          scale: Optional[ExperimentScale] = None,
          workers: Optional[int] = None,
          executor: Union[str, Executor, None] = None) -> ExperimentResult:
    """One-shot :meth:`Session.sweep` with a throwaway session."""
    return Session(scale=scale, workers=workers, executor=executor).sweep(
        platform, workloads, section, field, values, labels=labels)


def adaptive_sweep(platform: str, workloads: Iterable[str], section: str,
                   field: str, values: Sequence[Any], *,
                   labels: Optional[Sequence[str]] = None,
                   metric: Any = "operations_per_second",
                   tolerance: float = 0.05,
                   budget: Optional[int] = None,
                   seed_points: int = 5,
                   max_rounds: int = 12,
                   settle_rounds: Optional[int] = 3,
                   name: Optional[str] = None,
                   scale: Optional[ExperimentScale] = None,
                   workers: Optional[int] = None,
                   cache_dir: Optional[Path] = None,
                   executor: Union[str, Executor, None] = None
                   ) -> AdaptiveSweepResult:
    """One-shot :meth:`Session.adaptive_sweep` with a throwaway session.

    *cache_dir* matters more here than for the other one-shots: pointing
    it at a persistent directory is what lets a re-run (or a sweep that
    shares cells with an earlier fixed-grid study) resolve those cells as
    zero-cost cache skips.
    """
    session = Session(scale=scale, workers=workers, cache_dir=cache_dir,
                      executor=executor)
    return session.adaptive_sweep(
        platform, workloads, section, field, values, labels=labels,
        metric=metric, tolerance=tolerance, budget=budget,
        seed_points=seed_points, max_rounds=max_rounds,
        settle_rounds=settle_rounds, name=name)


# The serve tier's client is part of the stable facade (submit experiments
# to a running ``repro serve`` daemon).  Imported last: the serve daemon
# itself builds Sessions, so this module must be fully defined first.
from .serve.client import ServeClient  # noqa: E402
