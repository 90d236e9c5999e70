"""Scenario replay: mixed-stream execution with per-tenant attribution.

One scenario run is one ordinary platform replay of the mixed trace — the
platform's clocks, caches and devices see exactly the interleaved stream a
shared system would — plus two scenario-only attachments:

* an **attribution observer** riding the batched replay loop's
  ``on_chunk`` hook, folding every chunk's per-access stall/byte/off-chip
  columns into one :class:`~repro.sim.stats.StatRegistry` per tenant
  (vectorised ``np.bincount`` splits plus a parallel-Welford fold for the
  service-latency aggregate, so attribution costs far less than replay);
* the spec's **QoS policy**, applied to the platform before replay
  (:func:`~repro.scenario.policy.install_policy`) and to the merge order
  before that (throttle/priority, inside :mod:`repro.scenario.mix`).

The conservation invariant — the CI gate — is structural: the reported
``aggregate`` payload *is* the merge of the per-tenant registries, and the
integer totals are cross-checked against the platform's own accounting
(accesses, off-chip accesses) before the result leaves this module.
Per-tenant statistics live in ``RunResult.tenants``, never in ``extras``,
so a 1-tenant scenario's RunResult is bit-identical to the solo run
everywhere existing tests and baselines look.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..platforms.base import RunResult
from ..sim.stats import LatencyStat, StatRegistry
from .mix import build_mixed_trace
from .policy import install_policy
from .spec import (
    AGGREGATE_KEY,
    ScenarioSpec,
    parse_scenario_source,
    scenario_source,
)


def _fold_samples(stat: LatencyStat, samples: np.ndarray) -> None:
    """Fold a sample column into *stat* via one parallel-Welford merge.

    Equivalent in count/total/min/max and agreeing with per-sample
    ``record`` to float merge tolerance in mean/variance — the same
    contract :meth:`~repro.sim.stats.LatencyStat.merge` already has.
    """
    count = len(samples)
    if not count:
        return
    other = LatencyStat(stat.name)
    other.count = count
    other.total = float(samples.sum())
    other.min = float(samples.min())
    other.max = float(samples.max())
    mean = float(samples.mean())
    other._mean = mean
    other._m2 = float(((samples - mean) ** 2).sum())
    stat.merge(other)


class TenantAttribution:
    """Replay observer: splits every chunk's costs by tenant tag."""

    def __init__(self, tenant_count: int) -> None:
        self.tenant_count = tenant_count
        self.registries: List[StatRegistry] = [
            StatRegistry() for _ in range(tenant_count)]

    def on_chunk(self, chunk, stall_ns: np.ndarray,
                 miss_indices: np.ndarray, service) -> None:
        tags = getattr(chunk, "tenants", None)
        if tags is None:
            raise ValueError(
                "scenario attribution requires a tenant-tagged stream "
                "(chunk has no tenants column)")
        width = self.tenant_count
        accesses = np.bincount(tags, minlength=width)
        stalls = np.bincount(tags, weights=stall_ns, minlength=width)
        moved = np.bincount(tags, weights=chunk.sizes.astype(np.float64),
                            minlength=width)
        if len(miss_indices):
            miss_tags = tags[miss_indices]
            offchip = np.bincount(miss_tags, minlength=width)
            os_ns = np.bincount(miss_tags, weights=service.os_ns,
                                minlength=width)
            storage_ns = np.bincount(miss_tags, weights=service.storage_ns,
                                     minlength=width)
        else:
            miss_tags = None
            offchip = os_ns = storage_ns = None
        for tenant in range(width):
            if not accesses[tenant]:
                continue
            registry = self.registries[tenant]
            registry.counter("accesses").add(float(accesses[tenant]))
            registry.counter("bytes").add(float(moved[tenant]))
            registry.counter("stall_ns").add(float(stalls[tenant]))
            if offchip is not None and offchip[tenant]:
                registry.counter("offchip").add(float(offchip[tenant]))
                registry.counter("os_ns").add(float(os_ns[tenant]))
                registry.counter("storage_ns").add(float(storage_ns[tenant]))
                _fold_samples(
                    registry.latency("service_ns"),
                    service.latency_ns[miss_tags == tenant])


def _harvest_cache_counters(platform, cache_names: List[str],
                            registries: List[StatRegistry]) -> None:
    """Pull per-tenant page-cache counters into the tenant registries."""
    for name in cache_names:
        cache = getattr(platform, name)
        for tenant, counters in cache.tenant_statistics().items():
            registry = registries[tenant]
            for key, value in counters.items():
                if value:
                    registry.counter(key).add(float(value))


def aggregate_registry(registries: List[StatRegistry]) -> StatRegistry:
    """The exact tenant-order merge of the per-tenant registries.

    This is the same fold the conservation test recomputes — by
    construction, ``sum of per-tenant == aggregate`` at threshold 0.
    """
    merged = StatRegistry()
    for registry in registries:
        merged.merge(registry)
    return merged


def run_scenario(scenario: ScenarioSpec, platform, scale) -> RunResult:
    """Replay *scenario* on a live *platform*, attaching tenant payloads.

    The low-level entry point: builds the mixed trace at *scale*, applies
    the platform-shaping policy, runs with the attribution observer, and
    returns the platform's RunResult with ``result.tenants`` filled in.
    Use :func:`scenario_run_spec` + a Session/runner for the cached,
    executor-tiered path.
    """
    trace = build_mixed_trace(scenario, scale)
    return _replay(scenario, platform, trace)


def _replay(scenario: ScenarioSpec, platform, trace) -> RunResult:
    names = scenario.tenant_names()
    cache_names = install_policy(platform, scenario, len(names))
    observer = TenantAttribution(len(names))
    result = platform.run(trace, observer=observer)
    _harvest_cache_counters(platform, cache_names, observer.registries)

    total_accesses = sum(
        int(registry.counter("accesses").value)
        for registry in observer.registries)
    if total_accesses != result.memory_accesses:
        raise AssertionError(
            f"tenant attribution lost accesses: "
            f"{total_accesses} != {result.memory_accesses}")
    total_offchip = sum(
        int(registry.counters["offchip"].value)
        for registry in observer.registries
        if "offchip" in registry.counters)
    if total_offchip != result.offchip_accesses:
        raise AssertionError(
            f"tenant attribution lost off-chip accesses: "
            f"{total_offchip} != {result.offchip_accesses}")

    payload: Dict[str, Dict[str, float]] = {
        name: registry.snapshot()
        for name, registry in zip(names, observer.registries)}
    payload[AGGREGATE_KEY] = aggregate_registry(
        observer.registries).snapshot()
    result.tenants = payload
    return result


def execute_scenario_spec(spec, config, scale,
                          trace_cache: Optional[Dict[tuple, object]] = None
                          ) -> RunResult:
    """The ``scenario:`` branch of :func:`repro.runner.parallel.execute_spec`.

    Mirrors the plain path exactly — per-spec config overrides, the
    per-process trace memo (keyed like ``TraceSpec.cache_key``, so N
    platforms replaying one scenario in a worker build the mix once), the
    platform registry — and adds the policy install + attribution around
    ``platform.run``.
    """
    from ..platforms.registry import create_platform
    from ..runner.specs import apply_config_overrides

    scenario = parse_scenario_source(spec.workload)
    run_config = apply_config_overrides(config, spec.config_overrides)
    memo_key = (spec.workload, spec.dataset_bytes_override)
    trace = None if trace_cache is None else trace_cache.get(memo_key)
    if trace is None:
        trace = build_mixed_trace(scenario, scale)
        if trace_cache is not None:
            trace_cache[memo_key] = trace
    platform = create_platform(spec.platform, run_config,
                               **dict(spec.platform_kwargs))
    return _replay(scenario, platform, trace)


def scenario_run_spec(scenario: ScenarioSpec, platform: str, *,
                      label: Optional[str] = None,
                      config_overrides=None,
                      platform_kwargs=None):
    """A cache/executor-ready :class:`~repro.runner.specs.RunSpec` for
    replaying *scenario* on *platform*.

    The workload is the canonical ``scenario:`` source (content-addressed
    by :func:`~repro.runner.artifacts.run_cache_key`); the workload label
    is the scenario's name, so report tables print something readable.
    """
    from ..runner.specs import RunSpec  # lazy: keeps package import light

    return RunSpec(
        platform=platform,
        workload=scenario_source(scenario),
        config_overrides=dict(config_overrides or {}),
        platform_kwargs=dict(platform_kwargs or {}),
        label=label,
        workload_label=scenario.name,
    )
