"""Multi-tenant scenario engine: interleaved workloads on one platform.

Every figure the repository reproduces is a (one platform x one trace)
pair; the scenario layer is what turns the simulator toward the ROADMAP's
production-scale north star — mixed traffic from many tenants contending
for one platform's DRAM cache, flash channels and link bandwidth.

The subsystem has four parts:

* :mod:`repro.scenario.spec` — :class:`TenantSpec` / :class:`ScenarioSpec`,
  plain-data descriptions of a mix that serialise canonically and ride the
  existing :class:`~repro.runner.specs.RunSpec` machinery as
  ``scenario:<canonical-json>`` workload sources, so scenarios flow through
  the run cache, every executor tier, sharding and ``repro serve``
  unchanged;
* :mod:`repro.scenario.mix` — the deterministic issue-clock merge of N
  tenants' :class:`~repro.workloads.trace.AccessStream`s into one
  tenant-tagged columnar stream, streamed chunk-wise so mixes never
  materialise, with a chunking-invariant content hash;
* :mod:`repro.scenario.policy` — pluggable QoS policies (shared,
  per-tenant cache partitions, admission throttling, strict priority) and
  the fairness metrics (per-tenant slowdown, Jain's index);
* :mod:`repro.scenario.engine` — replay with per-tenant
  :class:`~repro.sim.stats.StatRegistry` attribution riding the batched
  replay observer hook, conserving exactly against the aggregate.
"""

from .engine import run_scenario, scenario_run_spec
from .mix import (
    MixedAccessStream,
    TenantAccessStream,
    build_mixed_trace,
)
from .policy import POLICY_NAMES, jains_index
from .spec import (
    ARRIVAL_MODELS,
    SCENARIO_SOURCE_PREFIX,
    ScenarioSpec,
    TenantSpec,
    is_scenario_source,
    parse_scenario_source,
    scenario_source,
    scenario_spec_length,
)

__all__ = [
    "ARRIVAL_MODELS",
    "MixedAccessStream",
    "POLICY_NAMES",
    "SCENARIO_SOURCE_PREFIX",
    "ScenarioSpec",
    "TenantAccessStream",
    "TenantSpec",
    "build_mixed_trace",
    "is_scenario_source",
    "jains_index",
    "parse_scenario_source",
    "run_scenario",
    "scenario_run_spec",
    "scenario_source",
    "scenario_spec_length",
]
