"""Experiment results: the run records of one (platform x workload) matrix.

:class:`ExperimentResult` is what every execution tier folds its runs into
(see :meth:`repro.api.Session.collect`); it indexes the
:class:`~repro.platforms.base.RunResult` records by (platform, workload)
and offers convenience accessors for the metrics each figure plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..platforms.base import RunResult
from ..workloads.registry import ExperimentScale


@dataclass
class ExperimentResult:
    """All run results of one experiment, indexed by (platform, workload)."""

    scale: ExperimentScale
    results: Dict[tuple, RunResult] = field(default_factory=dict)

    def get(self, platform: str, workload: str) -> RunResult:
        return self.results[(platform, workload)]

    def add(self, platform: str, workload: str, result: RunResult) -> None:
        """Record one run under the given (platform, workload) key.

        The key may differ from ``result.platform`` when a run spec labels a
        parameter sweep (e.g. one key per MoS page size).
        """
        self.results[(platform, workload)] = result

    def merge(self, other: "ExperimentResult") -> "ExperimentResult":
        """Fold the runs of *other* into this experiment (parallel merge).

        Shards produced by independent workers or partial re-runs combine
        into one result; both sides must have been produced under the same
        :class:`~repro.workloads.registry.ExperimentScale`, otherwise the
        merged metrics would not be comparable.
        """
        if other.scale != self.scale:
            raise ValueError(
                f"cannot merge experiments run at different scales: "
                f"{self.scale} vs {other.scale}")
        self.results.update(other.results)
        return self

    def platforms(self) -> List[str]:
        return sorted({platform for platform, _ in self.results})

    def workloads(self) -> List[str]:
        seen: List[str] = []
        for _, workload in self.results:
            if workload not in seen:
                seen.append(workload)
        return seen

    # -- per-figure series -----------------------------------------------------------

    def throughput_series(self, platform: str) -> Dict[str, float]:
        """Operations/s per workload for one platform (Figure 16)."""
        return {workload: result.operations_per_second
                for (name, workload), result in self.results.items()
                if name == platform}

    def speedup_over(self, platform: str, baseline: str) -> Dict[str, float]:
        """Per-workload throughput ratio of *platform* over *baseline*.

        Workloads missing on either side are skipped, so merged shards and
        labelled sweeps (which need not be rectangular) stay comparable.
        """
        out: Dict[str, float] = {}
        for workload in self.workloads():
            if ((platform, workload) not in self.results
                    or (baseline, workload) not in self.results):
                continue
            base = self.get(baseline, workload).operations_per_second
            if base <= 0:
                continue
            out[workload] = (self.get(platform, workload).operations_per_second
                             / base)
        return out

    def mean_speedup(self, platform: str, baseline: str) -> float:
        """Geometric-mean-free average speedup used for headline claims."""
        ratios = list(self.speedup_over(platform, baseline).values())
        if not ratios:
            return 0.0
        return sum(ratios) / len(ratios)

    def energy_ratio(self, platform: str, baseline: str) -> float:
        """Average total-energy ratio of *platform* over *baseline* (Figure 19)."""
        ratios: List[float] = []
        for workload in self.workloads():
            if ((platform, workload) not in self.results
                    or (baseline, workload) not in self.results):
                continue
            base = self.get(baseline, workload).energy.total_nj
            if base <= 0:
                continue
            ratios.append(self.get(platform, workload).energy.total_nj / base)
        if not ratios:
            return 0.0
        return sum(ratios) / len(ratios)

