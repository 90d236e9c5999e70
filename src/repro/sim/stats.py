"""Statistics collection: counters and latency aggregates.

Every device model owns a :class:`StatRegistry` so experiments can pull a
flat name -> value mapping after a run.  The classes are intentionally plain
Python (no numpy dependency) because they sit on hot paths of the trace loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict


class Counter:
    """A monotonically increasing named counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def add(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def merge(self, other: "Counter") -> "Counter":
        """Fold another counter into this one (parallel-run merge)."""
        self.value += other.value
        return self


class LatencyStat:
    """Streaming aggregate of latency samples (count/sum/min/max/mean/variance).

    Uses Welford's online algorithm so the variance is numerically stable
    without retaining every sample.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_mean", "_m2")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._mean = 0.0
        self._m2 = 0.0

    def record(self, sample: float) -> None:
        if sample < 0:
            raise ValueError(f"negative latency sample for {self.name!r}: {sample}")
        self.count += 1
        self.total += sample
        self.min = min(self.min, sample)
        self.max = max(self.max, sample)
        delta = sample - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (sample - self._mean)

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    def merge(self, other: "LatencyStat") -> "LatencyStat":
        """Fold another aggregate into this one (parallel merge formula).

        Chan et al.'s pairwise Welford combination: count/min/max are exact
        in any merge order; total, mean and M2 reassociate float sums, so
        shard order perturbs at most the last ulps (the property tests pin
        this down).
        """
        if other.count == 0:
            return self
        if self.count == 0:
            self.count = other.count
            self.total = other.total
            self.min = other.min
            self.max = other.max
            self._mean = other._mean
            self._m2 = other._m2
            return self
        combined = self.count + other.count
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self.count * other.count / combined
        self._mean = (self._mean * self.count + other._mean * other.count) / combined
        self.count = combined
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self


@dataclass
class StatRegistry:
    """A named collection of counters and latency aggregates."""

    prefix: str = ""
    counters: Dict[str, Counter] = field(default_factory=dict)
    latencies: Dict[str, LatencyStat] = field(default_factory=dict)

    def counter(self, name: str) -> Counter:
        if name not in self.counters:
            self.counters[name] = Counter(self._qualify(name))
        return self.counters[name]

    def latency(self, name: str) -> LatencyStat:
        if name not in self.latencies:
            self.latencies[name] = LatencyStat(self._qualify(name))
        return self.latencies[name]

    def snapshot(self) -> Dict[str, float]:
        """Flatten all statistics into ``{qualified_name: value}``."""
        out: Dict[str, float] = {}
        for name, counter in self.counters.items():
            out[self._qualify(name)] = counter.value
        for name, stat in self.latencies.items():
            base = self._qualify(name)
            out[f"{base}.count"] = stat.count
            out[f"{base}.mean_ns"] = stat.mean
            out[f"{base}.total_ns"] = stat.total
            out[f"{base}.max_ns"] = stat.max if stat.count else 0.0
        return out

    def merge(self, other: "StatRegistry") -> "StatRegistry":
        """Fold the statistics of *other* into this registry.

        Counters add, latency aggregates combine via the parallel Welford
        merge.  Names present only in *other*
        are created here first, so no statistic is lost.  This is the
        aggregation primitive the ``repro.distrib`` shard coordinator
        relies on; ``tests/test_merge_properties.py`` pins the split-
        invariance and merge-order-insensitivity it assumes.
        """
        for name, counter in other.counters.items():
            self.counter(name).merge(counter)
        for name, stat in other.latencies.items():
            self.latency(name).merge(stat)
        return self

    def _qualify(self, name: str) -> str:
        return f"{self.prefix}.{name}" if self.prefix else name
