"""Statistics: counters and streaming latency aggregates."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.sim.stats import Counter, LatencyStat, StatRegistry


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter("x").value == 0.0

    def test_add(self):
        counter = Counter("x")
        counter.add()
        counter.add(2.5)
        assert counter.value == 3.5

    def test_cannot_decrease(self):
        with pytest.raises(ValueError):
            Counter("x").add(-1)

class TestLatencyStat:
    def test_mean_and_count(self):
        stat = LatencyStat("lat")
        for sample in [10.0, 20.0, 30.0]:
            stat.record(sample)
        assert stat.count == 3
        assert stat.mean == pytest.approx(20.0)
        assert stat.min == 10.0
        assert stat.max == 30.0
        assert stat.total == 60.0

    def test_empty_stat_is_safe(self):
        stat = LatencyStat("lat")
        assert stat.mean == 0.0
        assert stat.variance == 0.0

    def test_rejects_negative_samples(self):
        with pytest.raises(ValueError):
            LatencyStat("lat").record(-1.0)

    def test_merge_matches_single_stream(self):
        combined = LatencyStat("all")
        part_a = LatencyStat("a")
        part_b = LatencyStat("b")
        samples_a = [1.0, 5.0, 9.0]
        samples_b = [2.0, 4.0, 100.0, 3.0]
        for sample in samples_a:
            part_a.record(sample)
            combined.record(sample)
        for sample in samples_b:
            part_b.record(sample)
            combined.record(sample)
        part_a.merge(part_b)
        assert part_a.count == combined.count
        assert part_a.mean == pytest.approx(combined.mean)
        assert part_a.variance == pytest.approx(combined.variance)
        assert part_a.max == combined.max

    def test_merge_into_empty(self):
        empty = LatencyStat("empty")
        other = LatencyStat("other")
        other.record(5.0)
        empty.merge(other)
        assert empty.count == 1
        assert empty.mean == 5.0

    @given(st.lists(st.floats(min_value=0.0, max_value=1e9,
                              allow_nan=False), min_size=1, max_size=200))
    def test_mean_matches_reference(self, samples):
        stat = LatencyStat("prop")
        for sample in samples:
            stat.record(sample)
        assert stat.mean == pytest.approx(sum(samples) / len(samples),
                                          rel=1e-9, abs=1e-6)
        assert stat.min == min(samples)
        assert stat.max == max(samples)


class TestStatRegistry:
    def test_counter_is_memoised(self):
        registry = StatRegistry(prefix="ssd")
        registry.counter("reads").add(3)
        registry.counter("reads").add(2)
        assert registry.counter("reads").value == 5

    def test_snapshot_includes_prefix(self):
        registry = StatRegistry(prefix="dev")
        registry.counter("ops").add(1)
        registry.latency("lat").record(10.0)
        snapshot = registry.snapshot()
        assert snapshot["dev.ops"] == 1
        assert snapshot["dev.lat.mean_ns"] == 10.0

class TestMerge:
    """Parallel-run merges: workers' registries fold into one aggregate."""

    def test_counter_merge_adds(self):
        left, right = Counter("x"), Counter("x")
        left.add(3)
        right.add(4.5)
        left.merge(right)
        assert left.value == 7.5

    def test_registry_merge_folds_all_kinds(self):
        left, right = StatRegistry(), StatRegistry()
        left.counter("ops").add(1)
        right.counter("ops").add(2)
        right.counter("only_right").add(7)
        left.latency("lat").record(10.0)
        right.latency("lat").record(30.0)
        left.merge(right)
        assert left.counter("ops").value == 3
        assert left.counter("only_right").value == 7
        assert left.latency("lat").count == 2
        assert left.latency("lat").mean == 20.0

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1),
           st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1))
    def test_registry_latency_merge_matches_single_stream(self, first,
                                                          second):
        split_left, split_right = StatRegistry(), StatRegistry()
        combined = StatRegistry()
        for sample in first:
            split_left.latency("lat").record(sample)
            combined.latency("lat").record(sample)
        for sample in second:
            split_right.latency("lat").record(sample)
            combined.latency("lat").record(sample)
        split_left.merge(split_right)
        merged = split_left.latency("lat")
        reference = combined.latency("lat")
        assert merged.count == reference.count
        assert merged.min == reference.min
        assert merged.max == reference.max
        assert math.isclose(merged.total, reference.total,
                            rel_tol=1e-9, abs_tol=1e-6)
        assert math.isclose(merged.mean, reference.mean,
                            rel_tol=1e-9, abs_tol=1e-6)
