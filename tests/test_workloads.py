"""Workload generators, traces, and the Table III registry."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import default_config
from repro.units import GB, KB, MB
from repro.workloads.generators import (
    HotspotPattern,
    RandomPattern,
    SequentialPattern,
    StridedPattern,
    ZipfianPattern,
    expand_runs,
    interleave,
    shuffled_slots,
)
from repro.workloads.registry import (
    ExperimentScale,
    MICROBENCH_WORKLOADS,
    RODINIA_WORKLOADS,
    SQLITE_WORKLOADS,
    all_workload_names,
    build_trace,
    get_workload,
    scale_system_config,
    table_iii,
)
from repro.workloads.trace import MemoryAccess, WorkloadTrace


class TestGenerators:
    def test_sequential_wraps_around(self):
        pattern = SequentialPattern(KB(64), KB(4))
        addresses = pattern.addresses(20)
        assert addresses[0] == 0
        assert addresses[16] == 0  # 16 slots of 4 KB in 64 KB
        assert all(address % KB(4) == 0 for address in addresses)

    def test_random_within_bounds(self):
        pattern = RandomPattern(MB(1), 64, seed=3)
        addresses = pattern.addresses(1000)
        assert addresses.min() >= 0
        assert addresses.max() < MB(1)

    def test_random_is_deterministic_per_seed(self):
        first = RandomPattern(MB(1), 64, seed=5).addresses(100)
        second = RandomPattern(MB(1), 64, seed=5).addresses(100)
        third = RandomPattern(MB(1), 64, seed=6).addresses(100)
        assert np.array_equal(first, second)
        assert not np.array_equal(first, third)

    def test_zipfian_concentrates_accesses(self):
        pattern = ZipfianPattern(MB(4), 64, seed=1, theta=1.2)
        addresses = pattern.addresses(5000)
        unique, counts = np.unique(addresses, return_counts=True)
        top_share = np.sort(counts)[::-1][:max(1, len(unique) // 100)].sum()
        assert top_share / len(addresses) > 0.2

    def test_hotspot_respects_probability(self):
        pattern = HotspotPattern(MB(4), 64, seed=2, hot_fraction=0.1,
                                 hot_probability=0.9, run_length=1)
        addresses = pattern.addresses(5000)
        hot_limit = int(MB(4) * 0.1)
        hot_share = np.mean(addresses < hot_limit)
        assert 0.8 < hot_share < 0.98

    def test_strided_pattern_has_constant_stride(self):
        pattern = StridedPattern(MB(1), 64, stride_slots=4)
        addresses = pattern.addresses(10)
        deltas = np.diff(addresses[:4])
        assert np.all(deltas == 4 * 64)

    def test_expand_runs(self):
        starts = np.array([0, 100], dtype=np.int64)
        expanded = expand_runs(starts, run_length=3, total_slots=1000)
        assert list(expanded) == [0, 1, 2, 100, 101, 102]

    def test_expand_runs_wraps(self):
        starts = np.array([999], dtype=np.int64)
        expanded = expand_runs(starts, run_length=3, total_slots=1000)
        assert list(expanded) == [999, 0, 1]

    @pytest.mark.parametrize("slots", [1, 2, 1 << 15, (1 << 15) + 1,
                                       3 * (1 << 15) - 7, 1 << 20])
    def test_shuffled_slots_equal_numpy_permutation(self, slots):
        # Fill blocks are 1 << 15 slots: sizes straddle the block edges.
        shuffled = shuffled_slots(slots, seed=43)
        assert shuffled.dtype == np.int32
        assert np.array_equal(shuffled,
                              np.random.default_rng(43).permutation(slots))

    def test_run_length_creates_spatial_locality(self):
        pattern = ZipfianPattern(MB(4), 64, seed=1, run_length=8)
        addresses = pattern.addresses(800)
        consecutive = np.mean(np.diff(addresses) == 64)
        assert consecutive > 0.5

    def test_interleave_mixes_generators(self):
        sequential = SequentialPattern(MB(1), 64)
        random = RandomPattern(MB(1), 64, seed=9)
        mixed = interleave([sequential, random], 500, weights=[0.5, 0.5])
        assert len(mixed) == 500

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SequentialPattern(0, 64)
        with pytest.raises(ValueError):
            RandomPattern(MB(1), 0)
        with pytest.raises(ValueError):
            ZipfianPattern(MB(1), 64, theta=0.5)
        with pytest.raises(ValueError):
            HotspotPattern(MB(1), 64, hot_fraction=0.0)
        with pytest.raises(ValueError):
            StridedPattern(MB(1), 64, stride_slots=0)
        with pytest.raises(ValueError):
            interleave([], 10)


class TestTrace:
    def _trace(self, accesses):
        return WorkloadTrace(name="t", suite="s", accesses=accesses,
                             dataset_bytes=MB(1),
                             compute_instructions_per_access=100.0,
                             accesses_per_operation=10.0,
                             operation_unit="ops",
                             total_instructions=1000)

    def test_counts_and_fractions(self):
        accesses = [MemoryAccess(0, 64, False), MemoryAccess(64, 64, True)]
        trace = self._trace(accesses)
        assert len(trace) == 2
        assert trace.read_count == 1
        assert trace.write_count == 1
        assert trace.write_fraction == 0.5
        assert trace.operations == pytest.approx(0.2)

    def test_operations_per_second(self):
        trace = self._trace([MemoryAccess(0, 64, False)] * 10)
        assert trace.operations_per_second(1e9) == pytest.approx(1.0)
        assert trace.operations_per_second(0.0) == 0.0

    def test_touched_bytes(self):
        trace = self._trace([MemoryAccess(100, 64, False)])
        assert trace.touched_bytes() == 164

    def test_invalid_access(self):
        with pytest.raises(ValueError):
            MemoryAccess(-1, 64, False)
        with pytest.raises(ValueError):
            MemoryAccess(0, 0, False)


class TestRegistry:
    def test_all_twelve_workloads_present(self):
        names = all_workload_names()
        assert len(names) == 12
        assert set(MICROBENCH_WORKLOADS) | set(SQLITE_WORKLOADS) \
            | set(RODINIA_WORKLOADS) == set(names)

    def test_table_iii_matches_paper_numbers(self):
        rows = {row.name: row for row in table_iii()}
        assert rows["seqRd"].total_instructions == 67_000_000_000
        assert rows["seqRd"].dataset_bytes == GB(16)
        assert rows["update"].total_instructions == 244_000_000_000
        assert rows["KMN"].dataset_bytes == GB(5)
        assert rows["BFS"].load_ratio == pytest.approx(0.21)
        assert rows["NN"].store_ratio == pytest.approx(0.05)

    def test_get_workload_unknown_name(self):
        with pytest.raises(ValueError):
            get_workload("nosuch")

    def test_microbench_is_page_granular(self):
        for name in MICROBENCH_WORKLOADS:
            assert get_workload(name).access_size_bytes == KB(4)

    def test_sqlite_and_rodinia_are_fine_grained(self):
        for name in SQLITE_WORKLOADS + RODINIA_WORKLOADS:
            assert get_workload(name).access_size_bytes < KB(4)

    def test_write_workloads_have_more_writes(self):
        assert (get_workload("seqWr").write_fraction
                > get_workload("seqRd").write_fraction)


class TestBuildTrace:
    def test_trace_respects_bounds(self):
        scale = ExperimentScale(min_accesses=500, max_accesses=1000)
        trace = build_trace("seqRd", scale)
        assert 500 <= len(trace) <= 1000
        assert trace.dataset_bytes == scale.scaled_bytes(GB(16))
        assert all(access.address + access.size_bytes <= trace.dataset_bytes
                   for access in trace)

    def test_traces_are_deterministic(self):
        scale = ExperimentScale(max_accesses=800)
        first = build_trace("rndSel", scale)
        second = build_trace("rndSel", scale)
        assert [a.address for a in first] == [a.address for a in second]

    def test_write_fraction_close_to_spec(self):
        scale = ExperimentScale(max_accesses=4000)
        trace = build_trace("rndWr", scale)
        assert trace.write_fraction == pytest.approx(0.9, abs=0.05)

    def test_dataset_override_for_stress_test(self):
        scale = ExperimentScale(max_accesses=500)
        trace = build_trace("seqSel", scale, dataset_bytes_override=MB(700))
        assert trace.dataset_bytes == MB(700)

    def test_every_workload_builds(self):
        scale = ExperimentScale(min_accesses=100, max_accesses=300)
        for name in all_workload_names():
            trace = build_trace(name, scale)
            assert len(trace) >= 100
            assert trace.name == name

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from(all_workload_names()),
           st.integers(min_value=200, max_value=2000))
    def test_trace_invariants(self, name, max_accesses):
        trace = build_trace(name, ExperimentScale(min_accesses=100,
                                                  max_accesses=max_accesses))
        assert 0.0 <= trace.write_fraction <= 1.0
        assert trace.operations > 0
        assert trace.touched_bytes() <= trace.dataset_bytes


class TestScaleSystemConfig:
    def test_capacities_shrink_together(self):
        config = default_config()
        scaled = scale_system_config(config, ExperimentScale(capacity_scale=1 / 64))
        assert scaled.nvdimm.capacity_bytes == config.nvdimm.capacity_bytes // 64
        assert scaled.optane.capacity_bytes == config.optane.capacity_bytes // 64
        assert scaled.ssd.geometry.usable_capacity_bytes < \
            config.ssd.geometry.usable_capacity_bytes

    def test_footprint_ratio_preserved(self):
        """The dataset-to-NVDIMM ratio is what determines hit rates."""
        config = default_config()
        scale = ExperimentScale(capacity_scale=1 / 64)
        scaled = scale_system_config(config, scale)
        original_ratio = GB(16) / config.nvdimm.capacity_bytes
        scaled_ratio = scale.scaled_bytes(GB(16)) / scaled.nvdimm.capacity_bytes
        assert scaled_ratio == pytest.approx(original_ratio, rel=0.05)

    def test_mos_page_size_unchanged(self):
        scaled = scale_system_config(default_config(),
                                     ExperimentScale(capacity_scale=1 / 64))
        assert scaled.hams.mos_page_bytes == KB(128)
