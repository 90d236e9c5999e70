"""Host substrate: CPU model, cache hierarchy, OS storage stack."""

import pytest

from repro.config import CacheConfig, CPUConfig, OSStackConfig
from repro.host.caches import CacheHierarchy, CacheLevel
from repro.host.cpu import CPUModel
from repro.host.os_stack import OSStorageStack, PageCache
from repro.units import KB, MB, us


class TestCPUModel:
    def test_compute_time_follows_cpi(self):
        cpu = CPUModel(CPUConfig(frequency_ghz=2.0, base_cpi=1.0))
        assert cpu.execute_compute(1000) == pytest.approx(500.0)

    def test_ipc_is_one_without_stalls(self):
        cpu = CPUModel(CPUConfig(frequency_ghz=2.0, base_cpi=1.0))
        cpu.execute_compute(10_000)
        assert cpu.ipc == pytest.approx(1.0)

    def test_memory_stalls_lower_ipc(self):
        cpu = CPUModel(CPUConfig())
        cpu.execute_compute(1000)
        cpu.execute_memory(us(100))
        assert cpu.ipc < 0.1

    def test_breakdown_categories(self):
        cpu = CPUModel(CPUConfig())
        cpu.execute_compute(1000)
        cpu.execute_memory(200.0)
        cpu.charge_os(300.0)
        cpu.charge_storage(400.0)
        account = cpu.account
        assert account.os_ns == 300.0
        assert account.storage_ns == 400.0
        assert account.total_ns == pytest.approx(
            account.app_ns + 300.0 + 400.0)

    def test_mips_positive(self):
        cpu = CPUModel(CPUConfig())
        cpu.execute_compute(1_000_000)
        assert cpu.mips > 0

    def test_negative_inputs_rejected(self):
        cpu = CPUModel(CPUConfig())
        with pytest.raises(ValueError):
            cpu.execute_compute(-1)
        with pytest.raises(ValueError):
            cpu.execute_memory(-1.0)
        with pytest.raises(ValueError):
            cpu.charge_os(-1.0)

class TestCacheLevel:
    def test_hit_after_fill(self):
        level = CacheLevel("L1", KB(4), 64, 1.0, associativity=2)
        assert level.lookup(0, is_write=False) is False
        level.fill(0, dirty=False)
        assert level.lookup(0, is_write=False) is True

    def test_eviction_reports_dirty_victim(self):
        level = CacheLevel("L1", 2 * 64, 64, 1.0, associativity=2)
        level.fill(0, dirty=True)
        level.fill(64 * level.num_sets, dirty=False)
        victim_dirty = level.fill(2 * 64 * level.num_sets, dirty=False)
        assert victim_dirty is True
        assert level.writebacks == 1

    def test_hit_rate(self):
        level = CacheLevel("L1", KB(64), 64, 1.0)
        level.lookup(0, False)
        level.fill(0, False)
        level.lookup(0, False)
        assert level.hit_rate == pytest.approx(0.5)


class TestCacheHierarchy:
    def test_first_access_misses_everywhere(self):
        hierarchy = CacheHierarchy(CacheConfig())
        result = hierarchy.access(0x1000, is_write=False)
        assert result.is_miss
        assert hierarchy.memory_accesses == 1

    def test_second_access_hits_l1(self):
        hierarchy = CacheHierarchy(CacheConfig())
        hierarchy.access(0x1000, False)
        result = hierarchy.access(0x1000, False)
        assert result.hit_level == "L1"

    def test_l2_hit_after_l1_eviction(self):
        config = CacheConfig(l1_size_bytes=KB(1), l2_size_bytes=MB(1))
        hierarchy = CacheHierarchy(config)
        hierarchy.access(0, False)
        # Evict line 0 from tiny L1 by touching many other lines.
        for index in range(1, 64):
            hierarchy.access(index * 64 * 2, False)
        result = hierarchy.access(0, False)
        assert result.hit_level in ("L1", "L2")

    def test_sequential_scan_has_no_reuse(self):
        hierarchy = CacheHierarchy(CacheConfig())
        for index in range(1000):
            hierarchy.access(index * 64, False)
        assert hierarchy.miss_rate == pytest.approx(1.0)

    def test_hot_loop_has_high_hit_rate(self):
        hierarchy = CacheHierarchy(CacheConfig())
        for _ in range(20):
            for index in range(16):
                hierarchy.access(index * 64, False)
        assert hierarchy.miss_rate < 0.1

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            CacheHierarchy(CacheConfig()).access(-1, False)


class TestPageCache:
    def test_miss_then_install_then_hit(self):
        cache = PageCache(KB(16), KB(4))
        assert cache.access(1, False) is False
        cache.install(1)
        assert cache.access(1, False) is True

    def test_lru_eviction(self):
        cache = PageCache(KB(8), KB(4))
        cache.install(1, dirty=True)
        cache.install(2)
        evicted = cache.install(3)
        assert evicted == (1, True)
        assert cache.dirty_writebacks == 1

    def test_write_marks_dirty(self):
        cache = PageCache(KB(16), KB(4))
        cache.install(1)
        cache.access(1, is_write=True)
        assert cache.dirty_pages() == [1]

    def test_hit_rate(self):
        cache = PageCache(KB(16), KB(4))
        cache.access(1, False)
        cache.install(1)
        cache.access(1, False)
        assert cache.hit_rate == pytest.approx(0.5)

    def test_resident_pages_in_lru_order(self):
        cache = PageCache(KB(16), KB(4))
        for page in (1, 2, 3):
            cache.install(page)
        cache.access(1, False)
        assert cache.resident_pages() == [2, 3, 1]


class TestPageCacheCapacityEdges:
    """Regression tests for the zero-capacity install guard and the
    unbounded (never-evicting) regime."""

    def test_zero_capacity_never_retains_pages(self):
        cache = PageCache(0, KB(4))
        assert cache.capacity_pages == 0
        for _ in range(3):
            assert cache.access(7, True) is False
            assert cache.install(7, dirty=True) is None
        assert len(cache) == 0
        assert cache.resident_pages() == []
        assert 7 not in cache

    def test_zero_capacity_counts_misses_consistently(self):
        cache = PageCache(0, KB(4))
        for page in (1, 1, 2, 3, 2):
            assert cache.access(page, False) is False
            cache.install(page)
        assert cache.misses == 5
        assert cache.hits == 0
        assert cache.hit_rate == 0.0
        # No residency means no victims: the guard must never manufacture
        # an eviction (or a dirty writeback) out of an empty cache.
        assert cache.dirty_writebacks == 0

    def test_sub_page_capacity_rounds_down_to_zero(self):
        cache = PageCache(KB(4) - 1, KB(4))
        assert cache.capacity_pages == 0
        assert cache.install(1, dirty=True) is None
        assert len(cache) == 0

    def test_capacity_one_evicts_on_every_new_page(self):
        cache = PageCache(KB(4), KB(4))
        assert cache.install(1, dirty=True) is None
        assert cache.install(2) == (1, True)
        assert cache.install(3) == (2, False)
        assert cache.resident_pages() == [3]
        assert cache.dirty_writebacks == 1

    def test_unbounded_cache_never_evicts(self):
        cache = PageCache(KB(4) * 10_000, KB(4))
        for page in range(1_000):
            assert cache.install(page, dirty=page % 2 == 0) is None
        assert len(cache) == 1_000
        assert cache.dirty_writebacks == 0
        assert cache.resident_pages() == list(range(1_000))
        assert cache.dirty_pages() == [p for p in range(1_000) if p % 2 == 0]


class TestOSStorageStack:
    def test_major_fault_cost_matches_paper_range(self):
        """The paper quotes 15-20 us of software time per fault."""
        stack = OSStorageStack(OSStackConfig(), KB(4))
        cost = stack.fault_cost(needs_io=True)
        assert us(10) <= cost <= us(25)

    def test_minor_fault_is_cheaper(self):
        stack = OSStorageStack(OSStackConfig(), KB(4))
        major = stack.fault_cost(needs_io=True)
        minor = stack.fault_cost(needs_io=False)
        assert minor < major
        # Only the major fault went down the I/O stack.
        assert stack.total_io_stack_ns == OSStackConfig().io_stack_ns

    def test_fault_accounting(self):
        stack = OSStorageStack(OSStackConfig(), KB(4))
        stack.fault_cost()
        stack.fault_cost()
        stats = stack.statistics()
        assert stats["page_faults_serviced"] == 2
        assert stats["context_switches"] == 4

    def test_writeback_cost_positive(self):
        stack = OSStorageStack(OSStackConfig(), KB(4))
        assert stack.writeback_cost() > 0
