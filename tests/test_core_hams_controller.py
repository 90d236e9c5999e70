"""The HAMS controller: hits, misses, evictions, modes, integrations, recovery."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from oracles import hams_access
from repro.config import default_config
from repro.core.hams_controller import HAMSController
from repro.units import GB, KB, MB
from repro.workloads.registry import ExperimentScale, scale_system_config


def small_config(integration: str = "tight", mode: str = "extend",
                 mos_page: int = KB(128)):
    """A heavily scaled-down system so controller tests run in milliseconds."""
    config = scale_system_config(default_config(),
                                 ExperimentScale(capacity_scale=1 / 512))
    return config.with_hams(integration=integration, mode=mode,
                            mos_page_bytes=mos_page)


def controller(**kwargs) -> HAMSController:
    return HAMSController(small_config(**kwargs))


def warm_controller(**kwargs) -> HAMSController:
    """A controller whose ULL-Flash holds data (as after the paper's warm-up)."""
    hams = controller(**kwargs)
    hams.ssd.precondition(0, min(hams.ssd.logical_pages, 4096))
    return hams


class TestBasicAccess:
    def test_first_access_misses_then_hits(self):
        hams = controller()
        first = hams.access(0, 64, is_write=False, at_ns=0.0)
        assert not first.hit
        second = hams.access(64, 64, is_write=False, at_ns=first.finish_ns)
        assert second.hit
        assert second.latency_ns < first.latency_ns

    def test_hit_latency_is_dram_like(self):
        hams = controller()
        first = hams.access(0, 64, False, 0.0)
        hit = hams.access(128, 64, False, first.finish_ns)
        assert hit.latency_ns < 1_000.0  # well under a microsecond

    def test_miss_latency_includes_flash(self):
        hams = warm_controller()
        miss = hams.access(0, 64, False, 0.0)
        assert miss.latency_ns > 3_000.0  # at least one Z-NAND read
        assert miss.ssd_ns > 0
        assert miss.dma_ns > 0

    def test_mos_capacity_matches_ssd(self):
        hams = controller()
        assert hams.mos_capacity_bytes == hams.ssd.capacity_bytes

    def test_out_of_range_access_rejected(self):
        hams = controller()
        with pytest.raises(ValueError):
            hams.access(hams.mos_capacity_bytes, 64, False, 0.0)

    def test_write_marks_entry_dirty(self):
        hams = controller()
        hams.access(0, 64, is_write=True, at_ns=0.0)
        assert hams.tag_array.dirty_count() == 1

    def test_accesses_are_counted(self):
        hams = controller()
        now = 0.0
        for index in range(5):
            result = hams.access(index * 64, 64, False, now)
            now = result.finish_ns
        assert hams.accesses == 5


class TestEvictions:
    def test_dirty_conflict_triggers_eviction(self):
        hams = controller()
        page_bytes = hams.mos_page_bytes
        entries = hams.tag_array.entries_count
        # Write page 0, then access the conflicting page one "way" further.
        first = hams.access(0, 64, is_write=True, at_ns=0.0)
        conflict = hams.access(entries * page_bytes, 64, is_write=False,
                               at_ns=first.finish_ns)
        assert conflict.evicted
        assert hams.evictions == 1

    def test_clean_conflict_does_not_evict(self):
        hams = controller()
        page_bytes = hams.mos_page_bytes
        entries = hams.tag_array.entries_count
        first = hams.access(0, 64, is_write=False, at_ns=0.0)
        conflict = hams.access(entries * page_bytes, 64, is_write=False,
                               at_ns=first.finish_ns)
        assert not conflict.evicted
        assert hams.evictions == 0

    def test_eviction_tracked_as_background_traffic_in_extend_mode(self):
        hams = controller(mode="extend")
        page_bytes = hams.mos_page_bytes
        entries = hams.tag_array.entries_count
        first = hams.access(0, 64, is_write=True, at_ns=0.0)
        hams.access(entries * page_bytes, 64, False, first.finish_ns)
        assert hams.background_flash_programs > 0


class TestEvictionHazards:
    """Figures 13-14: a miss on an entry whose background eviction is still
    in flight waits for it to drain instead of issuing it again."""

    @staticmethod
    def _evict_then_collide(mode: str):
        """Dirty entry 0, evict it once its fill has drained, and miss on
        it again at once."""
        hams = warm_controller(mode=mode)
        way = hams.tag_array.entries_count * hams.mos_page_bytes
        first = hams.access(0, 64, True, 0.0)
        drained = hams._background_evictions.get(0, first.finish_ns)
        evicting = hams.access(way, 64, True, drained)
        assert evicting.wait_ns == 0.0
        assert evicting.evicted
        reuse_at = hams._background_evictions.get(0, 0.0)
        colliding = hams.access(2 * way, 64, False, evicting.finish_ns)
        return hams, evicting, reuse_at, colliding

    def test_miss_during_background_eviction_stalls_until_it_drains(self):
        hams, evicting, reuse_at, colliding = self._evict_then_collide(
            "extend")
        arrival = evicting.finish_ns + hams._probe_ns
        assert reuse_at > arrival
        assert colliding.wait_ns == reuse_at - arrival
        assert hams.hazard_stalls == 1
        assert hams.engine.evictions_issued == 0  # extend: background only

    def test_persist_mode_drains_within_the_miss(self):
        hams, _, reuse_at, colliding = self._evict_then_collide("persist")
        assert reuse_at == 0.0
        assert colliding.wait_ns == 0.0
        assert hams.hazard_stalls == 0
        assert hams.engine.evictions_issued == 2

    def test_statistics_keep_the_hardware_counters(self):
        fresh = warm_controller().statistics()
        assert all(fresh[f"hazards.{key}"] == 0.0 for key in (
            "evictions_cloned", "redundant_evictions_avoided",
            "hazard_stalls", "wait_queue_max_occupancy", "prp_peak_in_use"))
        hams, *_ = self._evict_then_collide("extend")
        stats = hams.statistics()
        assert stats["hazards.evictions_cloned"] == hams.evictions == 2
        assert stats["hazards.redundant_evictions_avoided"] == 1
        assert stats["hazards.hazard_stalls"] == 1
        assert stats["hazards.wait_queue_max_occupancy"] == 1
        assert stats["hazards.prp_peak_in_use"] == 1

    @staticmethod
    def _collide_with_remainder_fill():
        """A clean load of entry 0, then a conflicting load at its finish,
        while the remainder of the first page still streams in."""
        hams = warm_controller(mode="extend")
        way = hams.tag_array.entries_count * hams.mos_page_bytes
        first = hams.access(0, 64, False, 0.0)
        colliding = hams.access(way, 64, False, first.finish_ns)
        return hams, colliding

    def test_miss_stalls_behind_a_remainder_fill(self):
        hams, colliding = self._collide_with_remainder_fill()
        assert colliding.wait_ns > 20_000.0
        assert hams.hazard_stalls == 1
        assert hams.evictions == 0

    @pytest.mark.xfail(strict=True, reason=(
        "CHANGES.md FOUND line on hazards.redundant_evictions_avoided: "
        "replay_miss counts every stall on _background_evictions as a "
        "redundant eviction, also a stall behind a remainder fill with no "
        "eviction in flight; the fix moves digests, so it lands with the "
        "re-recording of ROADMAP item 1(b)"))
    def test_stall_behind_a_remainder_fill_is_no_redundant_eviction(self):
        hams, _ = self._collide_with_remainder_fill()
        stats = hams.statistics()
        assert stats["hazards.redundant_evictions_avoided"] == 0


class TestModes:
    def test_persist_mode_miss_slower_than_extend(self):
        persist = controller(mode="persist")
        extend = controller(mode="extend")
        persist_miss = persist.access(0, 64, False, 0.0)
        extend_miss = extend.access(0, 64, False, 0.0)
        assert persist_miss.latency_ns > extend_miss.latency_ns

    def test_persist_mode_write_conflict_much_slower(self):
        results = {}
        for mode in ("persist", "extend"):
            hams = controller(mode=mode)
            entries = hams.tag_array.entries_count
            page = hams.mos_page_bytes
            first = hams.access(0, 64, True, 0.0)
            conflict = hams.access(entries * page, 64, True, first.finish_ns)
            results[mode] = conflict.latency_ns
        assert results["persist"] > results["extend"]

    def test_memory_delay_breakdown_accumulates(self):
        hams = controller()
        hams.access(0, 64, False, 0.0)
        breakdown = hams.memory_delay_breakdown()
        assert breakdown["total_ns"] == pytest.approx(
            breakdown["nvdimm_ns"] + breakdown["dma_ns"] + breakdown["ssd_ns"]
            + breakdown["wait_ns"])
        assert breakdown["total_ns"] > 0


class TestIntegrations:
    def test_loose_uses_pcie_and_keeps_ssd_buffer(self):
        hams = controller(integration="loose")
        assert hams.pcie is not None
        assert hams.ssd.buffer.enabled

    def test_tight_uses_ddr_and_removes_ssd_buffer(self):
        hams = controller(integration="tight")
        assert hams.pcie is None
        assert hams.register_interface is not None
        assert not hams.ssd.buffer.enabled

    def test_tight_miss_has_lower_dma_share(self):
        """Figure 10a / 18: the PCIe hop makes the loose design's DMA share larger."""
        loose = controller(integration="loose")
        tight = controller(integration="tight")
        now_loose = now_tight = 0.0
        page = loose.mos_page_bytes
        for index in range(12):
            now_loose = loose.access(index * page, 64, False, now_loose).finish_ns
            now_tight = tight.access(index * page, 64, False, now_tight).finish_ns
        assert loose.dma_overhead_fraction() > tight.dma_overhead_fraction()

    def test_tight_miss_faster_than_loose(self):
        loose = controller(integration="loose")
        tight = controller(integration="tight")
        loose_miss = loose.access(0, 64, False, 0.0)
        tight_miss = tight.access(0, 64, False, 0.0)
        assert tight_miss.latency_ns <= loose_miss.latency_ns


class TestPageSizeSensitivity:
    def test_small_pages_have_cheaper_misses(self):
        small = controller(mos_page=KB(4))
        large = controller(mos_page=KB(1024))
        small_miss = small.access(0, 64, False, 0.0)
        large_miss = large.access(0, 64, False, 0.0)
        # The critical chunk keeps the stall similar, but the persist-mode
        # full transfer (and the background totals) differ; compare persist.
        small_p = controller(mos_page=KB(4), mode="persist")
        large_p = controller(mos_page=KB(1024), mode="persist")
        assert (large_p.access(0, 64, False, 0.0).latency_ns
                > small_p.access(0, 64, False, 0.0).latency_ns)
        assert small_miss.latency_ns <= large_miss.latency_ns * 10


class TestHitRateAndStatistics:
    def test_sequential_scan_hit_rate_is_high(self):
        hams = controller()
        now = 0.0
        line = 64
        for index in range(512):
            now = hams.access(index * line, line, False, now).finish_ns
        # 128 KB pages hold 2048 lines, so a 512-line scan misses once.
        assert hams.hit_rate > 0.99

    def test_statistics_keys(self):
        hams = controller()
        hams.access(0, 64, False, 0.0)
        stats = hams.statistics()
        assert stats["accesses"] == 1
        assert stats["fills"] == 1
        assert "engine.commands_issued" in stats
        assert "hazards.evictions_cloned" in stats


class TestPowerFailure:
    def test_power_failure_and_recovery_roundtrip(self):
        hams = controller()
        hams.access(0, 64, is_write=True, at_ns=0.0)
        down_at = hams.power_failure(at_ns=1_000_000.0)
        assert down_at >= 1_000_000.0
        report = hams.recover(at_ns=down_at)
        assert report.consistent
        assert hams.persistency.power_failures == 1

    def test_access_after_recovery_still_works(self):
        hams = controller()
        first = hams.access(0, 64, True, 0.0)
        hams.power_failure(at_ns=first.finish_ns)
        hams.recover(at_ns=first.finish_ns + 1e6)
        again = hams.access(0, 64, False, first.finish_ns + 2e6)
        assert again.finish_ns > 0


class TestPropertyBased:
    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=255),
                              st.booleans()),
                    min_size=1, max_size=60))
    def test_time_monotonicity_and_consistency(self, accesses):
        """Completion times never precede submission and hits+misses add up."""
        hams = controller()
        line = 64
        now = 0.0
        for slot, is_write in accesses:
            result = hams.access(slot * line, line, is_write, now)
            assert result.finish_ns >= now
            assert result.latency_ns >= 0
            now = result.finish_ns
        assert hams.tag_array.hits + hams.tag_array.misses == len(accesses)


def _few_entry_config(integration: str, mode: str, mos_page: int):
    """:func:`small_config` with an NVDIMM that caches four MoS pages."""
    config = small_config(integration, mode, mos_page)
    return dataclasses.replace(config, nvdimm=dataclasses.replace(
        config.nvdimm, capacity_bytes=4 * mos_page + KB(64),
        pinned_region_bytes=KB(64)))


def _controller_state(hams: HAMSController) -> dict:
    return {"statistics": hams.statistics(),
            "delays": hams.memory_delay_breakdown(),
            "tags": hams.tag_array.tags.tolist(),
            "dirty": hams.tag_array.dirty.tolist(),
            "nvdimm": hams.nvdimm.statistics(),
            "busy": hams.nvdimm.dram.busy_ns.hex(),
            "ssd": hams.ssd.statistics(),
            "background": dict(hams._background_evictions)}


class TestAccessAgainstOracle:
    """``access`` is a batch of one over ``classify_batch`` and
    ``replay_miss``; the oracle's ``hams_access`` classifies the request
    on its own through the scalar tag-array sequence.  Every result and
    the controller's whole state must agree, float for float."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["loose", "tight"]),
           st.sampled_from(["persist", "extend"]),
           st.sampled_from([KB(4), KB(128)]),
           st.lists(st.tuples(st.integers(0, 11), st.integers(0, 31),
                              st.sampled_from([64, KB(4)]), st.booleans(),
                              st.sampled_from([0.0, 100.0, 1e5])),
                    min_size=1, max_size=40))
    def test_access_equals_oracle(self, integration, mode, mos_page,
                                  requests):
        config = _few_entry_config(integration, mode, mos_page)
        product, oracle = HAMSController(config), HAMSController(config)
        for hams in (product, oracle):
            hams.ssd.precondition(0, min(hams.ssd.logical_pages, 512))
        now = 0.0
        for page, slot, size, is_write, gap in requests:
            address = page * mos_page + (slot * KB(4)) % mos_page
            expected = hams_access(oracle, address, size, is_write, now)
            got = product.access(address, size, is_write, now)
            assert dataclasses.astuple(got) == dataclasses.astuple(expected)
            assert type(got.hit) is bool
            now = expected.finish_ns + gap
        assert _controller_state(product) == _controller_state(oracle)

    def test_out_of_range_request_raises_like_oracle(self):
        product, oracle = controller(), controller()
        errors = []
        for serve in (product.access, lambda *args: hams_access(oracle,
                                                                 *args)):
            with pytest.raises(ValueError) as error:
                serve(product.mos_capacity_bytes - 32, 64, False, 0.0)
            errors.append(str(error.value))
        assert errors[0] == errors[1]
        assert _controller_state(product) == _controller_state(oracle)
