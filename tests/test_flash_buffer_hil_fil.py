"""SSD-internal DRAM buffer, host-interface request handling, and the FIL.

The buffer's per-request hit, fill and dirty-evict steps and the host
interface's request split and parse cost run inside ``SSD.submit_batch``,
so their behaviour is checked through an SSD: by deltas of
``SSD.statistics()``, by the buffer's residency and by the FTL mapping a
buffer eviction leaves behind.
"""

import pytest

from repro.config import FlashGeometry, FlashTiming, SSDConfig
from repro.flash.channel import ChannelScheduler
from repro.flash.dram_buffer import InternalDRAMBuffer
from repro.flash.fil import FlashInterfaceLayer
from repro.flash.ftl import PhysicalAddress
from repro.flash.ssd import SSD
from repro.flash.znand import ZNANDArray
from repro.units import KB, mb_per_s, us

GEOMETRY = FlashGeometry(channels=4, packages_per_channel=1,
                         dies_per_package=2, planes_per_die=1,
                         blocks_per_plane=32, pages_per_block=32)


def small_ssd(buffer_pages: int = 16, enabled: bool = True,
              **overrides) -> SSD:
    """An SSD whose internal DRAM caches exactly *buffer_pages* pages."""
    return SSD(SSDConfig(geometry=GEOMETRY,
                         dram_buffer_bytes=buffer_pages * KB(4),
                         dram_buffer_enabled=enabled,
                         mapping_table_fraction=0.0, **overrides))


def stat_delta(ssd: SSD, *requests) -> dict:
    """Submit each ``(is_write, byte_offset, size_bytes)`` request, 10 us
    after the device's previous one, and return the change of every
    ``ssd.statistics()`` key."""
    before = ssd.statistics()
    for is_write, offset, size in requests:
        at_ns = us(10) * ssd.requests_served
        if is_write:
            ssd.write(offset, size, at_ns)
        else:
            ssd.read(offset, size, at_ns)
    after = ssd.statistics()
    return {key: after[key] - before[key] for key in after}


def read(lpn: int, pages: int = 1):
    return (False, lpn * KB(4), pages * KB(4))


def write(lpn: int):
    return (True, lpn * KB(4), KB(4))


class TestInternalDRAMBuffer:
    def test_read_miss_then_fill_then_hit(self):
        ssd = small_ssd()
        ssd.precondition(0, 16)
        first = stat_delta(ssd, read(1))
        assert first["flash_buffer_read_misses"] == 1
        assert first["flash_buffer_read_hits"] == 0
        assert first["flash_page_reads"] == 1
        assert 1 in ssd.buffer
        second = stat_delta(ssd, read(1))
        assert second["flash_buffer_read_hits"] == 1
        assert second["flash_buffer_read_misses"] == 0
        assert second["flash_page_reads"] == 0

    def test_write_marks_dirty(self):
        ssd = small_ssd()
        delta = stat_delta(ssd, write(2))
        assert delta["flash_buffer_write_misses"] == 1
        assert delta["flash_page_programs"] == 0
        assert ssd.buffer.dirty_pages == 1

    def test_lru_eviction_returns_victim(self):
        # LPN 0 is written first but touched again, so LPN 1 is the least
        # recently used page when LPN 2 overflows the two-page buffer.
        ssd = small_ssd(buffer_pages=2)
        stat_delta(ssd, write(0), write(1), write(0))
        delta = stat_delta(ssd, write(2))
        assert delta["flash_buffer_dirty_evictions"] == 1
        assert delta["flash_buffer_clean_evictions"] == 0
        assert delta["flash_page_programs"] == 1
        assert delta["flash_ftl_host_writes"] == 1
        assert [lpn for lpn in range(3) if ssd.ftl.lookup(lpn) is not None] == [1]
        assert 1 not in ssd.buffer
        assert 0 in ssd.buffer and 2 in ssd.buffer

    def test_clean_fill_eviction_is_not_dirty(self):
        ssd = small_ssd(buffer_pages=2)
        ssd.precondition(0, 8)
        stat_delta(ssd, read(0), read(1))
        delta = stat_delta(ssd, read(2))
        assert delta["flash_buffer_clean_evictions"] == 1
        assert delta["flash_buffer_dirty_evictions"] == 0
        assert delta["flash_page_programs"] == 0
        assert delta["flash_ftl_host_writes"] == 0
        assert 0 not in ssd.buffer

    def test_disabled_buffer_never_hits(self):
        ssd = small_ssd(enabled=False)
        ssd.precondition(0, 8)
        delta = stat_delta(ssd, write(1), read(1), read(1))
        assert delta["flash_buffer_read_hits"] == 0
        assert delta["flash_buffer_write_hits"] == 0
        assert delta["flash_buffer_read_misses"] == 2
        assert delta["flash_page_reads"] == 2
        assert delta["flash_page_programs"] == 1
        assert len(ssd.buffer) == 0

    def test_mapping_table_fraction_reduces_capacity(self):
        full = InternalDRAMBuffer(KB(16), KB(4))
        reduced = InternalDRAMBuffer(KB(16), KB(4), mapping_table_fraction=0.5)
        assert reduced.capacity_pages < full.capacity_pages

    def test_flush_all_cleans_dirty_pages(self):
        ssd = small_ssd()
        stat_delta(ssd, write(1), write(2))
        flushed = ssd.buffer.flush_all()
        assert sorted(flushed) == [1, 2]
        assert ssd.buffer.dirty_pages == 0

    def test_hit_rate(self):
        ssd = small_ssd()
        stat_delta(ssd, write(1), read(1))   # a write miss, then a read hit
        assert ssd.buffer.stats.hit_rate == pytest.approx(0.5)
        assert ssd.statistics()["flash_buffer_hit_rate"] == pytest.approx(0.5)


class TestRequestSplitAndParse:
    def test_aligned_request_splits_into_pages(self):
        ssd = small_ssd()
        ssd.precondition(0, 16)
        delta = stat_delta(ssd, read(0, pages=4))
        assert delta["flash_buffer_read_misses"] == 4
        assert delta["flash_page_reads"] == 4
        assert all(lpn in ssd.buffer for lpn in range(4))

    def test_unaligned_request_has_partial_edges(self):
        # A 4 KB read at byte offset 2 KB covers the back half of LPN 0
        # and the front half of LPN 1.
        ssd = small_ssd()
        ssd.precondition(0, 16)
        delta = stat_delta(ssd, (False, KB(2), KB(4)))
        assert delta["flash_buffer_read_misses"] == 2
        assert delta["flash_page_reads"] == 2
        assert len(ssd.buffer) == 2 and 0 in ssd.buffer and 1 in ssd.buffer

    def test_sub_page_request(self):
        ssd = small_ssd()
        ssd.precondition(0, 16)
        delta = stat_delta(ssd, (False, 100, 64))
        assert delta["flash_page_reads"] == 1
        assert len(ssd.buffer) == 1 and 0 in ssd.buffer

    def test_parse_latency_grows_with_fanout(self):
        # Unmapped pages come back from the controller at DRAM speed, so an
        # n-page read costs exactly the parse time plus one buffer hit.
        latencies = []
        for pages in (1, 2, 8):
            ssd = small_ssd()
            config = ssd.config
            result = ssd.read(0, pages * KB(4), at_ns=0.0)
            assert result.latency_ns == (
                config.firmware_latency_ns * (1.0 + 0.05 * (pages - 1))
                + config.dram_buffer_hit_ns)
            latencies.append(result.latency_ns)
        assert latencies == sorted(set(latencies))

    def test_invalid_requests_rejected(self):
        with pytest.raises(ValueError,
                           match="firmware_latency_ns"):
            small_ssd(firmware_latency_ns=-1.0)
        ssd = small_ssd()
        with pytest.raises(ValueError):
            ssd.read(-1, 10, at_ns=0.0)
        with pytest.raises(ValueError):
            ssd.read(0, 0, at_ns=0.0)
        assert ssd.requests_served == 0


def _fil(split: bool) -> FlashInterfaceLayer:
    geometry = FlashGeometry(channels=4, packages_per_channel=1,
                             dies_per_package=1, planes_per_die=1,
                             blocks_per_plane=8, pages_per_block=8)
    array = ZNANDArray(geometry, FlashTiming.znand())
    channels = ChannelScheduler(geometry, mb_per_s(800))
    return FlashInterfaceLayer(array, channels, KB(4), split_channels=split)


class TestFlashInterfaceLayer:
    def test_read_includes_array_and_transfer(self):
        fil = _fil(split=False)
        address = PhysicalAddress(0, 0, 0, 0, 0, 0)
        access = fil.read_page(address, 0.0)
        assert access.array_time_ns == pytest.approx(3000.0)
        assert access.transfer_time_ns > 0
        assert access.finish_ns == pytest.approx(
            access.array_time_ns + fil.channels.transfer_time(KB(4)))

    def test_split_halves_per_request_transfer(self):
        whole = _fil(split=False)
        split = _fil(split=True)
        address = PhysicalAddress(0, 0, 0, 0, 0, 0)
        whole_access = whole.read_page(address, 0.0)
        split_access = split.read_page(address, 0.0)
        assert split_access.transfer_time_ns == pytest.approx(
            whole_access.transfer_time_ns / 2)
        assert split_access.finish_ns < whole_access.finish_ns

    def test_write_pays_program_time(self):
        fil = _fil(split=False)
        address = PhysicalAddress(1, 0, 0, 0, 0, 0)
        access = fil.write_page(address, 0.0)
        assert access.array_time_ns == pytest.approx(100_000.0)
        assert access.finish_ns > 100_000.0

    def test_operation_counters(self):
        fil = _fil(split=True)
        address = PhysicalAddress(0, 0, 0, 0, 0, 0)
        fil.read_page(address, 0.0)
        fil.write_page(address, 0.0)
        assert (fil.page_reads, fil.page_programs) == (1, 1)
