"""Full SSD device model: request servicing, buffering, FUA, presets.

Per-request effects are read as deltas of the device-wide
``SSD.statistics()`` counters.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import FlashGeometry, SSDConfig
from repro.flash.ssd import IORequest, SSD, make_ssd
from repro.units import KB, MB, us


def small_ssd(buffer_enabled: bool = True, name: str = "ull-flash") -> SSD:
    geometry = FlashGeometry(channels=4, packages_per_channel=1,
                             dies_per_package=2, planes_per_die=1,
                             blocks_per_plane=32, pages_per_block=32)
    config = SSDConfig(name=name, geometry=geometry,
                       dram_buffer_bytes=MB(1),
                       dram_buffer_enabled=buffer_enabled)
    return SSD(config)


def counted(ssd: SSD, request):
    """Run *request()* and return its result with the statistics deltas."""
    before = ssd.statistics()
    result = request()
    after = ssd.statistics()
    return result, {key: after[key] - before[key] for key in after}


class TestRequestValidation:
    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            IORequest(is_write=False, byte_offset=-1, size_bytes=4096,
                      submit_ns=0.0)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            IORequest(is_write=False, byte_offset=0, size_bytes=0,
                      submit_ns=0.0)


class TestReads:
    def test_unwritten_page_read_is_cheap(self):
        ssd = small_ssd()
        result, delta = counted(ssd, lambda: ssd.read(0, KB(4), at_ns=0.0))
        assert delta["flash_page_reads"] == 0
        assert result.latency_ns < us(10)

    def test_read_after_precondition_touches_flash(self):
        ssd = small_ssd()
        ssd.precondition(0, 16)
        result, delta = counted(ssd, lambda: ssd.read(0, KB(4), at_ns=0.0))
        assert delta["flash_page_reads"] == 1
        assert result.latency_ns >= us(3)

    def test_second_read_hits_internal_buffer(self):
        ssd = small_ssd()
        ssd.precondition(0, 16)
        ssd.read(0, KB(4), at_ns=0.0)
        _, delta = counted(ssd, lambda: ssd.read(0, KB(4), at_ns=us(100)))
        assert delta["flash_buffer_read_hits"] == 1
        assert delta["flash_page_reads"] == 0

    def test_large_read_splits_into_pages(self):
        ssd = small_ssd()
        ssd.precondition(0, 16)
        _, delta = counted(ssd, lambda: ssd.read(0, KB(16), at_ns=0.0))
        assert delta["flash_page_reads"] == 4


class TestWrites:
    def test_buffered_write_is_fast(self):
        ssd = small_ssd()
        result, delta = counted(ssd, lambda: ssd.write(0, KB(4), at_ns=0.0))
        assert delta["flash_page_programs"] == 0
        assert result.latency_ns < us(10)

    def test_fua_write_reaches_flash(self):
        ssd = small_ssd()
        result, delta = counted(
            ssd, lambda: ssd.write(0, KB(4), at_ns=0.0, fua=True))
        assert delta["flash_page_programs"] == 1
        assert result.latency_ns >= us(100)

    def test_write_without_buffer_reaches_flash(self):
        ssd = small_ssd(buffer_enabled=False)
        _, delta = counted(ssd, lambda: ssd.write(0, KB(4), at_ns=0.0))
        assert delta["flash_page_programs"] == 1

    def test_buffer_evictions_program_flash(self):
        ssd = small_ssd()
        pages_in_buffer = ssd.buffer.capacity_pages
        programs_before = ssd.fil.page_programs
        for index in range(pages_in_buffer + 4):
            ssd.write(index * KB(4), KB(4), at_ns=float(index) * 1000)
        assert ssd.fil.page_programs > programs_before

    @pytest.mark.parametrize("buffer_bytes, data_pages, programs",
                             [(KB(4), 0, 4), (KB(8), 1, 3)])
    def test_buffer_share_below_one_page_takes_the_unbuffered_path(
            self, buffer_bytes, data_pages, programs):
        """The default mapping-table share (25%) leaves a 4 KB buffer no
        whole data page: such a buffer is disabled, so four buffered
        writes program four pages instead of vanishing.  With 8 KB, one
        page absorbs the last write and each earlier one is evicted."""
        ssd = SSD(SSDConfig(geometry=small_ssd().config.geometry,
                            dram_buffer_bytes=buffer_bytes))
        assert ssd.buffer.capacity_pages == data_pages
        assert ssd.buffer.enabled is (data_pages > 0)
        _, delta = counted(ssd, lambda: [
            ssd.write(index * KB(4), KB(4), at_ns=float(index) * 1000)
            for index in range(4)])
        assert delta["flash_page_programs"] == programs
        assert delta["flash_ftl_host_writes"] == programs


class TestLatencyCharacteristics:
    def test_read_latency_close_to_znand(self):
        """4 KB read ~= 3 us array + transfer + firmware (Figure 5a shape)."""
        ssd = small_ssd()
        ssd.precondition(0, 1024)
        result = ssd.read(KB(40), KB(4), at_ns=0.0)
        assert us(3) <= result.latency_ns <= us(15)

    def test_writes_slower_than_reads_on_flash(self):
        ssd = small_ssd(buffer_enabled=False)
        ssd.precondition(0, 64)
        read = ssd.read(0, KB(4), at_ns=0.0)
        write = ssd.write(KB(256), KB(4), at_ns=us(1000))
        assert (write.finish_ns - write.start_ns
                > read.finish_ns - read.start_ns)


class TestPrecondition:
    def test_precondition_maps_range(self):
        ssd = small_ssd()
        ssd.precondition(0, 32)
        assert ssd.ftl.mapped_pages == 32

    def test_precondition_beyond_capacity_rejected(self):
        ssd = small_ssd()
        with pytest.raises(ValueError):
            ssd.precondition(0, ssd.logical_pages + 1)

    def test_precondition_negative_start_rejected(self):
        # Used to map only LPNs 0..4 of [-5, 5) without complaint.
        ssd = small_ssd()
        with pytest.raises(ValueError):
            ssd.precondition(-5, 10)
        assert ssd.ftl.mapped_pages == 0


class TestSupercapFlush:
    def test_flush_programs_dirty_pages(self):
        ssd = small_ssd()
        ssd.write(0, KB(4), at_ns=0.0)
        ssd.write(KB(4), KB(4), at_ns=100.0)
        programs_before = ssd.fil.page_programs
        finish = ssd.supercap_flush(at_ns=1000.0)
        assert ssd.fil.page_programs == programs_before + 2
        assert finish > 1000.0

    def test_flush_with_clean_buffer_is_noop(self):
        ssd = small_ssd()
        assert ssd.supercap_flush(at_ns=5.0) == 5.0


class TestQueueAdmission:
    def test_outstanding_limit_delays_admission(self):
        geometry = FlashGeometry(channels=1, packages_per_channel=1,
                                 dies_per_package=1, planes_per_die=1,
                                 blocks_per_plane=32, pages_per_block=32)
        config = SSDConfig(name="tiny", geometry=geometry,
                           dram_buffer_enabled=False, max_outstanding=1,
                           split_channels=False)
        ssd = SSD(config)
        ssd.precondition(0, 64)
        first = ssd.read(0, KB(4), at_ns=0.0)
        second = ssd.read(KB(8), KB(4), at_ns=0.0)
        assert second.start_ns >= first.finish_ns


class TestPresets:
    def test_make_ssd_presets(self):
        for kind in ("ull-flash", "nvme-ssd", "sata-ssd"):
            ssd = make_ssd(kind, capacity_bytes=MB(256))
            assert ssd.config.name == kind

    def test_make_ssd_unknown_kind(self):
        with pytest.raises(ValueError):
            make_ssd("floppy")

    def test_ull_flash_faster_than_nvme_ssd(self):
        ull = make_ssd("ull-flash", capacity_bytes=MB(256))
        nvme = make_ssd("nvme-ssd", capacity_bytes=MB(256))
        ull.precondition(0, 64)
        nvme.precondition(0, 64)
        ull_read = ull.read(0, KB(4), at_ns=0.0)
        nvme_read = nvme.read(0, KB(4), at_ns=0.0)
        assert ull_read.latency_ns < nvme_read.latency_ns


class TestStatisticsAndProperties:
    def test_statistics_keys(self):
        ssd = small_ssd()
        ssd.write(0, KB(4), at_ns=0.0)
        stats = ssd.statistics()
        assert stats["flash_requests_served"] == 1
        assert stats["flash_bytes_written"] == KB(4)
        assert "flash_ftl_write_amplification" in stats
        # The unified fold puts every layer under one stable namespace.
        assert all(key.startswith("flash_") for key in stats)
        for key in ("flash_buffer_read_hits", "flash_page_programs",
                    "flash_channel_bytes_moved", "flash_ftl_host_writes"):
            assert key in stats

    def test_block_erases_count_gc_erases(self):
        # GC is the only eraser: random overwrites on a tiny unbuffered
        # device make it erase blocks, and the stat must report them.
        geometry = FlashGeometry(channels=2, packages_per_channel=1,
                                 dies_per_package=3, planes_per_die=1,
                                 blocks_per_plane=16, pages_per_block=4)
        ssd = SSD(SSDConfig(geometry=geometry, dram_buffer_enabled=False))
        pick = random.Random(7).randrange
        for index in range(2000):
            ssd.write(pick(ssd.logical_pages) * KB(4), KB(4),
                      at_ns=index * 1000.0)
        stats = ssd.statistics()
        assert stats["flash_ftl_gc_invocations"] > 0
        assert stats["flash_block_erases"] == sum(ssd.ftl.erase_counts())
        assert stats["flash_block_erases"] > 0

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.tuples(st.booleans(),
                              st.integers(min_value=0, max_value=63),
                              st.integers(min_value=1, max_value=4)),
                    min_size=1, max_size=40))
    def test_completion_never_precedes_submission(self, operations):
        ssd = small_ssd()
        ssd.precondition(0, 128)
        now = 0.0
        for is_write, page, pages in operations:
            result = ssd.submit(IORequest(is_write=is_write,
                                          byte_offset=page * KB(4),
                                          size_bytes=pages * KB(4),
                                          submit_ns=now))
            assert result.finish_ns >= result.request.submit_ns
            assert result.start_ns >= result.request.submit_ns
            now += 500.0
