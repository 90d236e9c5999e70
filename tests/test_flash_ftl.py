"""FTL: mapping, overwrite invalidation, striping, garbage collection."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import FlashGeometry
from repro.flash.ftl import FlashTranslationLayer


def tiny_geometry(**overrides) -> FlashGeometry:
    params = dict(channels=2, packages_per_channel=1, dies_per_package=1,
                  planes_per_die=1, blocks_per_plane=8, pages_per_block=8,
                  overprovision=0.25)
    params.update(overrides)
    return FlashGeometry(**params)


class TestMapping:
    def test_unmapped_lookup_returns_none(self):
        ftl = FlashTranslationLayer(tiny_geometry())
        assert ftl.lookup(0) is None

    def test_write_then_lookup(self):
        ftl = FlashTranslationLayer(tiny_geometry())
        address, _ = ftl.write(5)
        assert ftl.lookup(5) == address

    def test_overwrite_moves_to_new_physical_page(self):
        ftl = FlashTranslationLayer(tiny_geometry())
        first, _ = ftl.write(5)
        second, _ = ftl.write(5)
        assert first != second
        assert ftl.lookup(5) == second

    def test_out_of_range_lpn_rejected(self):
        ftl = FlashTranslationLayer(tiny_geometry())
        with pytest.raises(ValueError):
            ftl.write(ftl.geometry.logical_pages)
        with pytest.raises(ValueError):
            ftl.lookup(-1)

    def test_mapped_pages_counter(self):
        ftl = FlashTranslationLayer(tiny_geometry())
        for lpn in range(4):
            ftl.write(lpn)
        ftl.write(0)  # overwrite does not add a mapping
        assert ftl.mapped_pages == 4


class TestStriping:
    def test_sequential_writes_spread_across_planes(self):
        ftl = FlashTranslationLayer(tiny_geometry())
        addresses = [ftl.write(lpn)[0] for lpn in range(4)]
        channels = {address.channel for address in addresses}
        assert len(channels) > 1


class TestGarbageCollection:
    def test_gc_triggers_when_blocks_run_out(self):
        geometry = tiny_geometry(blocks_per_plane=4, pages_per_block=4)
        ftl = FlashTranslationLayer(geometry, gc_threshold_blocks=1)
        # Repeatedly overwrite a small working set so invalid pages pile up.
        for round_index in range(20):
            for lpn in range(4):
                ftl.write(lpn)
        assert ftl.gc_invocations > 0
        stats = ftl.statistics()
        assert stats["write_amplification"] >= 1.0

    def test_gc_preserves_all_mappings(self):
        geometry = tiny_geometry(blocks_per_plane=4, pages_per_block=4)
        ftl = FlashTranslationLayer(geometry, gc_threshold_blocks=1)
        working_set = list(range(6))
        for _ in range(15):
            for lpn in working_set:
                ftl.write(lpn)
        # Every logical page still resolves, and all physical addresses are
        # distinct (no two LPNs share a physical page after relocation).
        physical = [ftl.lookup(lpn) for lpn in working_set]
        assert all(address is not None for address in physical)
        assert len(set(physical)) == len(working_set)

    def test_erase_counts_grow_with_gc(self):
        geometry = tiny_geometry(blocks_per_plane=4, pages_per_block=4)
        ftl = FlashTranslationLayer(geometry, gc_threshold_blocks=1)
        for _ in range(20):
            for lpn in range(4):
                ftl.write(lpn)
        assert sum(ftl.erase_counts()) > 0

    def test_device_full_raises(self):
        geometry = tiny_geometry(blocks_per_plane=2, pages_per_block=2,
                                 overprovision=0.0)
        # Garbage collection disabled: overwrites keep consuming fresh pages
        # without ever reclaiming the invalidated ones.
        ftl = FlashTranslationLayer(geometry, gc_threshold_blocks=0)
        with pytest.raises(RuntimeError):
            for _ in range(geometry.planes_total * geometry.pages_per_plane + 1):
                ftl.write(0)


class TestPropertyBased:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=15),
                    min_size=1, max_size=200))
    def test_mapping_always_reflects_last_write(self, lpns):
        geometry = tiny_geometry(blocks_per_plane=16, pages_per_block=8)
        ftl = FlashTranslationLayer(geometry, gc_threshold_blocks=1)
        last_written = {}
        for lpn in lpns:
            address, _ = ftl.write(lpn)
            last_written[lpn] = address
        # After any interleaving of writes (with possible GC relocation),
        # every LPN still maps somewhere, and distinct LPNs never alias.
        resolved = {lpn: ftl.lookup(lpn) for lpn in last_written}
        assert all(address is not None for address in resolved.values())
        assert len(set(resolved.values())) == len(resolved)
