"""Address manager (Figure 9).

The eviction-hazard avoidance of Figures 13-14 is tested with the miss
replay it lives in, in ``tests/test_core_hams_controller.py``.
"""

import pytest

from repro.config import HAMSConfig, NVDIMMConfig
from repro.core.address_manager import AddressManager
from repro.units import GB, KB, MB


def manager(storage_bytes: int = GB(1)) -> AddressManager:
    nvdimm = NVDIMMConfig(capacity_bytes=MB(64), pinned_region_bytes=MB(8))
    hams = HAMSConfig(mos_page_bytes=KB(128))
    return AddressManager(hams, nvdimm, storage_bytes)


class TestAddressManager:
    def test_mos_capacity_equals_storage(self):
        assert manager(GB(2)).mos_capacity_bytes == GB(2)

    def test_decompose_roundtrip(self):
        mgr = manager()
        address = 5 * KB(128) + 777
        decomposed = mgr.decompose(address)
        assert decomposed.mos_page == 5
        assert decomposed.offset == 777
        assert decomposed.index == mgr.tag_array.index_of(5)
        assert decomposed.tag == mgr.tag_array.tag_of(5)

    def test_out_of_range_address_rejected(self):
        mgr = manager(GB(1))
        with pytest.raises(ValueError):
            mgr.decompose(GB(1))
        with pytest.raises(ValueError):
            mgr.validate(GB(1) - 10, size_bytes=100)
        with pytest.raises(ValueError):
            mgr.validate(-1)

    def test_lba_mapping_roundtrip(self):
        mgr = manager()
        for page in (0, 1, 17, 1000):
            lba = mgr.lba_of(page)
            assert lba == page * (KB(128) // 512)

    def test_lba_out_of_range(self):
        mgr = manager(GB(1))
        with pytest.raises(ValueError):
            mgr.lba_of(mgr.mos_pages)

    def test_pinned_region_at_top_of_nvdimm(self):
        mgr = manager()
        assert mgr.pinned_region_base == MB(64) - MB(8)

    def test_cache_slots_never_overlap_pinned_region(self):
        mgr = manager()
        cached_bytes = mgr.tag_array.entries_count * KB(128)
        assert cached_bytes <= mgr.pinned_region_base

    def test_statistics(self):
        mgr = manager()
        assert mgr.nvdimm.pinned_region_bytes == MB(8)
        assert mgr.mos_pages > 0
