"""MoS tag-array: direct-mapped lookup, dirty bits, Figure 11 behaviour."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.tag_array import MoSTagArray
from repro.units import KB, MB


def small_array(entries: int = 8) -> MoSTagArray:
    return MoSTagArray(cacheable_bytes=entries * KB(128),
                       mos_page_bytes=KB(128))


class TestConstruction:
    def test_entry_count(self):
        array = MoSTagArray(MB(1), KB(128))
        assert array.entries_count == 8

    def test_too_small_cache_rejected(self):
        with pytest.raises(ValueError):
            MoSTagArray(KB(64), KB(128))

    def test_invalid_page_size_rejected(self):
        with pytest.raises(ValueError):
            MoSTagArray(MB(1), 0)


class TestAddressing:
    def test_index_and_tag_roundtrip(self):
        array = small_array(8)
        for page in (0, 5, 8, 13, 100):
            index = array.index_of(page)
            tag = array.tag_of(page)
            assert array.page_from(index, tag) == page

    def test_conflicting_pages_share_index(self):
        array = small_array(8)
        assert array.index_of(3) == array.index_of(11) == array.index_of(19)


class TestLookupAndInstall:
    def test_cold_lookup_misses(self):
        array = small_array()
        lookup = array.lookup(3)
        assert not lookup.hit
        assert lookup.victim_tag is None
        assert not lookup.needs_eviction

    def test_install_then_hit(self):
        array = small_array()
        array.install(3)
        assert array.lookup(3).hit
        assert array.hit_rate == pytest.approx(1.0)

    def test_conflict_miss_reports_victim(self):
        array = small_array(8)
        array.install(3, dirty=True)
        lookup = array.lookup(11)
        assert not lookup.hit
        assert lookup.victim_tag == array.tag_of(3)
        assert lookup.victim_dirty
        assert lookup.needs_eviction

    def test_clean_victim_needs_no_eviction(self):
        array = small_array(8)
        array.install(3, dirty=False)
        lookup = array.lookup(11)
        assert not lookup.hit
        assert not lookup.needs_eviction

    def test_negative_page_rejected(self):
        with pytest.raises(ValueError):
            small_array().lookup(-1)

    def test_lookup_counters(self):
        array = small_array()
        array.lookup(0)
        array.install(0)
        array.lookup(0)
        assert array.lookups == 2
        assert array.hits == 1
        assert array.misses == 1


class TestStateBits:
    def test_mark_dirty(self):
        array = small_array()
        array.install(2, dirty=False)
        array.mark_dirty(2)
        assert array.entry(array.index_of(2)).dirty
        assert array.dirty_count() == 1

    def test_mark_dirty_requires_residency(self):
        array = small_array()
        with pytest.raises(ValueError):
            array.mark_dirty(2)

    def test_invalidate(self):
        array = small_array()
        array.install(4)
        array.invalidate(4)
        assert not array.lookup(4).hit

    def test_invalidate_wrong_page_is_noop(self):
        array = small_array(8)
        array.install(4)
        array.invalidate(12)  # same index, different tag
        assert array.lookup(4).hit

    def test_entry_index_bounds(self):
        with pytest.raises(ValueError):
            small_array(4).entry(4)


class TestResidency:
    def test_resident_pages(self):
        array = small_array(8)
        array.install(1)
        array.install(10)
        assert sorted(array.resident_pages()) == [1, 10]

    def test_statistics(self):
        array = small_array()
        array.install(0, dirty=True)
        array.lookup(0)
        stats = array.statistics()
        assert stats["hit_rate"] == 1.0
        assert stats["dirty_entries"] == 1


class TestPropertyBased:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=63),
                    min_size=1, max_size=200))
    def test_direct_mapped_invariant(self, pages):
        """After any access sequence, each index holds at most the last
        installed page that maps to it, and a lookup of that page hits."""
        array = small_array(8)
        last_at_index = {}
        for page in pages:
            lookup = array.lookup(page)
            if not lookup.hit:
                array.install(page)
            last_at_index[array.index_of(page)] = page
        for index, page in last_at_index.items():
            assert array.lookup(page).hit
            entry = array.entry(index)
            assert array.page_from(index, entry.tag) == page
