"""MoS tag-array: direct-mapped lookup, dirty bits, Figure 11 behaviour."""

import numpy as np
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
        assert array.dirty[array.index_of(2)]
        assert array.dirty_count() == 1

    def test_mark_dirty_requires_residency(self):
        array = small_array()
        with pytest.raises(ValueError):
            array.mark_dirty(2)

    def test_scalar_results_are_python_types(self):
        """No numpy scalar leaks out of the columns into the callers'
        arithmetic."""
        array = small_array(8)
        array.install(3, dirty=True)
        lookup = array.lookup(11)
        assert type(lookup.victim_tag) is int
        assert type(lookup.victim_dirty) is bool
        assert type(array.lookup(3).hit) is bool
        assert type(array.dirty_count()) is int


class TestResidency:
    def test_resident_pages(self):
        array = small_array(8)
        array.install(1)
        array.install(10)
        resident = [array.page_from(index, tag)
                    for index, tag in enumerate(array.tags.tolist())
                    if tag >= 0]
        assert sorted(resident) == [1, 10]

    def test_statistics(self):
        array = small_array()
        array.install(0, dirty=True)
        array.lookup(0)
        assert array.hit_rate == 1.0
        assert array.dirty_count() == 1


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
            assert array.page_from(index, int(array.tags[index])) == page


class TestClassify:
    @settings(max_examples=60, deadline=None)
    @given(entries=st.sampled_from((1, 3, 8)),
           batches=st.lists(st.lists(
               st.tuples(st.integers(0, 23), st.booleans()),
               min_size=1, max_size=30), min_size=1, max_size=3))
    def test_matches_scalar_sequence(self, entries, batches):
        """``classify`` leaves the columns and counters where per-request
        ``lookup`` + ``mark_dirty``/``install`` leave them, and reports each
        miss's victim tag and dirty bit in batch order."""
        batched, scalar = small_array(entries), small_array(entries)
        for batch in batches:
            pages = np.array([page for page, _ in batch], dtype=np.int64)
            writes = np.array([write for _, write in batch], dtype=bool)
            hits, victim_tags, victim_dirty = batched.classify(pages, writes)
            expected_hits, expected_victims = [], []
            for page, write in batch:
                lookup = scalar.lookup(page)
                expected_hits.append(lookup.hit)
                if lookup.hit:
                    if write:
                        scalar.mark_dirty(page)
                else:
                    expected_victims.append(
                        (-1 if lookup.victim_tag is None
                         else lookup.victim_tag, lookup.victim_dirty))
                    scalar.install(page, dirty=write)
            assert hits.tolist() == expected_hits
            assert list(zip(victim_tags.tolist(), victim_dirty.tolist())) \
                == expected_victims
            assert batched.tags.tolist() == scalar.tags.tolist()
            assert batched.dirty.tolist() == scalar.dirty.tolist()
            assert (batched.lookups, batched.hits, batched.misses) \
                == (scalar.lookups, scalar.hits, scalar.misses)
