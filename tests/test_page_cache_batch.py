"""Property suite: ``PageCache.access_batch`` ≡ the scalar access/install replay.

The batched LRU engine powering the DRAM-cache platforms' vectorized
``service_batch`` promises *order-exactness*: for any access stream and any
install policy, one ``access_batch`` call must leave the cache in exactly
the state the scalar ``access``/``install`` loop would — same residency
set, same LRU order, same dirty flags, same ``hits``/``misses``/
``dirty_writebacks`` counters — and must report the same hit mask and the
same eviction ``(page, dirty)`` sequence.  Hypothesis drives arbitrary page
streams, capacities (including the 0 and 1 edge cases), chunked submission
and the install policies of the platforms: nvdimm-C's chunk install (which
can evict the faulting page itself), mmap's adjacency-keyed readahead
install and FlatFlash's count-then-maybe-install promotion, with the
chunk and readahead walks also run tenant-tracked (a scenario run's random
tenant column must leave the walk unchanged); a state machine interleaves
batched and scalar operations against a mirrored reference cache.
"""

from typing import List, Optional, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.host.os_stack import PageCache

PAGE_SIZE = 4096

#: Small page universe so streams collide, evict and re-touch aggressively.
pages_st = st.integers(min_value=0, max_value=9)
stream_st = st.lists(st.tuples(pages_st, st.booleans()), max_size=120)
#: Capacities in pages; 0 (retains nothing) and 1 (evicts on every new
#: page) are the edge cases the ISSUE calls out.
capacity_st = st.sampled_from([0, 1, 2, 3, 5, 8, 1 << 20])
TENANTS = 3
#: An optional tenant column for the tracked walk (truncated to the stream).
tenants_st = st.one_of(
    st.none(), st.lists(st.integers(min_value=0, max_value=TENANTS - 1),
                        min_size=120, max_size=120))


def make_cache(capacity_pages: int) -> PageCache:
    return PageCache(capacity_pages * PAGE_SIZE, PAGE_SIZE)


def scalar_replay(cache: PageCache, stream, install=None):
    """The reference loop ``access_batch`` must reproduce bit-for-bit."""
    hits: List[bool] = []
    evictions: List[List[Tuple[int, bool]]] = []
    for page, is_write in stream:
        if cache.access(page, is_write):
            hits.append(True)
        else:
            hits.append(False)
            if install is None:
                evicted = cache.install(page, dirty=is_write)
                evictions.append([] if evicted is None else [evicted])
            else:
                evictions.append(install(page, is_write))
    return hits, evictions


def batched_replay(cache: PageCache, stream, install=None, tenants=None):
    """One ``access_batch`` call; a *tenants* column turns on tracking."""
    pages = np.asarray([page for page, _ in stream], dtype=np.int64)
    writes = np.asarray([write for _, write in stream], dtype=bool)
    if tenants is not None:
        tenants = np.asarray(tenants[:len(stream)], dtype=np.int64)
        cache.enable_tenant_tracking(TENANTS)
    result = cache.access_batch(pages, writes, install=install,
                                tenants=tenants)
    evictions = [list(eviction) for eviction in result.evictions]
    return result.hits.tolist(), evictions, result


def cache_state(cache: PageCache):
    """Every observable of the cache, including LRU order and dirty flags."""
    return (cache.resident_pages(), sorted(cache.dirty_pages()),
            cache.hits, cache.misses, cache.dirty_writebacks)


def assert_tenants_conserved(cache: PageCache, tenants, stream) -> None:
    """Per-tenant hits plus misses add up to the aggregate counters, and
    to each tenant's own access count; pollution is counted both ways."""
    if tenants is None:
        return
    stats = cache.tenant_statistics()
    assert sum(row["cache_hits"] for row in stats.values()) == cache.hits
    assert sum(row["cache_misses"] for row in stats.values()) == cache.misses
    column = tenants[:len(stream)]
    for tenant, row in stats.items():
        assert row["cache_hits"] + row["cache_misses"] == column.count(tenant)
    assert (sum(row["evictions_suffered"] for row in stats.values())
            == sum(row["evictions_inflicted"] for row in stats.values()))


def chunk_install(cache: PageCache, chunk_pages: int):
    """The nvdimm-C-style policy: install the whole chunk around the miss.

    With ``capacity < chunk_pages`` the chunk's own tail evicts the
    faulting page again — the pathological case the run-length collapse
    must fall out of.
    """

    def install(page: int, is_write: bool) -> List[Tuple[int, bool]]:
        first = (page // chunk_pages) * chunk_pages
        evictions = []
        for offset in range(chunk_pages):
            evicted = cache.install(first + offset,
                                    dirty=is_write and offset == 0)
            if evicted is not None:
                evictions.append(evicted)
        return evictions

    return install


def readahead_install(cache: PageCache, readahead_pages: int):
    """The mmap fault policy: a fault right after a fault on the previous
    page installs ``readahead_pages`` pages, any other fault one; only the
    faulting (head) page takes the access's dirtiness.  Records each
    fault's page count and returns the dirty victims."""
    last = [-2]
    counts: List[int] = []

    def install(page: int, is_write: bool) -> List[Tuple[int, bool]]:
        readahead = readahead_pages if page == last[0] + 1 else 1
        last[0] = page
        counts.append(readahead)
        victims = []
        for offset in range(readahead):
            evicted = cache.install(page + offset,
                                    dirty=is_write and offset == 0)
            if evicted is not None and evicted[1]:
                victims.append(evicted)
        return victims

    return install, counts


def promotion_install(cache: PageCache, threshold: int):
    """The FlatFlash-M policy: count the miss, install only once the page's
    count reaches *threshold* (otherwise it stays non-resident and keeps
    missing).  Records whether each miss promoted."""
    counts = {}
    promoted: List[bool] = []

    def install(page: int, is_write: bool) -> List[Tuple[int, bool]]:
        count = counts.get(page, 0) + 1
        if count < threshold:
            counts[page] = count
            promoted.append(False)
            return []
        counts.pop(page, None)
        promoted.append(True)
        evicted = cache.install(page, dirty=is_write)
        return [] if evicted is None else [evicted]

    return install, counts, promoted


@settings(max_examples=200, deadline=None)
@given(capacity=capacity_st, stream=stream_st)
def test_access_batch_matches_scalar_replay(capacity, stream):
    scalar_cache = make_cache(capacity)
    batched_cache = make_cache(capacity)
    scalar_hits, scalar_evictions = scalar_replay(scalar_cache, stream)
    batched_hits, batched_evictions, result = batched_replay(batched_cache,
                                                             stream)
    assert batched_hits == scalar_hits
    assert batched_evictions == scalar_evictions
    assert cache_state(batched_cache) == cache_state(scalar_cache)
    assert result.miss_count == scalar_hits.count(False)
    assert result.miss_indices.tolist() == \
        [i for i, hit in enumerate(scalar_hits) if not hit]


@settings(max_examples=150, deadline=None)
@given(capacity=capacity_st, stream=stream_st,
       boundaries=st.lists(st.integers(min_value=0, max_value=120),
                           max_size=6))
def test_access_batch_is_split_invariant(capacity, stream, boundaries):
    """Chunking the stream across several access_batch calls changes nothing
    (the replay loop submits one call per trace chunk)."""
    scalar_cache = make_cache(capacity)
    scalar_replay(scalar_cache, stream)
    chunked_cache = make_cache(capacity)
    cuts = sorted({b for b in boundaries if b < len(stream)} | {0, len(stream)})
    for start, end in zip(cuts, cuts[1:]):
        batched_replay(chunked_cache, stream[start:end])
    assert cache_state(chunked_cache) == cache_state(scalar_cache)


@settings(max_examples=150, deadline=None)
@given(capacity=st.sampled_from([0, 1, 2, 3, 5, 8, 1 << 20]),
       chunk_pages=st.sampled_from([1, 2, 4, 8]),
       stream=stream_st, tracked=tenants_st)
def test_access_batch_matches_scalar_with_chunk_install(capacity, chunk_pages,
                                                        stream, tracked):
    """The nvdimm-C migration-chunk policy — including installs that evict
    the faulting page itself when capacity < chunk — stays order-exact,
    tenant-tracked or not."""
    scalar_cache = make_cache(capacity)
    batched_cache = make_cache(capacity)
    scalar_hits, scalar_evictions = scalar_replay(
        scalar_cache, stream, install=chunk_install(scalar_cache, chunk_pages))
    batched_hits, batched_evictions, _ = batched_replay(
        batched_cache, stream,
        install=chunk_install(batched_cache, chunk_pages), tenants=tracked)
    assert batched_hits == scalar_hits
    assert batched_evictions == scalar_evictions
    assert cache_state(batched_cache) == cache_state(scalar_cache)
    assert_tenants_conserved(batched_cache, tracked, stream)


@settings(max_examples=150, deadline=None)
@given(capacity=capacity_st, readahead_pages=st.sampled_from([1, 2, 4, 8]),
       stream=stream_st, tracked=tenants_st)
def test_access_batch_matches_scalar_with_readahead_install(
        capacity, readahead_pages, stream, tracked):
    """mmap's readahead policy: the adjacency decision is a function of
    the miss sequence alone, so the walk takes the same faults, installs
    the same pages and reports the same dirty victims as the scalar
    loop — including readahead that evicts the faulting page again, and
    with tenant tracking on."""
    scalar_cache = make_cache(capacity)
    batched_cache = make_cache(capacity)
    scalar_policy, scalar_counts = readahead_install(scalar_cache,
                                                     readahead_pages)
    batched_policy, batched_counts = readahead_install(batched_cache,
                                                       readahead_pages)
    scalar_hits, scalar_evictions = scalar_replay(scalar_cache, stream,
                                                  install=scalar_policy)
    batched_hits, batched_evictions, _ = batched_replay(
        batched_cache, stream, install=batched_policy, tenants=tracked)
    assert batched_hits == scalar_hits
    assert batched_evictions == scalar_evictions
    assert batched_counts == scalar_counts
    assert cache_state(batched_cache) == cache_state(scalar_cache)
    assert_tenants_conserved(batched_cache, tracked, stream)


@settings(max_examples=150, deadline=None)
@given(capacity=capacity_st, threshold=st.sampled_from([1, 2, 4]),
       stream=stream_st)
def test_access_batch_matches_scalar_with_promotion_install(
        capacity, threshold, stream):
    """FlatFlash-M's promotion policy leaves most misses non-resident; the
    walk's residency re-check keeps them missing exactly as the scalar
    loop does, so counts and promotions line up one for one."""
    scalar_cache = make_cache(capacity)
    batched_cache = make_cache(capacity)
    scalar_policy, scalar_counts, scalar_promoted = promotion_install(
        scalar_cache, threshold)
    batched_policy, batched_counts, batched_promoted = promotion_install(
        batched_cache, threshold)
    scalar_hits, scalar_evictions = scalar_replay(scalar_cache, stream,
                                                  install=scalar_policy)
    batched_hits, batched_evictions, result = batched_replay(
        batched_cache, stream, install=batched_policy)
    assert batched_hits == scalar_hits
    assert batched_evictions == scalar_evictions
    assert batched_promoted == scalar_promoted
    assert batched_counts == scalar_counts
    assert cache_state(batched_cache) == cache_state(scalar_cache)
    assert result.miss_count == len(batched_promoted)


@settings(max_examples=100, deadline=None)
@given(stream=stream_st)
def test_zero_capacity_cache_never_retains(stream):
    """Capacity 0: every access misses, nothing is ever resident, and the
    install guard never manufactures an eviction."""
    cache = make_cache(0)
    hits, evictions, result = batched_replay(cache, stream)
    assert not any(hits)
    assert result.miss_count == len(stream)
    assert all(eviction == [] for eviction in evictions)
    assert cache.resident_pages() == []
    assert len(cache) == 0
    assert cache.misses == len(stream)
    assert cache.hits == 0
    assert cache.dirty_writebacks == 0


@settings(max_examples=100, deadline=None)
@given(stream=stream_st)
def test_capacity_one_cache_keeps_only_the_last_page(stream):
    cache = make_cache(1)
    scalar_cache = make_cache(1)
    scalar_replay(scalar_cache, stream)
    batched_replay(cache, stream)
    assert cache_state(cache) == cache_state(scalar_cache)
    if stream:
        assert cache.resident_pages() == [stream[-1][0]]


def test_empty_batch_is_a_no_op():
    cache = make_cache(4)
    cache.install(3, dirty=True)
    before = cache_state(cache)
    result = cache.access_batch(np.empty(0, dtype=np.int64),
                                np.empty(0, dtype=bool))
    assert cache_state(cache) == before
    assert result.hits.tolist() == []
    assert result.miss_count == 0


def test_mismatched_columns_rejected():
    cache = make_cache(4)
    with np.testing.assert_raises(ValueError):
        cache.access_batch(np.asarray([1, 2]), np.asarray([True]))


class BatchedVsScalarCache(RuleBasedStateMachine):
    """Interleave batched and scalar operations against a mirrored cache.

    One cache receives ``access_batch`` for whole streams, the mirror
    replays the same stream scalar-wise; the other rules (scalar access,
    install, clean) hit both identically.  After every rule the two caches
    must be indistinguishable.
    """

    def __init__(self):
        super().__init__()
        self.capacity: Optional[int] = None
        self.batched: Optional[PageCache] = None
        self.scalar: Optional[PageCache] = None

    def _ensure(self, capacity: int) -> None:
        if self.batched is None:
            self.capacity = capacity
            self.batched = make_cache(capacity)
            self.scalar = make_cache(capacity)

    @rule(capacity=st.sampled_from([0, 1, 2, 3, 8]), stream=stream_st)
    def submit_batch(self, capacity, stream):
        self._ensure(capacity)
        scalar_hits, scalar_evictions = scalar_replay(self.scalar, stream)
        batched_hits, batched_evictions, _ = batched_replay(self.batched,
                                                            stream)
        assert batched_hits == scalar_hits
        assert batched_evictions == scalar_evictions

    @rule(capacity=st.sampled_from([0, 1, 2, 3, 8]), page=pages_st,
          write=st.booleans())
    def scalar_access(self, capacity, page, write):
        self._ensure(capacity)
        assert (self.batched.access(page, write)
                == self.scalar.access(page, write))

    @rule(capacity=st.sampled_from([0, 1, 2, 3, 8]), page=pages_st,
          dirty=st.booleans())
    def scalar_install(self, capacity, page, dirty):
        self._ensure(capacity)
        assert (self.batched.install(page, dirty)
                == self.scalar.install(page, dirty))

    @rule(capacity=st.sampled_from([0, 1, 2, 3, 8]), page=pages_st)
    def clean_page(self, capacity, page):
        self._ensure(capacity)
        self.batched.clean(page)
        self.scalar.clean(page)

    @invariant()
    def caches_indistinguishable(self):
        if self.batched is not None:
            assert cache_state(self.batched) == cache_state(self.scalar)
            assert self.batched.hit_rate == self.scalar.hit_rate


BatchedVsScalarCache.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None)
TestBatchedVsScalarCache = BatchedVsScalarCache.TestCase
