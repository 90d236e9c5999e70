"""MoS tag-array: the direct-mapped NVDIMM cache metadata (Figure 11).

Instead of a large SRAM inside the HAMS controller (costly and volatile),
the paper stores each cache entry's metadata — tag, valid bit and dirty bit
— alongside the ECC bits of the corresponding NVDIMM cache line, similar to
Knights Landing's MCDRAM tags.  (The paper's *busy* bit, set while a DMA
targets the entry, is modelled by the controller's per-entry reuse time;
see :meth:`repro.core.hams_controller.HAMSController.replay_miss`.)
The cache is direct-mapped at MoS-page granularity (128 KB by default,
Table II), so a MoS address decomposes into tag / index / offset and a
lookup costs one NVDIMM line read plus the comparator.

The array is two columns with one slot per entry: :attr:`MoSTagArray.tags`
(int64, ``-1`` for an invalid entry, so the valid bit is ``tag >= 0``) and
:attr:`MoSTagArray.dirty` (bool, only ever set on a valid entry).  This
module is the only one that reads or writes them: the scalar
:meth:`~MoSTagArray.lookup` / :meth:`~MoSTagArray.install` /
:meth:`~MoSTagArray.mark_dirty` sequence serves one request, and
:meth:`~MoSTagArray.classify` runs the same sequence over a whole batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class TagLookup:
    """Result of probing the tag-array for one MoS page."""

    index: int
    tag: int
    hit: bool
    victim_tag: Optional[int]
    victim_dirty: bool

    @property
    def needs_eviction(self) -> bool:
        """A miss that lands on a valid, dirty entry must evict first."""
        return not self.hit and self.victim_tag is not None and self.victim_dirty


class MoSTagArray:
    """Direct-mapped tag array covering the cacheable NVDIMM capacity."""

    def __init__(self, cacheable_bytes: int, mos_page_bytes: int) -> None:
        if mos_page_bytes <= 0:
            raise ValueError("MoS page size must be positive")
        if cacheable_bytes < mos_page_bytes:
            raise ValueError("NVDIMM cacheable space smaller than one MoS page")
        self.mos_page_bytes = mos_page_bytes
        self.entries_count = cacheable_bytes // mos_page_bytes
        self.tags = np.full(self.entries_count, -1, dtype=np.int64)
        self.dirty = np.zeros(self.entries_count, dtype=bool)
        self.lookups = 0
        self.hits = 0
        self.misses = 0

    # -- address decomposition ---------------------------------------------------

    def index_of(self, mos_page):
        return mos_page % self.entries_count

    def tag_of(self, mos_page):
        return mos_page // self.entries_count

    def page_from(self, index, tag):
        """Reconstruct the MoS page number stored at (*index*, *tag*)."""
        return tag * self.entries_count + index

    # -- probing -------------------------------------------------------------------

    def lookup(self, mos_page: int) -> TagLookup:
        """Probe the array for *mos_page* without modifying any state."""
        if mos_page < 0:
            raise ValueError("negative MoS page number")
        self.lookups += 1
        index = self.index_of(mos_page)
        tag = self.tag_of(mos_page)
        stored = int(self.tags[index])
        hit = stored == tag
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        victim_tag = stored if (stored >= 0 and not hit) else None
        victim_dirty = (bool(self.dirty[index]) if victim_tag is not None
                        else False)
        return TagLookup(index=index, tag=tag, hit=hit,
                         victim_tag=victim_tag, victim_dirty=victim_dirty)

    # -- state transitions -------------------------------------------------------------

    def install(self, mos_page: int, dirty: bool = False) -> None:
        """Fill the entry for *mos_page* (after the flash read completes)."""
        index = self.index_of(mos_page)
        self.tags[index] = self.tag_of(mos_page)
        self.dirty[index] = dirty

    def mark_dirty(self, mos_page: int) -> None:
        """Record a store hitting the cached copy of *mos_page*."""
        index = self.index_of(mos_page)
        if self.tags[index] != self.tag_of(mos_page):
            raise ValueError(f"page {mos_page} is not resident")
        self.dirty[index] = True

    def classify(self, mos_pages: np.ndarray, writes: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run :meth:`lookup`, then :meth:`mark_dirty` on a store hit or
        :meth:`install` on a miss, for each page of a non-empty batch.

        Returns ``(hits, victim_tags, victim_dirty)``: ``hits`` has one
        flag per request, the other two one value per miss (``-1`` for an
        invalid victim), all in batch order.  The columns and the lookup
        counters end exactly where the scalar sequence leaves them.

        In a direct-mapped array the outcome of a request depends only on
        the previous request of the batch to the same index — or, for the
        first one, on that entry's state at batch start.  So one
        index-sorted pass classifies the whole batch: a stable argsort by
        index groups each entry's requests in scalar order, and a request
        hits when its tag equals its predecessor's (a group's head compares
        with the entry's gathered tag).  Each miss opens a *residency
        segment*; one ``np.logical_or.reduceat`` over the stores of each
        segment gives every miss its victim's dirty bit and every entry its
        final dirty bit.  Each touched slot is gathered once and stored
        once.
        """
        count = len(mos_pages)
        indices = self.index_of(mos_pages)

        # -- group each entry's requests, in scalar order ---------------------
        order = np.argsort(indices, kind="stable")
        s_index = indices[order]
        s_tag = self.tag_of(mos_pages[order])
        s_write = writes[order]
        head = np.empty(count, dtype=bool)
        head[0] = True
        np.not_equal(s_index[1:], s_index[:-1], out=head[1:])
        heads = np.flatnonzero(head)
        touched = s_index[heads]
        start_dirty = self.dirty[touched]

        # -- hits: each tag against the entry's previous one -----------------
        prev_tag = np.empty(count, dtype=np.int64)
        prev_tag[1:] = s_tag[:-1]
        prev_tag[heads] = self.tags[touched]
        s_miss = s_tag != prev_tag

        # -- dirty bits: OR of the stores over each residency segment --------
        # A segment starts at each miss and at each group head; a head hit
        # continues the entry's batch-start residency, dirty bit included.
        seg_start = s_miss | head
        stores = s_write.copy()
        stores[heads] |= start_dirty & ~s_miss[heads]
        seg_dirty = np.logical_or.reduceat(stores, np.flatnonzero(seg_start))
        segment = np.cumsum(seg_start) - 1
        # The victim of a miss is the residency just before it.
        prev_dirty = np.empty(count, dtype=bool)
        prev_dirty[1:] = seg_dirty[segment[:-1]]
        prev_dirty[heads] = start_dirty

        # -- store each touched slot's final state, once ---------------------
        lasts = np.empty(len(heads), dtype=np.int64)
        lasts[:-1] = heads[1:] - 1
        lasts[-1] = count - 1
        self.tags[touched] = s_tag[lasts]
        self.dirty[touched] = seg_dirty[segment[lasts]]

        # -- back to batch order ---------------------------------------------
        misses = np.empty(count, dtype=bool)
        misses[order] = s_miss
        victim_tags = np.empty(count, dtype=np.int64)
        victim_tags[order] = prev_tag
        victim_dirty = np.empty(count, dtype=bool)
        victim_dirty[order] = prev_dirty
        miss_count = int(np.count_nonzero(misses))
        self.lookups += count
        self.hits += count - miss_count
        self.misses += miss_count
        return ~misses, victim_tags[misses], victim_dirty[misses]

    # -- reporting -------------------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def dirty_count(self) -> int:
        return int(np.count_nonzero(self.dirty))
