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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional


@dataclass
class TagEntry:
    """Metadata for one direct-mapped NVDIMM cache entry."""

    index: int
    tag: Optional[int] = None
    valid: bool = False
    dirty: bool = False

    def matches(self, tag: int) -> bool:
        return self.valid and self.tag == tag

    def reset(self) -> None:
        self.tag = None
        self.valid = False
        self.dirty = False


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
        self._entries: List[TagEntry] = [TagEntry(index=i)
                                         for i in range(self.entries_count)]
        self.lookups = 0
        self.hits = 0
        self.misses = 0

    # -- address decomposition ---------------------------------------------------

    def index_of(self, mos_page: int) -> int:
        return mos_page % self.entries_count

    def tag_of(self, mos_page: int) -> int:
        return mos_page // self.entries_count

    def page_from(self, index: int, tag: int) -> int:
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
        entry = self._entries[index]
        hit = entry.matches(tag)
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        victim_tag = entry.tag if (entry.valid and not hit) else None
        victim_dirty = entry.dirty if victim_tag is not None else False
        return TagLookup(index=index, tag=tag, hit=hit,
                         victim_tag=victim_tag, victim_dirty=victim_dirty)

    def entry(self, index: int) -> TagEntry:
        if not 0 <= index < self.entries_count:
            raise ValueError(f"tag index out of range: {index}")
        return self._entries[index]

    # -- state transitions -------------------------------------------------------------

    def install(self, mos_page: int, dirty: bool = False) -> TagEntry:
        """Fill the entry for *mos_page* (after the flash read completes)."""
        index = self.index_of(mos_page)
        entry = self._entries[index]
        entry.tag = self.tag_of(mos_page)
        entry.valid = True
        entry.dirty = dirty
        return entry

    def mark_dirty(self, mos_page: int) -> None:
        """Record a store hitting the cached copy of *mos_page*."""
        index = self.index_of(mos_page)
        entry = self._entries[index]
        if not entry.matches(self.tag_of(mos_page)):
            raise ValueError(f"page {mos_page} is not resident")
        entry.dirty = True

    def invalidate(self, mos_page: int) -> None:
        index = self.index_of(mos_page)
        entry = self._entries[index]
        if entry.matches(self.tag_of(mos_page)):
            entry.reset()

    # -- reporting -------------------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def resident_pages(self) -> Iterator[int]:
        """MoS page numbers currently cached (valid entries)."""
        for entry in self._entries:
            if entry.valid and entry.tag is not None:
                yield self.page_from(entry.index, entry.tag)

    def dirty_count(self) -> int:
        return sum(1 for entry in self._entries if entry.valid and entry.dirty)

    def statistics(self) -> Dict[str, float]:
        return {
            "entries": float(self.entries_count),
            "lookups": float(self.lookups),
            "hits": float(self.hits),
            "misses": float(self.misses),
            "hit_rate": self.hit_rate,
            "dirty_entries": float(self.dirty_count()),
        }
