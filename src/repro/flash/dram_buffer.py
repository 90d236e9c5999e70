"""SSD-internal DRAM buffer (write-back page cache with LRU eviction).

All high-performance SSDs, including ULL-Flash, put a large DRAM in front of
the flash channels to hide the array latency (Section II-C).  The buffer is a
page-granular write-back cache: reads that hit are served at DRAM speed,
writes are absorbed and marked dirty, and evictions of dirty pages have to be
programmed into flash.

This class holds the buffer's state (the LRU order and dirty flags), its
counters and the LRU insert.  The per-request hit, fill and dirty-evict
operations run inside :meth:`repro.flash.ssd.SSD.walk`, against
these structures; :meth:`flush_all` serves the supercap flush.

The *advanced* HAMS design removes this buffer entirely (the NVDIMM becomes
the only buffer), which is modelled by constructing the SSD with
``dram_buffer_enabled=False`` — every access then misses and nothing is
absorbed, and the buffer's energy contribution drops out of Figure 19.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Tuple


@dataclass
class BufferStats:
    """Hit/miss and eviction counters for the internal buffer."""

    read_hits: int = 0
    read_misses: int = 0
    write_hits: int = 0
    write_misses: int = 0
    dirty_evictions: int = 0
    clean_evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = (self.read_hits + self.read_misses
                 + self.write_hits + self.write_misses)
        if total == 0:
            return 0.0
        return (self.read_hits + self.write_hits) / total


class InternalDRAMBuffer:
    """LRU write-back cache of flash pages held in the SSD's DRAM."""

    def __init__(self, capacity_bytes: int, page_size: int,
                 enabled: bool = True,
                 mapping_table_fraction: float = 0.0) -> None:
        if page_size <= 0:
            raise ValueError("page size must be positive")
        if not 0.0 <= mapping_table_fraction < 1.0:
            raise ValueError("mapping_table_fraction must be in [0, 1)")
        self.page_size = page_size
        self.enabled = enabled and capacity_bytes >= page_size
        data_bytes = int(capacity_bytes * (1.0 - mapping_table_fraction))
        self.capacity_pages = max(0, data_bytes // page_size) if self.enabled else 0
        # OrderedDict keyed by LPN; value is the dirty flag.  Most recently
        # used entries live at the end.
        self._pages: "OrderedDict[int, bool]" = OrderedDict()
        self.stats = BufferStats()

    # -- queries ----------------------------------------------------------------

    def __contains__(self, lpn: int) -> bool:
        return lpn in self._pages

    def __len__(self) -> int:
        return len(self._pages)

    @property
    def dirty_pages(self) -> int:
        return sum(1 for dirty in self._pages.values() if dirty)

    # -- operations ---------------------------------------------------------------

    def flush_all(self) -> List[int]:
        """Return and clean every dirty page (power-failure supercap flush)."""
        dirty = [lpn for lpn, is_dirty in self._pages.items() if is_dirty]
        for lpn in dirty:
            self._pages[lpn] = False
        return dirty

    def clear(self) -> None:
        self._pages.clear()

    # -- internals ----------------------------------------------------------------

    def _insert(self, lpn: int, dirty: bool) -> Optional[Tuple[int, bool]]:
        evicted: Optional[Tuple[int, bool]] = None
        if self.capacity_pages == 0:
            return None
        if len(self._pages) >= self.capacity_pages:
            victim_lpn, victim_dirty = self._pages.popitem(last=False)
            if victim_dirty:
                self.stats.dirty_evictions += 1
            else:
                self.stats.clean_evictions += 1
            evicted = (victim_lpn, victim_dirty)
        self._pages[lpn] = dirty
        return evicted
