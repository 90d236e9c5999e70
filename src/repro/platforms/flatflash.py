"""FlatFlash platforms (``flatflash-P`` and ``flatflash-M``).

FlatFlash [1] exposes the SSD as a byte-addressable device over MMIO: a
cache-line access travels the PCIe link to the SSD and is served by the
SSD-internal DRAM (if cached there) or by the flash itself.  Because the
access path is MMIO rather than NVMe, there is no queue parallelism, and
because a large part of the SSD-internal DRAM holds the FTL mapping table,
the effective cache is small (Section VII).

``flatflash-P`` keeps everything on the device (persistent but slow: the
paper quotes ~4.8 us per 64 B access).  ``flatflash-M`` promotes hot pages
into host DRAM, trading persistence for performance.

Batched replay: the host cache (with the promotion counter as its install
policy) and the SSD-internal cache are each classified by one order-exact
:meth:`~repro.host.os_stack.PageCache.access_batch` walk; host-DRAM hits
fold in one vectorized call, and only the MMIO accesses replay against the
link and the flash at their exact issue clocks, with the
:meth:`~repro.interconnect.link.Link.transfer` recurrence inlined and the
link state committed once per batch.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..config import SystemConfig
from ..energy.accounting import EnergyAccount
from ..flash.ssd import SSD
from ..host.os_stack import PageCache
from ..interconnect.pcie import PCIeLink
from ..memory.nvdimm import NVDIMM
from ..numerics import sequential_add
from ..units import KB
from ..workloads.trace import WorkloadTrace
from .base import (
    MemoryRequestBatch,
    MemoryServiceBatch,
    MemoryServiceResult,
    Platform,
)

_PAGE = KB(4)
_PROMOTION_THRESHOLD = 4  # accesses to a page before it is promoted to DRAM


class FlatFlashPlatform(Platform):
    """Byte-addressable SSD over MMIO, optionally with host-DRAM promotion."""

    def __init__(self, config: SystemConfig, mode: str = "persist") -> None:
        super().__init__(config)
        if mode not in ("persist", "memory"):
            raise ValueError(f"unknown FlatFlash mode {mode!r}")
        self.mode = mode
        self.name = "flatflash-P" if mode == "persist" else "flatflash-M"
        self.ssd = SSD(config.ssd)
        self.link = PCIeLink(config.pcie)
        # The SSD-internal DRAM doubles as the byte-access cache, minus the
        # mapping table share.
        data_bytes = int(config.ssd.dram_buffer_bytes
                         * (1.0 - config.ssd.mapping_table_fraction))
        self.device_cache = PageCache(data_bytes, _PAGE)
        self.host_cache = (PageCache(config.nvdimm.capacity_bytes, _PAGE)
                           if mode == "memory" else None)
        self.dram = NVDIMM(config.nvdimm) if mode == "memory" else None
        # The 64 B MMIO and 4 KB promotion transfer costs, hoisted for the
        # inlined link recurrence of _mmio_access.
        self._line_overhead_ns = self.link.per_transfer_overhead(64)
        self._line_raw_ns = self.link.raw_transfer_time(64)
        self._page_overhead_ns = self.link.per_transfer_overhead(_PAGE)
        self._page_raw_ns = self.link.raw_transfer_time(_PAGE)
        self._access_counts: Dict[int, int] = {}
        self._dram_busy_ns = 0.0
        self.promotions = 0

    def prepare(self, trace: WorkloadTrace) -> None:
        self.ssd.precondition_dataset(trace.dataset_bytes)

    # -- the MMIO datapath -------------------------------------------------------

    def service_memory_access(self, address: int, size_bytes: int,
                              is_write: bool, at_ns: float) -> MemoryServiceResult:
        page = address // _PAGE
        promoted = False
        if self.host_cache is not None:
            if self.host_cache.access(page, is_write):
                assert self.dram is not None
                result = self.dram.access(size_bytes, is_write)
                self._dram_busy_ns += result.latency_ns
                return MemoryServiceResult(latency_ns=result.latency_ns)
            promoted = self._count_access(page, is_write)
        device_hit = self.device_cache.access(page, is_write)
        victims: List[Tuple[int, bool]] = []
        if not device_hit:
            evicted = self.device_cache.install(page, dirty=is_write)
            if evicted is not None:
                victims.append(evicted)
        with self.ssd.walk() as step:
            latency, busy = self._mmio_access(page, size_bytes, is_write,
                                              device_hit, victims, promoted,
                                              at_ns, self.link.busy_until_ns,
                                              step)
        self._commit_link(1, int(size_bytes // 64 > 1), int(promoted), busy)
        return MemoryServiceResult(latency_ns=latency)

    def service_batch(self, batch: MemoryRequestBatch) -> MemoryServiceBatch:
        """Two cache walks up front; only the MMIO accesses replay.

        flatflash-M first walks the host cache with the promotion counter
        as its install policy (a page becomes resident only once promoted)
        and folds the host-DRAM hits in one vectorized call.  One walk of
        the SSD-internal cache then classifies the host misses in order —
        the scalar path touches it exactly once per host miss, with the
        default install — and the misses replay at their exact scalar-loop
        issue clocks (:meth:`MemoryRequestBatch.service_page_cached`),
        stepping one :meth:`~repro.flash.ssd.SSD.walk` opened for the
        chunk, threading the link horizon through locals and committing the
        link accounting once at the end.
        """
        count = len(batch)
        if count == 0:
            return MemoryServiceBatch(latency_ns=np.empty(0))
        pages = batch.addresses // _PAGE
        hit_latency = np.zeros(count, dtype=np.float64)
        if self.host_cache is not None:
            assert self.dram is not None
            promoted: List[bool] = []

            def install(page: int, is_write: bool) -> List[Tuple[int, bool]]:
                promoted.append(self._count_access(page, is_write))
                return []

            walk = self.host_cache.access_batch(pages, batch.writes,
                                                install=install)
            hit_mask = walk.hits
            miss_indices = walk.miss_indices
            hit_rows = np.flatnonzero(hit_mask)
            if len(hit_rows):
                hit_latency[hit_rows] = self.dram.access_batch(
                    batch.sizes[hit_rows], batch.writes[hit_rows])
                self._dram_busy_ns = sequential_add(self._dram_busy_ns,
                                                    hit_latency[hit_rows])
        else:
            hit_mask = np.zeros(count, dtype=bool)
            miss_indices = np.arange(count, dtype=np.int64)
            promoted = [False] * count
        if len(miss_indices) == 0:
            return MemoryServiceBatch(latency_ns=hit_latency)
        device = self.device_cache.access_batch(pages[miss_indices],
                                                batch.writes[miss_indices])
        device_hits = device.hits.tolist()
        victims: List[List[Tuple[int, bool]]] = [[] for _ in device_hits]
        for k, evictions in zip(device.miss_indices.tolist(),
                                device.evictions):
            victims[k] = evictions
        pages_list = pages.tolist()
        sizes_list = batch.sizes.tolist()
        writes_list = batch.writes.tolist()
        busy = self.link.busy_until_ns

        def miss_service(k: int, index: int, now: float):
            nonlocal busy
            latency, busy = self._mmio_access(
                pages_list[index], sizes_list[index], writes_list[index],
                device_hits[k], victims[k], promoted[k], now, busy, step)
            return latency, 0.0, 0.0

        with self.ssd.walk() as step:
            result = batch.service_page_cached(hit_mask, hit_latency,
                                               miss_indices, miss_service)
        self._commit_link(len(miss_indices),
                          int((batch.sizes[miss_indices] // 64 > 1).sum()),
                          sum(promoted), busy)
        return result

    def _count_access(self, page: int, is_write: bool) -> bool:
        """Count a host-cache miss; promote the page once it is hot.

        The promotion counter is the host cache's install policy: the page
        is installed (promoted to DRAM) only when its count reaches the
        threshold, and otherwise stays non-resident.  Returns whether this
        access promoted the page.
        """
        count = self._access_counts.get(page, 0) + 1
        if count < _PROMOTION_THRESHOLD:
            self._access_counts[page] = count
            return False
        self._access_counts.pop(page, None)
        self.host_cache.install(page, dirty=is_write)
        self.promotions += 1
        return True

    def _mmio_access(self, page: int, size_bytes: int, is_write: bool,
                     device_hit: bool, victims: List[Tuple[int, bool]],
                     promoted: bool, at_ns: float, busy: float,
                     step) -> Tuple[float, float]:
        """One MMIO reference to the SSD, given its cache outcomes.

        FlatFlash has no DMA engine on the access path: the CPU pulls data
        cache line by cache line over MMIO, so a page-granular reference
        costs one PCIe round trip per 64 B line (the ~4.8 us/64 B figure
        the paper quotes), while the flash page itself is read only once.
        *device_hit* and *victims* are the SSD-internal cache's outcome,
        *promoted* the promotion counter's.  Every flash access is one
        *step* of an open :meth:`~repro.flash.ssd.SSD.walk`.  Every link
        transfer runs the exact
        :meth:`~repro.interconnect.link.Link.transfer` recurrence
        (``start = max(at, busy)``, ``finish = (start + overhead) + raw``)
        against the link horizon *busy*; returns ``(latency_ns, busy)`` and
        leaves the link accounting to :meth:`_commit_link`.
        """
        # The MMIO round trip always crosses PCIe with a 64 B payload.
        start = at_ns if at_ns >= busy else busy
        busy = (start + self._line_overhead_ns) + self._line_raw_ns
        latency = busy - start
        if device_hit:
            latency += self.config.ssd.dram_buffer_hit_ns
        else:
            # Device-cache miss: the flash array serves a 4 KB page.
            at = at_ns + latency
            finish = step((is_write, page * _PAGE, _PAGE, at, False))
            latency += finish - at
            for victim, victim_dirty in victims:
                if victim_dirty:
                    step((True, victim * _PAGE, _PAGE, finish, False))
        lines = max(1, size_bytes // 64)
        if lines > 1:
            at = at_ns + latency
            start = at if at >= busy else busy
            busy = (start + self._line_overhead_ns) + self._line_raw_ns
            per_line_ns = (busy - start) + self.config.ssd.dram_buffer_hit_ns
            latency += (lines - 1) * per_line_ns
        if promoted:
            # Promote the hot page: one 4 KB device read plus a DRAM fill.
            at = at_ns + latency
            finish = step((False, page * _PAGE, _PAGE, at, False))
            start = finish if finish >= busy else busy
            busy = (start + self._page_overhead_ns) + self._page_raw_ns
            # Mostly off the path: a quarter of it shows.
            latency += (finish - at + (busy - start)) * 0.25
        return latency, busy

    def _commit_link(self, accesses: int, extra_lines: int, promotions: int,
                     busy: float) -> None:
        """Fold the link accounting of :meth:`_mmio_access` calls.

        Each access moved one 64 B round trip, plus one more 64 B line when
        it spans several lines and one 4 KB page when it promoted.
        """
        self.link.commit_transfers(accesses + extra_lines + promotions,
                                   64 * (accesses + extra_lines)
                                   + _PAGE * promotions, busy)

    # -- energy -------------------------------------------------------------------

    def collect_energy(self, account: EnergyAccount) -> None:
        if self.dram is not None:
            account.charge_nvdimm(active_ns=self._dram_busy_ns,
                                  bytes_moved=self.dram.dram.bytes_total)
        account.charge_internal_dram(
            (self.device_cache.hits + self.device_cache.misses) * 64)
        account.charge_flash(self.ssd.fil.page_reads, self.ssd.fil.page_programs)
        account.charge_link(pcie_bytes=int(self.link.bytes_transferred))

    def extra_statistics(self) -> Dict[str, float]:
        stats = super().extra_statistics()
        stats.update({
            "device_cache_hit_rate": self.device_cache.hit_rate,
            "promotions": float(self.promotions),
        })
        if self.host_cache is not None:
            stats["host_cache_hit_rate"] = self.host_cache.hit_rate
        return stats
