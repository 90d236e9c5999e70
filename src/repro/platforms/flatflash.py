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
fold in one vectorized call, and only the MMIO accesses replay, in one
loop (:meth:`FlatFlashPlatform._mmio_replay`) over the miss columns,
against the link and the flash at their exact issue clocks, with the
:meth:`~repro.interconnect.link.Link.transfer` recurrence inlined and the
link state committed once per batch.  The scalar
``service_memory_access`` runs the same loop as a batch of one.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

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
        # The SSD buffer's data share doubles as the byte-access cache.
        self.device_cache = PageCache(
            self.ssd.buffer.capacity_pages * self.ssd.page_size, _PAGE)
        self.host_cache = (PageCache(config.nvdimm.capacity_bytes, _PAGE)
                           if mode == "memory" else None)
        self.dram = NVDIMM(config.nvdimm) if mode == "memory" else None
        # The 64 B MMIO and 4 KB promotion transfer costs, hoisted for the
        # inlined link recurrence of _mmio_replay.
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
        promoted = [False]
        if self.host_cache is not None:
            if self.host_cache.access(page, is_write):
                assert self.dram is not None
                result = self.dram.access(size_bytes, is_write)
                self._dram_busy_ns += result.latency_ns
                return MemoryServiceResult(latency_ns=result.latency_ns)
            promoted = []
            self._promotion_policy(promoted)(page, is_write)
        device_hit = self.device_cache.access(page, is_write)
        evictions: List[List[Tuple[int, bool]]] = []
        if not device_hit:
            evicted = self.device_cache.install(page, dirty=is_write)
            evictions.append([] if evicted is None else [evicted])
        latency = self._mmio_replay([page], [size_bytes], [is_write],
                                    [device_hit], evictions, promoted,
                                    at_ns, None, [0], [0.0])
        return MemoryServiceResult(latency_ns=latency[0])

    def service_batch(self, batch: MemoryRequestBatch) -> MemoryServiceBatch:
        """Two cache walks up front, then one MMIO loop over the host misses.

        flatflash-M first walks the host cache with the promotion counter
        as its install policy (a page becomes resident only once promoted)
        and folds the host-DRAM hits in one vectorized call.  One walk of
        the SSD-internal cache then classifies the host misses in order —
        the scalar path touches it exactly once per host miss, with the
        default install — and :meth:`_mmio_replay` runs the misses at their
        exact scalar-loop issue clocks, reconstructed from the batch
        timeline with the host hits' slots filled in.
        """
        count = len(batch)
        pages = batch.addresses // _PAGE
        addends = batch.timeline.addends
        slots = batch.timeline.service_slots
        latency_ns = np.zeros(count, dtype=np.float64)
        if self.host_cache is None:
            misses = np.arange(count, dtype=np.int64)
            promoted = [False] * count
        else:
            assert self.dram is not None
            promoted = []
            walk = self.host_cache.access_batch(
                pages, batch.writes, install=self._promotion_policy(promoted))
            misses = walk.miss_indices
            hit_rows = np.flatnonzero(walk.hits)
            if len(hit_rows):
                hit_latency = self.dram.access_batch(batch.sizes[hit_rows],
                                                     batch.writes[hit_rows])
                latency_ns[hit_rows] = hit_latency
                self._dram_busy_ns = sequential_add(self._dram_busy_ns,
                                                    hit_latency)
                # The hits' slots elapse like any other timeline addend.
                addends = addends.copy()
                addends[slots[hit_rows]] = (batch.on_chip_ns[hit_rows]
                                            + hit_latency)
        if len(misses):
            miss_pages = pages[misses]
            miss_writes = batch.writes[misses]
            device = self.device_cache.access_batch(miss_pages, miss_writes)
            latency_ns[misses] = self._mmio_replay(
                miss_pages.tolist(), batch.sizes[misses].tolist(),
                miss_writes.tolist(), device.hits.tolist(), device.evictions,
                promoted, batch.start_ns, addends, slots[misses].tolist(),
                batch.on_chip_ns[misses].tolist())
        return MemoryServiceBatch(latency_ns=latency_ns)

    def _promotion_policy(self, promoted: List[bool]):
        """The host cache's install policy: count a miss and, at the
        threshold, promote the page (install it, reset its counter).  Each
        call appends whether it promoted to *promoted*; a promotion evicts
        nothing over the link, so every call returns one shared empty list.
        """
        counts = self._access_counts
        install = self.host_cache.install
        record = promoted.append
        no_evictions: List[Tuple[int, bool]] = []

        def policy(page: int, is_write: bool) -> List[Tuple[int, bool]]:
            count = counts.get(page, 0) + 1
            if count < _PROMOTION_THRESHOLD:
                counts[page] = count
                record(False)
            else:
                counts.pop(page, None)
                install(page, dirty=is_write)
                record(True)
            return no_evictions

        return policy

    def _mmio_replay(self, pages: List[int], sizes: List[int],
                     writes: List[bool], device_hits: List[bool],
                     device_evictions: List[List[Tuple[int, bool]]],
                     promoted: List[bool], now: float,
                     addends: Optional[np.ndarray], slots: List[int],
                     on_chip: List[float]) -> List[float]:
        """Replay MMIO references in order; returns their latencies.

        FlatFlash has no DMA engine on the access path: the CPU pulls data
        cache line by cache line over MMIO, so a page-granular reference
        costs one PCIe round trip per 64 B line (the ~4.8 us/64 B figure
        the paper quotes), while the flash page itself is read only once.
        Each device-cache miss takes the next entry of *device_evictions*
        (the device walk's evictions, in miss order).  Reference *k* issues
        at *now* plus ``addends[cursor:slots[k]]``, folded left to right as
        :meth:`MemoryRequestBatch.service_page_cached` folds them, and
        its own slot elapses as ``on_chip[k] + latency``.  Flash accesses
        step one :meth:`~repro.flash.ssd.SSD.walk`; link transfers run the
        :meth:`~repro.interconnect.link.Link.transfer` recurrence
        (``finish = (max(at, busy) + overhead) + raw``) on a local horizon,
        committed once at the end with the promotion count.
        """
        line_overhead = self._line_overhead_ns
        line_raw = self._line_raw_ns
        page_overhead = self._page_overhead_ns
        page_raw = self._page_raw_ns
        hit_ns = self.config.ssd.dram_buffer_hit_ns
        evictions = iter(device_evictions)
        busy = self.link.busy_until_ns
        latencies: List[float] = []
        record = latencies.append
        addends_list = None  # materialised lazily, for short-gap folds only
        cursor = 0
        extra_lines = 0
        promotions = 0
        with self.ssd.walk() as step:
            for page, size, is_write, device_hit, promote, slot, chip in zip(
                    pages, sizes, writes, device_hits, promoted, slots,
                    on_chip):
                gap = slot - cursor
                if gap >= 64:
                    # Long hit/compute stretch: one strict sequential fold.
                    now = sequential_add(now, addends[cursor:slot])
                elif gap:
                    if addends_list is None:
                        addends_list = addends.tolist()
                    for addend in addends_list[cursor:slot]:
                        now += addend
                cursor = slot + 1
                # The MMIO round trip always crosses PCIe with 64 B.
                start = now if now >= busy else busy
                busy = (start + line_overhead) + line_raw
                latency = busy - start
                if device_hit:
                    latency += hit_ns
                else:
                    # Device-cache miss: the flash array serves a 4 KB page.
                    at = now + latency
                    finish = step((is_write, page * _PAGE, _PAGE, at, False))
                    latency += finish - at
                    for victim, victim_dirty in next(evictions):
                        if victim_dirty:
                            step((True, victim * _PAGE, _PAGE, finish,
                                  False))
                lines = size // 64
                if lines > 1:
                    extra_lines += 1
                    at = now + latency
                    start = at if at >= busy else busy
                    busy = (start + line_overhead) + line_raw
                    latency += (lines - 1) * ((busy - start) + hit_ns)
                if promote:
                    # Promote the page: a 4 KB device read plus a DRAM fill.
                    promotions += 1
                    at = now + latency
                    finish = step((False, page * _PAGE, _PAGE, at, False))
                    start = finish if finish >= busy else busy
                    busy = (start + page_overhead) + page_raw
                    # Mostly off the path: a quarter of it shows.
                    latency += (finish - at + (busy - start)) * 0.25
                record(latency)
                now += chip + latency
        self.promotions += promotions
        self._commit_link(len(latencies), extra_lines, promotions, busy)
        return latencies

    def _commit_link(self, accesses: int, extra_lines: int, promotions: int,
                     busy: float) -> None:
        """Fold the link accounting of one :meth:`_mmio_replay`.

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
