"""Bypass-strategy platforms for the Figure 7b motivation study.

Section III-C asks: what happens if we simply remove the software stack and
expose the device directly to load/store instructions?  Three strategies are
compared:

* ``nvdimm`` — every reference is served by NVDIMM (the upper bound),
* ``ull``    — every off-chip reference is served directly by the ULL-Flash
  (a 4 KB Z-NAND read per miss, ~3 us plus transfer), and
* ``ull-buff`` — the ULL-Flash is fronted by a small DRAM page buffer.

The IPC collapse of the latter two (0.001 / 0.003 vs 0.06) motivates HAMS:
removing software is not enough, the NVDIMM must stay on the critical path
as a large hardware-managed cache.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..config import SystemConfig
from ..energy.accounting import EnergyAccount
from ..flash.ssd import IORequestBatch, SSD
from ..host.os_stack import PageCache
from ..interconnect.pcie import PCIeLink
from ..memory.nvdimm import NVDIMM
from ..numerics import sequential_add
from ..units import KB, MB
from ..workloads.trace import WorkloadTrace
from .base import (
    MemoryRequestBatch,
    MemoryServiceBatch,
    MemoryServiceResult,
    Platform,
)

_PAGE = KB(4)


class BypassPlatform(Platform):
    """Direct load/store service by NVDIMM, ULL-Flash, or buffered ULL-Flash."""

    def __init__(self, config: SystemConfig, strategy: str = "nvdimm",
                 buffer_bytes: int = MB(64)) -> None:
        super().__init__(config)
        if strategy not in ("nvdimm", "ull", "ull-buff"):
            raise ValueError(f"unknown bypass strategy {strategy!r}")
        self.strategy = strategy
        self.name = f"bypass-{strategy}"
        self.nvdimm = NVDIMM(config.nvdimm)
        self.ssd = SSD(config.ssd)
        self.link = PCIeLink(config.pcie)
        self.page_buffer = PageCache(buffer_bytes, _PAGE)
        self._nvdimm_busy_ns = 0.0

    def prepare(self, trace: WorkloadTrace) -> None:
        if self.strategy != "nvdimm":
            self.ssd.precondition_dataset(trace.dataset_bytes)

    def service_memory_access(self, address: int, size_bytes: int,
                              is_write: bool, at_ns: float) -> MemoryServiceResult:
        if self.strategy == "nvdimm":
            result = self.nvdimm.access(size_bytes, is_write)
            self._nvdimm_busy_ns += result.latency_ns
            return MemoryServiceResult(latency_ns=result.latency_ns)

        page = address // _PAGE
        if self.strategy == "ull-buff" and self.page_buffer.access(page, is_write):
            result = self.nvdimm.access(min(size_bytes, _PAGE), is_write)
            self._nvdimm_busy_ns += result.latency_ns
            return MemoryServiceResult(latency_ns=result.latency_ns)

        with self.ssd.walk() as step:
            latency = self._flash_access(page, is_write, at_ns, step)
        if self.strategy == "ull-buff":
            self.page_buffer.install(page, dirty=is_write)
        return MemoryServiceResult(latency_ns=latency)

    def _flash_access(self, page: int, is_write: bool, at_ns: float,
                      step) -> float:
        """One miss: a synchronous 4 KB device access on the load/store
        path plus its PCIe transfer; returns the latency seen at *at_ns*.
        The device access is one *step* of an open
        :meth:`~repro.flash.ssd.SSD.walk` on :attr:`ssd`."""
        finish = step((is_write, page * _PAGE, _PAGE, at_ns, False))
        start, end = self.link.transfer(_PAGE, finish)
        return (finish - at_ns) + (end - start)

    def service_batch(self, batch: MemoryRequestBatch) -> MemoryServiceBatch:
        """Vectorized service for every bypass strategy.

        ``nvdimm`` bypass is clock-independent DRAM, so the whole batch
        resolves in one vectorized call.  ``ull-buff`` fronts the flash
        with a DRAM page buffer: the order-exact batched LRU walk
        (:meth:`~repro.host.os_stack.PageCache.access_batch`) classifies
        the batch, the buffer hits fold into one vectorized NVDIMM call,
        and only the misses — whose flash reads and PCIe transfers are
        queued and history-dependent — replay at exact scalar issue clocks
        via :meth:`~repro.platforms.base.MemoryRequestBatch.service_page_cached`.
        ``ull`` is the degenerate all-miss case — every access is a
        synchronous flash I/O whose next submission clock depends on the
        previous completion — so when the batch's timeline decomposes into
        one uniform gap per request it runs the whole closed-loop recurrence
        inside one chained :meth:`~repro.flash.ssd.SSD.submit_batch` call
        (device walk and PCIe link inlined, bit-identical to the scalar
        loop); otherwise it falls back to the page-cached fold below.
        """
        if self.strategy == "nvdimm":
            latency = self.nvdimm.access_batch(batch.sizes, batch.writes)
            self._nvdimm_busy_ns = sequential_add(self._nvdimm_busy_ns,
                                                  latency)
            return MemoryServiceBatch(latency_ns=latency)
        count = len(batch)
        if count == 0:
            return MemoryServiceBatch(latency_ns=np.empty(0))
        if self.strategy == "ull":
            chained = self._service_chained(batch)
            if chained is not None:
                return chained
        pages = batch.addresses // _PAGE
        if self.strategy == "ull-buff":
            walk = self.page_buffer.access_batch(pages, batch.writes,
                                                 tenants=batch.tenant_ids)
            hit_mask = walk.hits
            miss_indices = walk.miss_indices
        else:
            hit_mask = np.zeros(count, dtype=bool)
            miss_indices = np.arange(count, dtype=np.int64)
        hit_latency = np.zeros(count, dtype=np.float64)
        hit_positions = np.flatnonzero(hit_mask)
        if len(hit_positions):
            buffered_sizes = np.minimum(batch.sizes[hit_positions], _PAGE)
            buffered = self.nvdimm.access_batch(buffered_sizes,
                                                batch.writes[hit_positions])
            self._nvdimm_busy_ns = sequential_add(self._nvdimm_busy_ns,
                                                  buffered)
            hit_latency[hit_positions] = buffered
        # Only the misses read the scalar views; all-hit chunks skip them.
        any_misses = len(miss_indices) > 0
        pages_list = pages.tolist() if any_misses else []
        writes_list = batch.writes.tolist() if any_misses else []

        def miss_service(k: int, index: int, now: float):
            return (self._flash_access(pages_list[index], writes_list[index],
                                       now, step), 0.0, 0.0)

        with self.ssd.walk() as step:
            return batch.service_page_cached(hit_mask, hit_latency,
                                             miss_indices, miss_service)

    def _service_chained(self, batch: MemoryRequestBatch):
        """Run an all-miss batch as one chained flash submission.

        Exactness requires recovering every request's scalar issue clock
        from the batch timeline as *one* pre-gap addend per request (the
        per-access compute phase).  That holds exactly when every chunk
        access produced an off-chip request — true for the page-granular
        streams ``ull`` sees — and is checked structurally here; any other
        slot pattern (fine-grained chunks with cache hits interleaved)
        returns ``None`` and the caller uses the per-miss fold instead.
        """
        count = len(batch)
        addends = batch.timeline.addends
        slots = batch.timeline.service_slots
        if len(addends) == 2 * count:
            expected = 2 * np.arange(count, dtype=np.int64) + 1
            if not np.array_equal(slots, expected):
                return None
            pre_gap = addends[0::2]
        elif len(addends) == count:
            if not np.array_equal(slots, np.arange(count, dtype=np.int64)):
                return None
            pre_gap = None
        else:
            return None
        io_batch = IORequestBatch(
            is_write=batch.writes,
            byte_offset=(batch.addresses // _PAGE) * _PAGE,
            size_bytes=_PAGE,
            chained=True,
            start_ns=batch.start_ns,
            pre_gap_ns=pre_gap,
            post_gap_ns=batch.on_chip_ns,
            link=self.link,
            link_bytes=_PAGE)
        result = self.ssd.submit_batch(io_batch)
        return MemoryServiceBatch(
            latency_ns=np.asarray(result.service_latency_ns,
                                  dtype=np.float64))

    def page_caches(self) -> list:
        return ["page_buffer"] if self.strategy == "ull-buff" else []

    def collect_energy(self, account: EnergyAccount) -> None:
        account.charge_nvdimm(active_ns=self._nvdimm_busy_ns,
                              bytes_moved=self.nvdimm.dram.bytes_total)
        account.charge_flash(self.ssd.fil.page_reads, self.ssd.fil.page_programs)
        account.charge_link(pcie_bytes=int(self.link.bytes_transferred))

    def extra_statistics(self) -> Dict[str, float]:
        stats = super().extra_statistics()
        stats.update(self.page_buffer.statistics("page_buffer"))
        return stats
