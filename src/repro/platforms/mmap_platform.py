"""The MMF (memory-mapped file) baseline platform.

This is the conventional software path of Section II-B: the dataset lives on
an SSD, ``mmap`` exposes it to the application, and every first touch of a
page raises a page fault that walks the whole storage stack — page-fault
handler, file system, blk-mq, NVMe driver — before the data lands in the OS
page cache held in host DRAM.  Subsequent touches of resident pages run at
DRAM speed; evictions of dirty pages go back down the same stack.

The SSD behind the file is configurable (``ull-flash``, ``nvme-ssd`` or
``sata-ssd``) which is exactly the comparison of Figure 6.

Batched replay: a hit depends only on page-cache state, and readahead keys
on fault adjacency — a function of the miss sequence alone — so one
order-exact :meth:`~repro.host.os_stack.PageCache.access_batch` walk, whose
install policy is the fault install (readahead included), classifies a
whole batch; the DRAM charge folds in one vectorized call, and only the
faults replay against the storage stack at their exact issue clocks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..config import SystemConfig
from ..energy.accounting import EnergyAccount
from ..flash.ssd import SSD, make_ssd
from ..host.os_stack import OSStorageStack, PageCache
from ..interconnect.link import Link
from ..interconnect.pcie import PCIeLink
from ..interconnect.sata import SATALink
from ..memory.nvdimm import NVDIMM
from ..numerics import sequential_add
from ..nvme.controller import NVMeController
from ..units import KB
from ..workloads.trace import WorkloadTrace
from .base import (
    MemoryRequestBatch,
    MemoryServiceBatch,
    MemoryServiceResult,
    Platform,
)

OS_PAGE_BYTES = KB(4)


class MmapPlatform(Platform):
    """NVDIMM + SSD glued together by ``mmap`` and the Linux storage stack."""

    name = "mmap"

    def __init__(self, config: SystemConfig, ssd_kind: str = "ull-flash",
                 ssd: Optional[SSD] = None) -> None:
        super().__init__(config)
        self.ssd_kind = ssd_kind
        if ssd is not None:
            self.ssd = ssd
        elif ssd_kind == "ull-flash":
            # Use the (scaled) configured ULL-Flash so capacities line up.
            self.ssd = SSD(config.ssd)
        else:
            self.ssd = make_ssd(ssd_kind,
                                capacity_bytes=config.ssd.geometry
                                .usable_capacity_bytes)
        self.link: Link = (SATALink(config.sata) if ssd_kind == "sata-ssd"
                           else PCIeLink(config.pcie))
        self.controller = NVMeController(self.ssd, self.link, config.nvme)
        self.nvdimm = NVDIMM(config.nvdimm)
        self.page_cache = PageCache(config.nvdimm.cacheable_bytes, OS_PAGE_BYTES)
        self.os_stack = OSStorageStack(config.os_stack, OS_PAGE_BYTES)
        self._nvdimm_busy_ns = 0.0
        self._last_faulted_page = -2
        self.major_faults = 0
        self.readahead_fills = 0
        self.writebacks = 0

    # -- preparation -------------------------------------------------------------

    def prepare(self, trace: WorkloadTrace) -> None:
        """Precondition the SSD so every dataset page is mapped (warm media)."""
        self.ssd.precondition_dataset(trace.dataset_bytes)

    # -- the software datapath -------------------------------------------------------

    def service_memory_access(self, address: int, size_bytes: int,
                              is_write: bool, at_ns: float) -> MemoryServiceResult:
        page = address // OS_PAGE_BYTES
        hit = self.page_cache.access(page, is_write)
        if not hit:
            readahead, victims = self._install_fault(page, is_write)
            with self.ssd.walk() as step:
                os_ns, storage_ns = self._fault_io(page, readahead, victims,
                                                   at_ns, step)
        # The reference completes from DRAM (after the fault, on a miss).
        dram = self.nvdimm.access(min(size_bytes, OS_PAGE_BYTES), is_write)
        self._nvdimm_busy_ns += dram.latency_ns
        if hit:
            return MemoryServiceResult(latency_ns=dram.latency_ns)
        return MemoryServiceResult(latency_ns=dram.latency_ns, os_ns=os_ns,
                                   storage_ns=storage_ns)

    def service_batch(self, batch: MemoryRequestBatch) -> MemoryServiceBatch:
        """One page-cache walk for the whole batch; only faults replay.

        The walk's install policy is the fault install, so residency,
        readahead and the dirty-victim schedule are settled up front; every
        request's DRAM charge folds in one vectorized call, and the faults
        replay against the OS stack and the SSD at their exact scalar-loop
        issue clocks (:meth:`MemoryRequestBatch.service_page_cached`), all
        of them stepping one :meth:`~repro.flash.ssd.SSD.walk` opened for
        the chunk.
        """
        if len(batch) == 0:
            return MemoryServiceBatch(latency_ns=np.empty(0))
        pages = batch.addresses // OS_PAGE_BYTES
        readaheads: List[int] = []

        def install(page: int, is_write: bool) -> List[Tuple[int, bool]]:
            readahead, victims = self._install_fault(page, is_write)
            readaheads.append(readahead)
            return victims

        walk = self.page_cache.access_batch(pages, batch.writes,
                                            install=install)
        dram_latency = self.nvdimm.access_batch(
            np.minimum(batch.sizes, OS_PAGE_BYTES), batch.writes)
        self._nvdimm_busy_ns = sequential_add(self._nvdimm_busy_ns,
                                              dram_latency)
        # Only the faults read the scalar views; all-hit chunks skip them.
        pages_list = pages.tolist() if walk.miss_count else []
        dram_latency_list = dram_latency.tolist() if walk.miss_count else []
        victims = walk.evictions

        def miss_service(k: int, index: int, now: float):
            os_ns, storage_ns = self._fault_io(pages_list[index],
                                               readaheads[k], victims[k], now,
                                               step)
            return dram_latency_list[index], os_ns, storage_ns

        with self.ssd.walk() as step:
            return batch.service_page_cached(walk.hits, dram_latency,
                                             walk.miss_indices, miss_service)

    def _install_fault(self, page: int, is_write: bool
                       ) -> Tuple[int, List[Tuple[int, bool]]]:
        """Page-cache side of a major fault: install the page + readahead.

        Sequential faults benefit from readahead: one larger device read
        covers the next pages, which then hit in the page cache.  Only the
        faulting page inherits the access's dirtiness.  Returns the
        readahead page count and the dirty victims the installs evicted, in
        install order.  A lone fault is one :meth:`PageCache.install`, a
        readahead one :meth:`PageCache.install_run`.
        """
        sequential = page == self._last_faulted_page + 1
        self._last_faulted_page = page
        if not sequential:
            evicted = self.page_cache.install(page, dirty=is_write)
            return 1, ([evicted] if evicted is not None and evicted[1]
                       else [])
        readahead = self.os_stack.readahead_pages
        self.readahead_fills += readahead - 1
        victims = [evicted for evicted
                   in self.page_cache.install_run(page, readahead, is_write)
                   if evicted[1]]
        return readahead, victims

    def _fault_io(self, page: int, readahead: int,
                  victims: List[Tuple[int, bool]], at_ns: float,
                  step) -> Tuple[float, float]:
        """Storage side of a major fault: software stack, read, writebacks.

        Returns the fault's ``(os_ns, storage_ns)``.  The read and, once it
        has landed, each dirty writeback is one NVMe
        :meth:`~repro.nvme.controller.NVMeController.round_trip` through
        *step*, the step of an open :meth:`~repro.flash.ssd.SSD.walk`.
        """
        self.major_faults += 1
        fault = self.os_stack.fault_cost(needs_io=True)
        os_ns = fault.mmap_ns + fault.io_stack_ns + fault.copy_ns
        round_trip = self.controller.round_trip
        read_at = at_ns + os_ns
        storage_ns = round_trip(step, False, page * OS_PAGE_BYTES,
                                OS_PAGE_BYTES * readahead, False,
                                read_at)[0] - read_at
        writeback_at = at_ns + os_ns + storage_ns
        writeback_os_ns = 0.0
        for victim, _ in victims:
            # Writeback is mostly asynchronous (pdflush-style): a tenth of
            # the device time lands on the faulting thread, the software
            # cost of building and submitting the bio all of it.
            self.writebacks += 1
            software_ns = self.os_stack.writeback_cost()
            finish = round_trip(step, True, victim * OS_PAGE_BYTES,
                                OS_PAGE_BYTES, False, writeback_at)[0]
            writeback_os_ns += software_ns + (finish - writeback_at) * 0.1
        return os_ns + writeback_os_ns, storage_ns

    # -- energy -------------------------------------------------------------------

    def collect_energy(self, account: EnergyAccount) -> None:
        account.charge_nvdimm(active_ns=self._nvdimm_busy_ns,
                              bytes_moved=self.nvdimm.dram.bytes_total)
        buffer_bytes = ((self.ssd.buffer.stats.read_hits
                         + self.ssd.buffer.stats.write_hits
                         + self.ssd.buffer.stats.read_misses
                         + self.ssd.buffer.stats.write_misses)
                        * self.ssd.page_size)
        account.charge_internal_dram(buffer_bytes)
        account.charge_flash(self.ssd.fil.page_reads, self.ssd.fil.page_programs)
        account.charge_link(pcie_bytes=int(self.link.bytes_transferred))

    # -- reporting -------------------------------------------------------------------

    def extra_statistics(self) -> Dict[str, float]:
        stats = super().extra_statistics()
        stats.update({
            "major_faults": float(self.major_faults),
            "readahead_fills": float(self.readahead_fills),
            "writebacks": float(self.writebacks),
            "page_cache_hit_rate": self.page_cache.hit_rate,
        })
        stats.update({f"os_{key}": value
                      for key, value in self.os_stack.statistics().items()})
        return stats
