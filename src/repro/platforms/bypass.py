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

from typing import Dict, List

import numpy as np

from ..config import SystemConfig
from ..energy.accounting import EnergyAccount
from ..flash.ssd import SSD
from ..host.os_stack import PageCache
from ..interconnect.pcie import PCIeLink
from ..memory.nvdimm import NVDIMM
from ..numerics import sequential_add
from ..units import KB, MB
from ..workloads.trace import WorkloadTrace
from .base import (
    MemoryRequestBatch,
    MemoryServiceBatch,
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
        resolves in one vectorized call.  ``ull`` is the all-miss case —
        every access is a synchronous flash I/O whose next submission clock
        depends on the previous completion — served by one loop over an
        open walk (:meth:`_ull_replay`).  ``ull-buff`` fronts the flash
        with a DRAM page buffer: the order-exact batched LRU walk
        (:meth:`~repro.host.os_stack.PageCache.access_batch`) classifies
        the batch, the buffer hits fold into one vectorized NVDIMM call,
        and only the misses — whose flash reads and PCIe transfers are
        queued and history-dependent — replay at exact scalar issue clocks
        via :meth:`~repro.platforms.base.MemoryRequestBatch.service_page_cached`.
        """
        if self.strategy == "nvdimm":
            latency = self.nvdimm.access_batch(batch.sizes, batch.writes)
            self._nvdimm_busy_ns = sequential_add(self._nvdimm_busy_ns,
                                                  latency)
            return MemoryServiceBatch(latency_ns=latency)
        count = len(batch)
        if count == 0:
            return MemoryServiceBatch(latency_ns=np.empty(0))
        pages = batch.addresses // _PAGE
        if self.strategy == "ull":
            return MemoryServiceBatch(latency_ns=self._ull_replay(
                pages.tolist(), batch.writes.tolist(), batch.start_ns,
                batch.timeline.addends, batch.timeline.service_slots.tolist(),
                batch.on_chip_ns.tolist()))
        walk = self.page_buffer.access_batch(pages, batch.writes,
                                             tenants=batch.tenant_ids)
        hit_mask = walk.hits
        miss_indices = walk.miss_indices
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

    def _ull_replay(self, pages: List[int], writes: List[bool], now: float,
                    addends: np.ndarray, slots: List[int],
                    on_chip: List[float]) -> List[float]:
        """Replay ``ull`` accesses in order; returns their latencies.

        Each access is :meth:`_flash_access`: one step of an open
        :meth:`~repro.flash.ssd.SSD.walk` for the 4 KB page, then its PCIe
        transfer.  Access *k* issues at *now* plus
        ``addends[cursor:slots[k]]``, folded left to right as
        :meth:`MemoryRequestBatch.service_page_cached` folds them, and its
        own slot elapses as ``on_chip[k] + latency``.  The transfers run
        the :meth:`~repro.interconnect.link.Link.transfer` recurrence
        (``finish = (max(at, busy) + overhead) + raw``) on a local horizon,
        committed once at the end.
        """
        overhead = self.link.per_transfer_overhead(_PAGE)
        raw = self.link.raw_transfer_time(_PAGE)
        busy = self.link.busy_until_ns
        latencies: List[float] = []
        record = latencies.append
        addends_list = None  # materialised lazily, for short-gap folds only
        cursor = 0
        with self.ssd.walk() as step:
            for page, is_write, slot, chip in zip(pages, writes, slots,
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
                finish = step((is_write, page * _PAGE, _PAGE, now, False))
                start = finish if finish >= busy else busy
                busy = (start + overhead) + raw
                latency = (finish - now) + (busy - start)
                record(latency)
                now += chip + latency
        self.link.commit_transfers(len(latencies), _PAGE * len(latencies),
                                   busy)
        return latencies

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
