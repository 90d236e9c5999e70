"""Optane DC PMM platforms (``optane-P`` and ``optane-M``).

``optane-P`` runs the DIMM in App Direct mode: every reference goes to the
3D XPoint media, which is persistent but pays the 256 B internal granularity
penalty on fine-grained accesses (Rodinia/SQLite) and the media latency on
everything.  ``optane-M`` runs in Memory mode: the host DRAM becomes a
direct-mapped cache in front of the media, recovering most of the
performance at the cost of persistence (Section VI-B).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..config import SystemConfig
from ..energy.accounting import EnergyAccount
from ..energy.models import EnergyModel
from ..host.os_stack import PageCache
from ..memory.nvdimm import NVDIMM
from ..memory.optane import OptaneDCPMM
from ..numerics import sequential_add
from ..units import KB
from .base import (
    MemoryRequestBatch,
    MemoryServiceBatch,
    Platform,
)

_CACHE_PAGE = KB(4)


class OptanePlatform(Platform):
    """Optane DC PMM as main memory, in App Direct or Memory mode."""

    def __init__(self, config: SystemConfig, mode: str = "persist") -> None:
        super().__init__(config)
        if mode not in ("persist", "memory"):
            raise ValueError(f"unknown Optane mode {mode!r}")
        self.mode = mode
        self.name = "optane-P" if mode == "persist" else "optane-M"
        self.optane = OptaneDCPMM(config.optane)
        self.dram_cache_enabled = mode == "memory"
        self.dram = NVDIMM(config.nvdimm) if self.dram_cache_enabled else None
        self.dram_cache = (PageCache(config.nvdimm.capacity_bytes, _CACHE_PAGE)
                           if self.dram_cache_enabled else None)
        self._dram_busy_ns = 0.0

    def service_batch(self, batch: MemoryRequestBatch) -> MemoryServiceBatch:
        """Vectorized service in both Optane modes.

        In App Direct mode the media latency is clock-independent, so one
        :meth:`~repro.memory.optane.OptaneDCPMM.access_batch` call resolves
        the whole batch (the XPBuffer state machine runs inside it, in
        request order).  Memory mode fronts the media with a stateful LRU
        DRAM cache, resolved by the order-exact batched walk of
        :meth:`_service_batch_memory_mode`.
        """
        if self.dram_cache_enabled:
            return self._service_batch_memory_mode(batch)
        latency = self.optane.access_batch(batch.sizes, batch.writes)
        if batch.writes.any():
            # App Direct persistence: clwb + sfence on the store path.
            latency[batch.writes] += \
                self.config.optane.persist_write_overhead_ns
        return MemoryServiceBatch(latency_ns=latency)

    def _service_batch_memory_mode(self,
                                   batch: MemoryRequestBatch
                                   ) -> MemoryServiceBatch:
        """Memory-mode batch service: batched LRU walk + vectorized media.

        Every per-request cost in Memory mode is clock-independent, so the
        whole batch vectorizes once the DRAM cache's hit/miss/eviction
        interleaving is known: one order-exact
        :meth:`~repro.host.os_stack.PageCache.access_batch` walk captures
        it, the DRAM service of every request folds in one
        :meth:`~repro.memory.nvdimm.NVDIMM.access_batch` call, and the
        misses' media traffic — a 4 KB fetch each, plus a 4 KB writeback
        when the install evicted a dirty victim — replays through
        :meth:`~repro.memory.optane.OptaneDCPMM.access_batch` in exactly
        the scalar call order, preserving the XPBuffer state machine.

        The flash-backed platforms classify with the same stateful cache
        walk and fold the clock-free costs the same way, but their misses
        depend on the clock: they step one :meth:`repro.flash.ssd.SSD.walk`
        per miss instead of handing the device one schedule.
        """
        assert self.dram is not None and self.dram_cache is not None
        count = len(batch)
        if count == 0:
            return MemoryServiceBatch(latency_ns=np.empty(0))
        pages = batch.addresses // _CACHE_PAGE
        walk = self.dram_cache.access_batch(pages, batch.writes,
                                            tenants=batch.tenant_ids)
        dram_latency = self.dram.access_batch(batch.sizes, batch.writes)
        self._dram_busy_ns = sequential_add(self._dram_busy_ns, dram_latency)
        latency = dram_latency.copy()
        misses = walk.miss_indices
        if len(misses):
            dirty_victim = np.fromiter(map(bool, walk.evictions),
                                       dtype=bool, count=len(misses))
            writeback_count = int(np.count_nonzero(dirty_victim))
            # The scalar media-call schedule: per miss one 4 KB fetch read,
            # followed — when the install evicted a dirty victim — by one
            # 4 KB writeback write.  fetch_at[k] is the k-th miss's read
            # position in that interleaved sequence.
            writebacks_before = np.concatenate(
                (np.zeros(1, dtype=np.int64),
                 np.cumsum(dirty_victim, dtype=np.int64)[:-1]))
            fetch_at = np.arange(len(misses), dtype=np.int64) + writebacks_before
            schedule_writes = np.zeros(len(misses) + writeback_count,
                                       dtype=bool)
            schedule_writes[fetch_at[dirty_victim] + 1] = True
            schedule_sizes = np.full(len(schedule_writes), _CACHE_PAGE,
                                     dtype=np.int64)
            media_latency = self.optane.access_batch(schedule_sizes,
                                                     schedule_writes)
            # Same left-to-right accumulation as the scalar miss path:
            # fetch, then the dirty writeback, then the DRAM service.
            miss_latency = media_latency[fetch_at]
            miss_latency[dirty_victim] += media_latency[fetch_at[dirty_victim]
                                                        + 1]
            miss_latency += dram_latency[misses]
            latency[misses] = miss_latency
        return MemoryServiceBatch(latency_ns=latency)

    def page_caches(self) -> list:
        return ["dram_cache"] if self.dram_cache_enabled else []

    def collect_energy(self, account: EnergyAccount) -> None:
        if self.dram is not None:
            account.charge_nvdimm(active_ns=self._dram_busy_ns,
                                  bytes_moved=self.dram.dram.bytes_total)
        # The Optane media's energy is charged per internal byte moved; it is
        # attributed to the NVDIMM (system memory) category of Figure 19.
        account.charge_nvdimm(active_ns=0.0,
                              bytes_moved=self.optane.bytes_internal)

    def energy_model(self) -> EnergyModel:
        return EnergyModel(self.config.energy, self.optane.capacity_bytes,
                           ssd_internal_dram_present=False)

    def extra_statistics(self) -> Dict[str, float]:
        stats = super().extra_statistics()
        stats.update({f"optane_{key}": value
                      for key, value in self.optane.statistics().items()})
        if self.dram_cache is not None:
            stats.update(self.dram_cache.statistics("dram_cache"))
        return stats
