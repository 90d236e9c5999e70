"""NVDIMM-C platform: flash on the DRAM PHY, migration only during refresh.

NVDIMM-C [42] connects a flash device to the DRAM physical interface so it
shares the memory channel with DRAM, using the DRAM as a cache of the flash.
To keep the memory controller and the on-DIMM SSD controller from competing
for the channel, data migration between DRAM and flash is only allowed
during DRAM refresh periods — which stretches a single page fetch to as much
as ~48 us even though the Z-NAND read itself takes 3 us (Section VI-B).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..config import SystemConfig
from ..energy.accounting import EnergyAccount
from ..flash.ssd import SSD
from ..host.os_stack import PageCache
from ..memory.nvdimm import NVDIMM
from ..numerics import sequential_add
from ..units import KB, us
from ..workloads.trace import WorkloadTrace
from .base import (
    MemoryRequestBatch,
    MemoryServiceBatch,
    Platform,
)

_PAGE = KB(4)


class NvdimmCPlatform(Platform):
    """DRAM-cached flash DIMM with refresh-window-limited migration.

    The DRAM cache is a stateful LRU whose hit/miss interleaving — and
    whose migration reads' dependence on the request clock and SSD channel
    history — make every request order- and time-dependent.
    :meth:`service_batch` nevertheless vectorizes the replay: one
    order-exact :meth:`~repro.host.os_stack.PageCache.access_batch` walk
    classifies the whole batch and captures the per-miss eviction schedule,
    the DRAM latencies fold in one vectorized
    :meth:`~repro.memory.nvdimm.NVDIMM.access_batch` call, and only the
    misses — whose migrations genuinely depend on the clock — replay
    against the SSD at exactly reconstructed issue times
    (:meth:`~repro.platforms.base.MemoryRequestBatch.service_page_cached`),
    stepping one :meth:`~repro.flash.ssd.SSD.walk` opened for the batch.
    """

    name = "nvdimm-C"

    def __init__(self, config: SystemConfig,
                 migration_latency_ns: float = us(48),
                 migration_granularity_bytes: int = KB(64)) -> None:
        super().__init__(config)
        self.dram = NVDIMM(config.nvdimm)
        self.ssd = SSD(config.ssd)
        self.dram_cache = PageCache(config.nvdimm.cacheable_bytes, _PAGE)
        # The paper quotes up to 48 us to move data for one miss because the
        # transfer must wait for (and fit into) DRAM refresh windows; the
        # on-DIMM controller migrates a larger chunk per window so the cost
        # is amortised over the OS pages it covers.
        self.migration_latency_ns = migration_latency_ns
        self.migration_granularity_bytes = migration_granularity_bytes
        self._pages_per_migration = max(1, migration_granularity_bytes // _PAGE)
        self._dram_busy_ns = 0.0
        self.migrations = 0

    def prepare(self, trace: WorkloadTrace) -> None:
        self.ssd.precondition_dataset(trace.dataset_bytes)

    def _chunk_first(self, page: int) -> int:
        """First OS page of the migration chunk covering *page*."""
        return (page // self._pages_per_migration) * self._pages_per_migration

    def _install_migration_chunk(self, page: int,
                                 is_write: bool) -> List[Tuple[int, bool]]:
        """Install the migration chunk covering *page*; returns evictions.

        The on-DIMM controller moves a whole chunk per refresh window, so a
        miss installs every OS page the chunk covers (the faulting access's
        dirtiness lands on the chunk head, as the controller tracks
        dirtiness at migration granularity).  Also the install policy of the
        batched :meth:`~repro.host.os_stack.PageCache.access_batch` walk.
        """
        return self.dram_cache.install_run(self._chunk_first(page),
                                           self._pages_per_migration,
                                           is_write)

    def _migrate_chunk(self, page: int, evictions: List[Tuple[int, bool]],
                       at_ns: float, step) -> float:
        """Charge one refresh-window migration plus its dirty writebacks,
        each flash request one *step* of an open :meth:`SSD.walk`."""
        chunk_first = self._chunk_first(page)
        finish = step((False, chunk_first * _PAGE,
                       self.migration_granularity_bytes, at_ns, False))
        migration_ns = max(self.migration_latency_ns, finish - at_ns)
        for victim, victim_dirty in evictions:
            if victim_dirty:
                step((True, victim * _PAGE, _PAGE, at_ns + migration_ns,
                      False))
                # Mostly overlapped with the migration.
                migration_ns += self.migration_latency_ns * 0.1
        return migration_ns

    def service_batch(self, batch: MemoryRequestBatch) -> MemoryServiceBatch:
        """Vectorized service around the order-exact batched LRU walk.

        One :meth:`~repro.host.os_stack.PageCache.access_batch` walk (with
        the chunk-install policy) yields the hit mask and the per-miss
        eviction schedule, the DRAM cost of every request folds in one
        vectorized call, and only the misses replay against the SSD at
        their exact scalar-loop issue clocks.  Bit-identical to the per-access
        reference of ``tests/oracles/`` — ``tests/test_batched_replay.py``
        is the contract.
        """
        if len(batch) == 0:
            return MemoryServiceBatch(latency_ns=np.empty(0))
        pages = batch.addresses // _PAGE
        walk = self.dram_cache.access_batch(
            pages, batch.writes, install=self._install_migration_chunk,
            tenants=batch.tenant_ids)
        dram_latency = self.dram.access_batch(batch.sizes, batch.writes)
        self._dram_busy_ns = sequential_add(self._dram_busy_ns, dram_latency)
        self.migrations += walk.miss_count
        # Only the misses read the scalar views; all-hit chunks skip them.
        pages_list = pages.tolist() if walk.miss_count else []
        dram_latency_list = dram_latency.tolist() if walk.miss_count else []
        evictions = walk.evictions

        def miss_service(k: int, index: int, now: float):
            migration_ns = self._migrate_chunk(pages_list[index],
                                               evictions[k], now, step)
            return migration_ns + dram_latency_list[index], 0.0, 0.0

        with self.ssd.walk() as step:
            return batch.service_page_cached(walk.hits, dram_latency,
                                             walk.miss_indices, miss_service)

    def page_caches(self) -> list:
        return ["dram_cache"]

    def collect_energy(self, account: EnergyAccount) -> None:
        account.charge_nvdimm(active_ns=self._dram_busy_ns,
                              bytes_moved=self.dram.dram.bytes_total)
        account.charge_flash(self.ssd.fil.page_reads, self.ssd.fil.page_programs)
        account.charge_link(ddr_bytes=self.migrations * _PAGE)

    def extra_statistics(self) -> Dict[str, float]:
        stats = super().extra_statistics()
        stats.update(self.dram_cache.statistics("dram_cache"))
        stats["migrations"] = float(self.migrations)
        return stats
