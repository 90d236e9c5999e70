"""NVDIMM-C platform: flash on the DRAM PHY, migration only during refresh.

NVDIMM-C [42] connects a flash device to the DRAM physical interface so it
shares the memory channel with DRAM, using the DRAM as a cache of the flash.
To keep the memory controller and the on-DIMM SSD controller from competing
for the channel, data migration between DRAM and flash is only allowed
during DRAM refresh periods — which stretches a single page fetch to as much
as ~48 us even though the Z-NAND read itself takes 3 us (Section VI-B).
"""

from __future__ import annotations

from typing import Dict, List

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
    classifies the whole batch and captures each miss's dirty victims,
    the DRAM latencies fold in one vectorized
    :meth:`~repro.memory.nvdimm.NVDIMM.access_batch` call, and only the
    misses — whose migrations genuinely depend on the clock — replay
    against the SSD at exactly reconstructed issue times, in one
    :meth:`_migration_replay` loop over one open
    :meth:`~repro.flash.ssd.SSD.walk`.
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

    def _install_migration_chunk(self, page: int, is_write: bool) -> List[int]:
        """Install the migration chunk covering *page*; returns the dirty
        victims' pages.

        The on-DIMM controller moves a whole chunk per refresh window, so a
        miss installs every OS page the chunk covers (the faulting access's
        dirtiness lands on the chunk head, as the controller tracks
        dirtiness at migration granularity).  The install policy of the
        batched :meth:`~repro.host.os_stack.PageCache.access_batch` walk.
        """
        chunk = self._pages_per_migration
        return self.dram_cache.install_run((page // chunk) * chunk, chunk,
                                           is_write)

    def service_batch(self, batch: MemoryRequestBatch) -> MemoryServiceBatch:
        """Vectorized service around the order-exact batched LRU walk.

        One :meth:`~repro.host.os_stack.PageCache.access_batch` walk (with
        the chunk-install policy) yields the hit mask and each miss's
        dirty victims, the DRAM cost of every request folds in one
        vectorized call, and only the misses replay against the SSD at
        their exact scalar-loop issue clocks (:meth:`_migration_replay`).
        Bit-identical to the per-access reference of ``tests/oracles/`` —
        ``tests/test_batched_replay.py`` is the contract.
        """
        if len(batch) == 0:
            return MemoryServiceBatch(latency_ns=np.empty(0))
        pages = batch.addresses // _PAGE
        walk = self.dram_cache.access_batch(
            pages, batch.writes, install=self._install_migration_chunk,
            tenants=batch.tenant_ids)
        dram_latency = self.dram.access_batch(batch.sizes, batch.writes)
        self._dram_busy_ns = sequential_add(self._dram_busy_ns, dram_latency)
        misses = walk.miss_indices
        latency = dram_latency.copy()
        if len(misses) == 0:
            return MemoryServiceBatch(latency_ns=latency)
        self.migrations += len(misses)
        addends = batch.timeline.addends.copy()
        slots = batch.timeline.service_slots
        hit_rows = np.flatnonzero(walk.hits)
        # The hits' slots elapse like any other timeline addend.
        addends[slots[hit_rows]] = (batch.on_chip_ns[hit_rows]
                                    + dram_latency[hit_rows])
        latency[misses] = self._migration_replay(
            pages[misses].tolist(), walk.evictions, batch.start_ns, addends,
            slots[misses].tolist(), batch.on_chip_ns[misses].tolist(),
            dram_latency[misses].tolist())
        return MemoryServiceBatch(latency_ns=latency)

    def _migration_replay(self, pages: List[int], victims: List[List[int]],
                          now: float, addends: np.ndarray, slots: List[int],
                          on_chip: List[float],
                          dram_latency: List[float]) -> List[float]:
        """Replay the misses' migrations in order; returns their latencies.

        Miss *k* issues at *now* plus ``addends[cursor:slots[k]]``, folded
        left to right as
        :meth:`~repro.platforms.base.MemoryRequestBatch.service_page_cached`
        folds them.  It reads the whole migration chunk covering its page
        in one flash request and waits at least one refresh window
        (``migration_latency_ns``) for it.  Each of its dirty victims
        (``victims[k]``) is then written back once the migration so far is
        over, each adding a tenth of a window, as a writeback mostly
        overlaps the migration.  The miss is served from DRAM after that,
        and its own slot elapses as ``on_chip[k] + latency``.  Every flash
        request is one step of one open :meth:`~repro.flash.ssd.SSD.walk`.
        """
        chunk = self._pages_per_migration
        chunk_bytes = self.migration_granularity_bytes
        window = self.migration_latency_ns
        writeback_ns = window * 0.1
        latencies: List[float] = []
        record = latencies.append
        addends_list = None  # materialised lazily, for short-gap folds only
        cursor = 0
        with self.ssd.walk() as step:
            for page, dirty, slot, chip, served in zip(
                    pages, victims, slots, on_chip, dram_latency):
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
                finish = step((False, (page // chunk) * chunk * _PAGE,
                               chunk_bytes, now, False))
                migration_ns = finish - now
                if window >= migration_ns:
                    migration_ns = window
                for victim in dirty:
                    step((True, victim * _PAGE, _PAGE, now + migration_ns,
                          False))
                    migration_ns += writeback_ns
                latency = migration_ns + served
                record(latency)
                now += chip + latency
        return latencies

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
