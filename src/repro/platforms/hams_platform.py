"""HAMS platforms: the four evaluated configurations of the proposed design.

``hams-LP`` / ``hams-LE`` wrap the loosely-coupled (baseline) controller —
NVDIMM on DDR4, ULL-Flash behind PCIe/NVMe — in persist and extend mode;
``hams-TP`` / ``hams-TE`` wrap the aggressively integrated controller with
the register-based DDR4 interface and no SSD-internal DRAM.

From the platform's point of view HAMS is just memory: every off-chip
reference is handed to the :class:`~repro.core.hams_controller.HAMSController`
and the full latency is charged to the application (the paper's Figure 17
classifies HAMS storage accesses as LD/ST latency, not as OS or SSD time).

Batched replay note: the controller's tag array, eviction journal and
ULL-Flash queues make each access depend on request order and issue time —
but the *classification* (tag probes, dirty bits, direct-mapped installs)
is clock-free.  :meth:`HAMSPlatform.service_batch` therefore splits the
datapath: one scalar-order
:meth:`~repro.core.hams_controller.HAMSController.classify_batch` walk
resolves every hit/miss, victim and NVDIMM charge up front, a tight
timeline-cursor fold reproduces each hit's clock-relative latency bit for
bit, and only the misses — engine waits, NVMe issues, background-eviction
parking — replay against the device at their exact scalar issue clocks
through :meth:`~repro.core.hams_controller.HAMSController.replay_miss`.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..config import SystemConfig
from ..core.hams_controller import HAMSController
from ..core.persistency import RecoveryReport
from ..energy.accounting import EnergyAccount
from ..energy.models import EnergyModel
from ..workloads.trace import WorkloadTrace
from .base import (
    MemoryRequestBatch,
    MemoryServiceBatch,
    MemoryServiceResult,
    Platform,
)

_VARIANTS = {
    "hams-LP": ("loose", "persist"),
    "hams-LE": ("loose", "extend"),
    "hams-TP": ("tight", "persist"),
    "hams-TE": ("tight", "extend"),
}


class HAMSPlatform(Platform):
    """A system whose entire memory expansion is one HAMS controller."""

    def __init__(self, config: SystemConfig, variant: str = "hams-TE") -> None:
        if variant not in _VARIANTS:
            raise ValueError(
                f"unknown HAMS variant {variant!r}; expected one of "
                f"{sorted(_VARIANTS)}")
        integration, mode = _VARIANTS[variant]
        config = config.with_hams(integration=integration, mode=mode)
        super().__init__(config)
        self.variant = variant
        self.name = variant
        self.controller = HAMSController(config)

    # -- preparation -------------------------------------------------------------

    def prepare(self, trace: WorkloadTrace) -> None:
        """Precondition the ULL-Flash so the dataset is fully mapped."""
        self.controller.ssd.precondition_dataset(trace.dataset_bytes)

    # -- the hardware datapath -------------------------------------------------------

    def service_memory_access(self, address: int, size_bytes: int,
                              is_write: bool, at_ns: float) -> MemoryServiceResult:
        result = self.controller.access(address, size_bytes, is_write, at_ns)
        return MemoryServiceResult(latency_ns=result.latency_ns)

    def service_batch(self, batch: MemoryRequestBatch) -> MemoryServiceBatch:
        """Vectorized service around the clock-free tag-array walk.

        One :meth:`~repro.core.hams_controller.HAMSController.classify_batch`
        walk resolves hits, misses, victims and the whole NVDIMM charge
        schedule; the fold below then reconstructs each request's exact
        scalar issue clock from the batch timeline, computes every hit's
        latency in place (``((now + probe) + serve) - now`` — the same
        float-rounding path the scalar loop takes) and replays only the
        misses against the engine/ULL-Flash via
        :meth:`~repro.core.hams_controller.HAMSController.replay_miss`, all
        of them stepping one :meth:`~repro.flash.ssd.SSD.walk` opened for
        the chunk.  Bit-identical to the scalar path —
        ``tests/test_batched_replay.py`` is the contract.
        """
        count = len(batch)
        if count == 0:
            return MemoryServiceBatch(latency_ns=np.empty(0))
        controller = self.controller
        addresses = batch.addresses
        sizes = batch.sizes
        # Out-of-range requests must raise mid-walk exactly where the
        # scalar loop would; hand those batches to the per-request default.
        if (int(addresses.min()) < 0 or int(sizes.min()) <= 0
                or int((addresses + sizes).max())
                > controller.mos_capacity_bytes):
            return super().service_batch(batch)

        plan = controller.classify_batch(addresses, sizes, batch.writes)
        probe = plan.probe_ns
        hits = plan.hits.tolist()
        # Per-hit NVDIMM delay component, exactly as the scalar result
        # accumulates it: (0.0 + probe) + serve.
        nv_hit = (probe + plan.serve_ns).tolist()
        serve = plan.serve_ns.tolist()
        sizes_list = sizes.tolist()
        writes_list = batch.writes.tolist()
        on_chip = batch.on_chip_ns.tolist()
        addends = batch.timeline.addends.tolist()
        slots = batch.timeline.service_slots.tolist()

        latency = [0.0] * count
        delays = controller.delays
        s_nvdimm = delays.nvdimm_ns
        s_dma = delays.dma_ns
        s_ssd = delays.ssd_ns
        s_wait = delays.wait_ns
        miss_iter = iter(plan.misses)
        next_miss = next(miss_iter, None)
        replay_miss = controller.replay_miss
        now = batch.start_ns
        cursor = 0
        with controller.ssd.walk() as step:
            for j in range(count):
                slot = slots[j]
                while cursor < slot:
                    now += addends[cursor]
                    cursor += 1
                cursor = slot + 1
                if hits[j]:
                    finish = (now + probe) + serve[j]
                    lat = finish - now
                    s_nvdimm += nv_hit[j]
                else:
                    _, address, decomposed, lookup = next_miss
                    result = replay_miss(address, decomposed, lookup,
                                         sizes_list[j], writes_list[j],
                                         now, step)
                    lat = result.finish_ns - now
                    s_nvdimm += result.nvdimm_ns
                    s_dma += result.dma_ns
                    s_ssd += result.ssd_ns
                    s_wait += result.wait_ns
                    next_miss = next(miss_iter, None)
                latency[j] = lat
                now += on_chip[j] + lat
        delays.nvdimm_ns = s_nvdimm
        delays.dma_ns = s_dma
        delays.ssd_ns = s_ssd
        delays.wait_ns = s_wait
        return MemoryServiceBatch(
            latency_ns=np.array(latency, dtype=np.float64))

    # -- persistency passthrough ---------------------------------------------------------

    def power_failure(self, at_ns: float) -> float:
        return self.controller.power_failure(at_ns)

    def recover(self, at_ns: float) -> RecoveryReport:
        return self.controller.recover(at_ns)

    # -- energy -------------------------------------------------------------------

    def collect_energy(self, account: EnergyAccount) -> None:
        controller = self.controller
        account.charge_nvdimm(active_ns=controller.nvdimm.dram.busy_ns,
                              bytes_moved=controller.nvdimm.dram.bytes_total)
        ssd = controller.ssd
        if ssd.buffer.enabled:
            buffer_accesses = (ssd.buffer.stats.read_hits
                               + ssd.buffer.stats.write_hits
                               + ssd.buffer.stats.read_misses
                               + ssd.buffer.stats.write_misses)
            account.charge_internal_dram(buffer_accesses * ssd.page_size)
        account.charge_flash(
            ssd.fil.page_reads + controller.background_flash_reads,
            ssd.fil.page_programs + controller.background_flash_programs)
        link_bytes = int(controller.link.bytes_transferred
                         + controller.background_link_bytes)
        if controller.hams_config.is_tight:
            account.charge_link(ddr_bytes=link_bytes)
        else:
            account.charge_link(pcie_bytes=link_bytes)

    def energy_model(self) -> EnergyModel:
        return EnergyModel(self.config.energy,
                           self.config.nvdimm.capacity_bytes,
                           ssd_internal_dram_present=not
                           self.controller.hams_config.is_tight)

    # -- reporting -------------------------------------------------------------------

    def memory_delay_breakdown(self) -> Dict[str, float]:
        return self.controller.memory_delay_breakdown()

    def extra_statistics(self) -> Dict[str, float]:
        stats = super().extra_statistics()
        stats.update({f"hams_{key}": value
                      for key, value in self.controller.statistics().items()})
        stats["nvdimm_cache_hit_rate"] = self.controller.hit_rate
        stats["dma_overhead_fraction"] = self.controller.dma_overhead_fraction()
        return stats
