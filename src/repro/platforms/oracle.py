"""The oracle platform: a 512 GB NVDIMM that holds every dataset entirely.

This is the upper bound the paper compares against (Figure 16): all data is
byte-addressable at DRAM latency, there is no storage device and no OS
storage stack on any path.  The only costs are the on-chip caches and the
DDR4 access itself.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict

from ..config import SystemConfig
from ..energy.accounting import EnergyAccount
from ..energy.models import EnergyModel
from ..memory.nvdimm import NVDIMM
from ..numerics import sequential_add
from ..units import GB
from .base import (
    MemoryRequestBatch,
    MemoryServiceBatch,
    Platform,
)


class OraclePlatform(Platform):
    """All-NVDIMM system: every access is a local DRAM access."""

    name = "oracle"

    def __init__(self, config: SystemConfig,
                 capacity_bytes: int | None = None) -> None:
        super().__init__(config)
        # The oracle DIMM is sized to hold any evaluated dataset; by default
        # it mirrors the 512 GB Optane capacity (scaled with everything else).
        capacity = (capacity_bytes if capacity_bytes is not None
                    else max(config.optane.capacity_bytes,
                             config.nvdimm.capacity_bytes))
        nvdimm_config = replace(config.nvdimm, capacity_bytes=capacity,
                                pinned_region_bytes=0)
        self.nvdimm = NVDIMM(nvdimm_config)
        self._nvdimm_busy_ns = 0.0

    def service_batch(self, batch: MemoryRequestBatch) -> MemoryServiceBatch:
        """Vectorized service: DRAM latency is clock-independent.

        One :meth:`~repro.memory.nvdimm.NVDIMM.access_batch` call resolves
        the whole batch; the busy-time counter folds in with bit-exact
        sequential accumulation so the replay agrees with the per-access
        reference to the last ulp.
        """
        latency = self.nvdimm.access_batch(batch.sizes, batch.writes)
        self._nvdimm_busy_ns = sequential_add(self._nvdimm_busy_ns, latency)
        return MemoryServiceBatch(latency_ns=latency)

    def collect_energy(self, account: EnergyAccount) -> None:
        account.charge_nvdimm(active_ns=self._nvdimm_busy_ns,
                              bytes_moved=self.nvdimm.dram.bytes_total)

    def energy_model(self) -> EnergyModel:
        return EnergyModel(self.config.energy, self.nvdimm.capacity_bytes,
                           ssd_internal_dram_present=False)

    def extra_statistics(self) -> Dict[str, float]:
        stats = super().extra_statistics()
        stats.update({f"nvdimm_{key}": value
                      for key, value in self.nvdimm.statistics().items()})
        return stats
