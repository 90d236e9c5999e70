"""Component power/energy models.

The paper derives its energy numbers from NAND datasheets, the MICRON DDR4
power calculator and McPAT (Section VI-A).  We reproduce the same structure:
each component has an active power, an idle power, and (for the flash and
the interconnects) a per-operation or per-byte energy.  Figure 19 then
reports, per platform and workload, the breakdown across CPU, system memory
(NVDIMM), SSD-internal DRAM, and Z-NAND.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import EnergyConfig
from ..units import to_GB


@dataclass(frozen=True)
class ComponentPowerModel:
    """Active/idle power pair for one component."""

    name: str
    active_w: float
    idle_w: float

    def energy_nj(self, active_ns: float, idle_ns: float) -> float:
        """Energy in nanojoules for the given active and idle durations."""
        if active_ns < 0 or idle_ns < 0:
            raise ValueError("durations cannot be negative")
        return self.active_w * active_ns + self.idle_w * idle_ns


class EnergyModel:
    """Derives per-component energy from activity counters and durations."""

    def __init__(self, config: EnergyConfig, nvdimm_capacity_bytes: int,
                 ssd_internal_dram_present: bool = True) -> None:
        self.config = config
        capacity_gb = max(1.0, to_GB(nvdimm_capacity_bytes))
        self.cpu = ComponentPowerModel("cpu", config.cpu_active_w,
                                       config.cpu_idle_w)
        self.nvdimm = ComponentPowerModel(
            "nvdimm",
            config.dram_active_w_per_gb * capacity_gb,
            config.dram_idle_w_per_gb * capacity_gb)
        self.internal_dram = ComponentPowerModel(
            "internal_dram",
            config.ssd_internal_dram_active_w if ssd_internal_dram_present else 0.0,
            config.ssd_internal_dram_idle_w if ssd_internal_dram_present else 0.0)
        self.ssd_internal_dram_present = ssd_internal_dram_present

    # -- component energies -------------------------------------------------------

    def cpu_energy_nj(self, busy_ns: float, idle_ns: float) -> float:
        """CPU package energy: busy while computing, idle while stalled on I/O."""
        return self.cpu.energy_nj(busy_ns, idle_ns)

    def nvdimm_energy_nj(self, active_ns: float, idle_ns: float,
                         bytes_moved: int) -> float:
        """NVDIMM energy: background power plus per-byte access energy."""
        background = self.nvdimm.energy_nj(active_ns, idle_ns)
        access = bytes_moved * self.config.ddr_pj_per_byte / 1000.0
        return background + access

    def internal_dram_energy_nj(self, duration_ns: float,
                                bytes_moved: int) -> float:
        """SSD-internal DRAM energy; zero when the buffer has been removed.

        The paper notes this buffer draws ~17 % more power than a 32-chip
        flash complex, which is why the advanced HAMS deletes it.
        """
        if not self.ssd_internal_dram_present:
            return 0.0
        background = self.internal_dram.energy_nj(duration_ns * 0.3,
                                                  duration_ns * 0.7)
        access = bytes_moved * self.config.ddr_pj_per_byte / 1000.0
        return background + access

    def znand_energy_nj(self, page_reads: int, page_programs: int,
                        duration_ns: float) -> float:
        """Z-NAND energy: per-operation array energy plus idle background."""
        if page_reads < 0 or page_programs < 0:
            raise ValueError("operation counts cannot be negative")
        operations = (page_reads * self.config.znand_read_nj_per_page
                      + page_programs * self.config.znand_program_nj_per_page)
        background = self.config.znand_idle_w * duration_ns
        return operations + background

    def interconnect_energy_nj(self, pcie_bytes: int, ddr_bytes: int) -> float:
        """Per-byte link energy (PCIe encapsulation costs more than DDR)."""
        return (pcie_bytes * self.config.pcie_pj_per_byte
                + ddr_bytes * self.config.ddr_pj_per_byte) / 1000.0
