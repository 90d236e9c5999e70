"""Energy accounting: accumulates per-component energy for one workload run.

The four categories match Figure 19: CPU, system memory (NVDIMM/DRAM),
SSD-internal DRAM, and Z-NAND.  Platforms feed activity counters into an
:class:`EnergyAccount` which converts them through the
:class:`~repro.energy.models.EnergyModel` and produces a breakdown that can
be normalised against the ``mmap`` baseline exactly as the figure does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from .models import EnergyModel


@dataclass
class EnergyBreakdown:
    """Energy per component for one run, in nanojoules."""

    cpu_nj: float = 0.0
    nvdimm_nj: float = 0.0
    internal_dram_nj: float = 0.0
    znand_nj: float = 0.0

    @property
    def total_nj(self) -> float:
        return self.cpu_nj + self.nvdimm_nj + self.internal_dram_nj + self.znand_nj

    def normalised_to(self, baseline: "EnergyBreakdown") -> Dict[str, float]:
        """Each component divided by the *baseline total* (Figure 19 style)."""
        denominator = baseline.total_nj
        if denominator <= 0:
            raise ValueError("baseline energy must be positive")
        return {
            "cpu": self.cpu_nj / denominator,
            "nvdimm": self.nvdimm_nj / denominator,
            "internal_dram": self.internal_dram_nj / denominator,
            "znand": self.znand_nj / denominator,
            "total": self.total_nj / denominator,
        }

@dataclass
class EnergyAccount:
    """Activity counters a platform accumulates during a run."""

    cpu_busy_ns: float = 0.0
    cpu_idle_ns: float = 0.0
    nvdimm_active_ns: float = 0.0
    nvdimm_idle_ns: float = 0.0
    nvdimm_bytes: int = 0
    internal_dram_bytes: int = 0
    flash_page_reads: int = 0
    flash_page_programs: int = 0
    pcie_bytes: int = 0
    ddr_link_bytes: int = 0
    duration_ns: float = 0.0

    def charge_cpu(self, busy_ns: float, idle_ns: float = 0.0) -> None:
        self.cpu_busy_ns += busy_ns
        self.cpu_idle_ns += idle_ns

    def charge_nvdimm(self, active_ns: float, bytes_moved: int) -> None:
        self.nvdimm_active_ns += active_ns
        self.nvdimm_bytes += bytes_moved

    def charge_internal_dram(self, bytes_moved: int) -> None:
        self.internal_dram_bytes += bytes_moved

    def charge_flash(self, page_reads: int, page_programs: int) -> None:
        self.flash_page_reads += page_reads
        self.flash_page_programs += page_programs

    def charge_link(self, pcie_bytes: int = 0, ddr_bytes: int = 0) -> None:
        self.pcie_bytes += pcie_bytes
        self.ddr_link_bytes += ddr_bytes

    def finalise(self, duration_ns: float) -> None:
        """Fix the run duration; idle times are derived from it."""
        if duration_ns < 0:
            raise ValueError("duration cannot be negative")
        self.duration_ns = duration_ns
        self.cpu_idle_ns = max(0.0, duration_ns - self.cpu_busy_ns)
        self.nvdimm_idle_ns = max(0.0, duration_ns - self.nvdimm_active_ns)

    def breakdown(self, model: EnergyModel) -> EnergyBreakdown:
        """Convert the accumulated activity into per-component energy."""
        cpu = model.cpu_energy_nj(self.cpu_busy_ns, self.cpu_idle_ns)
        nvdimm = model.nvdimm_energy_nj(self.nvdimm_active_ns,
                                        self.nvdimm_idle_ns, self.nvdimm_bytes)
        internal = model.internal_dram_energy_nj(self.duration_ns,
                                                 self.internal_dram_bytes)
        znand = model.znand_energy_nj(self.flash_page_reads,
                                      self.flash_page_programs,
                                      self.duration_ns)
        link = model.interconnect_energy_nj(self.pcie_bytes, self.ddr_link_bytes)
        # Link energy is attributed to the memory system side of the path.
        return EnergyBreakdown(cpu_nj=cpu, nvdimm_nj=nvdimm + link,
                               internal_dram_nj=internal, znand_nj=znand)
