"""Interconnect models: PCIe, SATA, and the DDR4 bus with lock-register arbitration."""

from .link import Link
from .pcie import PCIeLink
from .sata import SATALink
from .ddr_bus import DDR4Bus, LockRegister

__all__ = [
    "Link",
    "PCIeLink",
    "SATALink",
    "DDR4Bus",
    "LockRegister",
]
