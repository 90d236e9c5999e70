"""Memory-device substrate: DDR4 DRAM, NVDIMM-N and Optane DC PMM."""

from .dram import DRAMDevice
from .nvdimm import NVDIMM, NVDIMMState
from .optane import OptaneDCPMM

__all__ = [
    "DRAMDevice",
    "NVDIMM",
    "NVDIMMState",
    "OptaneDCPMM",
]
