"""HAMS core: the hardware-automated Memory-over-Storage controller.

This package is the paper's primary contribution.  It contains:

* :mod:`~repro.core.tag_array` — the direct-mapped MoS tag-array embedded in
  NVDIMM cache lines (tag + valid/dirty/busy bits, Figure 11),
* :mod:`~repro.core.address_manager` — the 64-bit MoS address space that
  exposes the ULL-Flash capacity to the MMU and maps the pinned region,
* :mod:`~repro.core.nvme_engine` — the hardware NVMe queue engine that
  composes commands, rings doorbells and reaps completions without any OS
  involvement (modelled as one protocol recurrence over floats per
  command),
* :mod:`~repro.core.register_interface` — the advanced-HAMS SSD command
  generator that talks to the unboxed ULL-Flash over DDR4 (Figure 12),
* :mod:`~repro.core.hazard` — eviction-hazard and redundant-eviction
  avoidance via PRP-pool cloning, busy bits and the wait queue (Figure 14),
* :mod:`~repro.core.persistency` — journal tags and the power-failure
  recovery procedure (Figure 15),
* :mod:`~repro.core.hams_controller` — the top-level controller tying it all
  together in its four configurations (loose/tight x persist/extend).
"""

from .tag_array import MoSTagArray, TagEntry, TagLookup
from .address_manager import AddressManager, DecomposedAddress
from .nvme_engine import HardwareNVMeEngine
from .register_interface import RegisterInterface
from .hazard import HazardManager, WaitQueue
from .persistency import PersistencyController, RecoveryReport
from .hams_controller import HAMSController, HAMSAccessResult

__all__ = [
    "MoSTagArray",
    "TagEntry",
    "TagLookup",
    "AddressManager",
    "DecomposedAddress",
    "HardwareNVMeEngine",
    "RegisterInterface",
    "HazardManager",
    "WaitQueue",
    "PersistencyController",
    "RecoveryReport",
    "HAMSController",
    "HAMSAccessResult",
]
