"""DDR4 bus shared by NVDIMM(s) and, in advanced HAMS, the unboxed ULL-Flash.

The aggressive integration of Section IV-C puts the ULL-Flash NVMe controller
directly on a DDR4 channel next to the NVDIMM.  Two consequences are
modelled here:

* **Bandwidth** — page movements between flash and NVDIMM now ride the
  ~20 GB/s DDR4 channel instead of the ~4 GB/s PCIe link, and the data no
  longer needs PCIe packet encapsulation.
* **Arbitration** — because both the HAMS cache logic (serving MMU requests)
  and the NVMe controller (doing DMA) can touch the NVDIMM, a *lock
  register* hands the bus to the NVMe controller for the duration of a DMA
  and back (Section V-A, Figure 12).
"""

from __future__ import annotations

from typing import Dict

from ..config import DDRConfig
from .link import Link


class LockRegister:
    """The single-bit lock that arbitrates NVDIMM access on the shared bus.

    HAMS sets the register to 1 (the NVMe controller becomes bus master)
    and the controller resets it to 0 when its DMA finishes.  The lock is
    busy until the previous holder's release has landed, regardless of when
    (in wall-clock order) that release was recorded: an acquisition
    arriving before that point is contended and waits for it, which
    experiments observe through the counters.  The acquire -> DMA ->
    release sequence itself is one recurrence,
    :meth:`repro.core.register_interface.RegisterInterface.transfer`, which
    updates every field here; the lock is never held between two calls.
    """

    def __init__(self, toggle_ns: float) -> None:
        self.toggle_ns = toggle_ns
        self.held_since_ns = 0.0
        self.acquisitions = 0
        self.contended_acquisitions = 0
        self.total_held_ns = 0.0
        self.release_at_ns = 0.0

    def statistics(self) -> Dict[str, float]:
        return {
            "acquisitions": float(self.acquisitions),
            "contended_acquisitions": float(self.contended_acquisitions),
            "total_held_ns": self.total_held_ns,
        }


class DDR4Bus(Link):
    """One DDR4 channel used as the HAMS <-> ULL-Flash datapath.

    The register interface
    (:class:`~repro.core.register_interface.RegisterInterface`) drives it:
    command bursts and lock-arbitrated DMAs reserve the channel through
    this object's horizon and counters.
    """

    def __init__(self, config: DDRConfig) -> None:
        super().__init__()
        self.config = config
        self.lock = LockRegister(config.lock_register_ns)

    def raw_transfer_time(self, size_bytes: int) -> float:
        return size_bytes / self.config.channel_bw_bytes_per_ns

    def per_transfer_overhead(self, size_bytes: int) -> float:
        """Row activation plus CAS latency for the first burst of a transfer."""
        return self.config.tRCD_ns + self.config.tCL_ns
