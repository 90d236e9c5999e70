"""NVDIMM-N module model.

An NVDIMM-N is DRAM plus a same-capacity backup flash, a supercapacitor and
multiplexers (Section II-A): the host sees plain DRAM latency, and on a power
failure the on-board controller isolates the DRAM from the bus and migrates
its contents to the backup flash (taking tens of seconds), restoring them on
the next boot.  The model tracks that state machine plus the *pinned region*
HAMS reserves for NVMe data structures, and delegates access timing to the
underlying :class:`~repro.memory.dram.DRAMDevice`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional

from ..config import NVDIMMConfig
from ..units import transfer_time_ns
from .dram import DRAMAccessResult, DRAMDevice


class NVDIMMState(Enum):
    """Operating state of the NVDIMM-N controller."""

    ONLINE = "online"
    BACKING_UP = "backing-up"
    OFFLINE = "offline"
    RESTORING = "restoring"


class NVDIMM:
    """A single NVDIMM-N module on a DDR4 channel."""

    def __init__(self, config: NVDIMMConfig) -> None:
        self.config = config
        self.dram = DRAMDevice(config.ddr, config.capacity_bytes)
        self.state = NVDIMMState.ONLINE
        self.backups_performed = 0
        self.restores_performed = 0
        self.last_backup_duration_ns = 0.0
        self.last_restore_duration_ns = 0.0

    # -- capacity layout ---------------------------------------------------------

    @property
    def capacity_bytes(self) -> int:
        return self.config.capacity_bytes

    @property
    def pinned_region_bytes(self) -> int:
        return self.config.pinned_region_bytes

    @property
    def cacheable_bytes(self) -> int:
        """Bytes available to the MoS cache (capacity minus the pinned region)."""
        return self.config.cacheable_bytes

    # -- accesses ---------------------------------------------------------------

    def access(self, size_bytes: int, is_write: bool) -> DRAMAccessResult:
        """DRAM-speed access; only legal while the module is online."""
        if self.state is not NVDIMMState.ONLINE:
            raise RuntimeError(
                f"NVDIMM access while {self.state.value}; the multiplexers "
                "isolate the DRAM during backup/restore")
        return self.dram.access(size_bytes, is_write)

    def access_batch(self, sizes, writes):
        """Vectorized :meth:`access` over whole request columns.

        Returns the per-access latency array; counters end up exactly as the
        equivalent scalar access sequence would leave them (see
        :meth:`~repro.memory.dram.DRAMDevice.access_batch`).
        """
        if self.state is not NVDIMMState.ONLINE:
            raise RuntimeError(
                f"NVDIMM access while {self.state.value}; the multiplexers "
                "isolate the DRAM during backup/restore")
        return self.dram.access_batch(sizes, writes)

    def line_access_ns(self) -> float:
        return self.dram.expected_line_access_ns()

    def page_access_ns(self, page_bytes: int) -> float:
        return self.dram.bulk_access_ns(page_bytes)

    # -- power failure -------------------------------------------------------------

    def power_failure(self, dirty_bytes: Optional[int] = None) -> float:
        """Begin a supercap-powered backup of DRAM contents to the backup flash.

        Returns the backup duration.  *dirty_bytes* defaults to the whole
        module (the NVDIMM controller has no dirty tracking).
        """
        if self.state is not NVDIMMState.ONLINE:
            raise RuntimeError("power failure while not online")
        to_save = self.capacity_bytes if dirty_bytes is None else dirty_bytes
        duration = transfer_time_ns(to_save,
                                    self.config.backup_bandwidth_bytes_per_ns)
        self.state = NVDIMMState.BACKING_UP
        self.last_backup_duration_ns = duration
        self.backups_performed += 1
        self.state = NVDIMMState.OFFLINE
        return duration

    def power_restore(self) -> float:
        """Restore DRAM contents from the backup flash on the next boot."""
        if self.state is not NVDIMMState.OFFLINE:
            raise RuntimeError("restore is only possible from the offline state")
        self.state = NVDIMMState.RESTORING
        duration = transfer_time_ns(self.capacity_bytes,
                                    self.config.restore_bandwidth_bytes_per_ns)
        self.last_restore_duration_ns = duration
        self.restores_performed += 1
        self.state = NVDIMMState.ONLINE
        return duration

    # -- reporting -------------------------------------------------------------------

    def statistics(self) -> Dict[str, float]:
        stats = {f"dram_{key}": value
                 for key, value in self.dram.statistics().items()}
        stats.update({
            "backups": float(self.backups_performed),
            "restores": float(self.restores_performed),
            "last_backup_ns": self.last_backup_duration_ns,
        })
        return stats
