"""Register-based interface between advanced HAMS and the unboxed ULL-Flash.

The aggressive integration (Section IV-C / V-A, Figure 12) removes the PCIe
hop: the ULL-Flash NVMe controller gets a small set of command/address/data
registers and sits directly on a DDR4 channel shared with the NVDIMM.
Sending an I/O request becomes a DDR write burst of the 64 B NVMe command
into those registers; the subsequent flash<->NVDIMM DMA is arbitrated by the
*lock register* so the HAMS cache logic and the NVMe controller never drive
the bus simultaneously.

This class adapts a :class:`~repro.interconnect.ddr_bus.DDR4Bus` to the
:class:`~repro.interconnect.link.Link` interface used by the NVMe controller
model, so the same controller code serves both integrations and only the
datapath object changes.  Command delivery and the lock-arbitrated DMA are
each one recurrence over floats: the command burst's cost is fixed at
construction and each DMA size's is priced once, on the bus.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..interconnect.ddr_bus import DDR4Bus
from ..interconnect.link import Link

#: Size of one NVMe command written into the data-buffer registers.
_COMMAND_BYTES = 64


class RegisterInterface(Link):
    """DDR4-attached command/data path of the advanced HAMS design."""

    def __init__(self, ddr_bus: DDR4Bus) -> None:
        super().__init__()
        self.ddr_bus = ddr_bus
        self.commands_delivered = 0
        self._toggle_ns = ddr_bus.lock.toggle_ns
        self._command_ns = ddr_bus.config.register_command_ns
        self._command_raw_ns = ddr_bus.raw_transfer_time(_COMMAND_BYTES)

    # -- Link interface -------------------------------------------------------------

    def raw_transfer_time(self, size_bytes: int) -> float:
        return self.ddr_bus.raw_transfer_time(size_bytes)

    def per_transfer_overhead(self, size_bytes: int) -> float:
        """DDR activation plus the lock-register handshake, no packetisation."""
        return (self.ddr_bus.per_transfer_overhead(size_bytes)
                + 2 * self.ddr_bus.lock.toggle_ns)

    def transfer(self, size_bytes: int, at_ns: float) -> Tuple[float, float]:
        """A flash<->NVDIMM DMA through the shared DDR4 channel; returns the
        DMA's ``(start_ns, finish_ns)`` on the bus.

        The DMA holds the lock register for its duration: the lock is
        granted once the previous release has landed (a contended
        acquisition otherwise), the grant toggle precedes the bus
        reservation, and the release toggle lands after the DMA.  Contention
        with the HAMS cache logic shows up as a delayed start.
        """
        lock = self.ddr_bus.lock
        toggle = self._toggle_ns
        # Acquire: a lock whose previous release has not landed yet is
        # contended, and the grant waits for that release.
        release_at = lock.release_at_ns
        contended = release_at > at_ns
        grant = release_at if contended else at_ns
        # Reserve the DDR4 channel once the grant toggle has landed (a bad
        # size raises here, before any lock field is written).
        start, finish = self.ddr_bus.transfer(size_bytes, grant + toggle)
        if contended:
            lock.contended_acquisitions += 1
        lock.acquisitions += 1
        lock.held_since_ns = grant
        # Release: the toggle lands after the DMA.
        lock.release_at_ns = finish + toggle
        lock.total_held_ns += max(0.0, finish - grant)
        self.bytes_transferred += size_bytes
        self.transfers += 1
        self._busy_until_ns = finish
        return start, finish

    # -- command delivery -------------------------------------------------------------

    def deliver_command(self, at_ns: float) -> float:
        """Write one 64 B NVMe command into the device's data-buffer
        registers; returns the time the burst finishes.

        Models the Figure 12 sequence: CS# deselect, a WRITE command on the
        channel, then an 8-beat burst of the 64 B command over D[63:0].
        """
        self.commands_delivered += 1
        bus = self.ddr_bus
        busy = bus._busy_until_ns
        start = busy if busy > at_ns else at_ns
        finish = (start + self._command_ns) + self._command_raw_ns
        bus._busy_until_ns = finish
        bus.bytes_transferred += _COMMAND_BYTES
        bus.transfers += 1
        return finish

    # -- reporting -------------------------------------------------------------------

    def statistics(self) -> Dict[str, float]:
        stats = super().statistics()
        stats["commands_delivered"] = float(self.commands_delivered)
        stats.update({f"lock.{key}": value
                      for key, value in self.ddr_bus.lock.statistics().items()})
        return stats
