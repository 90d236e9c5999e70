"""The HAMS hardware NVMe queue engine (Section V-B).

In the MMF baseline, composing NVMe commands, ringing doorbells and reaping
completions is the OS's job.  HAMS moves all of it into a small hardware
engine inside the MCH: the engine fills in the opcode / PRP / LBA / length
fields of a 64 B command, enqueues it in the SQ held in pinned NVDIMM
memory, rings the doorbell, and on the completion interrupt synchronises the
CQ and clears the SQ/CQ entries — with no software on the path.

The model keeps what that sequence costs in time.  The ring is drained
within each issue, so no command, completion or ring entry is built: an
issue is the command delivery (a register burst on the tight integration,
returned as its finish time) plus one
:meth:`~repro.nvme.controller.NVMeController.round_trip` over floats.  The
mode is read once at construction, and only persist mode checks the
engine's availability.  Power-failure recovery
(:mod:`repro.core.persistency`) keeps the ring and the command objects.

The engine also holds the command side of the two mode policies:

* **persist mode** — every eviction is tagged FUA and at most one I/O is in
  flight, serialising misses but guaranteeing that data reaches the flash
  media before the instruction retires,
* **extend mode** — evictions and fills ride the NVMe queue in parallel and
  persistency is provided by the journal-tag recovery protocol instead.

The order in which a miss issues its eviction and fills is the
controller's: the miss handler of
:class:`repro.core.hams_controller.HAMSController` calls
:meth:`HardwareNVMeEngine.issue` once per command.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..config import HAMSConfig
from ..nvme.controller import NVMeController
from .register_interface import RegisterInterface


class HardwareNVMeEngine:
    """Composes and executes NVMe commands entirely in hardware."""

    def __init__(self, controller: NVMeController, hams_config: HAMSConfig,
                 register_interface: Optional[RegisterInterface] = None) -> None:
        self.controller = controller
        self.hams_config = hams_config
        self.register_interface = register_interface
        self.commands_issued = 0
        self.fills_issued = 0
        self.evictions_issued = 0
        self._busy_until_ns = 0.0
        self._persist = hams_config.is_persist

    # -- availability -------------------------------------------------------------

    def next_available(self, at_ns: float) -> float:
        """Earliest time the engine can issue a new command.

        Persist mode allows only one outstanding I/O, so a new command waits
        for the previous one; extend mode issues immediately (up to the
        device queue, which the SSD model bounds itself).
        """
        if self._persist:
            return max(at_ns, self._busy_until_ns)
        return at_ns

    # -- execution -------------------------------------------------------------------

    def issue(self, step, is_write: bool, lba: int, length_bytes: int,
              at_ns: float) -> Tuple[float, float, float, float]:
        """Issue one fill (read) or eviction (write, FUA in persist mode)
        at *at_ns* through *step*, an open walk's step on the controller's
        SSD; returns the full round trip's ``(finish_ns, protocol_ns,
        transfer_ns, device_ns)``.  Extend mode issues at *at_ns* itself."""
        persist = self._persist
        start = self.next_available(at_ns) if persist else at_ns
        if self.register_interface is not None:
            start = self.register_interface.deliver_command(start)
        timing = self.controller.round_trip(
            step, is_write, lba * 512, length_bytes, is_write and persist,
            start)
        self.commands_issued += 1
        if is_write:
            self.evictions_issued += 1
        else:
            self.fills_issued += 1
        if timing[0] > self._busy_until_ns:
            self._busy_until_ns = timing[0]
        return timing

    # -- reporting -------------------------------------------------------------------

    def statistics(self) -> Dict[str, float]:
        return {
            "commands_issued": float(self.commands_issued),
            "fills_issued": float(self.fills_issued),
            "evictions_issued": float(self.evictions_issued),
        }
