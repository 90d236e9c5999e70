"""The HAMS hardware NVMe queue engine (Section V-B).

In the MMF baseline, composing NVMe commands, ringing doorbells and reaping
completions is the OS's job.  HAMS moves all of it into a small hardware
engine inside the MCH: the engine fills in the opcode / PRP / LBA / length
fields of a 64 B command, enqueues it in the SQ held in pinned NVDIMM
memory, rings the doorbell, and on the completion interrupt synchronises the
CQ and clears the SQ/CQ entries — with no software on the path.

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

from dataclasses import dataclass
from typing import Dict, Optional

from ..config import HAMSConfig, NVMeConfig
from ..nvme.commands import NVMeCommand, NVMeCompletion, NVMeOpcode
from ..nvme.controller import NVMeController
from ..nvme.queues import QueuePair
from .register_interface import RegisterInterface


@dataclass
class EngineIOResult:
    """Timing of one engine-issued I/O (a fill read or an evict write)."""

    command: NVMeCommand
    submit_ns: float
    finish_ns: float
    protocol_ns: float
    transfer_ns: float
    device_ns: float

    @property
    def latency_ns(self) -> float:
        return self.finish_ns - self.submit_ns


class HardwareNVMeEngine:
    """Composes and executes NVMe commands entirely in hardware."""

    def __init__(self, controller: NVMeController, queue_pair: QueuePair,
                 hams_config: HAMSConfig, nvme_config: NVMeConfig,
                 register_interface: Optional[RegisterInterface] = None) -> None:
        self.controller = controller
        self.queue_pair = queue_pair
        self.hams_config = hams_config
        self.nvme_config = nvme_config
        self.register_interface = register_interface
        self.commands_issued = 0
        self.fills_issued = 0
        self.evictions_issued = 0
        self._busy_until_ns = 0.0

    # -- availability -------------------------------------------------------------

    def next_available(self, at_ns: float) -> float:
        """Earliest time the engine can issue a new command.

        Persist mode allows only one outstanding I/O, so a new command waits
        for the previous one; extend mode issues immediately (up to the
        device queue, which the SSD model bounds itself).
        """
        if self.hams_config.is_persist:
            return max(at_ns, self._busy_until_ns)
        return at_ns

    # -- command construction ---------------------------------------------------------

    def build_fill(self, lba: int, length_bytes: int, prp: int) -> NVMeCommand:
        """A read command that fills a MoS page from ULL-Flash into NVDIMM."""
        return NVMeCommand(opcode=NVMeOpcode.READ, lba=lba,
                           length_bytes=length_bytes, prp=prp)

    def build_evict(self, lba: int, length_bytes: int, prp: int) -> NVMeCommand:
        """A write command that evicts a dirty MoS page from NVDIMM to flash."""
        return NVMeCommand(opcode=NVMeOpcode.WRITE, lba=lba,
                           length_bytes=length_bytes, prp=prp,
                           fua=self.hams_config.is_persist)

    # -- execution -------------------------------------------------------------------

    def issue(self, command: NVMeCommand, at_ns: float) -> EngineIOResult:
        """Enqueue, execute and complete one command.

        The submission-queue append and doorbell (or, for the advanced
        design, the register-interface command burst) happen at *at_ns*; the
        returned result reflects the full round trip including the MSI and
        the CQ clean-up the engine performs.
        """
        start = self.next_available(at_ns)
        if self.register_interface is not None:
            delivery = self.register_interface.deliver_command(start)
            start = delivery.finish_ns
        self.queue_pair.sq.submit(command)
        self.queue_pair.sq.ring_doorbell()
        result = self.controller.execute(command, start)
        completion = NVMeCompletion(command_id=command.command_id,
                                    sq_head=self.queue_pair.sq.head,
                                    posted_ns=result.finish_ns)
        self.queue_pair.cq.post(completion)
        # The engine immediately synchronises the CQ and clears both entries.
        self.queue_pair.sq.fetch()
        self.queue_pair.cq.reap()
        self.commands_issued += 1
        if command.is_write:
            self.evictions_issued += 1
        else:
            self.fills_issued += 1
        self._busy_until_ns = max(self._busy_until_ns, result.finish_ns)
        return EngineIOResult(command=command, submit_ns=at_ns,
                              finish_ns=result.finish_ns,
                              protocol_ns=result.protocol_ns,
                              transfer_ns=result.transfer_ns,
                              device_ns=result.device_ns)

    # -- reporting -------------------------------------------------------------------

    def statistics(self) -> Dict[str, float]:
        return {
            "commands_issued": float(self.commands_issued),
            "fills_issued": float(self.fills_issued),
            "evictions_issued": float(self.evictions_issued),
        }
