"""NVMe controller front-end.

The controller sits inside the SSD (Figure 4b): it synchronises the
storage-side submission queue when the host rings a doorbell, DMAs the data
referenced by the command's PRP pointer across the host link, hands the
request to the flash firmware (the :class:`~repro.flash.ssd.SSD` model), and
finally posts a completion entry and raises an MSI interrupt.

The same controller object serves both integrations of HAMS — only the
``link`` differs (a :class:`~repro.interconnect.pcie.PCIeLink` for the
baseline, a :class:`~repro.core.register_interface.RegisterInterface` on
the DDR4 bus for the advanced design) — and also the software NVMe driver
path of the mmap baseline.  The timing is one recurrence over floats,
:meth:`NVMeController.round_trip`: its protocol sums (doorbell plus
fetch/parse, then MSI) are fixed at construction and the link prices each
transfer size once, so a round trip builds no record.
:meth:`NVMeController.execute` wraps it for command objects (the recovery
path).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..config import NVMeConfig
from ..flash.ssd import SSD
from ..interconnect.link import Link
from .commands import NVMeCommand


@dataclass
class CommandResult:
    """Timing decomposition of one executed NVMe command."""

    command: NVMeCommand
    submit_ns: float
    finish_ns: float
    protocol_ns: float
    transfer_ns: float
    device_ns: float


class NVMeController:
    """Executes NVMe commands against an SSD device over a host link."""

    def __init__(self, ssd: SSD, link: Link, config: NVMeConfig) -> None:
        self.ssd = ssd
        self.link = link
        self.config = config
        self.commands_executed = 0
        self.bytes_dma = 0
        # The protocol toll every command pays, fixed by the config.
        self._protocol_in_ns = (config.doorbell_ns
                                + config.controller_processing_ns)
        self._protocol_out_ns = config.msi_ns
        self._protocol_ns = self._protocol_in_ns + self._protocol_out_ns

    # -- the protocol recurrence ---------------------------------------------------

    def round_trip(self, step, is_write: bool, byte_offset: int,
                   length_bytes: int, fua: bool, at_ns: float
                   ) -> Tuple[float, float, float, float]:
        """One command's timing over floats: ``(finish_ns, protocol_ns,
        transfer_ns, device_ns)``.

        Section II-C's walk-through: doorbell + controller fetch/parse, the
        PRP-referenced link DMA (before a program, after a read), the flash
        service — one *step* of an open :meth:`~repro.flash.ssd.SSD.walk`
        on :attr:`ssd` — and the completion posting plus MSI.  The protocol
        sums are constants of the controller.
        """
        now = at_ns + self._protocol_in_ns
        if is_write:
            # Data moves host -> device before the media program.
            start, now = self.link.transfer(length_bytes, now)
            transfer_ns = now - start
            finish = step((True, byte_offset, length_bytes, now, fua))
            device_ns = finish - now
            now = finish
        else:
            finish = step((False, byte_offset, length_bytes, now, fua))
            device_ns = finish - now
            # Data moves device -> host after the media read.
            start, now = self.link.transfer(length_bytes, finish)
            transfer_ns = now - start
        self.bytes_dma += length_bytes
        self.commands_executed += 1
        return (now + self._protocol_out_ns, self._protocol_ns, transfer_ns,
                device_ns)

    def execute(self, command: NVMeCommand, at_ns: float) -> CommandResult:
        """Execute *command* submitted at *at_ns* and return its timing.

        :meth:`round_trip` on a batch-of-one walk, with the command's
        journal tag set at submission and cleared at completion (the
        recovery path replays journalled commands through here).
        """
        command.mark_submitted(at_ns)
        with self.ssd.walk() as step:
            finish, protocol_ns, transfer_ns, device_ns = self.round_trip(
                step, command.is_write, command.byte_offset,
                command.length_bytes, command.fua, at_ns)
        command.mark_completed(finish)
        return CommandResult(command=command, submit_ns=at_ns,
                             finish_ns=finish, protocol_ns=protocol_ns,
                             transfer_ns=transfer_ns, device_ns=device_ns)

    def statistics(self) -> Dict[str, float]:
        return {
            "commands_executed": float(self.commands_executed),
            "bytes_dma": float(self.bytes_dma),
        }
