"""NVMe controller front-end.

The controller sits inside the SSD (Figure 4b): it synchronises the
storage-side submission queue when the host rings a doorbell, DMAs the data
referenced by the command's PRP pointer across the host link, hands the
request to the flash firmware (the :class:`~repro.flash.ssd.SSD` model), and
finally posts a completion entry and raises an MSI interrupt.

The same controller object serves both integrations of HAMS — only the
``link`` differs (a :class:`~repro.interconnect.pcie.PCIeLink` for the
baseline, a :class:`~repro.interconnect.ddr_bus.DDR4Bus` for the advanced
design) — and also the software NVMe driver path of the mmap baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..config import NVMeConfig
from ..flash.ssd import IORequest, SSD
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

    @property
    def latency_ns(self) -> float:
        return self.finish_ns - self.submit_ns


class NVMeController:
    """Executes NVMe commands against an SSD device over a host link."""

    def __init__(self, ssd: SSD, link: Link, config: NVMeConfig) -> None:
        self.ssd = ssd
        self.link = link
        self.config = config
        self.commands_executed = 0
        self.bytes_dma = 0

    # -- single-command execution ------------------------------------------------

    def execute(self, command: NVMeCommand, at_ns: float) -> CommandResult:
        """Execute *command* submitted at *at_ns* and return its timing.

        The latency composition follows the protocol walk-through of
        Section II-C: doorbell + controller fetch/parse, the PRP-referenced
        DMA over the host link, the flash firmware service, completion
        posting and the MSI interrupt.
        """
        command.mark_submitted(at_ns)
        protocol_in = self.config.doorbell_ns + self.config.controller_processing_ns
        now = at_ns + protocol_in
        transfer_ns = 0.0

        if command.is_write:
            # Data moves host -> device before the media program.
            record = self.link.transfer(command.length_bytes, now)
            transfer_ns += record.latency_ns
            now = record.finish_ns
            self.bytes_dma += command.length_bytes

        io = self.ssd.submit(IORequest(is_write=command.is_write,
                                       byte_offset=command.byte_offset,
                                       size_bytes=command.length_bytes,
                                       submit_ns=now,
                                       fua=command.fua))
        device_ns = io.finish_ns - now
        now = io.finish_ns

        if not command.is_write:
            # Data moves device -> host after the media read.
            record = self.link.transfer(command.length_bytes, now)
            transfer_ns += record.latency_ns
            now = record.finish_ns
            self.bytes_dma += command.length_bytes

        protocol_out = self.config.msi_ns
        finish = now + protocol_out
        command.mark_completed(finish)
        self.commands_executed += 1
        return CommandResult(command=command, submit_ns=at_ns, finish_ns=finish,
                             protocol_ns=protocol_in + protocol_out,
                             transfer_ns=transfer_ns, device_ns=device_ns)

    def statistics(self) -> Dict[str, float]:
        return {
            "commands_executed": float(self.commands_executed),
            "bytes_dma": float(self.bytes_dma),
        }
