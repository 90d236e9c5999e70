"""Flash interface layer: schedules raw flash operations onto channels/dies.

The FIL is the firmware layer that turns a translated sub-request into flash
transactions (row/column addresses, DMA transfers) and places them on the
internal resources (Figure 4c).  It owns the two structural latency effects
the paper leans on:

* **Die/channel parallelism** — array operations overlap across dies while
  data transfers serialize per channel.
* **ULL-Flash channel splitting** — a 4 KB request is split into two
  half-page operations issued to two channels simultaneously, which roughly
  halves the DMA component of the access latency (Section II-C).

Host requests reach the flash complex through
:meth:`repro.flash.ssd.SSD.walk`, which inlines :meth:`read_page`
and :meth:`write_page` against the shared die and channel occupancy.  The
methods themselves serve the page moves of GC relocation and the supercap
flush, and this class keeps the page counters of both paths.  Block erases
are counted by the FTL and charge no die time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .channel import ChannelScheduler
from .ftl import PhysicalAddress
from .znand import FlashOperation, ZNANDArray


@dataclass(frozen=True)
class FlashAccessResult:
    """Timing of one page-level flash access."""

    start_ns: float
    finish_ns: float
    array_time_ns: float
    transfer_time_ns: float

    @property
    def latency_ns(self) -> float:
        return self.finish_ns - self.start_ns


class FlashInterfaceLayer:
    """Places page reads and programs onto the flash complex."""

    def __init__(self, array: ZNANDArray, channels: ChannelScheduler,
                 page_size: int, split_channels: bool = True) -> None:
        self.array = array
        self.channels = channels
        self.page_size = page_size
        self.split_channels = split_channels and channels.geometry.channels >= 2
        self.page_reads = 0
        self.page_programs = 0

    # -- page reads -------------------------------------------------------------

    def read_page(self, address: PhysicalAddress, at_ns: float) -> FlashAccessResult:
        """Read one flash page: array sensing, then DMA over the channel(s)."""
        self.page_reads += 1
        start, array_finish = self.array.issue(
            address.channel, address.package, address.die,
            FlashOperation.READ, at_ns)
        transfer_finish, transfer_time = self._transfer(address,
                                                        array_finish)
        return FlashAccessResult(start_ns=start, finish_ns=transfer_finish,
                                 array_time_ns=array_finish - start,
                                 transfer_time_ns=transfer_time)

    # -- page programs -------------------------------------------------------------

    def write_page(self, address: PhysicalAddress, at_ns: float) -> FlashAccessResult:
        """Program one flash page: DMA data in, then the array program."""
        self.page_programs += 1
        transfer_finish, transfer_time = self._transfer(address, at_ns)
        start, array_finish = self.array.issue(
            address.channel, address.package, address.die,
            FlashOperation.PROGRAM, transfer_finish)
        return FlashAccessResult(start_ns=at_ns, finish_ns=array_finish,
                                 array_time_ns=array_finish - start,
                                 transfer_time_ns=transfer_time)

    # -- internals -------------------------------------------------------------------

    def _transfer(self, address: PhysicalAddress,
                  at_ns: float) -> Tuple[float, float]:
        """Move one page over the channel bus, optionally split across two.

        With splitting enabled the page is striped as two half-page bursts on
        the page's home channel and its neighbour; the transfer completes
        when the slower half finishes.  Returns ``(finish_ns, busy_time)``
        where *busy_time* is the per-request serial transfer cost (the
        latency contribution, not the sum of both halves).
        """
        if not self.split_channels:
            _, finish = self.channels.reserve(address.channel, self.page_size,
                                              at_ns)
            return finish, self.channels.transfer_time(self.page_size)
        half = self.page_size // 2
        partner = (address.channel + 1) % self.channels.geometry.channels
        _, finish_a = self.channels.reserve(address.channel, half, at_ns)
        _, finish_b = self.channels.reserve(partner, self.page_size - half,
                                            at_ns)
        finish = max(finish_a, finish_b)
        return finish, self.channels.transfer_time(half)

    def statistics(self) -> dict:
        return {
            "page_reads": self.page_reads,
            "page_programs": self.page_programs,
        }
