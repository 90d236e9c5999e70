"""Flash channel (bus) scheduler.

Each channel is a shared bus between the SSD controller and the flash
packages hanging off it.  Data transfers (DMA of page data to or from a die)
serialize on the channel even when the array operations themselves overlap
on different dies.  ULL-Flash additionally *splits* a 4 KB host request into
two half-page transfers on two channels, halving the DMA portion of the
latency (Section II-C) — that policy lives in the FIL; this module only
answers "when can channel C move N bytes starting at time T?".

Channel occupancy is kept as one flat array (``busy_until_ns``, indexed
by channel) rather than per-channel objects, so the flash walk of
:meth:`repro.flash.ssd.SSD.walk` reserves transfers against the shared
state without a per-command attribute chase.  A reservation is the
recurrence ``start = max(at, busy); busy = start + t``: the walk inlines
it for host requests, and :meth:`ChannelScheduler.reserve` runs it for the
page moves of GC relocation and the supercap flush.  No traffic is
counted here: every reservation moves a whole page, or one half of it on
split channels, for one page read or program, so
:meth:`repro.flash.ssd.SSD.statistics` derives the channel byte and
transfer totals from the FIL's page counters.
"""

from __future__ import annotations

from typing import List, Tuple

from ..config import FlashGeometry
from ..units import transfer_time_ns


class ChannelScheduler:
    """Tracks occupancy of every flash channel of one SSD.

    ``busy_until_ns[c]`` is the reservation horizon of channel *c*.  The
    list is the authoritative state (there is no per-channel object),
    which is what lets the flash walk share it as a plain Python list.
    """

    def __init__(self, geometry: FlashGeometry,
                 bandwidth_bytes_per_ns: float) -> None:
        self.geometry = geometry
        self.bandwidth = bandwidth_bytes_per_ns
        self.channel_count = geometry.channels
        self.busy_until_ns: List[float] = [0.0] * self.channel_count

    def transfer_time(self, size_bytes: int) -> float:
        """Raw bus time to move *size_bytes*, ignoring occupancy."""
        return transfer_time_ns(size_bytes, self.bandwidth)

    def reserve(self, channel: int, size_bytes: int,
                at_ns: float) -> Tuple[float, float]:
        """Reserve the channel for a transfer of *size_bytes* at *at_ns*.

        Returns ``(start_ns, finish_ns)``: the transfer starts when the
        channel frees up and occupies it for the raw bus time.
        """
        self._check(channel)
        busy = self.busy_until_ns
        start = max(at_ns, busy[channel])
        finish = start + self.transfer_time(size_bytes)
        busy[channel] = finish
        return start, finish

    def _check(self, channel: int) -> None:
        if channel < 0 or channel >= self.channel_count:
            raise ValueError(f"channel index out of range: {channel}")
