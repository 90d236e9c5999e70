"""Flash channel (bus) scheduler.

Each channel is a shared bus between the SSD controller and the flash
packages hanging off it.  Data transfers (DMA of page data to or from a die)
serialize on the channel even when the array operations themselves overlap
on different dies.  ULL-Flash additionally *splits* a 4 KB host request into
two half-page transfers on two channels, halving the DMA portion of the
latency (Section II-C) — that policy lives in the FIL; this module only
answers "when can channel C move N bytes starting at time T?".

Channel occupancy is kept as flat parallel arrays (``busy_until_ns``,
``bytes_moved``, ``transfers`` indexed by channel) rather than per-channel
objects, so the flash walk of :meth:`repro.flash.ssd.SSD.walk`
reserves transfers against the shared state without a
per-command attribute chase.  A reservation is the recurrence
``start = max(at, busy); busy = start + t``: the walk inlines it for host
requests, and :meth:`ChannelScheduler.reserve` runs it for the page moves
of GC relocation and the supercap flush.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..config import FlashGeometry
from ..units import transfer_time_ns


class ChannelScheduler:
    """Tracks occupancy of every flash channel of one SSD.

    State is a structure of arrays: ``busy_until_ns[c]`` is the reservation
    horizon of channel *c*; ``bytes_moved``/``transfers`` are its traffic
    counters.  The arrays are the authoritative state (there is no
    per-channel object), which is what lets the batched flash walk share
    them as plain Python lists.
    """

    def __init__(self, geometry: FlashGeometry,
                 bandwidth_bytes_per_ns: float) -> None:
        self.geometry = geometry
        self.bandwidth = bandwidth_bytes_per_ns
        self.channel_count = geometry.channels
        self.busy_until_ns: List[float] = [0.0] * self.channel_count
        self.bytes_moved: List[int] = [0] * self.channel_count
        self.transfers: List[int] = [0] * self.channel_count

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
        self.bytes_moved[channel] += size_bytes
        self.transfers[channel] += 1
        return start, finish

    def statistics(self) -> Dict[str, float]:
        """Counters for the unified ``flash_*`` statistics fold."""
        return {
            "channel_bytes_moved": float(sum(self.bytes_moved)),
            "channel_transfers": float(sum(self.transfers)),
        }

    def _check(self, channel: int) -> None:
        if channel < 0 or channel >= self.channel_count:
            raise ValueError(f"channel index out of range: {channel}")
