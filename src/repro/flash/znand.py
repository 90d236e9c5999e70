"""Z-NAND flash array model: dies, planes, and raw operation timing.

The array tracks per-die occupancy ("busy until" timestamps) so concurrent
operations on different dies proceed in parallel while operations targeting
the same die serialize — the behaviour that gives SSDs their internal
parallelism (Figure 4a).  Plane-level parallelism is modelled as multi-plane
operations: a die can start one array operation at a time, but an operation
may cover several planes of that die with a single array time.

Die occupancy is one flat ``busy_until_ns`` float list indexed by
``(channel * packages_per_channel + package) * dies_per_package + die``, as
:class:`~repro.flash.channel.ChannelScheduler` keeps its channels, so the
flash walk (:meth:`repro.flash.ssd.SSD.walk`) can index it directly.  The
walk inlines the per-die recurrence
``start = max(at, busy); busy = start + t`` for host requests;
:meth:`ZNANDArray.issue` runs it for the page moves of GC relocation and
the supercap flush.
"""

from __future__ import annotations

from enum import Enum
from typing import List, Tuple

from ..config import FlashGeometry, FlashTiming


class FlashOperation(Enum):
    """Raw NAND array operations."""

    READ = "read"
    PROGRAM = "program"
    ERASE = "erase"


class ZNANDArray:
    """All flash dies of one SSD, addressed as (channel, package, die).

    The array does not know about logical addresses or wear levelling — it
    only answers "when would an operation issued at time T on die D
    finish?".  ``busy_until_ns[d]`` is the reservation horizon of die *d*
    (see :meth:`flat_index`), the authoritative state the flash walk
    shares as a plain Python list.
    """

    def __init__(self, geometry: FlashGeometry, timing: FlashTiming) -> None:
        self.geometry = geometry
        self.timing = timing
        self.busy_until_ns: List[float] = [0.0] * (
            geometry.channels * geometry.packages_per_channel
            * geometry.dies_per_package)

    # -- addressing helpers -------------------------------------------------

    def flat_index(self, channel: int, package: int, die: int) -> int:
        """Flat die index used by the occupancy arrays and batch walks."""
        geometry = self.geometry
        if (0 <= channel < geometry.channels
                and 0 <= package < geometry.packages_per_channel
                and 0 <= die < geometry.dies_per_package):
            return ((channel * geometry.packages_per_channel + package)
                    * geometry.dies_per_package + die)
        raise ValueError(
            f"die address out of range: ({channel}, {package}, {die})")

    # -- timing -------------------------------------------------------------

    def operation_time_ns(self, operation: FlashOperation) -> float:
        """Raw array time for one operation, independent of occupancy."""
        if operation is FlashOperation.READ:
            return self.timing.read_ns
        if operation is FlashOperation.PROGRAM:
            return self.timing.program_ns
        if operation is FlashOperation.ERASE:
            return self.timing.erase_ns
        raise ValueError(f"unknown flash operation: {operation}")

    def issue(self, channel: int, package: int, die: int,
              operation: FlashOperation, at_ns: float) -> Tuple[float, float]:
        """Issue *operation* to a die at time *at_ns*.

        Returns ``(start_ns, finish_ns)``.  The operation starts when the die
        becomes free (or immediately if it is idle) and occupies the die for
        the raw array time.
        """
        index = self.flat_index(channel, package, die)
        busy = self.busy_until_ns
        start = max(at_ns, busy[index])
        finish = start + self.operation_time_ns(operation)
        busy[index] = finish
        return start, finish
