"""Z-NAND flash array model: dies, planes, and raw operation timing.

The array tracks per-die occupancy ("busy until" timestamps) so concurrent
operations on different dies proceed in parallel while operations targeting
the same die serialize — the behaviour that gives SSDs their internal
parallelism (Figure 4a).  Plane-level parallelism is modelled as multi-plane
operations: a die can start one array operation at a time, but an operation
may cover several planes of that die with a single array time.

Die state lives in one flat list indexed by
``(channel * packages_per_channel + package) * dies_per_package + die`` so
the flash walk (:meth:`repro.flash.ssd.SSD.walk`) can
index occupancy directly.  The walk inlines the per-die recurrence
``start = max(at, busy); busy = start + t`` for host requests;
:meth:`ZNANDArray.issue` runs it for the page moves of GC relocation and
the supercap flush.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Tuple

from ..config import FlashGeometry, FlashTiming


class FlashOperation(Enum):
    """Raw NAND array operations."""

    READ = "read"
    PROGRAM = "program"
    ERASE = "erase"


@dataclass
class DieState:
    """Occupancy bookkeeping for one flash die."""

    channel: int
    package: int
    die: int
    busy_until_ns: float = 0.0
    reads: int = 0
    programs: int = 0
    erases: int = 0

    def operations_total(self) -> int:
        return self.reads + self.programs + self.erases


class ZNANDArray:
    """All flash dies of one SSD, addressed as (channel, package, die).

    The array does not know about logical addresses or wear levelling — it
    only answers "when would an operation issued at time T on die D finish?"
    and records per-die utilisation statistics.  The authoritative state is
    the flat ``_states`` list (see :meth:`flat_index`); the dict-of-dies of
    earlier revisions is gone so batch walks can share it by index.
    """

    def __init__(self, geometry: FlashGeometry, timing: FlashTiming) -> None:
        self.geometry = geometry
        self.timing = timing
        self._states: List[DieState] = []
        for channel in range(geometry.channels):
            for package in range(geometry.packages_per_channel):
                for die in range(geometry.dies_per_package):
                    self._states.append(DieState(channel=channel,
                                                 package=package, die=die))

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

    def die_state(self, channel: int, package: int, die: int) -> DieState:
        return self._states[self.flat_index(channel, package, die)]

    def dies(self) -> List[DieState]:
        return list(self._states)

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
        state = self._states[self.flat_index(channel, package, die)]
        start = max(at_ns, state.busy_until_ns)
        finish = start + self.operation_time_ns(operation)
        state.busy_until_ns = finish
        if operation is FlashOperation.READ:
            state.reads += 1
        elif operation is FlashOperation.PROGRAM:
            state.programs += 1
        else:
            state.erases += 1
        return start, finish

    # -- statistics ----------------------------------------------------------

    def utilisation_summary(self) -> Dict[str, float]:
        """Aggregate operation counts and the maximum busy-until time."""
        reads = sum(d.reads for d in self._states)
        programs = sum(d.programs for d in self._states)
        erases = sum(d.erases for d in self._states)
        busiest = max((d.busy_until_ns for d in self._states), default=0.0)
        return {
            "reads": float(reads),
            "programs": float(programs),
            "erases": float(erases),
            "busiest_die_until_ns": busiest,
        }

    def reset(self) -> None:
        for state in self._states:
            state.busy_until_ns = 0.0
            state.reads = 0
            state.programs = 0
            state.erases = 0
