"""Eviction-hazard and redundant-eviction avoidance (Section V-B).

Because the NVDIMM is simultaneously the MoS cache and the PRP target of
in-flight NVMe commands, two hazards arise (Figure 13):

* **Eviction hazard** — the NVMe controller DMAs into an NVDIMM page frame
  that the cache logic is concurrently reusing, corrupting data, and
* **Redundant eviction** — a second miss on an entry whose eviction is still
  in flight issues the same eviction again.

HAMS avoids both with three mechanisms, all modelled here:

1. the evicted page is *cloned* into the PRP pool in pinned memory and the
   command's PRP is pointed at the clone, so the DMA reads stable data,
2. the tag-array entry's *busy bit* is set while any command targets it, and
3. colliding requests are parked in a *wait queue* and replayed when the
   busy bit clears.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from ..nvme.prp import PRPEntry, PRPPool, PRPPoolExhausted
from .tag_array import MoSTagArray


class WaitQueueFullError(RuntimeError):
    """Raised when the pinned-memory wait queue overflows."""


@dataclass(frozen=True)
class WaitingRequest:
    """A memory request parked because its target entry is busy."""

    mos_page: int
    is_write: bool
    arrival_ns: float


class WaitQueue:
    """Bounded FIFO of requests waiting for a busy cache entry."""

    def __init__(self, depth: int) -> None:
        if depth <= 0:
            raise ValueError("wait queue depth must be positive")
        self.depth = depth
        self._queue: Deque[WaitingRequest] = deque()
        self.enqueued_total = 0
        self.max_occupancy = 0

    def __len__(self) -> int:
        return len(self._queue)

    def push(self, request: WaitingRequest) -> None:
        if len(self._queue) >= self.depth:
            raise WaitQueueFullError(
                f"wait queue overflow (depth={self.depth})")
        self._queue.append(request)
        self.enqueued_total += 1
        self.max_occupancy = max(self.max_occupancy, len(self._queue))

    def pop(self) -> Optional[WaitingRequest]:
        if not self._queue:
            return None
        return self._queue.popleft()

    def pending_for(self, mos_page: int) -> List[WaitingRequest]:
        return [request for request in self._queue if request.mos_page == mos_page]


@dataclass
class InFlightOperation:
    """Bookkeeping for one outstanding miss (fill and/or eviction)."""

    index: int
    mos_page: int
    command_ids: List[int] = field(default_factory=list)
    completes_at_ns: float = 0.0


class HazardManager:
    """Coordinates busy bits, PRP cloning and the wait queue for the cache logic."""

    def __init__(self, tag_array: MoSTagArray, prp_pool: PRPPool,
                 wait_queue_depth: int) -> None:
        self.tag_array = tag_array
        self.prp_pool = prp_pool
        self.wait_queue = WaitQueue(wait_queue_depth)
        self._in_flight: Dict[int, InFlightOperation] = {}
        self.evictions_cloned = 0
        self.redundant_evictions_avoided = 0
        self.hazard_stalls = 0

    # -- queries -------------------------------------------------------------------

    def is_busy(self, index: int) -> bool:
        return self.tag_array.entry(index).busy

    def busy_until(self, index: int) -> float:
        operation = self._in_flight.get(index)
        return operation.completes_at_ns if operation else 0.0

    @property
    def outstanding_operations(self) -> int:
        return len(self._in_flight)

    # -- miss lifecycle ---------------------------------------------------------------

    def begin_miss(self, index: int, mos_page: int,
                   victim_page: Optional[int], command_id: int,
                   completes_at_ns: float) -> Optional[PRPEntry]:
        """Mark a miss in flight on *index* and clone the victim if any.

        Returns the PRP pool entry holding the clone (``None`` when there is
        no dirty victim to protect).  A second miss arriving on the same
        entry while this one is outstanding is a *redundant eviction*; the
        caller detects it through :meth:`is_busy` and parks the request.
        """
        if self.is_busy(index):
            raise RuntimeError(
                f"begin_miss on busy entry {index}: callers must park the "
                "request in the wait queue instead")
        self.tag_array.set_busy(index, True)
        operation = InFlightOperation(index=index, mos_page=mos_page,
                                      command_ids=[command_id],
                                      completes_at_ns=completes_at_ns)
        self._in_flight[index] = operation
        clone: Optional[PRPEntry] = None
        if victim_page is not None:
            clone = self.prp_pool.clone(victim_page, command_id)
            self.evictions_cloned += 1
        return clone

    def attach_command(self, index: int, command_id: int,
                       completes_at_ns: float) -> None:
        """Associate another command (e.g. the fill read) with an operation."""
        operation = self._in_flight.get(index)
        if operation is None:
            raise KeyError(f"no in-flight operation on entry {index}")
        operation.command_ids.append(command_id)
        operation.completes_at_ns = max(operation.completes_at_ns, completes_at_ns)

    def complete_miss(self, index: int) -> None:
        """Clear the busy bit and release any PRP clones for *index*."""
        operation = self._in_flight.pop(index, None)
        if operation is None:
            return
        for command_id in operation.command_ids:
            self.prp_pool.release(command_id)
        self.tag_array.set_busy(index, False)

    # -- collision handling ---------------------------------------------------------------

    def park(self, mos_page: int, is_write: bool, at_ns: float) -> None:
        """Park a request that collided with a busy entry."""
        self.wait_queue.push(WaitingRequest(mos_page=mos_page,
                                            is_write=is_write,
                                            arrival_ns=at_ns))
        self.redundant_evictions_avoided += 1
        self.hazard_stalls += 1

    def drain_parked(self) -> List[WaitingRequest]:
        """Remove and return every parked request (replayed after completion)."""
        drained: List[WaitingRequest] = []
        while True:
            request = self.wait_queue.pop()
            if request is None:
                break
            drained.append(request)
        return drained

    # -- reporting -------------------------------------------------------------------

    def statistics(self) -> Dict[str, float]:
        return {
            "evictions_cloned": float(self.evictions_cloned),
            "redundant_evictions_avoided": float(self.redundant_evictions_avoided),
            "hazard_stalls": float(self.hazard_stalls),
            "wait_queue_max_occupancy": float(self.wait_queue.max_occupancy),
            "prp_peak_in_use": float(self.prp_pool.peak_in_use),
        }
