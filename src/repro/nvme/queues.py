"""NVMe submission/completion queue rings.

An NVMe queue pair is two FIFO rings with head/tail pointers (Figure 4b):
the host appends commands at the submission-queue tail and rings a doorbell;
the controller consumes from the head, services the command, posts a
completion at the completion-queue tail and raises an interrupt; the host
then advances the completion-queue head and rings the CQ doorbell.

HAMS keeps these rings in the *pinned* (MMU-invisible) region of the NVDIMM
so they survive power failures; recovery compares the SQ and CQ pointers and
re-issues commands whose journal tags are still set (Sections IV-B and V-C).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .commands import NVMeCommand, NVMeCompletion


class QueueFullError(RuntimeError):
    """Raised when appending to a ring whose every slot is occupied."""


class _Ring:
    """A bounded FIFO ring with head/tail pointers."""

    def __init__(self, depth: int) -> None:
        if depth <= 0:
            raise ValueError("queue depth must be positive")
        self.depth = depth
        self.slots: List[Optional[object]] = [None] * depth
        self.head = 0
        self.tail = 0
        self._used = 0

    def slots_used(self) -> int:
        return self._used

    def push(self, item: object) -> int:
        if self._used >= self.depth - 1:
            raise QueueFullError("ring is full")
        slot = self.tail
        self.slots[slot] = item
        self._used += 1
        self.tail = (self.tail + 1) % self.depth
        return slot

    def pop(self) -> Optional[object]:
        if self.slots[self.head] is None:
            return None
        item = self.slots[self.head]
        self.slots[self.head] = None
        self._used -= 1
        self.head = (self.head + 1) % self.depth
        return item

    def peek_all(self) -> List[object]:
        """Entries between head and tail, oldest first, without consuming."""
        items: List[object] = []
        index = self.head
        while index != self.tail:
            item = self.slots[index]
            if item is not None:
                items.append(item)
            index = (index + 1) % self.depth
        return items


class SubmissionQueue:
    """NVMe submission queue (host producer, controller consumer)."""

    def __init__(self, depth: int, queue_id: int = 0) -> None:
        self.queue_id = queue_id
        self._ring = _Ring(depth)
        self.doorbell_rings = 0

    @property
    def depth(self) -> int:
        return self._ring.depth

    @property
    def outstanding(self) -> int:
        return self._ring.slots_used()

    def submit(self, command: NVMeCommand) -> int:
        """Append *command* at the tail and return its slot index."""
        return self._ring.push(command)

    def ring_doorbell(self) -> None:
        """Host notifies the controller that the tail moved."""
        self.doorbell_rings += 1

    def fetch(self) -> Optional[NVMeCommand]:
        """Controller consumes the command at the head."""
        command = self._ring.pop()
        return command  # type: ignore[return-value]

    def pending_commands(self) -> List[NVMeCommand]:
        """Commands currently sitting in the ring (for crash recovery scans)."""
        return list(self._ring.peek_all())  # type: ignore[arg-type]


class CompletionQueue:
    """NVMe completion queue (controller producer, host consumer)."""

    def __init__(self, depth: int, queue_id: int = 0) -> None:
        self.queue_id = queue_id
        self._ring = _Ring(depth)
        self.interrupts_raised = 0

    @property
    def outstanding(self) -> int:
        return self._ring.slots_used()

    def post(self, completion: NVMeCompletion) -> int:
        """Controller appends a completion and raises an interrupt (MSI)."""
        slot = self._ring.push(completion)
        self.interrupts_raised += 1
        return slot

    def reap(self) -> Optional[NVMeCompletion]:
        """Host consumes the completion at the head."""
        return self._ring.pop()  # type: ignore[return-value]


@dataclass
class QueuePair:
    """A paired SQ/CQ as used per core (or by the HAMS NVMe engine)."""

    sq: SubmissionQueue
    cq: CompletionQueue

    @staticmethod
    def create(depth: int, queue_id: int = 0) -> "QueuePair":
        return QueuePair(sq=SubmissionQueue(depth, queue_id),
                         cq=CompletionQueue(depth, queue_id))

    @property
    def pointers_consistent(self) -> bool:
        """True when SQ and CQ agree that no command is in flight.

        The HAMS initialisation check: "if there is no power failure, the SQ
        and CQ tail pointers should refer to the same offset of their queue
        entries" — a mismatch (or pending journal tags) signals interrupted
        I/O that must be replayed (Section IV-B).
        """
        return self.sq.outstanding == 0 and self.cq.outstanding == 0

    def in_flight_commands(self) -> List[NVMeCommand]:
        """Commands visible in the SQ whose journal tag is still set."""
        return [command for command in self.sq.pending_commands()
                if command.is_pending]
