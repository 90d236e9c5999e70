"""NVMe submission queue ring.

An NVMe queue pair is two FIFO rings with head/tail pointers (Figure 4b):
the host appends commands at the submission-queue tail and rings a doorbell;
the controller consumes from the head, services the command and posts a
completion.  The model keeps only the submission side, one
:class:`SubmissionQueue`: nothing here posts or reads a completion, so no
completion queue is simulated.

HAMS keeps these rings in the *pinned* (MMU-invisible) region of the NVDIMM
so they survive power failures; recovery re-issues the SQ entries whose
journal tag is still set (Sections IV-B and V-C).
"""

from __future__ import annotations

from typing import List, Optional

from .commands import NVMeCommand


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

    def in_flight_commands(self) -> List[NVMeCommand]:
        """Commands in the ring whose journal tag is still set (the crash
        recovery scan)."""
        return [command for command in self._ring.peek_all()
                if command.is_pending]  # type: ignore[attr-defined]

    def reset(self) -> None:
        """Discard every entry and the doorbell count: recovery's fresh SQ,
        allocated in place so every holder of this queue sees it."""
        self._ring = _Ring(self.depth)
        self.doorbell_rings = 0
