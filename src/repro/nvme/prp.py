"""Physical Region Page (PRP) pool.

Every NVMe command references its host-memory data buffer through one or
more PRP pointers.  HAMS allocates a dedicated PRP pool inside the pinned
(MMU-invisible) region of the NVDIMM and, to avoid eviction hazards, *clones*
the NVDIMM cache page being evicted into a PRP pool entry before handing the
command to the device — the DMA then reads the stable clone while the cache
entry stays usable (Section V-B, Figure 14).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


class PRPPoolExhausted(RuntimeError):
    """Raised when no PRP pool entry is free for a new clone."""


@dataclass
class PRPEntry:
    """One page-sized slot of the PRP pool."""

    index: int
    base_address: int
    size_bytes: int
    in_use: bool = False
    source_page: Optional[int] = None
    command_id: Optional[int] = None


class PRPPool:
    """Fixed pool of page-sized buffers carved out of the pinned region."""

    def __init__(self, pool_bytes: int, page_bytes: int,
                 base_address: int = 0) -> None:
        if page_bytes <= 0:
            raise ValueError("page size must be positive")
        if pool_bytes < page_bytes:
            raise ValueError("PRP pool must hold at least one page")
        self.page_bytes = page_bytes
        self.capacity = pool_bytes // page_bytes
        self._entries: List[PRPEntry] = [
            PRPEntry(index=index, base_address=base_address + index * page_bytes,
                     size_bytes=page_bytes)
            for index in range(self.capacity)
        ]
        self._free: List[int] = list(range(self.capacity))
        self._by_command: Dict[int, int] = {}
        self.clones_performed = 0
        self.peak_in_use = 0

    @property
    def in_use(self) -> int:
        return self.capacity - len(self._free)

    def clone(self, source_page: int, command_id: int) -> PRPEntry:
        """Reserve an entry holding a clone of *source_page* for *command_id*.

        Raises :class:`PRPPoolExhausted` when the pool is full — callers
        (the HAMS cache logic) must then stall the miss in the wait queue.
        """
        if not self._free:
            raise PRPPoolExhausted(
                f"no free PRP entries (capacity={self.capacity})")
        index = self._free.pop()
        entry = self._entries[index]
        entry.in_use = True
        entry.source_page = source_page
        entry.command_id = command_id
        self._by_command[command_id] = index
        self.clones_performed += 1
        self.peak_in_use = max(self.peak_in_use, self.in_use)
        return entry

    def release(self, command_id: int) -> None:
        """Free the entry owned by *command_id* (on I/O completion)."""
        index = self._by_command.pop(command_id, None)
        if index is None:
            return
        entry = self._entries[index]
        entry.in_use = False
        entry.source_page = None
        entry.command_id = None
        self._free.append(index)

    def entry_for(self, command_id: int) -> Optional[PRPEntry]:
        index = self._by_command.get(command_id)
        return self._entries[index] if index is not None else None

    def outstanding_entries(self) -> List[PRPEntry]:
        """Entries still owned by in-flight commands (crash recovery scan)."""
        return [entry for entry in self._entries if entry.in_use]

    def reset(self) -> None:
        for entry in self._entries:
            entry.in_use = False
            entry.source_page = None
            entry.command_id = None
        self._free = list(range(self.capacity))
        self._by_command.clear()
