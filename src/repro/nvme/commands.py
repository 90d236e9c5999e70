"""NVMe command and completion structures.

A real NVMe command is a 64-byte structure; HAMS composes commands in
hardware by "filling the information fields of the NVMe command structure"
— opcode, PRP (the NVDIMM address of the data), LBA (the ULL-Flash address)
and length — and adds a *journal tag* in the reserved area that records
whether the command has completed, which the power-failure recovery scans
(Sections V-B and V-C).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional


class NVMeOpcode(Enum):
    """Subset of NVMe I/O opcodes used by the MoS datapath."""

    READ = 0x02
    WRITE = 0x01
    FLUSH = 0x00

    @property
    def is_write(self) -> bool:
        return self is NVMeOpcode.WRITE


_command_ids = itertools.count(1)


def next_command_id() -> int:
    """The next id of the process-wide counter (commands, PRP clone keys)."""
    return next(_command_ids)


@dataclass
class NVMeCommand:
    """One 64 B submission-queue entry.

    ``prp`` points at the host-memory (NVDIMM) buffer for the transfer,
    ``lba`` and ``length_bytes`` address the storage side, ``fua`` requests
    force-unit-access semantics, and ``journal_tag`` is the HAMS persistency
    bit carried in the reserved command area: set to 1 when the command is
    sent to the device, cleared when its completion interrupt arrives.
    """

    opcode: NVMeOpcode
    lba: int
    length_bytes: int
    prp: int
    fua: bool = False
    journal_tag: int = 0
    command_id: int = field(default_factory=next_command_id)
    submitted_ns: Optional[float] = None
    completed_ns: Optional[float] = None

    SIZE_BYTES = 64

    def __post_init__(self) -> None:
        if self.lba < 0:
            raise ValueError("lba must be non-negative")
        if self.length_bytes <= 0:
            raise ValueError("length_bytes must be positive")
        if self.prp < 0:
            raise ValueError("prp must be non-negative")
        if self.journal_tag not in (0, 1):
            raise ValueError("journal_tag is a single bit")

    @property
    def is_write(self) -> bool:
        return self.opcode.is_write

    @property
    def byte_offset(self) -> int:
        """Storage byte offset addressed by this command."""
        return self.lba * 512

    def mark_submitted(self, at_ns: float) -> None:
        self.submitted_ns = at_ns
        self.journal_tag = 1

    def mark_completed(self, at_ns: float) -> None:
        self.completed_ns = at_ns
        self.journal_tag = 0

    @property
    def is_pending(self) -> bool:
        """True while the command has been issued but not completed."""
        return self.journal_tag == 1


@dataclass
class NVMeCompletion:
    """One 16 B completion-queue entry."""

    command_id: int
    status: int = 0
    sq_head: int = 0
    posted_ns: float = 0.0

    SIZE_BYTES = 16


def build_read(lba: int, length_bytes: int, prp: int,
               fua: bool = False) -> NVMeCommand:
    """Convenience constructor for a read command."""
    return NVMeCommand(opcode=NVMeOpcode.READ, lba=lba,
                       length_bytes=length_bytes, prp=prp, fua=fua)


def build_write(lba: int, length_bytes: int, prp: int,
                fua: bool = False) -> NVMeCommand:
    """Convenience constructor for a write command."""
    return NVMeCommand(opcode=NVMeOpcode.WRITE, lba=lba,
                       length_bytes=length_bytes, prp=prp, fua=fua)
