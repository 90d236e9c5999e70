"""Persistency control and power-failure recovery (Sections IV-B, V-C, Figure 15).

HAMS keeps every NVMe data structure — the SQ/CQ rings, the PRP pool and the
MSI table — in the *pinned*, MMU-invisible region of the NVDIMM, which the
module's supercapacitor preserves across power loss.  Each command carries a
*journal tag* in its reserved field: set to 1 when the engine sends it to
the ULL-Flash, cleared when the completion interrupt arrives.

On power-up the controller therefore knows exactly which I/Os were in flight
when the lights went out: it scans the SQ region for commands whose journal
tag is still 1, allocates a fresh SQ, re-inserts those commands and rings
the doorbell so they complete before the MoS space is handed back to the
MMU.  (The paper's engine can also compare SQ and CQ tail pointers; the
model posts no completions, so it keeps no CQ and reads the tags alone.)  The ULL-Flash's
own supercapacitor flushes its volatile buffer, so no acknowledged write is
ever lost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..flash.ssd import SSD
from ..memory.nvdimm import NVDIMM, NVDIMMState
from ..nvme.commands import NVMeCommand
from ..nvme.controller import NVMeController
from ..nvme.queues import SubmissionQueue


@dataclass
class RecoveryReport:
    """Outcome of one power-failure recovery pass."""

    pending_commands_found: int
    commands_reissued: int
    nvdimm_restore_ns: float
    replay_ns: float

    @property
    def total_recovery_ns(self) -> float:
        """Restore plus replay; the ULL-Flash supercap flush is charged at
        failure time (:meth:`PersistencyController.power_failure`)."""
        return self.nvdimm_restore_ns + self.replay_ns

    @property
    def consistent(self) -> bool:
        """True when every interrupted command was successfully replayed."""
        return self.pending_commands_found == self.commands_reissued


class PersistencyController:
    """Implements the journal-tag protocol and the Figure 15 recovery procedure."""

    def __init__(self, nvdimm: NVDIMM, ssd: SSD,
                 controller: NVMeController, sq: SubmissionQueue) -> None:
        self.nvdimm = nvdimm
        self.ssd = ssd
        self.controller = controller
        self.sq = sq
        self.power_failures = 0
        self.recoveries = 0
        self.commands_recovered_total = 0
        self._failed = False
        self._interrupted_commands: List[NVMeCommand] = []

    # -- normal operation -------------------------------------------------------------

    def pending_commands(self) -> List[NVMeCommand]:
        """Commands currently journalled as in flight (tag still 1)."""
        return self.sq.in_flight_commands()

    # -- power failure -------------------------------------------------------------------

    def power_failure(self, at_ns: float,
                      in_flight: Optional[List[NVMeCommand]] = None) -> float:
        """Simulate a power loss at *at_ns*.

        *in_flight* lets callers inject commands that were issued but whose
        completion interrupt never arrived; by default the SQ is scanned.
        Returns the time at which the platform is fully powered down (NVDIMM
        backup plus the ULL-Flash supercap flush, whichever is longer).
        """
        if self._failed:
            raise RuntimeError("power failure while already failed")
        self.power_failures += 1
        self._failed = True
        self._interrupted_commands = list(
            in_flight if in_flight is not None else self.pending_commands())
        backup_ns = self.nvdimm.power_failure(
            dirty_bytes=self.nvdimm.pinned_region_bytes)
        flush_finish = self.ssd.supercap_flush(at_ns)
        return at_ns + max(backup_ns, flush_finish - at_ns)

    def recover(self, at_ns: float) -> RecoveryReport:
        """Run the three-phase recovery of Figure 15.

        Phase 1 already happened at failure time (journal tags persisted in
        the pinned region).  Phase 2 restores the NVDIMM and allocates a
        fresh SQ; phase 3 re-issues every SQ entry whose journal tag was
        still set, advancing the SQ tail and ringing the doorbell so the
        ULL-Flash replays it.  No CQ pointer is compared: the model posts
        no completions.
        """
        if not self._failed:
            raise RuntimeError("recover called without a preceding power failure")
        self.recoveries += 1
        restore_ns = self.nvdimm.power_restore()
        # Phase 2: a fresh SQ replaces the interrupted one, in place.
        sq = self.sq
        sq.reset()

        replay_start = at_ns + restore_ns
        replay_cursor = replay_start
        reissued = 0
        for command in self._interrupted_commands:
            replayed = NVMeCommand(opcode=command.opcode, lba=command.lba,
                                   length_bytes=command.length_bytes,
                                   prp=command.prp, fua=command.fua)
            sq.submit(replayed)
            sq.ring_doorbell()
            result = self.controller.execute(replayed, replay_cursor)
            sq.fetch()
            replay_cursor = result.finish_ns
            reissued += 1
        self.commands_recovered_total += reissued

        report = RecoveryReport(
            pending_commands_found=len(self._interrupted_commands),
            commands_reissued=reissued,
            nvdimm_restore_ns=restore_ns,
            replay_ns=replay_cursor - replay_start)
        self._interrupted_commands = []
        self._failed = False
        return report

    # -- reporting -------------------------------------------------------------------

    def statistics(self) -> Dict[str, float]:
        return {
            "power_failures": float(self.power_failures),
            "recoveries": float(self.recoveries),
            "commands_recovered_total": float(self.commands_recovered_total),
        }
