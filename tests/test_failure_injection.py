"""Failure-injection scenarios for the persistency design (Sections IV-B, V-C).

These tests crash the system at awkward points — dirty data everywhere,
commands in flight, repeated outages — and check that the recovery protocol
always converges to a consistent state: every journalled command replayed,
queue pointers consistent, the MoS space serviceable again.
"""

from __future__ import annotations

import pytest

from repro.config import default_config
from repro.core.hams_controller import HAMSController
from repro.nvme.commands import NVMeCommand, NVMeOpcode, build_write
from repro.units import KB
from repro.workloads.registry import ExperimentScale, scale_system_config


def make_controller(mode: str = "extend") -> HAMSController:
    config = scale_system_config(default_config(),
                                 ExperimentScale(capacity_scale=1 / 512))
    config = config.with_hams(integration="tight", mode=mode)
    controller = HAMSController(config)
    controller.ssd.precondition(0, min(controller.ssd.logical_pages, 2048))
    return controller


def dirty_working_set(controller: HAMSController, pages: int) -> float:
    """Write one line in each of *pages* distinct MoS pages; returns the time."""
    now = 0.0
    for index in range(pages):
        result = controller.access(index * controller.mos_page_bytes, 64,
                                   is_write=True, at_ns=now)
        now = result.finish_ns
    return now


class TestCrashWithDirtyData:
    def test_recovery_with_many_dirty_entries(self):
        controller = make_controller()
        now = dirty_working_set(controller, 32)
        assert controller.tag_array.dirty_count() == 32
        down = controller.power_failure(at_ns=now)
        report = controller.recover(at_ns=down)
        assert report.consistent
        assert controller.sq.outstanding == 0

    def test_recovery_replays_every_journalled_command(self):
        controller = make_controller()
        now = dirty_working_set(controller, 8)
        pending = []
        for index in range(5):
            command = build_write(
                lba=controller.address_manager.lba_of(index),
                length_bytes=KB(128),
                prp=controller.address_manager.pinned_region_base)
            controller.sq.submit(command)
            command.mark_submitted(now)
            pending.append(command)
        down = controller.power_failure(at_ns=now)
        report = controller.recover(at_ns=down)
        assert report.pending_commands_found == len(pending)
        assert report.commands_reissued == len(pending)
        # Recovery re-issued them through the one SQ the controller and its
        # persistency logic share, reset in place.
        assert controller.persistency.sq is controller.sq
        assert controller.sq.outstanding == 0
        assert controller.sq.doorbell_rings == len(pending)

    def test_mixed_reads_and_writes_in_flight(self):
        controller = make_controller()
        now = dirty_working_set(controller, 4)
        read = NVMeCommand(opcode=NVMeOpcode.READ,
                           lba=controller.address_manager.lba_of(10),
                           length_bytes=KB(128), prp=0)
        write = build_write(lba=controller.address_manager.lba_of(2),
                            length_bytes=KB(128), prp=0)
        for command in (read, write):
            controller.sq.submit(command)
            command.mark_submitted(now)
        down = controller.power_failure(at_ns=now)
        report = controller.recover(at_ns=down)
        assert report.commands_reissued == 2


class TestRepeatedOutages:
    def test_three_failure_recovery_cycles(self):
        controller = make_controller()
        now = 0.0
        for cycle in range(3):
            result = controller.access(cycle * controller.mos_page_bytes, 64,
                                       is_write=True, at_ns=now)
            now = result.finish_ns
            down = controller.power_failure(at_ns=now)
            report = controller.recover(at_ns=down)
            assert report.consistent
            now = down + report.total_recovery_ns
        assert controller.persistency.power_failures == 3
        assert controller.persistency.recoveries == 3

    def test_service_resumes_after_each_recovery(self):
        controller = make_controller()
        now = dirty_working_set(controller, 4)
        down = controller.power_failure(at_ns=now)
        report = controller.recover(at_ns=down)
        resume_at = down + report.total_recovery_ns
        result = controller.access(0, 64, is_write=False, at_ns=resume_at)
        assert result.finish_ns >= resume_at
        # The previously written page is still resident in the MoS cache.
        assert result.hit


class TestPersistModeGuarantees:
    def test_persist_mode_has_no_background_evictions_to_lose(self):
        """Persist mode (FUA) leaves nothing buffered when the plug is pulled."""
        controller = make_controller(mode="persist")
        entries = controller.tag_array.entries_count
        now = 0.0
        # Force conflict evictions: two pages mapping to the same index.
        for index in (0, entries):
            result = controller.access(index * controller.mos_page_bytes, 64,
                                       is_write=True, at_ns=now)
            now = result.finish_ns
        # Every eviction went through the serialised FUA path, so the pending
        # journal scan finds nothing outstanding.
        assert controller.persistency.pending_commands() == []
        down = controller.power_failure(at_ns=now)
        report = controller.recover(at_ns=down)
        assert report.pending_commands_found == 0

    def test_extend_mode_tracks_background_work(self):
        controller = make_controller(mode="extend")
        entries = controller.tag_array.entries_count
        now = 0.0
        for index in (0, entries):
            result = controller.access(index * controller.mos_page_bytes, 64,
                                       is_write=True, at_ns=now)
            now = result.finish_ns
        assert controller.background_flash_programs > 0


class TestSSDSupercap:
    def test_buffered_writes_survive_via_supercap_flush(self):
        controller = make_controller()
        ssd = controller.ssd
        # Write directly into the device buffer path (loose-style traffic).
        ssd.write(0, KB(4), at_ns=0.0)
        ssd.write(KB(4), KB(4), at_ns=100.0)
        dirty_before = ssd.buffer.dirty_pages
        controller.power_failure(at_ns=1_000.0)
        assert ssd.buffer.dirty_pages == 0 or dirty_before == 0
        controller.recover(at_ns=2_000.0)
