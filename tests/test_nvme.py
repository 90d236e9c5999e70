"""NVMe protocol substrate: commands, queue rings, controller."""

import pytest

from repro.config import FlashGeometry, NVMeConfig, PCIeConfig, SSDConfig
from repro.flash.ssd import SSD
from repro.interconnect.pcie import PCIeLink
from repro.nvme.commands import NVMeCommand, NVMeOpcode, build_write
from repro.nvme.controller import NVMeController
from repro.nvme.queues import QueueFullError, SubmissionQueue
from repro.units import KB, MB


def build_read(lba: int, length_bytes: int, prp: int) -> NVMeCommand:
    return NVMeCommand(opcode=NVMeOpcode.READ, lba=lba,
                       length_bytes=length_bytes, prp=prp)


class TestCommands:
    def test_build_write_fua(self):
        command = build_write(lba=0, length_bytes=KB(4), prp=0, fua=True)
        assert command.is_write
        assert command.fua

    def test_journal_tag_lifecycle(self):
        command = build_read(lba=0, length_bytes=KB(4), prp=0)
        assert command.journal_tag == 0
        command.mark_submitted(100.0)
        assert command.journal_tag == 1
        assert command.is_pending
        command.mark_completed(200.0)
        assert command.journal_tag == 0
        assert not command.is_pending

    def test_command_ids_are_unique(self):
        first = build_read(lba=0, length_bytes=KB(4), prp=0)
        second = build_read(lba=0, length_bytes=KB(4), prp=0)
        assert first.command_id != second.command_id

    def test_validation(self):
        with pytest.raises(ValueError):
            NVMeCommand(opcode=NVMeOpcode.READ, lba=-1, length_bytes=1, prp=0)
        with pytest.raises(ValueError):
            NVMeCommand(opcode=NVMeOpcode.READ, lba=0, length_bytes=0, prp=0)
        with pytest.raises(ValueError):
            NVMeCommand(opcode=NVMeOpcode.READ, lba=0, length_bytes=1, prp=0,
                        journal_tag=2)


class TestQueues:
    def test_submit_and_fetch_fifo(self):
        sq = SubmissionQueue(depth=8)
        first = build_read(lba=0, length_bytes=KB(4), prp=0)
        second = build_read(lba=8, length_bytes=KB(4), prp=0)
        sq.submit(first)
        sq.submit(second)
        assert sq.fetch() is first
        assert sq.fetch() is second
        assert sq.fetch() is None

    def test_queue_full(self):
        sq = SubmissionQueue(depth=3)
        sq.submit(build_read(lba=0, length_bytes=KB(4), prp=0))
        sq.submit(build_read(lba=0, length_bytes=KB(4), prp=0))
        with pytest.raises(QueueFullError):
            sq.submit(build_read(lba=0, length_bytes=KB(4), prp=0))

    def test_doorbell_counter(self):
        sq = SubmissionQueue(depth=8)
        sq.ring_doorbell()
        sq.ring_doorbell()
        assert sq.doorbell_rings == 2

    def test_in_flight_commands_follow_journal_tags(self):
        sq = SubmissionQueue(depth=8)
        command = build_write(lba=0, length_bytes=KB(4), prp=0)
        sq.submit(command)
        assert sq.in_flight_commands() == []
        command.mark_submitted(0.0)
        assert sq.in_flight_commands() == [command]
        command.mark_completed(10.0)
        assert sq.in_flight_commands() == []


def _controller() -> NVMeController:
    geometry = FlashGeometry(channels=4, packages_per_channel=1,
                             dies_per_package=2, planes_per_die=1,
                             blocks_per_plane=32, pages_per_block=32)
    ssd = SSD(SSDConfig(name="ull-flash", geometry=geometry,
                        dram_buffer_bytes=MB(1)))
    ssd.precondition(0, 256)
    return NVMeController(ssd, PCIeLink(PCIeConfig()), NVMeConfig())


class TestController:
    def test_read_latency_composition(self):
        controller = _controller()
        result = controller.execute(build_read(lba=0, length_bytes=KB(4), prp=0),
                                    at_ns=0.0)
        assert result.finish_ns == pytest.approx(
            result.submit_ns + result.protocol_ns + result.transfer_ns
            + result.device_ns)
        assert result.protocol_ns > 0
        assert result.transfer_ns > 0

    def test_write_transfers_before_device(self):
        controller = _controller()
        result = controller.execute(
            build_write(lba=0, length_bytes=KB(4), prp=0), at_ns=0.0)
        assert result.command.is_write
        assert result.transfer_ns > 0

    def test_journal_tag_cleared_after_completion(self):
        controller = _controller()
        command = build_read(lba=0, length_bytes=KB(4), prp=0)
        controller.execute(command, at_ns=0.0)
        assert command.journal_tag == 0
        assert command.completed_ns is not None

    def test_statistics(self):
        controller = _controller()
        controller.execute(build_read(lba=0, length_bytes=KB(4), prp=0), 0.0)
        stats = controller.statistics()
        assert stats["commands_executed"] == 1
        assert stats["bytes_dma"] == KB(4)
