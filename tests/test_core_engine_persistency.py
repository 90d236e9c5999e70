"""Hardware NVMe engine, register interface, and power-failure recovery."""

import pytest

from repro.config import (
    DDRConfig,
    FlashGeometry,
    HAMSConfig,
    NVDIMMConfig,
    NVMeConfig,
    PCIeConfig,
    SSDConfig,
)
from repro.core.nvme_engine import HardwareNVMeEngine
from repro.core.persistency import PersistencyController
from repro.core.register_interface import RegisterInterface
from repro.flash.ssd import SSD
from repro.interconnect.ddr_bus import DDR4Bus
from repro.interconnect.pcie import PCIeLink
from repro.memory.nvdimm import NVDIMM
from repro.nvme.commands import build_write
from repro.nvme.controller import NVMeController
from repro.nvme.queues import QueuePair
from repro.units import KB, MB


def _ssd() -> SSD:
    geometry = FlashGeometry(channels=4, packages_per_channel=1,
                             dies_per_package=2, planes_per_die=1,
                             blocks_per_plane=64, pages_per_block=32)
    ssd = SSD(SSDConfig(name="ull-flash", geometry=geometry,
                        dram_buffer_bytes=MB(1)))
    ssd.precondition(0, 512)
    return ssd


def _engine(mode: str = "extend",
            tight: bool = False) -> HardwareNVMeEngine:
    ssd = _ssd()
    if tight:
        link = RegisterInterface(DDR4Bus(DDRConfig()))
    else:
        link = PCIeLink(PCIeConfig())
    controller = NVMeController(ssd, link, NVMeConfig())
    hams = HAMSConfig(mode=mode,
                      integration="tight" if tight else "loose")
    return HardwareNVMeEngine(controller, QueuePair.create(256), hams,
                              NVMeConfig(),
                              register_interface=link if tight else None)


class TestRegisterInterface:
    def test_transfer_goes_through_lock(self):
        interface = RegisterInterface(DDR4Bus(DDRConfig()))
        record = interface.transfer(KB(128), 0.0)
        assert record.finish_ns > 0
        assert interface.ddr_bus.lock.acquisitions == 1

    def test_deliver_command(self):
        interface = RegisterInterface(DDR4Bus(DDRConfig()))
        record = interface.deliver_command(10.0)
        assert record.size_bytes == 64
        assert interface.commands_delivered == 1

    def test_overhead_smaller_than_pcie(self):
        interface = RegisterInterface(DDR4Bus(DDRConfig()))
        pcie = PCIeLink(PCIeConfig())
        assert (interface.per_transfer_overhead(KB(128))
                < pcie.per_transfer_overhead(KB(128)))

    def test_statistics_include_lock(self):
        interface = RegisterInterface(DDR4Bus(DDRConfig()))
        interface.transfer(KB(4), 0.0)
        assert "lock.acquisitions" in interface.statistics()


class TestHardwareNVMeEngine:
    def test_fill_command_is_read(self):
        engine = _engine()
        command = engine.build_fill(lba=0, length_bytes=KB(128), prp=0)
        assert not command.is_write
        assert not command.fua

    def test_evict_in_persist_mode_uses_fua(self):
        assert _engine("persist").build_evict(0, KB(128), 0).fua
        assert not _engine("extend").build_evict(0, KB(128), 0).fua

    def test_issue_cleans_queue_entries(self):
        engine = _engine()
        command = engine.build_fill(lba=0, length_bytes=KB(4), prp=0)
        result = engine.issue(command, at_ns=0.0)
        assert result.finish_ns > 0
        assert engine.queue_pair.sq.outstanding == 0
        assert engine.queue_pair.cq.outstanding == 0
        assert command.journal_tag == 0

    def test_persist_mode_serialises_outstanding_io(self):
        engine = _engine("persist")
        first = engine.issue(engine.build_fill(0, KB(128), 0), 0.0)
        assert engine.next_available(0.0) == first.finish_ns

    def test_extend_mode_allows_immediate_issue(self):
        engine = _engine("extend")
        engine.issue(engine.build_fill(0, KB(128), 0), 0.0)
        assert engine.next_available(0.0) == 0.0

    def test_tight_engine_charges_register_delivery(self):
        engine = _engine(tight=True)
        engine.issue(engine.build_fill(0, KB(4), 0), 0.0)
        assert engine.register_interface.commands_delivered == 1

    def test_statistics(self):
        engine = _engine()
        engine.issue(engine.build_fill(0, KB(4), 0), 0.0)
        engine.issue(engine.build_evict(0, KB(4), 0), 0.0)
        stats = engine.statistics()
        assert stats["fills_issued"] == 1
        assert stats["evictions_issued"] == 1
        assert stats["commands_issued"] == 2


def _persistency():
    ssd = _ssd()
    link = PCIeLink(PCIeConfig())
    controller = NVMeController(ssd, link, NVMeConfig())
    nvdimm = NVDIMM(NVDIMMConfig(capacity_bytes=MB(64),
                                 pinned_region_bytes=MB(8)))
    queue_pair = QueuePair.create(64)
    return PersistencyController(nvdimm, ssd, controller, queue_pair), queue_pair


class TestPersistencyController:
    def test_clean_shutdown_has_nothing_to_replay(self):
        persistency, _ = _persistency()
        persistency.power_failure(at_ns=1000.0)
        report = persistency.recover(at_ns=2000.0)
        assert report.pending_commands_found == 0
        assert report.commands_reissued == 0
        assert report.consistent

    def test_interrupted_command_is_replayed(self):
        persistency, queue_pair = _persistency()
        command = build_write(lba=0, length_bytes=KB(128), prp=0)
        queue_pair.sq.submit(command)
        command.mark_submitted(500.0)   # issued, completion never arrived
        persistency.power_failure(at_ns=1000.0)
        report = persistency.recover(at_ns=2000.0)
        assert report.pending_commands_found == 1
        assert report.commands_reissued == 1
        assert report.consistent
        assert report.replay_ns > 0

    def test_completed_commands_are_not_replayed(self):
        persistency, queue_pair = _persistency()
        command = build_write(lba=0, length_bytes=KB(4), prp=0)
        queue_pair.sq.submit(command)
        command.mark_submitted(100.0)
        command.mark_completed(200.0)
        persistency.power_failure(at_ns=1000.0)
        report = persistency.recover(at_ns=2000.0)
        assert report.pending_commands_found == 0

    def test_explicit_inflight_injection(self):
        persistency, _ = _persistency()
        commands = [build_write(lba=index * 256, length_bytes=KB(128), prp=0)
                    for index in range(3)]
        for command in commands:
            command.mark_submitted(0.0)
        persistency.power_failure(at_ns=100.0, in_flight=commands)
        report = persistency.recover(at_ns=500.0)
        assert report.commands_reissued == 3
        assert persistency.commands_recovered_total == 3

    def test_recover_without_failure_rejected(self):
        persistency, _ = _persistency()
        with pytest.raises(RuntimeError):
            persistency.recover(at_ns=0.0)

    def test_double_failure_rejected(self):
        persistency, _ = _persistency()
        persistency.power_failure(at_ns=0.0)
        with pytest.raises(RuntimeError):
            persistency.power_failure(at_ns=1.0)

    def test_recovery_includes_nvdimm_restore_time(self):
        persistency, _ = _persistency()
        persistency.power_failure(at_ns=0.0)
        report = persistency.recover(at_ns=10.0)
        assert report.nvdimm_restore_ns > 0
        assert report.total_recovery_ns >= report.nvdimm_restore_ns

    def test_failure_flushes_ssd_buffer(self):
        persistency, _ = _persistency()
        persistency.ssd.write(0, KB(4), at_ns=0.0)
        programs_before = persistency.ssd.fil.page_programs
        persistency.power_failure(at_ns=1000.0)
        assert persistency.ssd.fil.page_programs > programs_before

    def test_statistics(self):
        persistency, _ = _persistency()
        persistency.power_failure(at_ns=0.0)
        persistency.recover(at_ns=1.0)
        stats = persistency.statistics()
        assert stats["power_failures"] == 1
        assert stats["recoveries"] == 1
