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
    default_config,
)
from repro.core.hams_controller import HAMSController
from repro.core.nvme_engine import HardwareNVMeEngine
from repro.core.persistency import PersistencyController
from repro.core.register_interface import RegisterInterface
from repro.flash.ssd import SSD
from repro.interconnect.ddr_bus import DDR4Bus
from repro.interconnect.pcie import PCIeLink
from repro.memory.nvdimm import NVDIMM
from repro.nvme.commands import NVMeCommand, NVMeOpcode, build_write
from repro.nvme.controller import NVMeController
from repro.nvme.queues import SubmissionQueue
from repro.units import KB, MB
from repro.workloads.registry import ExperimentScale, scale_system_config


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
    return HardwareNVMeEngine(controller, hams,
                              register_interface=link if tight else None)


def _issue(engine: HardwareNVMeEngine, is_write: bool, lba: int,
           length_bytes: int, at_ns: float):
    """One engine issue on a batch-of-one walk of the engine's SSD."""
    with engine.controller.ssd.walk() as step:
        return engine.issue(step, is_write, lba, length_bytes, at_ns)


class TestRegisterInterface:
    def test_transfer_goes_through_lock(self):
        interface = RegisterInterface(DDR4Bus(DDRConfig()))
        _, finish = interface.transfer(KB(128), 0.0)
        assert finish > 0
        assert interface.ddr_bus.lock.acquisitions == 1

    def test_deliver_command(self):
        interface = RegisterInterface(DDR4Bus(DDRConfig()))
        finish = interface.deliver_command(10.0)
        assert finish > 10.0
        assert interface.ddr_bus.bytes_transferred == 64
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
        ssd = engine.controller.ssd
        before = ssd.statistics()
        _issue(engine, False, 0, KB(128), 0.0)
        after = ssd.statistics()
        assert (after["flash_bytes_read"] - before["flash_bytes_read"]
                == KB(128))
        assert after["flash_bytes_written"] == before["flash_bytes_written"]
        assert after["flash_page_programs"] == before["flash_page_programs"]

    def test_evict_in_persist_mode_uses_fua(self):
        def programs(mode: str) -> int:
            engine = _engine(mode)
            ssd = engine.controller.ssd
            before = ssd.fil.page_programs
            _issue(engine, True, 0, KB(128), 0.0)
            return ssd.fil.page_programs - before

        # FUA: every page of the evicted MoS page reaches the media at once;
        # extend mode's eviction lands in the SSD-internal DRAM buffer.
        assert programs("persist") == KB(128) // _ssd().page_size
        assert programs("extend") == 0

    def test_issue_cleans_queue_entries(self):
        config = scale_system_config(default_config(),
                                     ExperimentScale(capacity_scale=1 / 512))
        hams = HAMSController(config.with_hams(integration="loose",
                                               mode="persist"))
        now = 0.0
        for index in range(4):
            result = hams.access(index * hams.mos_page_bytes, 64,
                                 is_write=True, at_ns=now)
            now = result.finish_ns
        # Misses with dirty victims: fills and evictions were issued.
        for index in range(4):
            result = hams.access((index + hams.tag_array.entries_count)
                                 * hams.mos_page_bytes, 64, is_write=False,
                                 at_ns=now)
            now = result.finish_ns
        assert hams.engine.evictions_issued == 4
        # The engine drains the ring within each issue: nothing is left for
        # a power failure to find.
        assert hams.sq.outstanding == 0
        assert hams.persistency.pending_commands() == []

    def test_issue_matches_execute_of_the_command(self):
        for mode in ("persist", "extend"):
            for is_write in (False, True):
                engine = _engine(mode)
                twin = _engine(mode)
                timing = _issue(engine, is_write, 64, KB(4), 100.0)
                opcode = NVMeOpcode.WRITE if is_write else NVMeOpcode.READ
                command = NVMeCommand(opcode=opcode, lba=64,
                                      length_bytes=KB(4), prp=0,
                                      fua=is_write and mode == "persist")
                result = twin.controller.execute(command, 100.0)
                assert timing == (result.finish_ns, result.protocol_ns,
                                  result.transfer_ns, result.device_ns)
                assert (engine.controller.ssd.statistics()
                        == twin.controller.ssd.statistics())
                assert (engine.controller.statistics()
                        == twin.controller.statistics())

    def test_persist_mode_serialises_outstanding_io(self):
        engine = _engine("persist")
        finish = _issue(engine, False, 0, KB(128), 0.0)[0]
        assert engine.next_available(0.0) == finish

    def test_extend_mode_allows_immediate_issue(self):
        engine = _engine("extend")
        _issue(engine, False, 0, KB(128), 0.0)
        assert engine.next_available(0.0) == 0.0

    def test_tight_engine_charges_register_delivery(self):
        engine = _engine(tight=True)
        _issue(engine, False, 0, KB(4), 0.0)
        assert engine.register_interface.commands_delivered == 1

    def test_statistics(self):
        engine = _engine()
        _issue(engine, False, 0, KB(4), 0.0)
        _issue(engine, True, 0, KB(4), 0.0)
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
    sq = SubmissionQueue(64)
    return PersistencyController(nvdimm, ssd, controller, sq), sq


class TestPersistencyController:
    def test_clean_shutdown_has_nothing_to_replay(self):
        persistency, _ = _persistency()
        persistency.power_failure(at_ns=1000.0)
        report = persistency.recover(at_ns=2000.0)
        assert report.pending_commands_found == 0
        assert report.commands_reissued == 0
        assert report.consistent

    def test_interrupted_command_is_replayed(self):
        persistency, sq = _persistency()
        command = build_write(lba=0, length_bytes=KB(128), prp=0)
        sq.submit(command)
        command.mark_submitted(500.0)   # issued, completion never arrived
        persistency.power_failure(at_ns=1000.0)
        report = persistency.recover(at_ns=2000.0)
        assert report.pending_commands_found == 1
        assert report.commands_reissued == 1
        assert report.consistent
        assert report.replay_ns > 0

    def test_completed_commands_are_not_replayed(self):
        persistency, sq = _persistency()
        command = build_write(lba=0, length_bytes=KB(4), prp=0)
        sq.submit(command)
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
