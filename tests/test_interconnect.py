"""Interconnect models: PCIe, SATA, DDR4 bus and the lock register."""

import pytest

from repro.config import DDRConfig, PCIeConfig, SATAConfig
from repro.core.register_interface import RegisterInterface
from repro.interconnect.ddr_bus import DDR4Bus
from repro.interconnect.pcie import PCIeLink
from repro.interconnect.sata import SATALink
from repro.units import KB, MB


class TestPCIeLink:
    def test_bandwidth_is_lanes_times_lane_rate(self):
        link = PCIeLink(PCIeConfig())
        assert link.bandwidth_bytes_per_ns == pytest.approx(
            4 * PCIeConfig().per_lane_bw_bytes_per_ns)

    def test_transfer_time_scales_linearly(self):
        link = PCIeLink(PCIeConfig())
        small = link.raw_transfer_time(KB(4))
        large = link.raw_transfer_time(KB(128))
        assert large == pytest.approx(32 * small)

    def test_packet_overhead_grows_with_packets(self):
        link = PCIeLink(PCIeConfig())
        assert link.per_transfer_overhead(KB(64)) > link.per_transfer_overhead(64)

    def test_transfers_serialise(self):
        link = PCIeLink(PCIeConfig())
        _, first_finish = link.transfer(KB(128), 0.0)
        second_start, _ = link.transfer(KB(4), 0.0)
        assert second_start >= first_finish

    def test_statistics_accumulate(self):
        link = PCIeLink(PCIeConfig())
        link.transfer(KB(4), 0.0)
        link.transfer(KB(4), 1000.0)
        stats = link.statistics()
        assert stats["bytes_transferred"] == 2 * KB(4)
        assert stats["transfers"] == 2

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            PCIeLink(PCIeConfig()).transfer(0, 0.0)

    def test_reset(self):
        link = PCIeLink(PCIeConfig())
        link.transfer(KB(4), 0.0)
        link.reset()
        assert link.bytes_transferred == 0


class TestSATALink:
    def test_sata_slower_than_pcie(self):
        sata = SATALink(SATAConfig())
        pcie = PCIeLink(PCIeConfig())
        assert sata.raw_transfer_time(MB(1)) > pcie.raw_transfer_time(MB(1))

    def test_command_overhead_is_flat(self):
        sata = SATALink(SATAConfig())
        assert sata.per_transfer_overhead(64) == sata.per_transfer_overhead(MB(1))


def _interface() -> RegisterInterface:
    return RegisterInterface(DDR4Bus(DDRConfig(lock_register_ns=5.0)))


class TestLockRegister:
    """The lock register as the register interface's DMAs drive it."""

    def test_uncontended_acquire(self):
        interface = _interface()
        start, _ = interface.transfer(KB(4), 100.0)
        lock = interface.ddr_bus.lock
        assert start == 105.0
        assert lock.held_since_ns == 100.0
        assert lock.contended_acquisitions == 0

    def test_release_then_acquire(self):
        interface = _interface()
        _, finish = interface.transfer(KB(4), 0.0)
        lock = interface.ddr_bus.lock
        assert lock.release_at_ns == finish + 5.0
        start, _ = interface.transfer(KB(4), finish + 100.0)
        assert start == finish + 105.0
        assert lock.contended_acquisitions == 0

    def test_contended_acquire_waits_for_release(self):
        interface = _interface()
        _, finish = interface.transfer(KB(4), 0.0)
        # Arrives while the release is still in flight: the grant waits
        # for it to land, then the grant toggle.
        start, _ = interface.transfer(KB(4), 0.0)
        lock = interface.ddr_bus.lock
        assert lock.acquisitions == 2
        assert lock.held_since_ns == finish + 5.0
        assert start == finish + 10.0

    def test_contention_is_counted(self):
        interface = _interface()
        _, finish = interface.transfer(KB(4), 0.0)
        interface.transfer(KB(4), finish)
        assert interface.ddr_bus.lock.contended_acquisitions == 1

    def test_statistics(self):
        interface = _interface()
        _, finish = interface.transfer(KB(4), 0.0)
        stats = interface.ddr_bus.lock.statistics()
        assert stats["acquisitions"] == 1
        assert stats["total_held_ns"] == finish


class TestDDR4Bus:
    def test_faster_than_pcie(self):
        bus = DDR4Bus(DDRConfig())
        pcie = PCIeLink(PCIeConfig())
        assert bus.raw_transfer_time(KB(128)) < pcie.raw_transfer_time(KB(128))

    def test_register_command_is_64_bytes(self):
        interface = _interface()
        interface.deliver_command(0.0)
        bus = interface.ddr_bus
        assert bus.bytes_transferred == 64
        assert interface.commands_delivered == 1

    def test_dma_transfer_holds_lock(self):
        interface = _interface()
        start, finish = interface.transfer(KB(128), 0.0)
        bus = interface.ddr_bus
        assert bus.lock.acquisitions == 1
        assert bus.lock.release_at_ns == finish + 5.0
        assert finish > start

    def test_dma_transfers_serialise_through_lock(self):
        interface = _interface()
        _, first_finish = interface.transfer(KB(128), 0.0)
        second_start, _ = interface.transfer(KB(128), 0.0)
        assert second_start >= first_finish
