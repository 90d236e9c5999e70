"""Memory devices: DDR4 DRAM timing, NVDIMM-N state machine, Optane model."""

import pytest

from repro.config import DDRConfig, NVDIMMConfig, OptaneConfig
from repro.memory.dram import DRAMDevice
from repro.memory.nvdimm import NVDIMM, NVDIMMState
from repro.memory.optane import OptaneDCPMM
from repro.units import GB, KB, MB


class TestDRAMDevice:
    def test_row_hit_is_faster_than_miss(self):
        dram = DRAMDevice(DDRConfig(), GB(1))
        assert dram.line_access_ns(row_hit=True) < dram.line_access_ns(row_hit=False)

    def test_expected_line_latency_between_hit_and_miss(self):
        dram = DRAMDevice(DDRConfig(), GB(1))
        expected = dram.expected_line_access_ns()
        assert dram.line_access_ns(True) <= expected <= dram.line_access_ns(False)

    def test_bulk_access_dominated_by_bandwidth(self):
        dram = DRAMDevice(DDRConfig(), GB(1))
        assert dram.bulk_access_ns(KB(128)) > dram.bulk_access_ns(KB(4))

    def test_4kb_access_latency_is_sub_microsecond_scale(self):
        """A 4 KB page access on DDR4-2133 is well under the ~8 us ULL read."""
        dram = DRAMDevice(DDRConfig(), GB(1))
        assert dram.bulk_access_ns(KB(4)) < 3_000.0

    def test_access_records_traffic(self):
        dram = DRAMDevice(DDRConfig(), GB(1))
        dram.access(64, is_write=False)
        dram.access(KB(4), is_write=True)
        stats = dram.statistics()
        assert stats["reads"] == 1
        assert stats["writes"] == 1
        assert dram.bytes_total == 64 + KB(4)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            DRAMDevice(DDRConfig(), 0)
        with pytest.raises(ValueError):
            DRAMDevice(DDRConfig(), GB(1), row_hit_rate=1.5)
        with pytest.raises(ValueError):
            DRAMDevice(DDRConfig(), GB(1)).bulk_access_ns(0)


class TestNVDIMM:
    def test_pinned_region_layout(self):
        nvdimm = NVDIMM(NVDIMMConfig())
        assert nvdimm.cacheable_bytes == GB(8) - MB(512)

    def test_access_while_online(self):
        nvdimm = NVDIMM(NVDIMMConfig())
        result = nvdimm.access(64, is_write=False)
        assert result.latency_ns > 0

    def test_backup_restore_cycle(self):
        nvdimm = NVDIMM(NVDIMMConfig())
        backup_ns = nvdimm.power_failure()
        assert nvdimm.state is NVDIMMState.OFFLINE
        assert backup_ns > 0
        restore_ns = nvdimm.power_restore()
        assert nvdimm.state is NVDIMMState.ONLINE
        assert restore_ns > 0
        assert nvdimm.backups_performed == 1
        assert nvdimm.restores_performed == 1

    def test_access_during_outage_rejected(self):
        nvdimm = NVDIMM(NVDIMMConfig())
        nvdimm.power_failure()
        with pytest.raises(RuntimeError):
            nvdimm.access(64, is_write=False)

    def test_restore_requires_offline(self):
        nvdimm = NVDIMM(NVDIMMConfig())
        with pytest.raises(RuntimeError):
            nvdimm.power_restore()

    def test_double_failure_rejected(self):
        nvdimm = NVDIMM(NVDIMMConfig())
        nvdimm.power_failure()
        with pytest.raises(RuntimeError):
            nvdimm.power_failure()

    def test_partial_backup_is_faster(self):
        full = NVDIMM(NVDIMMConfig())
        partial = NVDIMM(NVDIMMConfig())
        assert partial.power_failure(dirty_bytes=MB(512)) < full.power_failure()


class TestOptane:
    def test_fine_grained_access_wastes_bandwidth(self):
        optane = OptaneDCPMM(OptaneConfig())
        optane.read(64)
        assert optane.bandwidth_waste_ratio == pytest.approx(256 / 64)

    def test_read_latency_grows_with_size(self):
        optane = OptaneDCPMM(OptaneConfig())
        assert optane.read(KB(4)).latency_ns > optane.read(64).latency_ns

    def test_xpbuffer_absorbs_small_write_bursts(self):
        optane = OptaneDCPMM(OptaneConfig())
        first = optane.write(256)
        assert first.hit_xpbuffer
        assert first.latency_ns == pytest.approx(OptaneConfig().write_latency_ns)

    def test_sustained_writes_spill_to_media(self):
        optane = OptaneDCPMM(OptaneConfig())
        results = [optane.write(KB(4)) for _ in range(16)]
        assert any(not result.hit_xpbuffer for result in results)

    def test_statistics(self):
        optane = OptaneDCPMM(OptaneConfig())
        optane.read(64)
        optane.write(64)
        stats = optane.statistics()
        assert stats["reads"] == 1
        assert stats["writes"] == 1
        assert stats["bytes_internal"] >= stats["bytes_requested"]

    def test_invalid_sizes(self):
        optane = OptaneDCPMM(OptaneConfig())
        with pytest.raises(ValueError):
            optane.read(0)
        with pytest.raises(ValueError):
            optane.write(-1)

