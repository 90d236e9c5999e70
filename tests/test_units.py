"""Unit-conversion helpers."""

import pytest

from repro import units


class TestTimeConversions:
    def test_us_to_ns(self):
        assert units.us(3) == 3000.0

    def test_roundtrip_us(self):
        assert units.to_us(units.us(7.25)) == pytest.approx(7.25)

    def test_roundtrip_ms(self):
        assert units.to_ms(units.us(125)) == pytest.approx(0.125)

class TestSizeConversions:
    def test_kb(self):
        assert units.KB(4) == 4096

    def test_mb(self):
        assert units.MB(1) == 1024 ** 2

    def test_gb(self):
        assert units.GB(8) == 8 * 1024 ** 3

    def test_to_gb_roundtrip(self):
        assert units.to_GB(units.GB(800)) == pytest.approx(800.0)

    def test_to_mb_roundtrip(self):
        assert units.to_MB(units.MB(512)) == pytest.approx(512.0)


class TestBandwidth:
    def test_gb_per_s_converts_to_bytes_per_ns(self):
        # 1 GB/s is ~1.074 bytes per ns (GiB-based).
        assert units.gb_per_s(1.0) == pytest.approx(1024 ** 3 / 1e9)

    def test_transfer_time_basic(self):
        bandwidth = units.gb_per_s(4.0)
        size = units.KB(4)
        assert units.transfer_time_ns(size, bandwidth) == pytest.approx(
            size / bandwidth)

    def test_transfer_time_zero_bandwidth_is_free(self):
        assert units.transfer_time_ns(units.MB(1), 0.0) == 0.0

    def test_bandwidth_gbps_roundtrip(self):
        elapsed = units.transfer_time_ns(units.GB(1), units.gb_per_s(2.0))
        assert units.bandwidth_gbps(units.GB(1), elapsed) == pytest.approx(2.0)

    def test_bandwidth_gbps_zero_time(self):
        assert units.bandwidth_gbps(units.GB(1), 0.0) == 0.0
