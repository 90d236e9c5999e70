"""Flash channel scheduler: serialisation per channel."""

import pytest

from repro.config import FlashGeometry, SSDConfig
from repro.flash.channel import ChannelScheduler
from repro.units import mb_per_s


def scheduler(channels: int = 4) -> ChannelScheduler:
    geometry = FlashGeometry(channels=channels)
    return ChannelScheduler(geometry, mb_per_s(800))


class TestTransferTiming:
    def test_transfer_time_scales_with_size(self):
        sched = scheduler()
        assert sched.transfer_time(8192) == pytest.approx(
            2 * sched.transfer_time(4096))

    def test_reserve_idle_channel(self):
        sched = scheduler()
        start, finish = sched.reserve(0, 4096, 100.0)
        assert start == 100.0
        assert finish == pytest.approx(100.0 + sched.transfer_time(4096))

    def test_same_channel_serialises(self):
        sched = scheduler()
        _, first_finish = sched.reserve(0, 4096, 0.0)
        start, _ = sched.reserve(0, 4096, 0.0)
        assert start == pytest.approx(first_finish)

    def test_different_channels_overlap(self):
        sched = scheduler()
        sched.reserve(0, 4096, 0.0)
        start, _ = sched.reserve(1, 4096, 0.0)
        assert start == 0.0


class TestValidation:
    def test_unknown_channel_rejected(self):
        with pytest.raises(ValueError):
            scheduler().reserve(99, 4096, 0.0)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            SSDConfig(channel_bw_bytes_per_ns=0.0)
