"""Z-NAND array: die occupancy, operation timing, parallelism."""

import pytest

from repro.config import FlashGeometry, FlashTiming
from repro.flash.znand import FlashOperation, ZNANDArray


def small_array() -> ZNANDArray:
    geometry = FlashGeometry(channels=2, packages_per_channel=1,
                             dies_per_package=2, planes_per_die=1,
                             blocks_per_plane=4, pages_per_block=8)
    return ZNANDArray(geometry, FlashTiming.znand())


class TestOperationTiming:
    def test_read_time(self):
        array = small_array()
        assert array.operation_time_ns(FlashOperation.READ) == 3000.0

    def test_program_time(self):
        array = small_array()
        assert array.operation_time_ns(FlashOperation.PROGRAM) == 100_000.0

    def test_erase_time(self):
        array = small_array()
        assert array.operation_time_ns(FlashOperation.ERASE) == 1_000_000.0


class TestDieOccupancy:
    def test_idle_die_starts_immediately(self):
        array = small_array()
        start, finish = array.issue(0, 0, 0, FlashOperation.READ, 500.0)
        assert start == 500.0
        assert finish == 3500.0

    def test_same_die_serialises(self):
        array = small_array()
        array.issue(0, 0, 0, FlashOperation.READ, 0.0)
        start, finish = array.issue(0, 0, 0, FlashOperation.READ, 0.0)
        assert start == 3000.0
        assert finish == 6000.0

    def test_different_dies_overlap(self):
        array = small_array()
        _, finish_a = array.issue(0, 0, 0, FlashOperation.READ, 0.0)
        start_b, finish_b = array.issue(0, 0, 1, FlashOperation.READ, 0.0)
        assert start_b == 0.0
        assert finish_a == finish_b == 3000.0

    def test_invalid_die_address(self):
        array = small_array()
        with pytest.raises(ValueError):
            array.issue(9, 0, 0, FlashOperation.READ, 0.0)
