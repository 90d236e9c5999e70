"""Batched flash submission API: ``submit_batch`` and the batch-of-one shim.

The contract under test is the one :meth:`repro.flash.ssd.SSD.submit_batch`
docstring states: a batch is bit-identical to submitting each request
through the scalar entry point in order.  Since :meth:`SSD.submit` is
itself the batch-of-one wrapper, the parity tests here compare two fresh
devices — one fed scalar calls, one fed whole vectors — and require every
per-request start, finish and latency and every device statistic to match
exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import FlashGeometry, PCIeConfig, SSDConfig
from repro.flash import IOBatchResult, IORequest, IORequestBatch, SSD
from repro.interconnect import PCIeLink
from repro.units import KB, MB, us


def small_ssd(buffer_enabled: bool = True) -> SSD:
    geometry = FlashGeometry(channels=4, packages_per_channel=1,
                             dies_per_package=2, planes_per_die=1,
                             blocks_per_plane=32, pages_per_block=32)
    config = SSDConfig(name="ull-flash", geometry=geometry,
                       dram_buffer_bytes=MB(1),
                       dram_buffer_enabled=buffer_enabled)
    return SSD(config)


def scalar_replay(ssd: SSD, batch: IORequestBatch) -> list:
    """Feed *batch* through the scalar entry point, one request at a time."""
    return [ssd.submit(batch.request(j)) for j in range(len(batch))]


def assert_batch_matches_scalar(batch_result: IOBatchResult,
                                scalar_results: list, batched_ssd: SSD,
                                scalar_ssd: SSD) -> None:
    assert len(batch_result) == len(scalar_results)
    for j, scalar in enumerate(scalar_results):
        assert batch_result.start_ns[j] == scalar.start_ns
        assert batch_result.finish_ns[j] == scalar.finish_ns
        assert batch_result.latency_ns[j] == scalar.latency_ns
    assert batched_ssd.statistics() == scalar_ssd.statistics()


class TestBatchConstruction:
    def test_columns_accept_numpy_arrays(self):
        batch = IORequestBatch(
            is_write=np.array([False, True]),
            byte_offset=np.array([0, KB(4)], dtype=np.int64),
            size_bytes=np.array([KB(4), KB(4)], dtype=np.int64),
            submit_ns=np.array([0.0, 100.0]))
        assert len(batch) == 2
        assert batch.byte_offset == [0, KB(4)]

    def test_scalar_columns_broadcast(self):
        batch = IORequestBatch(is_write=False, byte_offset=[0, KB(4), KB(8)],
                               size_bytes=KB(4), submit_ns=0.0)
        assert batch.size_bytes == [KB(4)] * 3
        assert batch.is_write == [False] * 3

    def test_open_loop_requires_submit_clock(self):
        with pytest.raises(ValueError):
            IORequestBatch(is_write=False, byte_offset=[0], size_bytes=[KB(4)])

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            IORequestBatch(is_write=False, byte_offset=[-1],
                           size_bytes=[KB(4)], submit_ns=[0.0])

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            IORequestBatch(is_write=False, byte_offset=[0], size_bytes=[0],
                           submit_ns=[0.0])

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError):
            IORequestBatch(is_write=[False], byte_offset=[0, KB(4)],
                           size_bytes=[KB(4)], submit_ns=[0.0])

    def test_request_view_round_trips(self):
        batch = IORequestBatch(is_write=[True], byte_offset=[KB(8)],
                               size_bytes=[KB(4)], submit_ns=[50.0],
                               fua=[True])
        request = batch.request(0)
        assert request == IORequest(is_write=True, byte_offset=KB(8),
                                    size_bytes=KB(4), submit_ns=50.0, fua=True)

    def test_of_request_is_a_batch_of_one(self):
        request = IORequest(is_write=False, byte_offset=0, size_bytes=KB(4),
                            submit_ns=10.0)
        batch = IORequestBatch.of_request(request)
        assert len(batch) == 1
        assert batch.request(0) == request

    def test_chained_batch_has_no_submit_column(self):
        batch = IORequestBatch(is_write=False, byte_offset=[0, KB(4)],
                               size_bytes=KB(4), chained=True, start_ns=5.0)
        assert batch.submit_ns is None
        with pytest.raises(ValueError):
            batch.request(0)


class TestScalarShimParity:
    """``SSD.submit`` (batch-of-one) vs a direct multi-request batch."""

    def test_read_sequence_matches(self):
        scalar_ssd = small_ssd()
        batched_ssd = small_ssd()
        for ssd in (scalar_ssd, batched_ssd):
            ssd.precondition(0, 64)
        offsets = [KB(4) * (j % 8) for j in range(32)]
        batch = IORequestBatch(is_write=False, byte_offset=offsets,
                               size_bytes=KB(4),
                               submit_ns=[j * 500.0 for j in range(32)])
        scalar_results = scalar_replay(scalar_ssd, batch)
        batch_result = batched_ssd.submit_batch(batch)
        assert_batch_matches_scalar(batch_result, scalar_results,
                                    batched_ssd, scalar_ssd)

    def test_mixed_read_write_fua_matches(self):
        scalar_ssd = small_ssd()
        batched_ssd = small_ssd()
        for ssd in (scalar_ssd, batched_ssd):
            ssd.precondition(0, 32)
        count = 48
        batch = IORequestBatch(
            is_write=[j % 3 == 0 for j in range(count)],
            byte_offset=[KB(4) * (j % 16) for j in range(count)],
            size_bytes=[KB(4) if j % 5 else KB(16) for j in range(count)],
            submit_ns=[j * 200.0 for j in range(count)],
            fua=[j % 7 == 0 for j in range(count)])
        scalar_results = scalar_replay(scalar_ssd, batch)
        batch_result = batched_ssd.submit_batch(batch)
        assert_batch_matches_scalar(batch_result, scalar_results,
                                    batched_ssd, scalar_ssd)

    def test_queue_pressure_matches(self):
        # Back-to-back submissions at one clock exercise the bounded
        # outstanding-queue admission path.
        scalar_ssd = small_ssd(buffer_enabled=False)
        batched_ssd = small_ssd(buffer_enabled=False)
        for ssd in (scalar_ssd, batched_ssd):
            ssd.precondition(0, 64)
        batch = IORequestBatch(is_write=False,
                               byte_offset=[KB(4) * j for j in range(40)],
                               size_bytes=KB(4), submit_ns=0.0)
        scalar_results = scalar_replay(scalar_ssd, batch)
        batch_result = batched_ssd.submit_batch(batch)
        assert_batch_matches_scalar(batch_result, scalar_results,
                                    batched_ssd, scalar_ssd)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.booleans(),
                              st.integers(min_value=0, max_value=63),
                              st.sampled_from([KB(1), KB(4), KB(16)]),
                              st.booleans()),
                    min_size=1, max_size=24),
           st.booleans())
    def test_property_batch_equals_scalar(self, rows, buffered):
        scalar_ssd = small_ssd(buffer_enabled=buffered)
        batched_ssd = small_ssd(buffer_enabled=buffered)
        for ssd in (scalar_ssd, batched_ssd):
            ssd.precondition(0, 64)
        batch = IORequestBatch(
            is_write=[row[0] for row in rows],
            byte_offset=[KB(4) * row[1] for row in rows],
            size_bytes=[row[2] for row in rows],
            submit_ns=[j * 150.0 for j in range(len(rows))],
            fua=[row[3] for row in rows])
        scalar_results = scalar_replay(scalar_ssd, batch)
        batch_result = batched_ssd.submit_batch(batch)
        assert_batch_matches_scalar(batch_result, scalar_results,
                                    batched_ssd, scalar_ssd)


class TestChainedParity:
    """Chained batches vs the equivalent scalar closed loop."""

    def chained_scalar_replay(self, ssd, offsets, writes, pre, post,
                              link=None, link_bytes=0):
        now = 0.0
        latencies = []
        services = []
        for j, offset in enumerate(offsets):
            now += pre[j]
            result = ssd.submit(IORequest(is_write=writes[j],
                                          byte_offset=offset,
                                          size_bytes=KB(4), submit_ns=now))
            service = result.latency_ns
            if link is not None:
                start, finish = link.transfer(link_bytes, result.finish_ns)
                service = result.latency_ns + (finish - start)
            latencies.append(result.latency_ns)
            services.append(service)
            now += post[j] + service
        return now, latencies, services

    def test_chained_without_link_matches_scalar_loop(self):
        scalar_ssd = small_ssd()
        batched_ssd = small_ssd()
        for ssd in (scalar_ssd, batched_ssd):
            ssd.precondition(0, 64)
        count = 24
        offsets = [KB(4) * (j % 12) for j in range(count)]
        writes = [j % 4 == 0 for j in range(count)]
        pre = [float(50 + 13 * j) for j in range(count)]
        post = [float(20 + 7 * j) for j in range(count)]
        end, latencies, services = self.chained_scalar_replay(
            scalar_ssd, offsets, writes, pre, post)
        batch = IORequestBatch(is_write=writes, byte_offset=offsets,
                               size_bytes=KB(4), chained=True, start_ns=0.0,
                               pre_gap_ns=pre, post_gap_ns=post)
        result = batched_ssd.submit_batch(batch)
        assert result.latency_ns == latencies
        assert result.service_latency_ns == services
        assert result.end_ns == end
        assert batched_ssd.statistics() == scalar_ssd.statistics()

    def test_chained_with_link_matches_scalar_loop(self):
        scalar_ssd = small_ssd()
        batched_ssd = small_ssd()
        for ssd in (scalar_ssd, batched_ssd):
            ssd.precondition(0, 64)
        scalar_link = PCIeLink(PCIeConfig())
        batched_link = PCIeLink(PCIeConfig())
        count = 16
        offsets = [KB(4) * (j % 6) for j in range(count)]
        writes = [j % 5 == 0 for j in range(count)]
        pre = [float(30 * (j % 3)) for j in range(count)]
        post = [float(11 * (j % 4)) for j in range(count)]
        end, latencies, services = self.chained_scalar_replay(
            scalar_ssd, offsets, writes, pre, post,
            link=scalar_link, link_bytes=KB(4))
        batch = IORequestBatch(is_write=writes, byte_offset=offsets,
                               size_bytes=KB(4), chained=True, start_ns=0.0,
                               pre_gap_ns=pre, post_gap_ns=post,
                               link=batched_link, link_bytes=KB(4))
        result = batched_ssd.submit_batch(batch)
        assert result.latency_ns == latencies
        assert result.service_latency_ns == services
        assert result.end_ns == end
        assert batched_link.statistics() == scalar_link.statistics()
        assert batched_ssd.statistics() == scalar_ssd.statistics()


class TestEmptyAndEdgeBatches:
    def test_empty_batch(self):
        ssd = small_ssd()
        batch = IORequestBatch(is_write=[], byte_offset=[], size_bytes=[],
                               submit_ns=[])
        result = ssd.submit_batch(batch)
        assert len(result) == 0
        assert ssd.requests_served == 0

    def test_statistics_use_flash_namespace(self):
        ssd = small_ssd()
        ssd.precondition(0, 8)
        ssd.read(0, KB(4), at_ns=0.0)
        stats = ssd.statistics()
        assert all(key.startswith("flash_") for key in stats)
        assert stats["flash_requests_served"] == 1.0
