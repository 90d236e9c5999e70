"""Batched flash submission API: ``submit_batch`` and the batch-of-one shim.

The contract under test is the one :meth:`repro.flash.ssd.SSD.submit_batch`
docstring states: a sequence of :class:`~repro.flash.ssd.IORequest` is
bit-identical to submitting each request through the scalar entry point in
order.  Since :meth:`SSD.submit` is itself the batch-of-one wrapper, the
parity tests here compare two fresh devices — one fed scalar calls, one fed
whole sequences — and require every per-request start, finish and latency
and every device statistic to match exactly.
"""

from hypothesis import given, settings, strategies as st

from repro.config import FlashGeometry, SSDConfig
from repro.flash import IORequest, IOResult, SSD
from repro.units import KB, MB


def small_ssd(buffer_enabled: bool = True) -> SSD:
    geometry = FlashGeometry(channels=4, packages_per_channel=1,
                             dies_per_package=2, planes_per_die=1,
                             blocks_per_plane=32, pages_per_block=32)
    config = SSDConfig(name="ull-flash", geometry=geometry,
                       dram_buffer_bytes=MB(1),
                       dram_buffer_enabled=buffer_enabled)
    return SSD(config)


def scalar_replay(ssd: SSD, requests: list) -> list:
    """Feed *requests* through the scalar entry point, one at a time."""
    return [ssd.submit(request) for request in requests]


def assert_batch_matches_scalar(batch_results: list, scalar_results: list,
                                batched_ssd: SSD, scalar_ssd: SSD) -> None:
    assert len(batch_results) == len(scalar_results)
    for batched, scalar in zip(batch_results, scalar_results):
        assert batched.request == scalar.request
        assert batched.start_ns == scalar.start_ns
        assert batched.finish_ns == scalar.finish_ns
        assert batched.latency_ns == scalar.latency_ns
    assert batched_ssd.statistics() == scalar_ssd.statistics()


class TestBatchOfOne:
    def test_submit_is_a_batch_of_one(self):
        request = IORequest(is_write=False, byte_offset=0, size_bytes=KB(4),
                            submit_ns=10.0)
        scalar_ssd = small_ssd()
        batched_ssd = small_ssd()
        for ssd in (scalar_ssd, batched_ssd):
            ssd.precondition(0, 8)
        [batched] = batched_ssd.submit_batch([request])
        assert batched == scalar_ssd.submit(request)
        assert isinstance(batched, IOResult)
        assert batched_ssd.statistics() == scalar_ssd.statistics()


class TestScalarShimParity:
    """``SSD.submit`` (batch-of-one) vs a direct multi-request batch."""

    def test_read_sequence_matches(self):
        scalar_ssd = small_ssd()
        batched_ssd = small_ssd()
        for ssd in (scalar_ssd, batched_ssd):
            ssd.precondition(0, 64)
        requests = [IORequest(is_write=False, byte_offset=KB(4) * (j % 8),
                              size_bytes=KB(4), submit_ns=j * 500.0)
                    for j in range(32)]
        scalar_results = scalar_replay(scalar_ssd, requests)
        batch_results = batched_ssd.submit_batch(requests)
        assert_batch_matches_scalar(batch_results, scalar_results,
                                    batched_ssd, scalar_ssd)

    def test_mixed_read_write_fua_matches(self):
        scalar_ssd = small_ssd()
        batched_ssd = small_ssd()
        for ssd in (scalar_ssd, batched_ssd):
            ssd.precondition(0, 32)
        requests = [IORequest(is_write=j % 3 == 0,
                              byte_offset=KB(4) * (j % 16),
                              size_bytes=KB(4) if j % 5 else KB(16),
                              submit_ns=j * 200.0, fua=j % 7 == 0)
                    for j in range(48)]
        scalar_results = scalar_replay(scalar_ssd, requests)
        batch_results = batched_ssd.submit_batch(requests)
        assert_batch_matches_scalar(batch_results, scalar_results,
                                    batched_ssd, scalar_ssd)

    def test_queue_pressure_matches(self):
        # Back-to-back submissions at one clock exercise the bounded
        # outstanding-queue admission path.
        scalar_ssd = small_ssd(buffer_enabled=False)
        batched_ssd = small_ssd(buffer_enabled=False)
        for ssd in (scalar_ssd, batched_ssd):
            ssd.precondition(0, 64)
        requests = [IORequest(is_write=False, byte_offset=KB(4) * j,
                              size_bytes=KB(4), submit_ns=0.0)
                    for j in range(40)]
        scalar_results = scalar_replay(scalar_ssd, requests)
        batch_results = batched_ssd.submit_batch(requests)
        assert_batch_matches_scalar(batch_results, scalar_results,
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
        requests = [IORequest(is_write=is_write, byte_offset=KB(4) * page,
                              size_bytes=size, submit_ns=j * 150.0, fua=fua)
                    for j, (is_write, page, size, fua) in enumerate(rows)]
        scalar_results = scalar_replay(scalar_ssd, requests)
        batch_results = batched_ssd.submit_batch(requests)
        assert_batch_matches_scalar(batch_results, scalar_results,
                                    batched_ssd, scalar_ssd)


class TestEmptyAndEdgeBatches:
    def test_empty_batch(self):
        ssd = small_ssd()
        assert ssd.submit_batch([]) == []
        assert ssd.requests_served == 0

    def test_statistics_use_flash_namespace(self):
        ssd = small_ssd()
        ssd.precondition(0, 8)
        ssd.read(0, KB(4), at_ns=0.0)
        stats = ssd.statistics()
        assert all(key.startswith("flash_") for key in stats)
        assert stats["flash_requests_served"] == 1.0
