"""Columnar AccessStream: round-tripping, views, and trace integration."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.units import KB, MB
from repro.workloads.generators import SequentialPattern
from repro.workloads.trace import AccessStream, MemoryAccess, WorkloadTrace

access_records = st.lists(
    st.builds(MemoryAccess,
              address=st.integers(min_value=0, max_value=2**40),
              size_bytes=st.integers(min_value=1, max_value=KB(64)),
              is_write=st.booleans()),
    max_size=64)


class TestRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(access_records)
    def test_accesses_round_trip(self, records):
        stream = AccessStream.from_accesses(records)
        assert len(stream) == len(records)
        assert list(stream) == records

    @settings(max_examples=50, deadline=None)
    @given(access_records)
    def test_indexing_matches_iteration(self, records):
        stream = AccessStream.from_accesses(records)
        assert [stream[i] for i in range(len(stream))] == list(stream)

    @settings(max_examples=50, deadline=None)
    @given(access_records, st.integers(min_value=1, max_value=17))
    def test_chunks_cover_stream_in_order(self, records, chunk_size):
        stream = AccessStream.from_accesses(records)
        recombined = [access for chunk in stream.chunks(chunk_size)
                      for access in chunk]
        assert recombined == records
        assert all(len(chunk) <= chunk_size
                   for chunk in stream.chunks(chunk_size))

    @settings(max_examples=50, deadline=None)
    @given(access_records)
    def test_counts_match_scalar_records(self, records):
        stream = AccessStream.from_accesses(records)
        assert stream.write_count == sum(1 for r in records if r.is_write)
        assert stream.read_count == sum(1 for r in records if not r.is_write)
        expected_touched = max(
            (r.address + r.size_bytes for r in records), default=0)
        assert stream.touched_bytes() == expected_touched


class TestConstruction:
    def test_from_arrays_broadcasts_scalar_size(self):
        stream = AccessStream.from_arrays([0, 64, 128], 64,
                                          [False, True, False])
        assert stream.sizes.tolist() == [64, 64, 64]
        assert stream[1] == MemoryAccess(64, 64, True)

    def test_from_arrays_validates(self):
        with pytest.raises(ValueError):
            AccessStream.from_arrays([-1], 64, [False])
        with pytest.raises(ValueError):
            AccessStream.from_arrays([0], 0, [False])
        with pytest.raises(ValueError):
            AccessStream.from_arrays([0, 1], [64], [False, True])

    def test_slice_is_view(self):
        stream = AccessStream.from_arrays(np.arange(10) * 64, 64,
                                          np.zeros(10, dtype=bool))
        window = stream[2:5]
        assert isinstance(window, AccessStream)
        assert window.addresses.base is not None  # numpy view, not a copy
        assert list(window) == list(stream)[2:5]

    def test_coerce_passes_streams_through(self):
        stream = AccessStream.from_arrays([0], 64, [False])
        assert AccessStream.coerce(stream) is stream

    def test_equality(self):
        first = AccessStream.from_arrays([0, 64], 64, [False, True])
        second = AccessStream.from_arrays([0, 64], 64, [False, True])
        third = AccessStream.from_arrays([0, 64], 64, [True, True])
        assert first == second
        assert first != third

    def test_invalid_chunk_size(self):
        stream = AccessStream.from_arrays([0], 64, [False])
        with pytest.raises(ValueError):
            list(stream.chunks(0))


class TestGeneratorStream:
    def test_generator_builds_stream_directly(self):
        generator = SequentialPattern(MB(1), KB(4))
        stream = generator.stream(100, write_fraction=0.5)
        assert isinstance(stream, AccessStream)
        assert len(stream) == 100
        assert stream.sizes.tolist() == [KB(4)] * 100
        assert np.array_equal(stream.addresses,
                              SequentialPattern(MB(1), KB(4)).addresses(100))
        assert 0 < stream.write_count < 100

    def test_generator_stream_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            SequentialPattern(MB(1), KB(4)).stream(10, write_fraction=1.5)


class TestWorkloadTraceIntegration:
    def _trace(self, accesses):
        return WorkloadTrace(name="t", suite="s", accesses=accesses,
                             dataset_bytes=MB(1),
                             compute_instructions_per_access=100.0,
                             accesses_per_operation=10.0,
                             operation_unit="ops",
                             total_instructions=1000)

    def test_trace_accepts_record_list(self):
        records = [MemoryAccess(0, 64, False), MemoryAccess(64, 64, True)]
        trace = self._trace(records)
        assert isinstance(trace.stream, AccessStream)
        assert list(trace.stream) == records

    def test_trace_accepts_stream(self):
        stream = AccessStream.from_arrays([0, 64], 64, [False, True])
        trace = self._trace(stream)
        assert trace.stream is stream
        assert trace.stream.write_count == 1
