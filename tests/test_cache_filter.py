"""The L1/L2 filter stage: its inlined kernel and its per-trace memo.

``CacheHierarchy.access_batch`` must leave exactly the state the scalar
``CacheHierarchy.access`` loop leaves -- same outcomes, same counters, same
LRU order and dirty bits in every set -- on any configuration, including
tiny ones where every set evicts and streams that mix line-sized and wider
references.  ``filter_trace`` runs that kernel once per (trace,
``CacheConfig``) and every platform replaying the trace reuses the result.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.config import CacheConfig, default_config
from repro.host.caches import (
    BYPASS,
    L1_HIT,
    L2_HIT,
    MISS,
    CacheHierarchy,
    filter_trace,
)
from repro.platforms.registry import create_platform
from repro.runner import RunSpec, run_result_to_dict
from repro.runner.parallel import execute_spec
from repro.runner.presets import SMOKE_SCALE, get_preset
from repro.units import KB
from repro.workloads.registry import build_trace, scale_system_config

SCALE = SMOKE_SCALE
CODES = {"L1": L1_HIT, "L2": L2_HIT, None: MISS}


def scalar_walk(hierarchy, addresses, writes, sizes):
    """The reference: per-access ``access`` / ``record_bypass`` codes."""
    codes = []
    for address, is_write, size in zip(addresses, writes, sizes):
        if size <= hierarchy.config.line_size:
            codes.append(CODES[hierarchy.access(address, is_write).hit_level])
        else:
            hierarchy.record_bypass()
            codes.append(BYPASS)
    return np.array(codes, dtype=np.uint8)


def counters(hierarchy):
    return (hierarchy.accesses, hierarchy.memory_accesses,
            [(level.hits, level.misses, level.writebacks)
             for level in (hierarchy.l1, hierarchy.l2)])


@st.composite
def streams(draw):
    line = draw(st.sampled_from([16, 32, 64]))
    config = CacheConfig(
        line_size=line,
        l1_size_bytes=line * draw(st.integers(1, 24)),
        l2_size_bytes=line * draw(st.integers(1, 96)),
        l1_latency_ns=draw(st.sampled_from([0.5, 1.0, 1.3])),
        l2_latency_ns=draw(st.sampled_from([2.0, 5.0, 7.7])))
    # A footprint of a few dozen lines: tiny sets both hit and evict.
    span = draw(st.integers(1, 48))
    length = draw(st.integers(0, 300))
    rows = draw(st.lists(st.tuples(
        st.integers(0, span),                     # line index
        st.integers(0, line - 1),                 # offset within the line
        st.booleans(),                            # store?
        st.sampled_from([1, 8, line, line + 1, 4096])),
        min_size=length, max_size=length))
    addresses = [index * line + offset for index, offset, _, _ in rows]
    writes = [write for _, _, write, _ in rows]
    sizes = [size for _, _, _, size in rows]
    cut = draw(st.integers(0, len(rows)))
    return config, addresses, writes, sizes, cut


@given(streams())
@settings(max_examples=120, deadline=None)
def test_access_batch_matches_scalar_access(case):
    config, addresses, writes, sizes, cut = case
    scalar = CacheHierarchy(config)
    expected = scalar_walk(scalar, addresses, writes, sizes)
    batched = CacheHierarchy(config)
    pieces = []
    # Two calls, so state carried across batches is exercised too.
    for start, stop in ((0, cut), (cut, len(addresses))):
        pieces.append(batched.access_batch(
            np.array(addresses[start:stop], dtype=np.int64),
            np.array(writes[start:stop], dtype=bool),
            np.array(sizes[start:stop], dtype=np.int64)))
    codes = np.concatenate(pieces)
    np.testing.assert_array_equal(codes, expected)
    scalar_latency = [
        config.l2_latency_ns if code == BYPASS
        else config.l1_latency_ns if code == L1_HIT
        else config.l1_latency_ns + config.l2_latency_ns
        for code in expected.tolist()]
    assert batched.outcome_latency_ns[codes].tolist() == scalar_latency
    np.testing.assert_array_equal(codes >= MISS, expected >= MISS)
    assert counters(batched) == counters(scalar)
    assert batched.statistics() == scalar.statistics()
    for level, reference in ((batched.l1, scalar.l1),
                             (batched.l2, scalar.l2)):
        # OrderedDict equality is order-sensitive: LRU order and dirty
        # bits must both match.
        assert level._sets == reference._sets


@pytest.fixture(scope="module")
def config():
    return scale_system_config(default_config(), SCALE)


def test_second_platform_reuses_the_filter(config, monkeypatch):
    calls = []
    kernel = CacheHierarchy.access_batch

    def counting(self, *args, **kwargs):
        calls.append(len(args[0]))
        return kernel(self, *args, **kwargs)

    monkeypatch.setattr(CacheHierarchy, "access_batch", counting)
    trace = build_trace("update", SCALE)
    first = create_platform("oracle", config)
    first.run(trace)
    assert sum(calls) == len(trace)
    second = create_platform("hams-TE", config)
    second.run(trace)
    assert sum(calls) == len(trace)
    assert list(trace.cache_filters) == [config.caches]
    assert second.caches.statistics() == first.caches.statistics()


def test_cache_overrides_get_their_own_memo_entry(config):
    traces = {}
    base = RunSpec("oracle", "update")
    small = RunSpec("oracle", "update",
                    config_overrides={"caches": {"l1_size_bytes": KB(4),
                                                 "l2_size_bytes": KB(16)}})
    base_result = execute_spec(base, config, SCALE, traces)
    small_result = execute_spec(small, config, SCALE, traces)
    (trace,) = traces.values()
    assert len(trace.cache_filters) == 2
    fresh = execute_spec(small, config, SCALE)
    assert run_result_to_dict(small_result) == run_result_to_dict(fresh)
    assert small_result.extras != base_result.extras


def test_filter_stage_is_memoised_per_config(config):
    trace = build_trace("seqRd", SCALE)
    stage = filter_trace(trace, config.caches)
    assert filter_trace(trace, config.caches) is stage
    # Page-granular references bypass L1/L2 without a kernel walk.
    assert set(stage.outcomes.tolist()) == {BYPASS}
    assert stage.outcomes.dtype == np.uint8
    assert len(stage.outcomes) == len(trace)


def test_pool_and_serial_fig16_smoke_are_identical():
    preset = get_preset("fig16")
    platforms, workloads = list(preset.platforms), list(preset.workloads)
    serial = Session(SCALE, workers=1, executor="serial").compare(
        platforms, workloads)
    pooled = Session(SCALE, workers=2, executor="pool").compare(
        platforms, workloads)
    assert len(serial.results) == len(platforms) * len(workloads)
    assert {key: run_result_to_dict(result)
            for key, result in pooled.results.items()} == \
        {key: run_result_to_dict(result)
         for key, result in serial.results.items()}


@pytest.mark.parametrize("platform_name", ["mmap", "nvdimm-C", "hams-TE"])
@pytest.mark.parametrize("workload", ["update", "rndWr"])
def test_batched_statistics_equal_the_scalar_walk(platform_name, workload,
                                                  config):
    trace = build_trace(workload, SCALE)
    scalar = create_platform(platform_name, config)
    scalar.run(trace, execution="scalar")
    batched = create_platform(platform_name, config)
    batched.run(trace, execution="batched")
    assert batched.caches.statistics() == scalar.caches.statistics()
    assert counters(batched.caches) == counters(scalar.caches)
