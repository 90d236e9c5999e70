"""The L1/L2 filter stage: its set-parallel kernel and its per-trace memo.

``CacheLevel.walk`` must leave exactly the state the scalar
``lookup``/``fill`` sequence leaves, and ``CacheHierarchy.access_batch``
exactly the state the scalar ``CacheHierarchy.access`` loop leaves -- same
outcomes, same counters, same LRU order and dirty bits in every set -- on
any configuration, including tiny ones where every set evicts, direct-mapped
and wide ones, and streams that mix line-sized and wider references.
``filter_trace`` runs that kernel once per (trace, ``CacheConfig``), window
by window, and every platform replaying the trace reuses the result.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.host.caches as caches
from oracles import run_scalar
from repro.api import Session
from repro.config import CacheConfig, default_config
from repro.host.caches import (
    BYPASS,
    L1_HIT,
    L2_HIT,
    MISS,
    CacheHierarchy,
    CacheLevel,
    filter_trace,
)
from repro.platforms.registry import create_platform
from repro.runner import RunSpec, run_result_to_dict
from repro.runner.parallel import execute_spec
from repro.runner.presets import SMOKE_SCALE, get_preset
from repro.scenario import ScenarioSpec, TenantSpec, scenario_source
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


def lru_sets(level):
    """Each set's resident ``(tag, dirty)`` pairs, least recently used
    first: the order-sensitive state two walks must agree on."""
    ways = level.associativity
    tags = level.tags.reshape(-1, ways).tolist()
    dirty = level.dirty.reshape(-1, ways).tolist()
    order = np.argsort(level.stamps.reshape(-1, ways), axis=1).tolist()
    return [[(tags[row][way], dirty[row][way])
             for way in order[row] if tags[row][way] >= 0]
            for row in range(level.num_sets)]


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
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)),
                                min_size=2, max_size=2)))
    return config, addresses, writes, sizes, cuts


@given(streams())
@settings(max_examples=120, deadline=None)
def test_access_batch_matches_scalar_access(case):
    config, addresses, writes, sizes, (first, second) = case
    scalar = CacheHierarchy(config)
    expected = scalar_walk(scalar, addresses, writes, sizes)
    batched = CacheHierarchy(config)

    def batch(start, stop):
        return batched.access_batch(
            np.array(addresses[start:stop], dtype=np.int64),
            np.array(writes[start:stop], dtype=bool),
            np.array(sizes[start:stop], dtype=np.int64))

    # A batch, a scalar stretch, then a batch again: the state and the
    # stamp clock carried between the two paths are exercised too.
    codes = np.concatenate([
        batch(0, first),
        scalar_walk(batched, addresses[first:second], writes[first:second],
                    sizes[first:second]),
        batch(second, len(addresses))])
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
        # Lists in stamp order: LRU order and dirty bits must both match.
        assert lru_sets(level) == lru_sets(reference)


def scalar_level_walk(level, lines, writes):
    """The reference: per-line ``lookup``, then ``fill`` on a miss."""
    hits = []
    for line, is_write in zip(lines, writes):
        address = line * level.line_size
        hit = level.lookup(address, is_write)
        if not hit:
            level.fill(address, dirty=is_write)
        hits.append(hit)
    return np.array(hits, dtype=bool)


def level_stream(kind, num_sets, ways, length, seed):
    """A line stream over about twice the level's capacity: ``skewed``
    sends most references to one hot set, so rounds get long and narrow;
    ``spread`` draws lines uniformly, so rounds are wide."""
    rng = np.random.default_rng(seed)
    lines = rng.integers(0, 2 * num_sets * ways, size=length)
    if kind == "skewed":
        hot = rng.random(length) < 0.8
        lines[hot] = 1 % num_sets + num_sets * rng.integers(
            0, 2 * ways, size=int(hot.sum()))
    return lines.astype(np.int64), rng.random(length) < 0.4


@pytest.mark.parametrize("kind", ["skewed", "spread"])
@pytest.mark.parametrize("num_sets", [1, 3, 64, 300])
@pytest.mark.parametrize("ways", [1, 2, 4, 8, 16])
def test_level_walk_matches_scalar_lookup_fill(ways, num_sets, kind):
    batched, scalar = (CacheLevel("L", num_sets * ways * 64, 64, 1.0,
                                  associativity=ways) for _ in range(2))
    assert batched.num_sets == num_sets
    lines, writes = level_stream(kind, num_sets, ways, 3000,
                                 seed=ways * 1000 + num_sets)
    expected = scalar_level_walk(scalar, lines.tolist(), writes.tolist())
    # Two walks around a scalar stretch share the level's clock.
    cut = (len(lines) // 3, 2 * len(lines) // 3)
    hits = np.concatenate([
        batched.walk(lines[:cut[0]], writes[:cut[0]]),
        scalar_level_walk(batched, lines[cut[0]:cut[1]].tolist(),
                          writes[cut[0]:cut[1]].tolist()),
        batched.walk(lines[cut[1]:], writes[cut[1]:])])
    np.testing.assert_array_equal(hits, expected)
    assert 0 < expected.sum() < len(expected)
    assert (batched.hits, batched.misses, batched.writebacks) == \
        (scalar.hits, scalar.misses, scalar.writebacks)
    assert scalar.writebacks > 0
    assert lru_sets(batched) == lru_sets(scalar)


def test_level_walk_of_nothing_leaves_the_level_alone():
    level = CacheLevel("L", 4 * 64, 64, 1.0, associativity=2)
    level.fill(0, dirty=True)
    before = lru_sets(level), level.clock
    hits = level.walk(np.empty(0, dtype=np.int64), np.empty(0, dtype=bool))
    assert hits.shape == (0,)
    assert (lru_sets(level), level.clock) == before
    assert (level.hits, level.misses) == (0, 0)


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


def _trio_trace():
    """Page-granular seqRd/rndRd interleaved with 64 B ``update``
    references: windows mix granularities, and some hold no fine row."""
    spec = ScenarioSpec(name="trio", tenants=(
        TenantSpec(workload="seqRd"), TenantSpec(workload="rndRd"),
        TenantSpec(workload="update", weight=2)))
    return build_trace(scenario_source(spec), SCALE)


@pytest.mark.parametrize("source", ["update", "BFS", "trio"])
def test_filter_across_windows_matches_the_scalar_walk(source, config,
                                                       monkeypatch):
    """A trace many windows long filters exactly as one scalar walk: the
    cache state and clock carry across :data:`FILTER_WINDOW` boundaries."""
    monkeypatch.setattr(caches, "FILTER_WINDOW", 37)
    trace = _trio_trace() if source == "trio" else build_trace(source, SCALE)
    stream = trace.stream
    assert len(stream) > 3 * caches.FILTER_WINDOW
    stage = filter_trace(trace, config.caches)
    scalar = CacheHierarchy(config.caches)
    expected = scalar_walk(scalar, stream.addresses.tolist(),
                           stream.writes.tolist(), stream.sizes.tolist())
    np.testing.assert_array_equal(stage.outcomes, expected)
    assert stage.counters == counters(scalar)


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
    run_scalar(scalar, trace)
    batched = create_platform(platform_name, config)
    batched.run(trace)
    assert batched.caches.statistics() == scalar.caches.statistics()
    assert counters(batched.caches) == counters(scalar.caches)
