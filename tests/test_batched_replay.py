"""Golden equivalence of the batched and scalar replay paths.

The batched replay loop (the memoised whole-trace cache filter,
``service_batch``, ``sequential_add`` accounting) promises results that are *bit-identical* to
the legacy scalar loop on every registered platform — not approximately
equal: every float in the ``RunResult``, including the energy breakdown and
the extras counters, must match to the last ulp.  These tests are the
contract that lets the vectorized platforms rewrite their hot paths freely.

``REPRO_TEST_CHUNK_SIZES`` (a comma-separated list, e.g. ``1,7,64``; the
token ``default`` keeps the platform default) re-runs the whole golden
matrix once per chunk size — the CI chunk-size parity leg uses it to gate
the vectorized platforms on bit-exactness at pathological chunk
boundaries.  The DRAM-cache platforms (nvdimm-C, optane-M and the ULL
bypasses), whose batched path is the order-exact ``PageCache.access_batch``
walk, additionally get a dedicated chunk-size sweep ({1, 7, whole-trace})
with explicit page-cache hit-rate / writeback assertions.  The page-fault
platforms (mmap and FlatFlash, whose batched path replays only the misses
against the storage stack or the MMIO link) get the same sweep on a
shrunken-DRAM config that makes readahead, dirty writebacks, promotions and
device-cache evictions fire, with their device-side state compared too.
"""

import dataclasses
import inspect
import os

import numpy as np
import pytest

from repro.config import default_config
from repro.numerics import sequential_add
from repro.platforms.base import Platform
from repro.platforms.hams_platform import HAMSPlatform
from repro.platforms.registry import available_platforms, create_platform
from repro.scenario import ScenarioSpec, TenantSpec, scenario_source
from repro.units import KB
from repro.workloads.registry import (
    ExperimentScale,
    build_trace,
    scale_system_config,
)
from repro.workloads.trace import AccessStream, WorkloadTrace

#: Smoke-scale traces: small enough for the full platform matrix, large
#: enough to exercise cache evictions, page-cache misses and migrations.
SCALE = ExperimentScale(capacity_scale=1 / 256, min_accesses=200,
                        max_accesses=600)

#: One page-granular (cache-bypassing) and one fine-grained (cache-filtered)
#: workload; together they cover both classification paths of the chunk
#: filter and both write-heavy and read-heavy service streams.
WORKLOADS = ("seqRd", "rndWr", "update")

#: The platforms whose ``service_batch`` rides the batched LRU page-cache
#: walk, with the attribute their :class:`~repro.host.os_stack.PageCache`
#: lives under.
DRAM_CACHE_PLATFORMS = {
    "nvdimm-C": "dram_cache",
    "optane-M": "dram_cache",
    "bypass-ull": "page_buffer",
    "bypass-ull-buff": "page_buffer",
}


#: The HAMS events the stress config must fire: dirty-victim evictions
#: (each one cloned, ``hazards.evictions_cloned``) in both modes, plus
#: (extend mode only, where the background remainder/eviction blocks reuse
#: of the entry) hazard stalls.
HAMS_PERSIST_EVENTS = ("controller.evictions",)
HAMS_EXTEND_EVENTS = HAMS_PERSIST_EVENTS + ("controller.hazard_stalls",)

#: The page-fault platforms and the HAMS variants, with the event counters
#: (attribute paths) the stress config must fire on each.  A ``/4KB``
#: suffix runs the variant with 4 KB MoS pages, so a miss has no remainder
#: fill.
STRESS_COUNTERS = {
    "mmap": ("major_faults", "readahead_fills", "writebacks",
             "page_cache.hits"),
    "mmap-sata": ("major_faults", "readahead_fills", "writebacks",
                  "page_cache.hits"),
    "flatflash-M": ("promotions", "host_cache.hits", "device_cache.hits",
                    "device_cache.misses", "device_cache.dirty_writebacks"),
    "flatflash-P": ("device_cache.hits", "device_cache.misses",
                    "device_cache.dirty_writebacks"),
    "hams-LP": HAMS_PERSIST_EVENTS,
    "hams-TP": HAMS_PERSIST_EVENTS,
    "hams-LE": HAMS_EXTEND_EVENTS,
    "hams-TE": HAMS_EXTEND_EVENTS,
    "hams-TE/4KB": HAMS_EXTEND_EVENTS,
}

#: MoS pages the HAMS stress config's NVDIMM caches.
HAMS_STRESS_ENTRIES = 4


def _chunk_sizes():
    """Chunk sizes to sweep, from ``REPRO_TEST_CHUNK_SIZES`` (CI leg)."""
    raw = os.environ.get("REPRO_TEST_CHUNK_SIZES", "").strip()
    if not raw:
        return (None,)
    sizes = []
    for token in raw.split(","):
        token = token.strip()
        sizes.append(None if token in ("", "default") else int(token))
    return tuple(sizes)


CHUNK_SIZES = _chunk_sizes()


@pytest.fixture(scope="module")
def config():
    return scale_system_config(default_config(), SCALE)


@pytest.fixture(scope="module")
def traces():
    return {workload: build_trace(workload, SCALE)
            for workload in WORKLOADS}


def make_stress_config(config):
    """Host DRAM of 16 pages (8 cacheable) and an SSD-internal DRAM of 16
    pages (12 for data), so the smoke traces overflow every page cache."""
    return dataclasses.replace(
        config,
        nvdimm=dataclasses.replace(config.nvdimm, capacity_bytes=KB(64),
                                   pinned_region_bytes=KB(32)),
        ssd=dataclasses.replace(config.ssd, dram_buffer_bytes=KB(64)))


@pytest.fixture(scope="module")
def stress_config(config):
    return make_stress_config(config)


def stress_case(case: str, stress_config):
    """The platform name and config of one ``STRESS_COUNTERS`` case.

    The HAMS variants get a NVDIMM that caches only
    ``HAMS_STRESS_ENTRIES`` MoS pages (the page-fault platforms' 32 KB
    cacheable NVDIMM is smaller than one 128 KB MoS page)."""
    platform_name, _, page = case.partition("/")
    if not platform_name.startswith("hams-"):
        return platform_name, stress_config
    mos_page = KB(4) if page == "4KB" else stress_config.hams.mos_page_bytes
    config = stress_config.with_hams(mos_page_bytes=mos_page)
    return platform_name, dataclasses.replace(config, nvdimm=dataclasses.replace(
        config.nvdimm, capacity_bytes=HAMS_STRESS_ENTRIES * mos_page + KB(32),
        pinned_region_bytes=KB(32)))


def result_fields(result) -> dict:
    return dataclasses.asdict(result)


def _run_batched(platform_name, config, trace, chunk_size):
    platform = create_platform(platform_name, config)
    if chunk_size is not None:
        platform.replay_chunk_size = chunk_size
    return platform, platform.run(trace, execution="batched")


@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
@pytest.mark.parametrize("platform_name", available_platforms())
@pytest.mark.parametrize("workload", WORKLOADS)
def test_batched_replay_is_bit_identical(platform_name, workload, chunk_size,
                                         config, traces):
    trace = traces[workload]
    scalar = create_platform(platform_name, config).run(trace,
                                                        execution="scalar")
    _, batched = _run_batched(platform_name, config, trace, chunk_size)
    scalar_fields = result_fields(scalar)
    batched_fields = result_fields(batched)
    mismatched = {key for key in scalar_fields
                  if scalar_fields[key] != batched_fields[key]}
    assert not mismatched, {
        key: (scalar_fields[key], batched_fields[key]) for key in mismatched}


@pytest.mark.parametrize("platform_name", sorted(DRAM_CACHE_PLATFORMS))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_dram_cache_platform_chunk_parity(platform_name, workload, config,
                                          traces):
    """The batched LRU walk is exact at every chunk boundary.

    Beyond the full ``RunResult`` equality, this pins the page-cache
    observables the vectorization could most plausibly skew: the hit-rate
    extras and the raw hit/miss/dirty-writeback counters of the underlying
    :class:`~repro.host.os_stack.PageCache`.
    """
    trace = traces[workload]
    scalar_platform = create_platform(platform_name, config)
    scalar = scalar_platform.run(trace, execution="scalar")
    scalar_fields = result_fields(scalar)
    scalar_cache = getattr(scalar_platform,
                           DRAM_CACHE_PLATFORMS[platform_name])
    for chunk_size in (1, 7, len(trace)):
        platform, batched = _run_batched(platform_name, config, trace,
                                         chunk_size)
        assert result_fields(batched) == scalar_fields, chunk_size
        cache = getattr(platform, DRAM_CACHE_PLATFORMS[platform_name])
        assert cache.hits == scalar_cache.hits, chunk_size
        assert cache.misses == scalar_cache.misses, chunk_size
        assert cache.dirty_writebacks == scalar_cache.dirty_writebacks, \
            chunk_size
        assert cache.hit_rate == scalar_cache.hit_rate, chunk_size
        assert cache.resident_pages() == scalar_cache.resident_pages(), \
            chunk_size
        assert cache.dirty_pages() == scalar_cache.dirty_pages(), chunk_size


def _counter(platform, path: str):
    value = platform
    for name in path.split("."):
        value = getattr(value, name)
    return value


def _device_state(platform) -> dict:
    """The page-fault platforms' and HAMS variants' device-side observables."""
    if isinstance(platform, HAMSPlatform):
        controller = platform.controller
        return {"controller": controller.statistics(),
                "ssd": controller.ssd.statistics(),
                "nvdimm": controller.nvdimm.statistics(),
                "tags": controller.tag_array.tags.tolist(),
                "dirty": controller.tag_array.dirty.tolist(),
                "delays": controller.memory_delay_breakdown()}
    state = {"link": platform.link.statistics(),
             "ssd": platform.ssd.statistics()}
    if hasattr(platform, "os_stack"):
        state["os_stack"] = platform.os_stack.statistics()
        state["controller"] = platform.controller.statistics()
    return state


@pytest.mark.parametrize("platform_name", sorted(STRESS_COUNTERS))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_page_fault_platform_stress_parity(platform_name, workload,
                                           stress_config, traces):
    """mmap/FlatFlash and HAMS replay only their misses, exactly, at any
    chunk size.

    Under the shrunken DRAM every batched path's side effects fire —
    readahead installs, dirty writebacks, promotions, device-cache
    evictions, HAMS victim clones and hazard stalls — and the link
    horizon, the OS-stack, NVMe and HAMS counters, the tag array and the
    SSD's statistics must end where the scalar loop leaves them.
    """
    trace = traces[workload]
    counters = STRESS_COUNTERS[platform_name]
    platform_name, config = stress_case(platform_name, stress_config)
    scalar_platform = create_platform(platform_name, config)
    scalar = result_fields(scalar_platform.run(trace, execution="scalar"))
    chunk_sizes = {1, 7, len(trace)} | {size for size in CHUNK_SIZES
                                        if size is not None}
    for chunk_size in sorted(chunk_sizes):
        platform, batched = _run_batched(platform_name, config, trace,
                                         chunk_size)
        assert result_fields(batched) == scalar, chunk_size
        assert _device_state(platform) == _device_state(scalar_platform), \
            chunk_size
        for counter in counters:
            assert _counter(platform, counter) \
                == _counter(scalar_platform, counter), (chunk_size, counter)


@pytest.mark.parametrize("platform_name", sorted(STRESS_COUNTERS))
def test_stress_config_fires_every_event(platform_name, stress_config,
                                         traces):
    """The stress parity above is not vacuous: every event it guards
    happens on the fine-grained ``update`` trace."""
    counters = STRESS_COUNTERS[platform_name]
    platform_name, config = stress_case(platform_name, stress_config)
    platform, _ = _run_batched(platform_name, config, traces["update"], None)
    fired = {counter: _counter(platform, counter) for counter in counters}
    assert all(fired.values()), fired


@pytest.mark.parametrize("platform_name", ("nvdimm-C", "optane-M",
                                           "bypass-ull-buff"))
def test_dram_cache_stats_exposed_and_exact(platform_name, config, traces):
    """The hit-rate / writeback extras match exactly between the paths."""
    trace = traces["rndWr"]
    scalar = create_platform(platform_name, config).run(trace,
                                                        execution="scalar")
    _, batched = _run_batched(platform_name, config, trace, None)
    prefix = ("dram_cache" if platform_name != "bypass-ull-buff"
              else "page_buffer")
    for suffix in ("hit_rate", "hits", "misses", "writebacks"):
        key = f"{prefix}_{suffix}"
        assert key in scalar.extras
        assert scalar.extras[key] == batched.extras[key], key
    assert scalar.extras[f"{prefix}_hits"] > 0


def test_default_mode_is_batched(config, traces):
    platform = create_platform("oracle", config)
    assert inspect.signature(
        Platform.run).parameters["execution"].default == "batched"
    reference = create_platform("oracle", config).run(traces["seqRd"],
                                                      execution="batched")
    assert result_fields(platform.run(traces["seqRd"])) \
        == result_fields(reference)


def test_unknown_execution_mode_rejected(config, traces):
    platform = create_platform("oracle", config)
    with pytest.raises(ValueError):
        platform.run(traces["seqRd"], execution="warp")


@pytest.mark.parametrize("platform_name", ("hams-TE", "nvdimm-C"))
def test_chunk_size_does_not_change_results(platform_name, config, traces):
    """The chunk boundary is an implementation detail, not a model input."""
    trace = traces["update"]
    reference = create_platform(platform_name, config).run(trace)
    for chunk_size in (1, 7, 64, 10_000):
        platform = create_platform(platform_name, config)
        platform.replay_chunk_size = chunk_size
        assert result_fields(platform.run(trace)) \
            == result_fields(reference), chunk_size


@pytest.fixture(scope="module")
def mixed_trace():
    """The ``trio`` scenario mix: page-granular seqRd/rndRd interleaved with
    64 B ``update`` references, so replay chunks mix granularities."""
    spec = ScenarioSpec(name="trio", tenants=(
        TenantSpec(workload="seqRd"), TenantSpec(workload="rndRd"),
        TenantSpec(workload="update", weight=2)))
    return build_trace(scenario_source(spec), SCALE)


@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
@pytest.mark.parametrize("platform_name", available_platforms())
def test_mixed_granularity_replay_is_bit_identical(platform_name, chunk_size,
                                                   config, mixed_trace):
    """Chunks mixing 64 B and 4 KB references replay exactly: the filter
    stage bypasses the wide rows per access, and the raw L1/L2 counters
    it installs equal the scalar walk's."""
    head = mixed_trace.stream[:4096].sizes
    line = config.caches.line_size
    assert (head <= line).any() and (head > line).any()
    scalar_platform = create_platform(platform_name, config)
    scalar = scalar_platform.run(mixed_trace, execution="scalar")
    platform, batched = _run_batched(platform_name, config, mixed_trace,
                                     chunk_size)
    assert result_fields(batched) == result_fields(scalar)
    for level in ("l1", "l2"):
        for counter in ("hits", "misses", "writebacks"):
            assert getattr(getattr(platform.caches, level), counter) \
                == getattr(getattr(scalar_platform.caches, level), counter), \
                (level, counter)


def test_sequential_add_matches_python_accumulation():
    rng = np.random.default_rng(11)
    addends = rng.random(4_321) * 1e7
    expected = 0.123
    for value in addends.tolist():
        expected += value
    assert sequential_add(0.123, addends) == expected
    assert sequential_add(5.0, np.empty(0)) == 5.0


def test_cache_statistics_match_between_paths(config, traces):
    """record_bypass/access_batch leave the hierarchy exactly as the scalar
    walk does (the extras comparison above covers rates; this pins the raw
    counters)."""
    trace = traces["update"]
    scalar = create_platform("oracle", config)
    scalar.run(trace, execution="scalar")
    batched = create_platform("oracle", config)
    batched.run(trace, execution="batched")
    assert scalar.caches.statistics() == batched.caches.statistics()
    assert scalar.caches.l1.hits == batched.caches.l1.hits
    assert scalar.caches.l2.writebacks == batched.caches.l2.writebacks


@pytest.mark.parametrize("platform_name", ("hams-LE", "hams-TE"))
def test_hams_out_of_range_chunk_raises_like_scalar(platform_name, config):
    """A chunk holding an address past the MoS space raises the scalar
    loop's error at the same request and leaves the controller and the
    ULL-Flash in the same state."""
    capacity = create_platform(platform_name,
                               config).controller.mos_capacity_bytes
    pages = [0, 3, 1, 3, 5, 2]
    addresses = [page * KB(64) for page in pages] + [capacity, 0]
    trace = WorkloadTrace(
        name="out-of-range", suite="test",
        accesses=AccessStream.from_arrays(
            np.array(addresses, dtype=np.int64), KB(4),
            np.arange(len(addresses)) % 2 == 0),
        dataset_bytes=KB(512), compute_instructions_per_access=10.0,
        accesses_per_operation=1.0, operation_unit="ops",
        total_instructions=10 * len(addresses))
    outcomes = []
    for execution in ("scalar", "batched"):
        platform = create_platform(platform_name, config)
        with pytest.raises(ValueError) as error:
            platform.run(trace, execution=execution)
        outcomes.append((str(error.value),
                         platform.controller.statistics(),
                         platform.controller.ssd.statistics()))
    assert outcomes[0] == outcomes[1]
    assert "exceeds the MoS space" in outcomes[0][0]
    assert outcomes[0][1]["fills"] > 0
