"""Config-space differential of the FlatFlash batched replay.

``tests/test_batched_replay.py`` pins batched == the per-access reference of
``tests/oracles/`` for flatflash-M/P at the registry defaults and on one
stress config.  This suite draws the FlatFlash configuration instead: the
mode (flatflash-P/M), the host cache (1, 4 and 16 pages, or the smoke
default), the SSD-internal DRAM's data share (disabled, one page, four pages
— the FlatFlash device cache and the SSD's own buffer both follow it) and
the replay chunk size (1, 7, 64, 4096), over the seqRd/rndWr (4 KB) and
update (64 B) smoke traces plus two small hot traces: 4 KB pages, and a mix
of 64 B lines and 128 B-4 KB references, whose reuse makes pages reach the
promotion threshold.  For every draw the batched ``run`` and ``run_scalar``
must agree on the ``RunResult`` digest, on the PCIe link's bytes, transfers
and horizon, on the promotion count and counters, on both page caches' LRU
order and dirty flags and on ``ssd.statistics()``.

``REPRO_TEST_CHUNK_SIZES`` (as in ``tests/test_batched_replay.py``) adds its
sizes to the drawn chunk sizes.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import run_scalar
from repro.config import default_config
from repro.platforms.registry import create_platform
from repro.units import KB
from repro.workloads.registry import build_trace, scale_system_config
from repro.workloads.trace import AccessStream, WorkloadTrace
from test_golden_digests import SCALE, WORKLOADS, result_digest
from test_hams_config_space import CHUNK_SIZES

MODES = ("flatflash-P", "flatflash-M")
#: Host-cache pages; ``None`` keeps the smoke config's host DRAM.
HOST_PAGES = (1, 4, 16, None)
#: SSD-internal DRAM bytes: with the default 25 % mapping-table share they
#: leave no cache (disabled), one data page and four data pages.
DEVICE_BUFFERS = {"disabled": 0, "one-page": KB(8), "four-page": KB(24)}
HOT_TRACES = ("hot-4K", "hot-mixed")


def hot_trace(name: str, sizes) -> WorkloadTrace:
    """800 references over 24 pages, skewed towards the low ones, with
    40 % stores; *sizes* are drawn per reference."""
    rng = np.random.default_rng(7)
    count = 800
    pages = np.minimum(rng.geometric(0.15, count) - 1, 23)
    sizes = rng.choice(np.asarray(sizes, dtype=np.int64), count)
    offsets = rng.integers(0, KB(4) // 64, count) * 64
    # A reference never crosses its page.
    offsets = np.minimum(offsets, KB(4) - sizes)
    return WorkloadTrace(
        name=name, suite="test",
        accesses=AccessStream.from_arrays(
            pages * KB(4) + offsets, sizes, rng.random(count) < 0.4),
        dataset_bytes=KB(4) * 24, compute_instructions_per_access=10.0,
        accesses_per_operation=1.0, operation_unit="ops",
        total_instructions=11 * count)


@pytest.fixture(scope="module")
def traces():
    built = {workload: build_trace(workload, SCALE)
             for workload in WORKLOADS}
    built["hot-4K"] = hot_trace("hot-4K", [KB(4)])
    built["hot-mixed"] = hot_trace("hot-mixed",
                                   [64, 64, 128, 1024, 3000, KB(4)])
    return built


def _config(host_pages, device_buffer: str):
    config = scale_system_config(default_config(), SCALE)
    if host_pages is not None:
        config = dataclasses.replace(config, nvdimm=dataclasses.replace(
            config.nvdimm, capacity_bytes=host_pages * KB(4),
            pinned_region_bytes=0))
    buffer_bytes = DEVICE_BUFFERS[device_buffer]
    return dataclasses.replace(config, ssd=dataclasses.replace(
        config.ssd, dram_buffer_bytes=buffer_bytes,
        dram_buffer_enabled=buffer_bytes > 0))


def cache_state(cache):
    return None if cache is None else list(cache._pages.items())


def _replay(mode, config, trace, chunk_size):
    """Everything the MMIO path touches after one run (``run_scalar``
    when *chunk_size* is None)."""
    platform = create_platform(mode, config)
    if chunk_size is None:
        result = run_scalar(platform, trace)
    else:
        platform.replay_chunk_size = chunk_size
        result = platform.run(trace)
    link = platform.link
    return (result_digest(result), link.bytes_transferred, link.transfers,
            float(link.busy_until_ns).hex(), platform.promotions,
            dict(platform._access_counts),
            cache_state(platform.host_cache),
            cache_state(platform.device_cache),
            platform.ssd.statistics())


@settings(max_examples=80, deadline=None)
@given(mode=st.sampled_from(MODES),
       host_pages=st.sampled_from(HOST_PAGES),
       device_buffer=st.sampled_from(sorted(DEVICE_BUFFERS)),
       chunk_size=st.sampled_from(CHUNK_SIZES),
       workload=st.sampled_from(WORKLOADS + HOT_TRACES))
def test_batched_matches_scalar_across_configs(mode, host_pages,
                                               device_buffer, chunk_size,
                                               workload, traces):
    config = _config(host_pages, device_buffer)
    trace = traces[workload]
    assert _replay(mode, config, trace, chunk_size) \
        == _replay(mode, config, trace, None)


@pytest.mark.parametrize("host_pages", HOST_PAGES[:3])
def test_drawn_configs_promote_evict_and_stream_lines(host_pages, traces):
    """The differential is not vacuous: on the hot traces the drawn host
    caches promote and evict, the small device caches write dirty victims
    back, and the mixed trace sends multi-line MMIO references."""
    for device_buffer in ("one-page", "four-page"):
        config = _config(host_pages, device_buffer)
        platform = create_platform("flatflash-M", config)
        platform.run(traces["hot-mixed"])
        assert platform.promotions > 0
        assert len(platform.host_cache) == host_pages
        assert platform.device_cache.capacity_pages == (
            1 if device_buffer == "one-page" else 4)
        assert platform.device_cache.dirty_writebacks > 0
        # More transfers than references: some spanned several lines.
        assert platform.link.transfers > (platform.device_cache.hits
                                          + platform.device_cache.misses
                                          + platform.promotions)
    disabled = create_platform("flatflash-P", _config(host_pages, "disabled"))
    disabled.run(traces["hot-4K"])
    assert disabled.device_cache.capacity_pages == 0
    assert disabled.device_cache.hits == 0
    assert not disabled.ssd.buffer.enabled


def test_disabled_ssd_buffer_leaves_no_device_cache(traces):
    """The device cache is the SSD buffer's data share: with the buffer
    disabled but its 512 MB (smoke-scaled) size kept, flatflash-P has no
    device cache and no device hits, and batched still matches scalar."""
    config = scale_system_config(default_config(), SCALE)
    config = dataclasses.replace(config, ssd=dataclasses.replace(
        config.ssd, dram_buffer_enabled=False))
    assert config.ssd.dram_buffer_bytes > 0
    platform = create_platform("flatflash-P", config)
    platform.run(traces["update"])
    assert platform.device_cache.capacity_pages == 0
    assert platform.device_cache.hits == 0
    for chunk_size in (1, 64, 4096):
        assert _replay("flatflash-P", config, traces["update"], chunk_size) \
            == _replay("flatflash-P", config, traces["update"], None)
