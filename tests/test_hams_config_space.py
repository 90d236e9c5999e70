"""Config-space differential of the HAMS batched replay.

``tests/test_batched_replay.py`` pins batched == the per-access reference of
``tests/oracles/`` at the registry defaults and on one 4-entry stress
NVDIMM.  This suite draws the HAMS configuration instead: the variant
(hams-LP/TP/LE/TE), the MoS page size (4 KB, 16 KB, 128 KB — no remainder
fill, a short one, the default), the number of direct-mapped NVDIMM entries
(1, 2, 3, 8 — a non-power-of-two count exercises the modulo, one entry puts
every request on one index) and the replay chunk size (1, 7, 64, 4096), over
the seqRd/rndWr/update smoke traces.  For every draw the batched ``run`` and
``run_scalar`` must agree on the ``RunResult`` digest, on
``controller.statistics()`` and on the final tag-array state.

``REPRO_TEST_CHUNK_SIZES`` (as in ``tests/test_batched_replay.py``) adds its
sizes to the drawn chunk sizes.
"""

import dataclasses
import os

import pytest
from hypothesis import given, settings, strategies as st

from oracles import run_scalar
from repro.config import default_config
from repro.platforms.registry import create_platform
from repro.units import KB
from repro.workloads.registry import build_trace, scale_system_config
from test_golden_digests import SCALE, WORKLOADS, result_digest

VARIANTS = ("hams-LP", "hams-TP", "hams-LE", "hams-TE")
MOS_PAGES = (KB(4), KB(16), KB(128))
ENTRIES = (1, 2, 3, 8)


def _chunk_sizes():
    raw = os.environ.get("REPRO_TEST_CHUNK_SIZES", "").strip()
    extra = {int(token) for token in raw.split(",")
             if token.strip() not in ("", "default")}
    return tuple(sorted({1, 7, 64, 4096} | extra))


CHUNK_SIZES = _chunk_sizes()


@pytest.fixture(scope="module")
def traces():
    return {workload: build_trace(workload, SCALE)
            for workload in WORKLOADS}


def _config(mos_page: int, entries: int):
    """The smoke config with a NVDIMM that caches *entries* MoS pages,
    sized as in ``tests/test_hams_classify.py``."""
    config = scale_system_config(default_config(), SCALE)
    config = config.with_hams(mos_page_bytes=mos_page)
    return dataclasses.replace(config, nvdimm=dataclasses.replace(
        config.nvdimm, capacity_bytes=entries * mos_page + KB(64),
        pinned_region_bytes=KB(64)))


def _replay(variant, config, trace, chunk_size):
    """The digest, the controller statistics and the final tag and dirty
    columns of one run (``run_scalar`` when *chunk_size* is None)."""
    platform = create_platform(variant, config)
    if chunk_size is None:
        result = run_scalar(platform, trace)
    else:
        platform.replay_chunk_size = chunk_size
        result = platform.run(trace)
    controller = platform.controller
    return (result_digest(result), controller.statistics(),
            controller.tag_array.tags.tolist(),
            controller.tag_array.dirty.tolist())


@settings(max_examples=80, deadline=None)
@given(variant=st.sampled_from(VARIANTS),
       mos_page=st.sampled_from(MOS_PAGES),
       entries=st.sampled_from(ENTRIES),
       chunk_size=st.sampled_from(CHUNK_SIZES),
       workload=st.sampled_from(WORKLOADS))
def test_batched_matches_scalar_across_configs(variant, mos_page, entries,
                                               chunk_size, workload, traces):
    config = _config(mos_page, entries)
    trace = traces[workload]
    assert _replay(variant, config, trace, chunk_size) \
        == _replay(variant, config, trace, None)


@pytest.mark.parametrize("entries", ENTRIES)
def test_drawn_configs_fire_evictions_and_stalls(entries, traces):
    """The differential is not vacuous: at every drawn entry count and MoS
    page size the NVDIMM caches exactly that many pages, and the update
    trace evicts dirty victims and stalls on busy entries."""
    for mos_page in MOS_PAGES:
        platform = create_platform("hams-TE", _config(mos_page, entries))
        platform.run(traces["update"])
        controller = platform.controller
        assert controller.tag_array.entries_count == entries
        assert controller.evictions > 0
        assert controller.hazard_stalls > 0
