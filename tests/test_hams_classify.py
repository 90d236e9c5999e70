"""Differential tests of the index-sorted ``HAMSController.classify_batch``.

``classify_batch`` classifies a whole request batch in one numpy pass
(``MoSTagArray.classify``: stable sort by tag-array index,
tag-vs-predecessor compare, residency segments OR-reduced for the dirty
bits) and lays out a ``cumsum``-laid NVDIMM schedule.  The reference is the
scalar tag-array sequence ``hams_classify`` of ``tests/oracles/`` runs per
request — ``lookup``, then ``mark_dirty`` on a store hit or ``install`` on
a miss, with the NVDIMM calls in scalar order (probe, [victim clone read,
clone write], landing, serve).  Both must agree on the hits, the miss columns
(each miss's MoS page, offset and dirty victim page), the final tag and
dirty columns, the tag counters and the DRAM counters, ``busy_ns`` bit for
bit.

``REPRO_TEST_CHUNK_SIZES`` (as in ``tests/test_batched_replay.py``) also
cuts the random request streams into batches of those sizes; size 1 is the
batch-of-one edge of the sort.
"""

import dataclasses
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import hams_classify
from repro.config import default_config
from repro.core.hams_controller import HAMSController
from repro.units import KB
from repro.workloads.registry import ExperimentScale, scale_system_config

ENTRIES = 4


def _chunk_sizes():
    raw = os.environ.get("REPRO_TEST_CHUNK_SIZES", "").strip()
    return tuple(int(token) for token in raw.split(",")
                 if token.strip() not in ("", "default"))


CHUNK_SIZES = _chunk_sizes()


def _config(mos_page: int):
    """A scaled-down system whose NVDIMM caches only ``ENTRIES`` MoS pages."""
    config = scale_system_config(default_config(),
                                 ExperimentScale(capacity_scale=1 / 512))
    config = config.with_hams(integration="tight", mode="extend",
                              mos_page_bytes=mos_page)
    return dataclasses.replace(config, nvdimm=dataclasses.replace(
        config.nvdimm, capacity_bytes=ENTRIES * mos_page + KB(64),
        pinned_region_bytes=KB(64)))


def _pair(mos_page: int, initial=()):
    """Two identical controllers; *initial* seeds ``(index, tag, dirty)``
    entry states (a ``None`` tag leaves the entry invalid)."""
    config = _config(mos_page)
    controllers = (HAMSController(config), HAMSController(config))
    for controller in controllers:
        tag_array = controller.tag_array
        assert tag_array.entries_count == ENTRIES
        for index, tag, dirty in initial:
            tag_array.tags[index] = -1 if tag is None else tag
            tag_array.dirty[index] = dirty and tag is not None
    return controllers


def _scalar_classify(controller, addresses, sizes, writes):
    """The oracle's per-request classification of each request in turn."""
    hits, serve = [], []
    misses = {"miss_pages": [], "miss_offsets": [], "miss_victims": []}
    for address, size, is_write in zip(addresses, sizes, writes):
        hit, mos_page, offset, victim_page, serve_ns = hams_classify(
            controller, address, size, is_write)
        hits.append(hit)
        serve.append(serve_ns)
        if not hit:
            misses["miss_pages"].append(mos_page)
            misses["miss_offsets"].append(offset)
            misses["miss_victims"].append(victim_page)
    return hits, misses, serve


def _state(controller):
    tag_array = controller.tag_array
    dram = controller.nvdimm.dram
    return {
        "tags": tag_array.tags.tolist(),
        "dirty": tag_array.dirty.tolist(),
        "lookups": (tag_array.lookups, tag_array.hits, tag_array.misses),
        "dram": (dram.reads, dram.writes, dram.bytes_read,
                 dram.bytes_written, dram.busy_ns.hex()),
        "accesses": controller.accesses,
    }


def _check(mos_page, batches, initial=()):
    """Classify each batch both ways and compare everything after each."""
    batched, scalar = _pair(mos_page, initial)
    for requests in batches:
        addresses = np.array([r[0] for r in requests], dtype=np.int64)
        sizes = np.array([r[1] for r in requests], dtype=np.int64)
        writes = np.array([r[2] for r in requests], dtype=bool)
        plan = batched.classify_batch(addresses, sizes, writes)
        hits, misses, serve = _scalar_classify(
            scalar, addresses.tolist(), sizes.tolist(), writes.tolist())
        assert plan.hits.tolist() == hits
        for column, values in misses.items():
            assert getattr(plan, column) == values, column
            assert all(type(value) is int for value in getattr(plan, column))
        assert [value.hex() for value in plan.serve_ns.tolist()] \
            == [value.hex() for value in serve]
        assert plan.probe_ns == scalar._probe_ns
        assert _state(batched) == _state(scalar)


def _address(mos_page, page, offset=0):
    return page * mos_page + offset


requests_strategy = st.lists(
    st.tuples(st.integers(0, 3 * ENTRIES - 1),   # MoS page
              st.integers(0, 31),                # 4 KB slot in the page
              st.sampled_from((64, KB(4))),
              st.booleans()),
    min_size=1, max_size=40)


@pytest.mark.parametrize("mos_page", (KB(4), KB(128)))
@settings(max_examples=60, deadline=None)
@given(streams=st.lists(requests_strategy, min_size=1, max_size=4),
       initial=st.lists(st.tuples(
           st.integers(0, ENTRIES - 1),
           st.one_of(st.none(), st.integers(0, 2)),
           st.booleans()), max_size=ENTRIES))
def test_classify_matches_scalar_sequence(mos_page, streams, initial):
    """Random batches over 3x the cached pages, from random entry states
    (resident, dirty), carried across batches."""
    batches = []
    for stream in streams:
        batch = [(_address(mos_page, page, (slot * KB(4)) % mos_page), size,
                  write) for page, slot, size, write in stream]
        batches.append(batch)
        for chunk in CHUNK_SIZES:
            batches.extend(batch[start:start + chunk]
                           for start in range(0, len(batch), chunk))
    _check(mos_page, batches, initial)


@pytest.mark.parametrize("mos_page", (KB(4), KB(128)))
def test_batch_of_one(mos_page):
    _check(mos_page, [[(_address(mos_page, 1), 64, True)],
                      [(_address(mos_page, 1), KB(4), False)],
                      [(_address(mos_page, 1 + ENTRIES), 64, False)]])


@pytest.mark.parametrize("mos_page", (KB(4), KB(128)))
def test_whole_batch_on_one_index(mos_page):
    """Every request maps to entry 2: alternating tags evict each other,
    dirtying stores between them."""
    pages = [2, 2, 2 + ENTRIES, 2 + ENTRIES, 2, 2 + 2 * ENTRIES, 2 + ENTRIES]
    writes = [False, True, False, True, True, False, False]
    sizes = [64, KB(4), KB(4), 64, 64, KB(4), 64]
    _check(mos_page, [[(_address(mos_page, page), size, write)
                       for page, size, write in zip(pages, sizes, writes)]])


@pytest.mark.parametrize("mos_page", (KB(4), KB(128)))
def test_entries_start_resident_and_dirty(mos_page):
    """A head hit keeps the batch-start dirty bit; a head miss evicts the
    dirty victim; a clean resident entry stays clean under loads."""
    initial = [(0, 1, True), (1, 0, True), (2, 2, False)]
    batch = [(_address(mos_page, 0 + ENTRIES), 64, False),    # hit, dirty
             (_address(mos_page, 1 + 2 * ENTRIES), 64, False),  # evict dirty
             (_address(mos_page, 2 + 2 * ENTRIES), KB(4), False),
             (_address(mos_page, 0 + ENTRIES), 64, False),
             (_address(mos_page, 1), 64, False)]              # evict clean
    _check(mos_page, [batch], initial)


@pytest.mark.parametrize("mos_page", (KB(4), KB(128)))
def test_state_carries_across_batches(mos_page):
    first = [(_address(mos_page, page), 64, page % 2 == 0)
             for page in range(2 * ENTRIES)]
    second = [(_address(mos_page, page), KB(4), False)
              for page in reversed(range(3 * ENTRIES))]
    _check(mos_page, [first, second, first[:1], second[-1:]])
