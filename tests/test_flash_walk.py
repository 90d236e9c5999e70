"""The resumable flash walk: ``SSD.walk``'s contract and its differentials.

:meth:`repro.flash.ssd.SSD.walk` is the one per-request service path of
the flash stack.  ``submit_batch`` drives it over a sequence of
``IORequest``, ``submit`` is a batch-of-one ``submit_batch``, and the
platforms' miss paths open one walk per service chunk and step it.  Four
things are pinned here:

* the open-walk contract — while a walk holds the hoisted state, every
  other entry point that reads or writes it raises, and closing (also
  after a step raised) hands back a device whose state equals the
  per-request ``submit`` prefix;
* a hypothesis differential on a tiny GC-pressured device: a random
  stream of reads, writes, FUA and multi-page requests cut into walks at
  random points equals the per-request ``submit`` loop and one
  ``submit_batch`` — per-request finishes, full ``statistics()``, FTL
  maps, buffer order and die/channel horizons;
* since ``submit`` and ``submit_batch`` both drive the walk, a second
  differential against an independent oracle that serves every request
  page by page through the layer methods (FTL ``lookup``/``write``, FIL
  ``read_page``/``write_page``, the buffer's ``_insert``), over split and
  unsplit channels, disabled, zero-page, one-page and four-page buffers,
  FUA, multi-page requests that wrap past the last logical page and GC
  relocation; the channel traffic that ``statistics()`` derives from the
  page counters equals the oracle's reservations, counted one by one;
* structurally, that the batched replay of the fig16 smoke matrix on the
  flash-backed platforms and the ULL bypasses never takes the
  batch-of-one route (no ``SSD.submit/read/write/submit_batch``, no
  engine ring traffic), while the scalar reference still reproduces the
  golden digests.

``REPRO_TEST_CHUNK_SIZES`` (see ``tests/test_batched_replay.py``) re-runs
the structural replay at each chunk size, i.e. with walks of every length.
"""

import heapq
import json
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings, strategies as st

from oracles import run_scalar
from repro.config import FlashGeometry, SSDConfig, default_config
from repro.flash.ssd import SSD, IORequest
from repro.nvme.controller import NVMeController
from repro.nvme.queues import _Ring
from repro.platforms.registry import create_platform
from repro.runner.presets import SMOKE_SCALE, get_preset
from repro.workloads.registry import build_trace, scale_system_config

from test_batched_replay import CHUNK_SIZES
from test_golden_digests import result_digest

PAGE = 4096

#: Hypothesis's default phases minus ``explain``: the explain phase re-runs
#: a shrunk failing walk many times to annotate it, which on these
#: differentials took minutes and over a gigabyte before the failure was
#: reported.  Example counts and shrinking are unchanged.
REPORT_PHASES = (Phase.explicit, Phase.reuse, Phase.generate, Phase.target,
                 Phase.shrink)


def tiny_ssd(split: bool = True, buffer_pages: int = 4) -> SSD:
    """64 physical pages on 2 channels, a 4-page buffer, 2 outstanding."""
    geometry = FlashGeometry(channels=2, packages_per_channel=1,
                             dies_per_package=1, planes_per_die=1,
                             blocks_per_plane=8, pages_per_block=4)
    config = SSDConfig(geometry=geometry, split_channels=split,
                       dram_buffer_bytes=buffer_pages * PAGE,
                       dram_buffer_enabled=buffer_pages > 0,
                       mapping_table_fraction=0.0, max_outstanding=2)
    ssd = SSD(config)
    ssd.precondition(0, 8)
    return ssd


def device_state(ssd: SSD) -> dict:
    """Everything the walk hoists or mutates, in comparable form."""
    ftl = ssd.ftl
    physical = len(ftl._planes) * ftl._pages_per_plane
    return {
        "statistics": ssd.statistics(),
        "forward": {lpn: ftl._lpn_to_ppn(lpn)
                    for lpn in range(ssd.logical_pages)},
        "reverse": {ppn: ftl._ppn_to_lpn(ppn) for ppn in range(physical)},
        "planes": [(plane.free_blocks, plane.open_block, plane.next_page,
                    plane.valid_counts) for plane in ftl._planes],
        "cursor": ftl._allocation_cursor,
        "buffer": list(ssd.buffer._pages.items()),
        "dies": list(ssd.array.busy_until_ns),
        "channels": list(ssd.channels.busy_until_ns),
        "outstanding": sorted(ssd._outstanding),
    }


def submit_loop(ssd: SSD, requests) -> list:
    """The per-request reference: ``(start, finish)`` per request."""
    return [(result.start_ns, result.finish_ns)
            for result in (ssd.submit(IORequest(*request))
                           for request in requests)]


# (is_write, byte offset, size, gap before submission, fua): offsets and
# sizes cross page boundaries, so one request may split into 1-3 pages.
requests_strategy = st.lists(
    st.tuples(st.booleans(), st.integers(0, 16 * PAGE - 1),
              st.integers(1, 3 * PAGE), st.floats(0.0, 20_000.0),
              st.booleans()),
    min_size=1, max_size=60)


def with_clocks(rows) -> list:
    requests = []
    clock = 0.0
    for is_write, offset, size, gap, fua in rows:
        clock += gap
        requests.append((is_write, offset, size, clock, fua))
    return requests


class TestWalkDifferential:
    @settings(max_examples=80, deadline=None, phases=REPORT_PHASES)
    @given(rows=requests_strategy, cuts=st.lists(st.integers(0, 60)),
           split=st.booleans(), buffer_pages=st.sampled_from([0, 4]))
    def test_cut_walks_equal_submit_loop_and_one_batch(self, rows, cuts,
                                                       split, buffer_pages):
        requests = with_clocks(rows)
        reference = tiny_ssd(split, buffer_pages)
        expected = submit_loop(reference, requests)

        batched = tiny_ssd(split, buffer_pages)
        results = batched.submit_batch([IORequest(*request)
                                        for request in requests])
        assert [(result.start_ns, result.finish_ns)
                for result in results] == expected

        walked = tiny_ssd(split, buffer_pages)
        bounds = sorted({0, len(requests), *[cut % (len(requests) + 1)
                                             for cut in cuts]})
        starts, finishes = [], []
        for low, high in zip(bounds, bounds[1:]):
            with walked.walk(starts) as step:
                finishes.extend(step(request)
                                for request in requests[low:high])
        assert list(zip(starts, finishes)) == expected

        state = device_state(reference)
        assert device_state(batched) == state
        assert device_state(walked) == state

    def test_gc_relocations_inside_cut_walks(self):
        # Guard against the differential never reaching GC relocation: two
        # hot LPNs interleaved with a colder set leave valid pages in the
        # victim blocks, so GC moves pages inside the walks.
        requests = [(True, (j % 2 if j % 3 else 16 + (j // 3) % 12) * PAGE,
                     PAGE, 1000.0 * j, False) for j in range(200)]
        reference = tiny_ssd(buffer_pages=0)
        expected = submit_loop(reference, requests)
        walked = tiny_ssd(buffer_pages=0)
        starts, finishes = [], []
        for low in range(0, len(requests), 37):
            with walked.walk(starts) as step:
                finishes.extend(step(request)
                                for request in requests[low:low + 37])
        assert list(zip(starts, finishes)) == expected
        assert device_state(walked) == device_state(reference)
        assert walked.ftl.gc_pages_moved > 0


# -- an independent page-by-page oracle ------------------------------------


def oracle_submit(ssd: SSD, request) -> tuple:
    """Serve one request page by page through the layer methods.

    A reference that shares no code with :meth:`SSD.walk`: queue
    admission on the device's outstanding heap, a cursor split of the byte
    range, translation and programming through
    :meth:`~repro.flash.ftl.FlashTranslationLayer.lookup` /
    :meth:`~repro.flash.ftl.FlashTranslationLayer.write`, timing through
    :meth:`~repro.flash.fil.FlashInterfaceLayer.read_page` /
    :meth:`~repro.flash.fil.FlashInterfaceLayer.write_page`, and the
    buffer's own ``_insert`` and ``OrderedDict``.  Returns ``(start,
    finish)``.
    """
    is_write, offset, size, submit, fua = request
    config = ssd.config
    outstanding = ssd._outstanding
    while outstanding and outstanding[0] <= submit:
        heapq.heappop(outstanding)
    if len(outstanding) < config.max_outstanding:
        start = submit
    else:
        start = max(submit, heapq.heappop(outstanding))
    lpns = []
    cursor, remaining = offset, size
    while remaining > 0:
        lpns.append(cursor // PAGE % ssd.logical_pages)
        chunk = min(PAGE - cursor % PAGE, remaining)
        cursor += chunk
        remaining -= chunk
    firmware_done = start + config.firmware_latency_ns * (
        1.0 + 0.05 * (len(lpns) - 1))
    hit_done = firmware_done + config.dram_buffer_hit_ns
    buffer = ssd.buffer
    resident = buffer._pages
    counters = buffer.stats
    finish = firmware_done
    for lpn in lpns:
        if not is_write:
            if buffer.enabled and lpn in resident:
                resident.move_to_end(lpn)
                counters.read_hits += 1
                done = hit_done
            else:
                counters.read_misses += 1
                address = ssd.ftl.lookup(lpn)
                if address is None:
                    done = hit_done
                else:
                    done = ssd.fil.read_page(address, firmware_done).finish_ns
                    if buffer.enabled:
                        buffer._insert(lpn, False)
        else:
            program = None
            if not fua and buffer.enabled:
                if lpn in resident:
                    resident.move_to_end(lpn)
                    resident[lpn] = True
                    counters.write_hits += 1
                else:
                    counters.write_misses += 1
                    evicted = buffer._insert(lpn, True)
                    if evicted is not None and evicted[1]:
                        program = evicted[0]
                done = hit_done
            else:
                program = lpn
                done = firmware_done
            if program is not None:
                address, gc_result = ssd.ftl.write(program)
                done = ssd.fil.write_page(address, done).finish_ns
                for old, new in gc_result.page_moves:
                    moved = ssd.fil.read_page(old, done).finish_ns
                    done = ssd.fil.write_page(new, moved).finish_ns
        finish = max(finish, done)
    heapq.heappush(outstanding, finish)
    ssd.requests_served += 1
    if is_write:
        ssd.bytes_written += size
    else:
        ssd.bytes_read += size
    return start, finish


def count_reservations(ssd: SSD) -> list:
    """Count *ssd*'s channel reservations from now on: ``[transfers,
    bytes]``, updated in place.  The oracle reaches
    :meth:`~repro.flash.channel.ChannelScheduler.reserve` through the FIL's
    page methods, GC moves included, so this is an independent count of
    the traffic ``statistics()`` derives from the page counters."""
    counts = [0, 0]
    reserve = ssd.channels.reserve

    def counted(channel, size_bytes, at_ns):
        counts[0] += 1
        counts[1] += size_bytes
        return reserve(channel, size_bytes, at_ns)

    ssd.channels.reserve = counted
    return counts


def channel_traffic(ssd: SSD) -> list:
    statistics = ssd.statistics()
    return [statistics["flash_channel_transfers"],
            statistics["flash_channel_bytes_moved"]]


#: Two tiny devices: one die per channel with 4-page blocks, and two dies
#: of two planes per channel with 2-page blocks (so the die and channel
#: decode of a PPN crosses planes and dies); 64 physical pages each.
ORACLE_GEOMETRIES = (
    FlashGeometry(channels=2, packages_per_channel=1, dies_per_package=1,
                  planes_per_die=1, blocks_per_plane=8, pages_per_block=4),
    FlashGeometry(channels=2, packages_per_channel=1, dies_per_package=2,
                  planes_per_die=2, blocks_per_plane=4, pages_per_block=2),
)

#: (dram_buffer_bytes, dram_buffer_enabled, mapping_table_fraction) and the
#: data pages each leaves: a disabled buffer, one whose 25% mapping-table
#: share leaves no whole page (so it is no buffer), one page, four pages.
ORACLE_BUFFERS = {
    "off": ((4 * PAGE, False, 0.0), 0),
    "no-data-page": ((PAGE, True, 0.25), 0),
    "one-page": ((PAGE, True, 0.0), 1),
    "four-pages": ((4 * PAGE, True, 0.0), 4),
}


def oracle_ssd(geometry: FlashGeometry, split: bool, buffer: str) -> SSD:
    (buffer_bytes, enabled, fraction), data_pages = ORACLE_BUFFERS[buffer]
    ssd = SSD(SSDConfig(geometry=geometry, split_channels=split,
                        dram_buffer_bytes=buffer_bytes,
                        dram_buffer_enabled=enabled,
                        mapping_table_fraction=fraction, max_outstanding=2))
    assert ssd.buffer.capacity_pages == data_pages
    assert ssd.buffer.enabled is (data_pages > 0)
    ssd.precondition(0, 8)
    return ssd


def gc_warmup() -> list:
    """FUA writes that put both devices under GC pressure with
    relocations: two hot LPNs interleaved with twelve colder ones."""
    return [(True, (j % 2 if j % 3 else 16 + (j // 3) % 12) * PAGE, PAGE,
             1000.0 * j, True) for j in range(60)]


# (is_write, near the last logical page, offset, size, gap, fua): offsets
# near the end reach up to 5 pages past it, so multi-page requests wrap.
oracle_rows = st.lists(
    st.tuples(st.booleans(), st.booleans(), st.integers(0, 16 * PAGE - 1),
              st.integers(1, 3 * PAGE), st.floats(0.0, 20_000.0),
              st.booleans()),
    min_size=1, max_size=60)


class TestWalkAgainstPageOracle:
    @settings(max_examples=120, deadline=None, phases=REPORT_PHASES)
    @given(rows=oracle_rows, geometry=st.sampled_from(ORACLE_GEOMETRIES),
           split=st.booleans(), buffer=st.sampled_from(sorted(ORACLE_BUFFERS)))
    def test_walk_equals_page_by_page_oracle(self, rows, geometry, split,
                                             buffer):
        oracle = oracle_ssd(geometry, split, buffer)
        walked = oracle_ssd(geometry, split, buffer)
        reserved = count_reservations(oracle)
        end = (oracle.logical_pages - 3) * PAGE
        requests = gc_warmup()
        clock = requests[-1][3]
        for is_write, near_end, offset, size, gap, fua in rows:
            clock += gap
            if near_end:
                offset = end + offset % (6 * PAGE)
            requests.append((is_write, offset, size, clock, fua))
        expected = [oracle_submit(oracle, request) for request in requests]
        starts = []
        with walked.walk(starts) as step:
            finishes = [step(request) for request in requests]
        assert list(zip(starts, finishes)) == expected
        assert device_state(walked) == device_state(oracle)
        assert oracle.ftl.gc_pages_moved > 0
        assert channel_traffic(walked) == reserved

    @pytest.mark.parametrize("split", [True, False])
    def test_channel_counters_equal_oracle_reservations(self, split):
        # Guard against the differential never covering one channel mode:
        # GC moves, read misses and FUA programs on split and unsplit
        # channels, counted reservation by reservation on the oracle.
        geometry = ORACLE_GEOMETRIES[1]
        oracle = oracle_ssd(geometry, split, "one-page")
        walked = oracle_ssd(geometry, split, "one-page")
        reserved = count_reservations(oracle)
        requests = gc_warmup() + [(False, lpn * PAGE, PAGE, 1e5 + lpn, False)
                                  for lpn in range(16)]
        for request in requests:
            oracle_submit(oracle, request)
        with walked.walk() as step:
            for request in requests:
                step(request)
        assert oracle.ftl.gc_pages_moved > 0
        assert reserved[0] == (walked.fil.page_reads
                               + walked.fil.page_programs) * (1 + split)
        assert channel_traffic(walked) == reserved

    def test_oracle_reaches_wrapping_requests_and_dirty_fill_victims(self):
        # Guard against the differential never wrapping or never evicting
        # a dirty page on a read fill: a buffered write to LPN 2, then a
        # 12 KB read and a 3-page FUA write that start on the last logical
        # page, so the read's fill of LPN 0 evicts the dirty LPN 2.
        geometry = ORACLE_GEOMETRIES[0]
        oracle = oracle_ssd(geometry, True, "one-page")
        walked = oracle_ssd(geometry, True, "one-page")
        last = (oracle.logical_pages - 1) * PAGE
        requests = [(True, 2 * PAGE, PAGE, 0.0, False),
                    (False, last + 100, 3 * PAGE, 1000.0, False),
                    (True, last, 3 * PAGE, 5000.0, True)]
        expected = [oracle_submit(oracle, request) for request in requests]
        with walked.walk() as step:
            finishes = [step(request) for request in requests]
        assert finishes == [finish for _, finish in expected]
        assert device_state(walked) == device_state(oracle)
        statistics = oracle.statistics()
        # The unaligned read spans four pages: the last logical page is
        # unmapped, the three wrapped ones (LPNs 0-2) are preconditioned.
        assert statistics["flash_page_reads"] == 3
        assert statistics["flash_buffer_dirty_evictions"] == 1
        assert statistics["flash_page_programs"] == 3


def mapped_oracle_ssd(geometry: FlashGeometry, split: bool,
                      buffer: str) -> SSD:
    """An ``oracle_ssd`` whose first 24 LPNs are mapped, so every read of
    ``buffered_read_rows`` fills the buffer."""
    ssd = oracle_ssd(geometry, split, buffer)
    ssd.precondition(8, 16)
    return ssd


def buffered_share(ssd: SSD, request) -> str:
    """Classify a multi-page read by how many of its pages *ssd*'s buffer
    holds before it is served: ``"all"``, ``"some"`` or ``"none"``."""
    _, offset, size, _, _ = request
    lpns = [lpn % ssd.logical_pages
            for lpn in range(offset // PAGE, (offset + size - 1) // PAGE + 1)]
    held = sum(lpn in ssd.buffer._pages for lpn in lpns)
    return "all" if held == len(lpns) else "some" if held else "none"


# (warm first LPN, warm pages, is_write, read first LPN, read pages, gap):
# each row warms the buffer with a read or a buffered write, then issues
# a multi-page read that overlaps it in full, in part or not at all.
buffered_read_rows = st.lists(
    st.tuples(st.integers(0, 12), st.integers(1, 6), st.booleans(),
              st.integers(0, 12), st.integers(2, 6),
              st.floats(0.0, 5_000.0)),
    min_size=1, max_size=25)


def buffered_read_requests(rows) -> list:
    requests = []
    clock = 0.0
    for warm, warm_pages, warm_write, first, pages, gap in rows:
        clock += gap
        requests.append((warm_write, warm * PAGE, warm_pages * PAGE, clock,
                         False))
        clock += gap
        requests.append((False, first * PAGE, pages * PAGE, clock, False))
    return requests


class TestMultiPageReadsAgainstPageOracle:
    """Multi-page reads whose pages are all, some or none buffered — and
    reads longer than the buffer — equal the page-by-page oracle in start
    and finish, buffer LRU order and dirty flags, buffer counters and the
    outstanding queue (all in ``device_state``)."""

    @settings(max_examples=100, deadline=None, phases=REPORT_PHASES)
    @given(rows=buffered_read_rows,
           geometry=st.sampled_from(ORACLE_GEOMETRIES), split=st.booleans(),
           buffer=st.sampled_from(["one-page", "four-pages"]))
    def test_buffered_reads_equal_page_by_page_oracle(self, rows, geometry,
                                                      split, buffer):
        oracle = mapped_oracle_ssd(geometry, split, buffer)
        walked = mapped_oracle_ssd(geometry, split, buffer)
        starts, finishes = [], []
        with walked.walk(starts) as step:
            for request in buffered_read_requests(rows):
                expected = oracle_submit(oracle, request)
                finishes.append(step(request))
                assert (starts[-1], finishes[-1]) == expected, request
        assert device_state(walked) == device_state(oracle)

    def test_every_buffered_share_is_reached(self):
        # Guard against the differential above never taking one of the
        # three read shapes: a read of pages the buffer holds in full
        # (after a read and after buffered writes), in part and not at
        # all, and a six-page read through a four-page buffer.
        geometry = ORACLE_GEOMETRIES[0]
        oracle = mapped_oracle_ssd(geometry, True, "four-pages")
        walked = mapped_oracle_ssd(geometry, True, "four-pages")
        requests = [(False, 0, 4 * PAGE, 0.0, False),
                    (False, 0, 4 * PAGE, 1e4, False),
                    (False, 2 * PAGE, 4 * PAGE, 2e4, False),
                    (False, 8 * PAGE, 6 * PAGE, 3e4, False),
                    (False, 10 * PAGE, 4 * PAGE, 4e4, False),
                    (True, PAGE, 2 * PAGE, 5e4, False),
                    (False, PAGE + 100, PAGE, 6e4, False)]
        shares = []
        with walked.walk() as step:
            for request in requests:
                shares.append(buffered_share(oracle, request))
                expected = oracle_submit(oracle, request)
                assert step(request) == expected[1]
        # The write finds only LPNs 10-13 buffered, so its pages 1 and 2
        # are buffered misses; the last read then holds both in full.
        assert shares == ["none", "all", "some", "none", "all", "none",
                          "all"]
        assert device_state(walked) == device_state(oracle)
        assert walked.buffer.stats.read_hits == 4 + 2 + 4 + 2


@pytest.mark.xfail(strict=True, reason=(
    "a read miss's buffer fill evicts a dirty page without programming "
    "it, so the buffered write never reaches flash; the fix moves "
    "digests, so it lands with the device-model work of ROADMAP item 1"))
def test_read_fill_programs_its_dirty_victim():
    # One-page buffer: the write to LPN 0 stays buffered, and the read miss
    # on LPN 1 fills the buffer, evicting dirty LPN 0.
    ssd = tiny_ssd(buffer_pages=1)
    ssd.write(0, PAGE, 0.0)
    ssd.read(PAGE, PAGE, 1000.0)
    statistics = ssd.statistics()
    assert statistics["flash_buffer_dirty_evictions"] == 1
    assert statistics["flash_page_programs"] == 1


def _requests(count: int) -> list:
    return [(j % 3 == 0, (j * 5 % 16) * PAGE, PAGE + (j % 2) * 100,
             500.0 * j, j % 4 == 0) for j in range(count)]


class TestWalkContract:
    def test_entry_points_refuse_while_open(self):
        requests = _requests(6)
        reference = tiny_ssd()
        submit_loop(reference, requests)
        ssd = tiny_ssd()
        refused = {
            "submit": lambda: ssd.submit(IORequest(False, 0, PAGE, 1e6)),
            "read": lambda: ssd.read(0, PAGE, 1e6),
            "write": lambda: ssd.write(0, PAGE, 1e6),
            "submit_batch": lambda: ssd.submit_batch(
                [IORequest(False, 0, PAGE, 1e6)]),
            "precondition": lambda: ssd.precondition(8, 4),
            "precondition_dataset": lambda: ssd.precondition_dataset(PAGE),
            "supercap_flush": lambda: ssd.supercap_flush(1e6),
            "statistics": ssd.statistics,
            "second walk": lambda: ssd.walk().__enter__(),
        }
        with ssd.walk() as step:
            for position, request in enumerate(requests):
                step(request)
                name = list(refused)[position % len(refused)]
                with pytest.raises(RuntimeError):
                    refused[name]()
            for name, call in refused.items():
                with pytest.raises(RuntimeError):
                    call()
        # The refused calls changed nothing: the device equals the
        # per-request prefix, and it is usable again.
        assert device_state(ssd) == device_state(reference)
        more = _requests(9)[6:]
        assert submit_loop(ssd, more) == submit_loop(reference, more)
        assert device_state(ssd) == device_state(reference)

    def test_step_that_raised_closes_the_walk(self):
        requests = _requests(5)
        reference = tiny_ssd()
        submit_loop(reference, requests)
        ssd = tiny_ssd()
        with pytest.raises(ValueError):
            with ssd.walk() as step:
                for request in requests:
                    step(request)
                step(("not", "a", "request"))
        assert device_state(ssd) == device_state(reference)
        with ssd.walk() as step:
            step((False, 0, PAGE, 1e6, False))

    def test_mid_request_failure_matches_the_submit_prefix(self):
        # A layer that raises inside a request (here the FTL's allocator on
        # its third program) leaves the walked device exactly where the
        # per-request loop leaves it when the same request raises.
        def failing(ssd: SSD) -> SSD:
            write = ssd.ftl._write_ppn
            calls = []

            def flaky(lpn):
                calls.append(lpn)
                if len(calls) == 3:
                    raise RuntimeError("allocator failure")
                return write(lpn)

            ssd.ftl._write_ppn = flaky
            return ssd

        requests = [(True, lpn * PAGE, 2 * PAGE, 100.0 * lpn, True)
                    for lpn in range(4)]
        reference = failing(tiny_ssd())
        with pytest.raises(RuntimeError, match="allocator"):
            submit_loop(reference, requests)
        ssd = failing(tiny_ssd())
        with pytest.raises(RuntimeError, match="allocator"):
            with ssd.walk() as step:
                for request in requests:
                    step(request)
        assert device_state(ssd) == device_state(reference)
        assert ssd.statistics()["flash_requests_served"] == 1

    def test_closed_walk_step_is_dead(self):
        ssd = tiny_ssd()
        with ssd.walk() as step:
            step((False, 0, PAGE, 0.0, False))
        with pytest.raises(StopIteration):
            step((False, 0, PAGE, 1.0, False))


#: The flash-backed platforms of the fig16 matrix, and the ULL bypasses.
FLASH_PLATFORMS = ("mmap", "flatflash-M", "flatflash-P", "nvdimm-C",
                   "hams-LP", "hams-LE", "hams-TP", "hams-TE",
                   "bypass-ull", "bypass-ull-buff")

GOLDEN = json.loads(
    Path(__file__).with_name("golden_digests.json").read_text())


@pytest.fixture(scope="module")
def smoke_config():
    return scale_system_config(default_config(), SMOKE_SCALE)


@pytest.fixture(scope="module")
def smoke_traces():
    return {workload: build_trace(workload, SMOKE_SCALE)
            for workload in get_preset("fig16").workloads}


@pytest.fixture
def batch_of_one_calls(monkeypatch):
    """Counts of the batch-of-one routes a miss path must not take."""
    calls = {}

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for name in ("submit", "read", "write", "submit_batch"):
        count(SSD, name)
    count(NVMeController, "execute")
    count(_Ring, "push")
    return calls


@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
@pytest.mark.parametrize("platform_name", FLASH_PLATFORMS)
def test_batched_replay_steps_one_walk_per_chunk(platform_name, chunk_size,
                                                 smoke_config, smoke_traces,
                                                 batch_of_one_calls):
    served = 0
    for workload, trace in smoke_traces.items():
        platform = create_platform(platform_name, smoke_config)
        if chunk_size is not None:
            platform.replay_chunk_size = chunk_size
        result = platform.run(trace)
        ssd = getattr(platform, "ssd", None) or platform.controller.ssd
        served += ssd.requests_served
        key = f"{platform_name}/{workload}"
        if key in GOLDEN:
            assert result_digest(result) == GOLDEN[key]
    assert batch_of_one_calls == {}
    assert served > 0


@pytest.mark.parametrize("platform_name", FLASH_PLATFORMS)
def test_scalar_reference_matches_golden(platform_name, smoke_config,
                                         smoke_traces):
    for workload in ("seqRd", "rndWr", "update"):
        platform = create_platform(platform_name, smoke_config)
        result = run_scalar(platform, smoke_traces[workload])
        assert result_digest(result) == GOLDEN[f"{platform_name}/{workload}"]
