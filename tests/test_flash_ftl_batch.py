"""Property-based parity: ``FlashTranslationLayer.fill`` vs a scalar loop.

Preconditioning leans on :meth:`fill` keeping the *entire* FTL state —
mapping table, reverse map, per-plane append points, free lists, GC
pressure and the round-robin allocation cursor — bit-identical to a
scalar :meth:`write` loop.  ``fill`` has two paths: a closed-form striped
fill when the loop provably never collects or skips a plane, and the
per-LPN loop otherwise.  Hypothesis drives arbitrary LPN streams (with
duplicates and heavy overwrite skew, so GC fires on the tiny geometry and
the loop path runs) and arbitrary unmapped ranges over a partly written
device (so the closed form runs from a non-zero cursor and part-full open
blocks); the suite asserts exact state equality after every interleaving,
including unwritten holes and device wrap-around.  State equality compares
the complete logical LPN -> PPN and PPN -> LPN maps, so it holds across
the two mapping representations: a fresh FTL preconditioned with a
``range`` keeps it as a base stripe (a formula) rather than as dict
entries, and ``TestBaseStripe`` drives such an FTL (and the SSD walk
over it) against a scalar-preconditioned twin while GC relocates base
pages and reuses base blocks.  ``TestUnmappedLpns`` pins
``unmapped_lpns``, the set ``SSD.precondition`` fills on a warmed device,
against a per-LPN filter after writes and GC relocations.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st, target

from repro.config import GB, FlashGeometry, SSDConfig, default_config
from repro.flash.ftl import FlashTranslationLayer
from repro.flash.ssd import SSD, IORequest
from repro.units import MB
from repro.workloads.registry import ExperimentScale, scale_system_config


def tiny_geometry() -> FlashGeometry:
    # 2 planes x 8 blocks x 4 pages = 64 physical pages.  The streams below
    # only touch LPNs 0..15, so steady state keeps ~16 valid pages: victims
    # are mostly-invalid blocks and collections stay cheap, yet the append
    # points still wrap both planes many times per stream.
    return FlashGeometry(channels=1, packages_per_channel=1,
                         dies_per_package=2, planes_per_die=1,
                         blocks_per_plane=8, pages_per_block=4)


def tiny_ftl() -> FlashTranslationLayer:
    return FlashTranslationLayer(tiny_geometry())


def roomy_ftl() -> FlashTranslationLayer:
    # 2 channels x 3 planes x 16 blocks x 4 pages = 384 physical pages: a
    # pre-state of at most 48 writes plus any fill of at most 96 pages
    # leaves every plane well above the GC threshold, so the closed form
    # always applies.  Six planes and four-page blocks make the stripe
    # quotas uneven and the open blocks part-full.
    geometry = FlashGeometry(channels=2, packages_per_channel=1,
                             dies_per_package=3, planes_per_die=1,
                             blocks_per_plane=16, pages_per_block=4)
    return FlashTranslationLayer(geometry)


def scalar_fill(ftl: FlashTranslationLayer, lpns) -> None:
    for lpn in lpns:
        ftl.write(int(lpn))


def forbid_scalar_writes(ftl: FlashTranslationLayer) -> None:
    """Make the per-LPN path of :meth:`fill` raise on *ftl*."""
    def scalar_write(lpn):
        raise AssertionError("fill fell back to the per-LPN loop")
    ftl._write_ppn = scalar_write


def logical_maps(ftl: FlashTranslationLayer):
    """The complete LPN -> PPN and PPN -> LPN maps, base stripe included."""
    physical_pages = len(ftl._planes) * ftl._pages_per_plane
    forward = {lpn: ppn for lpn in range(ftl._logical_pages)
               if (ppn := ftl._lpn_to_ppn(lpn)) is not None}
    reverse = {ppn: lpn for ppn in range(physical_pages)
               if (lpn := ftl._ppn_to_lpn(ppn)) is not None}
    assert reverse == {ppn: lpn for lpn, ppn in forward.items()}
    return forward, reverse


def assert_state_equal(left: FlashTranslationLayer,
                       right: FlashTranslationLayer) -> None:
    assert logical_maps(left) == logical_maps(right)
    assert left._allocation_cursor == right._allocation_cursor
    assert left.gc_invocations == right.gc_invocations
    assert left.gc_pages_moved == right.gc_pages_moved
    assert left.host_writes == right.host_writes
    assert left.erase_counts() == right.erase_counts()
    assert left.statistics() == right.statistics()
    for plane_l, plane_r in zip(left._planes, right._planes):
        assert plane_l.free_blocks == plane_r.free_blocks
        assert plane_l.open_block == plane_r.open_block
        assert plane_l.next_page == plane_r.next_page
        assert plane_l.valid_counts == plane_r.valid_counts
        assert plane_l.gc_pressed == plane_r.gc_pressed
    assert left._gc_pressure_planes == right._gc_pressure_planes


# A 16-LPN working set on a 64-page device: overwrites (and therefore
# invalidation + GC) common while leaving enough slack that victim
# blocks are mostly invalid; the append points wrap the device repeatedly.
lpn_streams = st.lists(st.integers(min_value=0, max_value=15),
                       min_size=1, max_size=64)

# Writes over LPNs 0..31 that build a partly written device: a non-zero
# cursor, part-full open blocks and unwritten holes.
pre_states = st.lists(st.integers(min_value=0, max_value=31), max_size=48)


def apply_pre_state(ftl: FlashTranslationLayer, lpns) -> None:
    for lpn in lpns:
        ftl.write(lpn)


def is_mapped(ftl: FlashTranslationLayer, lpn: int) -> bool:
    """The per-LPN probe ``unmapped_lpns`` must agree with."""
    return ftl._lpn_to_ppn(lpn) is not None


class TestWriteBatchParity:
    @settings(max_examples=120, deadline=None)
    @given(lpn_streams)
    def test_batch_equals_scalar_loop(self, lpns):
        scalar = tiny_ftl()
        filled = tiny_ftl()
        scalar_fill(scalar, lpns)
        filled.fill(np.array(lpns, dtype=np.int64))
        assert_state_equal(filled, scalar)

    @settings(max_examples=60, deadline=None)
    @given(lpn_streams, lpn_streams)
    def test_split_points_are_invisible(self, first, second):
        # One fill vs two back-to-back fills over the same stream: the
        # walk must be history-free at fill boundaries.
        whole = tiny_ftl()
        split = tiny_ftl()
        whole.fill(first + second)
        split.fill(first)
        split.fill(second)
        assert_state_equal(split, whole)

    def test_gc_actually_fires_under_this_geometry(self):
        # Guard against the suite silently testing the no-GC fast path
        # only: every 4th write lands a fresh cold LPN (so each 4-page block
        # keeps at least one live page) between hammered hot LPNs, forcing
        # the collector to relocate live data, not just erase garbage.
        stream = []
        cold = 16
        for j in range(160):
            if j % 4 == 0 and cold < 48:
                stream.append(cold)
                cold += 1
            else:
                stream.append(j % 4)
        ftl = tiny_ftl()
        ftl.fill(stream)
        assert ftl.gc_invocations > 0
        assert ftl.gc_pages_moved > 0


def assert_valid_counts_exact(ftl: FlashTranslationLayer) -> None:
    """Each plane's per-block valid count is the number of the block's
    PPNs that hold an LPN, and every block holding one has a count."""
    pages_per_block = ftl._pages_per_block
    for plane in ftl._planes:
        live = {}
        for ppn in range(plane.base, plane.base + ftl._pages_per_plane):
            if ftl._ppn_to_lpn(ppn) is not None:
                block = (ppn - plane.base) // pages_per_block
                live[block] = live.get(block, 0) + 1
        assert set(live) <= set(plane.valid_counts)
        assert plane.valid_counts == {
            block: live.get(block, 0) for block in plane.valid_counts}


# Tiny geometries for the count invariant: one or two channels, dies and
# planes, six to eight blocks per plane and two- or four-page blocks.
count_geometries = st.builds(
    FlashGeometry, channels=st.integers(1, 2),
    packages_per_channel=st.just(1), dies_per_package=st.integers(1, 2),
    planes_per_die=st.integers(1, 2), blocks_per_plane=st.integers(6, 8),
    pages_per_block=st.sampled_from([2, 4]))

#: Whether any drawn example of the count invariant ran GC.
_COUNT_GC_SEEN = []


class TestValidCounts:
    @settings(max_examples=100, deadline=None)
    @given(count_geometries, st.integers(min_value=0, max_value=63),
           st.lists(st.integers(min_value=0, max_value=63), min_size=1,
                    max_size=120))
    def test_counts_equal_live_pages_after_every_write(self, geometry,
                                                       precondition, lpns):
        # The working set fits one plane with three blocks to spare, even
        # if every live page gathers there, so GC always finds a victim
        # with an invalid page; overwrites then make it relocate live
        # pages and reuse the preconditioned base stripe's blocks.
        working_set = ((geometry.blocks_per_plane - 3)
                       * geometry.pages_per_block - 1)
        ftl = FlashTranslationLayer(geometry)
        ftl.fill(range(precondition % (working_set + 1)))
        assert_valid_counts_exact(ftl)
        for lpn in lpns:
            ftl.write(lpn % working_set)
            assert_valid_counts_exact(ftl)
        target(float(ftl.gc_invocations))
        if ftl.gc_invocations:
            _COUNT_GC_SEEN.append(True)

    def test_some_drawn_example_ran_gc(self):
        # Runs after the property above (pytest keeps definition order)
        # and fails if none of its examples reached the collector.
        if not _COUNT_GC_SEEN:
            self.test_counts_equal_live_pages_after_every_write()
        assert _COUNT_GC_SEEN


class TestClosedFormFill:
    @settings(max_examples=120, deadline=None)
    @given(pre_states, st.integers(min_value=0, max_value=200),
           st.integers(min_value=0, max_value=96))
    def test_unmapped_range_after_arbitrary_pre_state(self, operations,
                                                      start, length):
        scalar = roomy_ftl()
        filled = roomy_ftl()
        apply_pre_state(scalar, operations)
        apply_pre_state(filled, operations)
        # The unmapped LPNs of [start, start + length): exactly the list
        # SSD.precondition hands to fill.
        lpns = [lpn for lpn in range(start, start + length)
                if not is_mapped(filled, lpn)]
        scalar_fill(scalar, lpns)
        forbid_scalar_writes(filled)
        filled.fill(lpns)
        assert_state_equal(filled, scalar)
        # The device stays usable: later writes go through the same path.
        del filled._write_ppn
        for lpn in (0, 5, 250):
            scalar.write(lpn)
            filled.write(lpn)
        assert_state_equal(filled, scalar)

    def test_closed_form_preconditions_a_fresh_fig16_device(self):
        # The fig16 default-scale ULL-Flash device (128 planes, 108 blocks
        # x 256 pages); one precondition is the whole warm-up of a run.
        ssd = SSD(SSDConfig.ull_flash(GB(800) // 64))
        forbid_scalar_writes(ssd.ftl)
        ssd.precondition(0, 65536)
        assert ssd.ftl.mapped_pages == 65536
        assert ssd.ftl.host_writes == 65536
        assert ssd.ftl._allocation_cursor == 65536 % 128

    def test_fill_into_gc_threshold_falls_back(self):
        # 2 planes x 8 blocks x 4 pages with a threshold of 2 blocks: 48
        # fresh pages leave each plane 2 free blocks (the closed form); 49
        # leave plane 0 with 1, under the threshold, so the loop must run
        # and end with that plane under GC pressure.
        fits = tiny_ftl()
        forbid_scalar_writes(fits)
        fits.fill(range(48))
        reference = tiny_ftl()
        scalar_fill(reference, range(48))
        assert_state_equal(fits, reference)

        scalar = tiny_ftl()
        filled = tiny_ftl()
        scalar_fill(scalar, range(49))
        forbid_scalar_writes(filled)
        with pytest.raises(AssertionError, match="per-LPN loop"):
            filled.fill(range(49))
        filled = tiny_ftl()
        filled.fill(range(49))
        assert_state_equal(filled, scalar)
        assert filled._gc_pressure_planes == 1

    def test_fresh_fig16_precondition_is_the_base_stripe(self):
        # A fresh device keeps its preconditioned range as a formula: no
        # mapping entry is stored, so the warm-up allocates only the
        # per-block valid counts, ~30 KB (a per-entry pair of dicts would
        # take ~11 MB here).
        ssd = SSD(scale_system_config(default_config(),
                                      ExperimentScale()).ssd)
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ssd.precondition(0, 65536)
        peak = tracemalloc.get_traced_memory()[1]
        if not was_tracing:
            tracemalloc.stop()
        ftl = ssd.ftl
        assert ftl._mapping == {} and ftl._reverse == {}
        assert (ftl._base_start, ftl._base_end) == (0, 65536)
        assert ftl.mapped_pages == 65536
        assert peak - before < MB(1)


def precondition_unmapped(ftl: FlashTranslationLayer, start: int,
                          count: int) -> None:
    """``SSD.precondition`` on *ftl* through the scalar write loop."""
    scalar_fill(ftl, [lpn for lpn in range(start, start + count)
                      if not is_mapped(ftl, lpn)])


def base_twins(start: int, count: int):
    """A tiny SSD preconditioned through the base stripe, and an FTL
    preconditioned through the per-LPN write loop."""
    ssd = SSD(SSDConfig(geometry=tiny_geometry()))
    ssd.precondition(start, count)
    assert ssd.ftl._mapping == {} and ssd.ftl._reverse == {}
    assert (ssd.ftl._base_start, ssd.ftl._base_end) == (start, start + count)
    reference = tiny_ftl()
    precondition_unmapped(reference, start, count)
    assert_state_equal(ssd.ftl, reference)
    return ssd, reference


def outcome(action):
    """The value of *action()*, or the exception it raised."""
    try:
        return action()
    except (RuntimeError, ValueError) as error:
        return type(error), str(error)


def write_outcome(ftl: FlashTranslationLayer, lpn: int):
    def action():
        address, gc_result = ftl.write(lpn)
        return address, gc_result.page_moves, gc_result.blocks_erased
    return outcome(action)


# One step of the base-stripe differential.  LPNs stay below 40 so at most
# 47 of the 64 physical pages hold live data; overwrites of base LPNs make
# GC relocate base pages and erase and reuse base blocks.
base_lpns = st.integers(min_value=0, max_value=39)
base_steps = st.one_of(
    st.tuples(st.just("write"), base_lpns),
    st.tuples(st.just("fill"), base_lpns,
              st.integers(min_value=0, max_value=8)),
    st.tuples(st.just("precondition"), base_lpns,
              st.integers(min_value=0, max_value=8)),
    st.tuples(st.just("lookup"),
              st.lists(st.integers(min_value=0, max_value=58), max_size=8)))


class TestBaseStripe:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=8),
           st.integers(min_value=1, max_value=40),
           st.lists(base_steps, max_size=80))
    def test_base_stripe_equals_scalar_preconditioning(self, start, count,
                                                       steps):
        ssd, reference = base_twins(start, count)
        based = ssd.ftl
        for step in steps:
            kind = step[0]
            result = None
            if kind == "write":
                result = write_outcome(based, step[1])
                assert result == write_outcome(reference, step[1])
            elif kind == "fill":
                lpns = [lpn for lpn in range(step[1], step[1] + step[2])
                        if not is_mapped(based, lpn)]
                result = outcome(lambda: based.fill(lpns))
                assert result == outcome(lambda: scalar_fill(reference, lpns))
            elif kind == "precondition":
                result = outcome(lambda: ssd.precondition(step[1], step[2]))
                assert result == outcome(lambda: precondition_unmapped(
                    reference, step[1], step[2]))
            else:
                lpns = step[1]
                assert ([based.lookup(lpn) for lpn in lpns]
                        == [reference.lookup(lpn) for lpn in lpns])
                assert ([is_mapped(based, lpn) for lpn in lpns]
                        == [is_mapped(reference, lpn) for lpn in lpns])
            assert_state_equal(based, reference)
            if isinstance(result, tuple) and result[:1] == (RuntimeError,):
                break  # the device filled up identically on both twins

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=8),
           st.integers(min_value=1, max_value=40),
           st.lists(st.lists(st.tuples(st.booleans(), base_lpns,
                                       st.integers(min_value=1, max_value=2)),
                             min_size=1, max_size=4), max_size=24))
    def test_submit_batch_follows_the_base_stripe(self, start, count,
                                                  batches):
        # The SSD walk inlines the LPN -> PPN lookup: with the DRAM buffer
        # off, every read of an overwritten or relocated base LPN
        # must reach the page (or the zero fill) the scalar twin reaches.
        geometry = tiny_geometry()
        config = SSDConfig(geometry=geometry, dram_buffer_enabled=False)
        based = SSD(config)
        based.precondition(start, count)
        assert based.ftl._mapping == {}
        reference = SSD(config)
        precondition_unmapped(reference.ftl, start, count)
        clock = 0.0
        for requests in batches:
            columns = list(zip(*requests))
            sizes = [pages * geometry.page_size for pages in columns[2]]
            offsets = [lpn * geometry.page_size for lpn in columns[1]]
            submits = [clock + 1000.0 * j for j in range(len(requests))]
            clock = submits[-1] + 1000.0
            io_requests = [IORequest(*row) for row in zip(
                columns[0], offsets, sizes, submits)]
            results = [outcome(lambda ssd=ssd: ssd.submit_batch(io_requests))
                       for ssd in (based, reference)]
            assert results[0] == results[1]
            assert_state_equal(based.ftl, reference.ftl)
            assert based.statistics() == reference.statistics()
            if isinstance(results[0], tuple):
                break  # the device filled up identically on both twins

    def test_gc_reuses_base_blocks(self):
        # Guard against the differential never leaving the base: hammering
        # a few base LPNs makes GC relocate the live base pages of a
        # victim, erase it and reuse its PPNs, which then decode to base
        # positions while the dictionary says otherwise.
        ssd, reference = base_twins(0, 40)
        based = ssd.ftl
        for j in range(120):
            lpn = j % 6
            assert write_outcome(based, lpn) == write_outcome(reference, lpn)
            assert_state_equal(based, reference)
        assert based.gc_pages_moved > 0
        assert any(lpn >= 6 for lpn in based._base_gone)  # relocated
        reused = [ppn for ppn in based._reverse
                  if (ppn % based._pages_per_plane) * based._plane_count
                  + ppn // based._pages_per_plane < 40]
        assert reused
        assert based.mapped_pages == reference.mapped_pages == 40


# Writes and six-LPN hammer bursts below LPN 40 (as ``base_lpns``),
# on both sides of a base stripe that starts at LPN 0..8: base LPNs leave
# the stripe and are re-mapped, and GC relocates base pages.
unmapped_steps = st.lists(st.one_of(
    st.tuples(st.just("write"), base_lpns),
    st.tuples(st.just("hammer"), st.integers(min_value=0, max_value=33))),
    max_size=30)


class TestUnmappedLpns:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=8),
           st.integers(min_value=1, max_value=40), unmapped_steps,
           base_lpns, st.integers(min_value=0, max_value=8))
    def test_equals_the_per_lpn_filter(self, start, count, steps,
                                       window_start, window_count):
        config = SSDConfig(geometry=tiny_geometry())
        ssd, twin = SSD(config), SSD(config)
        ssd.precondition(start, count)
        twin.precondition(start, count)
        for kind, lpn in steps:
            burst = range(lpn, lpn + 6) if kind == "hammer" else [lpn]
            for device in (ssd, twin):
                result = outcome(lambda: scalar_fill(device.ftl, burst))
            if result is not None:
                return  # the device filled up identically on both twins
        ftl = ssd.ftl
        target(float(ftl.gc_pages_moved))
        for low in range(0, 48, 5):
            for high in (low, low + 1, low + 9, ftl._logical_pages):
                assert ftl.unmapped_lpns(low, high) == [
                    lpn for lpn in range(low, high)
                    if not is_mapped(ftl, lpn)]
        result = outcome(lambda: ssd.precondition(window_start,
                                                  window_count))
        assert result == outcome(lambda: precondition_unmapped(
            twin.ftl, window_start, window_count))
        assert_state_equal(ssd.ftl, twin.ftl)
        assert ssd.statistics() == twin.statistics()

    def test_warmed_fig16_device_is_not_probed_per_lpn(self):
        # Re-preconditioning a warmed device (Platform.run calls prepare
        # again) reads the unmapped set off the maps: with a few base LPNs
        # rewritten and one LPN past the stripe written, no LPN is probed.
        ssd = SSD(scale_system_config(default_config(),
                                      ExperimentScale()).ssd)
        ssd.precondition(0, 65536)
        ftl = ssd.ftl
        for lpn in (3, 70_000, 40_000):
            ftl.write(lpn)
        fill = ftl.fill

        def probe_free_until_fill(lpns):
            del ftl._lpn_to_ppn
            return fill(lpns)

        # Until the fill, any per-LPN probe would raise TypeError.
        ftl._lpn_to_ppn = None
        ftl.fill = probe_free_until_fill
        ssd.precondition(0, 80_000)
        del ftl.fill
        assert ftl.unmapped_lpns(0, 90_000) == [
            lpn for lpn in range(90_000) if not is_mapped(ftl, lpn)]
        assert ftl.mapped_pages == 80_000
