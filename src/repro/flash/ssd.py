"""The full SSD device model: firmware stack + internal DRAM + flash complex.

An :class:`SSD` accepts byte-ranged I/O requests at arbitrary submission
times and returns completion times computed from the state of its internal
resources (DRAM buffer, channels, dies, mapping table).  The firmware stack
of the paper (Figure 4c) is host interface -> internal DRAM ->
FTL -> FIL -> dies and channels; the lower layers of this package hold
its state (:class:`~repro.flash.dram_buffer.InternalDRAMBuffer`,
:class:`~repro.flash.ftl.FlashTranslationLayer`,
:class:`~repro.flash.fil.FlashInterfaceLayer`,
:class:`~repro.flash.znand.ZNANDArray`,
:class:`~repro.flash.channel.ChannelScheduler`).

:meth:`SSD.walk` owns every per-request operation: one resumable walk
parses and splits each request (the host interface), applies the
DRAM-buffer hit/fill/dirty-evict steps, translates on integer PPNs (the die
and channel are decoded from the PPN by integer division, so no address
objects are built) and reserves die and channel occupancy against the
layers' flat arrays.  :class:`IORequest` is the one request shape:
:meth:`SSD.submit_batch` drives one walk over a sequence of them,
:meth:`SSD.submit` is a batch-of-one ``submit_batch``, and the platforms'
miss paths step one walk per service chunk, so there is exactly one
service path.  The layer classes keep only their state, their counters,
and the page operations that GC relocation (:meth:`SSD._charge_gc`) and
:meth:`SSD.supercap_flush` use.  ``tests/test_flash_walk.py`` and
``tests/test_flash_batch.py`` pin the equivalence and the platform
golden-parity suite (``tests/test_batched_replay.py``) gates every
consumer.

Three factory presets mirror the devices used in the paper's evaluation:
ULL-Flash (Z-NAND), a conventional NVMe SSD and a SATA SSD.
"""

from __future__ import annotations

import contextlib
import heapq
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from ..config import SSDConfig
from .channel import ChannelScheduler
from .dram_buffer import InternalDRAMBuffer
from .fil import FlashInterfaceLayer
from .ftl import FlashTranslationLayer, GCResult
from .znand import ZNANDArray


@dataclass(frozen=True)
class IORequest:
    """One host-visible I/O request."""

    is_write: bool
    byte_offset: int
    size_bytes: int
    submit_ns: float
    fua: bool = False

    def __post_init__(self) -> None:
        if self.byte_offset < 0:
            raise ValueError("byte_offset must be non-negative")
        if self.size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        if self.submit_ns < 0:
            raise ValueError("submit_ns must be non-negative")


@dataclass
class IOResult:
    """Completion record for one :class:`IORequest`."""

    request: IORequest
    start_ns: float
    finish_ns: float

    @property
    def latency_ns(self) -> float:
        return self.finish_ns - self.request.submit_ns


class SSD:
    """A simulated NVMe/SATA solid-state drive."""

    def __init__(self, config: SSDConfig) -> None:
        self.config = config
        geometry = config.geometry
        self.page_size = geometry.page_size
        self.array = ZNANDArray(geometry, config.timing)
        self.channels = ChannelScheduler(geometry,
                                         config.channel_bw_bytes_per_ns)
        self.ftl = FlashTranslationLayer(geometry)
        self.fil = FlashInterfaceLayer(self.array, self.channels,
                                       self.page_size,
                                       split_channels=config.split_channels)
        self.buffer = InternalDRAMBuffer(
            config.dram_buffer_bytes, self.page_size,
            enabled=config.dram_buffer_enabled,
            mapping_table_fraction=config.mapping_table_fraction)
        # Hoisted from the frozen geometry's property chain: recomputing it
        # per sub-request dominates profiles of migration-heavy replays.
        self._logical_pages = config.geometry.logical_pages
        # Outstanding request completion times, used to model the device's
        # bounded queue (ULL-Flash sustains ~16 outstanding random reads).
        self._outstanding: List[float] = []
        self.requests_served = 0
        self.bytes_read = 0
        self.bytes_written = 0
        # True while a walk holds the hoisted state (see walk()).
        self._walking = False

    # -- capacity ------------------------------------------------------------------

    @property
    def capacity_bytes(self) -> int:
        return self.config.geometry.usable_capacity_bytes

    @property
    def logical_pages(self) -> int:
        return self._logical_pages

    # -- preconditioning -------------------------------------------------------------

    def precondition(self, start_lpn: int, page_count: int) -> None:
        """Pre-map a logical range without charging simulation time.

        The paper's experiments write every data block to the flash media in
        a warm-up phase before measuring (Section VI-A); preconditioning
        reproduces that state so reads hit mapped pages.  LPNs already
        mapped keep their pages; the rest (read off the FTL's maps by
        :meth:`~repro.flash.ftl.FlashTranslationLayer.unmapped_lpns`, so a
        warmed device is not probed LPN by LPN) are written in LPN order
        by one :meth:`~repro.flash.ftl.FlashTranslationLayer.fill`.  On a fresh
        device that fill is the FTL's base stripe, kept as a formula
        rather than as per-page mapping entries.
        """
        self._check_idle("precondition")
        if start_lpn < 0:
            raise ValueError("start_lpn must be non-negative")
        if page_count < 0:
            raise ValueError("page_count must be non-negative")
        end = start_lpn + page_count
        if end > self.logical_pages:
            raise ValueError("precondition range exceeds device capacity")
        ftl = self.ftl
        lpns = range(start_lpn, end)
        if ftl.mapped_pages:
            lpns = ftl.unmapped_lpns(start_lpn, end)
        ftl.fill(lpns)
        self.buffer.clear()

    def precondition_dataset(self, dataset_bytes: int) -> None:
        """Precondition the pages backing a *dataset_bytes* dataset laid
        out from LPN 0, clamped to the device capacity."""
        self.precondition(0, min(self.logical_pages,
                                 -(-dataset_bytes // self.page_size)))

    # -- request servicing -------------------------------------------------------------

    def submit(self, request: IORequest) -> IOResult:
        """Service one request: a batch-of-one :meth:`submit_batch`.

        Requests must be submitted in non-decreasing ``submit_ns`` order.
        The platforms' miss paths step an open :meth:`walk` instead.
        """
        return self.submit_batch([request])[0]

    def read(self, byte_offset: int, size_bytes: int, at_ns: float) -> IOResult:
        """Convenience wrapper for a read request."""
        return self.submit(IORequest(is_write=False, byte_offset=byte_offset,
                                     size_bytes=size_bytes, submit_ns=at_ns))

    def write(self, byte_offset: int, size_bytes: int, at_ns: float,
              fua: bool = False) -> IOResult:
        """Convenience wrapper for a write request."""
        return self.submit(IORequest(is_write=True, byte_offset=byte_offset,
                                     size_bytes=size_bytes, submit_ns=at_ns,
                                     fua=fua))

    def submit_batch(self, requests: Sequence[IORequest]) -> List[IOResult]:
        """Service *requests* in order through one :meth:`walk`.

        Bit-identical to submitting each request through :meth:`submit` in
        order: per-resource state (buffer LRU order, FTL mapping, die and
        channel occupancy) only ever advances in request order, and garbage
        collection triggers at the same points.  Requests must be ordered
        by non-decreasing submission clock, like :meth:`submit` callers.
        """
        results: List[IOResult] = []
        starts: List[float] = []
        with self.walk(starts) as step:
            for request in requests:
                finish = step((request.is_write, request.byte_offset,
                               request.size_bytes, request.submit_ns,
                               request.fua))
                results.append(IOResult(request=request, start_ns=starts[-1],
                                        finish_ns=finish))
        return results

    @contextlib.contextmanager
    def walk(self, starts: Optional[List[float]] = None
             ) -> Iterator[Callable[[tuple], float]]:
        """Open one resumable walk over the flash stack and yield its step.

        Opening hoists the layer state once; ``step((is_write,
        byte_offset, size_bytes, submit_ns, fua))`` services one request
        and returns its finish (appending its admission time to *starts*
        when given); closing writes the lifted counters back — also when
        a step raised, so the device then matches the per-request
        :meth:`submit` sequence up to the failing request.  Requests must
        arrive validated and in non-decreasing ``submit_ns`` order.  While
        the walk is open, :meth:`submit`, :meth:`submit_batch`,
        :meth:`precondition`, :meth:`supercap_flush`, :meth:`statistics`
        and a second :meth:`walk` raise :class:`RuntimeError` rather than
        read or overwrite the hoisted state.
        """
        steps = self._steps(starts)
        next(steps)
        try:
            yield steps.send
        finally:
            steps.close()

    def _steps(self, starts: Optional[List[float]]):
        """The walk of :meth:`walk` as a generator: one request per send."""
        if self._walking:
            raise RuntimeError("a walk is already open on this SSD")
        config = self.config
        # -- hoisted layer state (shared mutable structures, loop locals) --
        page_size = self.page_size
        logical_pages = self._logical_pages
        buffer = self.buffer
        buffer_enabled = buffer.enabled
        # The buffer's per-page hit/fill/dirty-evict steps and
        # FlashTranslationLayer._lpn_to_ppn run inline below against these
        # shared structures (this walk is the one service path).
        buffer_pages = buffer._pages
        buffer_move = buffer_pages.move_to_end
        buffer_has = buffer_pages.__contains__
        buffer_popitem = buffer_pages.popitem
        buffer_capacity = buffer.capacity_pages
        buffer_insert = buffer._insert
        ftl = self.ftl
        mapping_get = ftl._mapping.get
        # The base stripe (FlashTranslationLayer._lpn_to_ppn, inlined): only
        # fill on a pristine FTL sets the range, and precondition refuses to
        # run while a walk is open, so it is fixed per walk.
        base_start = ftl._base_start
        base_count = ftl._base_end - base_start
        base_gone = ftl._base_gone
        plane_count = ftl._plane_count
        pages_per_plane = ftl._pages_per_plane
        ftl_write = ftl._write_ppn
        fil = self.fil
        outstanding = self._outstanding
        max_outstanding = config.max_outstanding
        hit_ns = config.dram_buffer_hit_ns
        firmware_ns = config.firmware_latency_ns
        heappush = heapq.heappush
        heappop = heapq.heappop
        # Flat die/channel occupancy shared with the layer objects.
        array = self.array
        die_busy = array.busy_until_ns
        pages_per_die = ftl._pages_per_die
        pages_per_channel = ftl._pages_per_channel
        read_ns = array.timing.read_ns
        program_ns = array.timing.program_ns
        channels = self.channels
        chan_busy = channels.busy_until_ns
        channel_count = channels.channel_count
        split = fil.split_channels
        if split:
            half = page_size // 2
            t_half = channels.transfer_time(half)
            t_rest = channels.transfer_time(page_size - half)
        else:
            t_full = channels.transfer_time(page_size)
        # -- lifted counters (written back in ``finally``) --
        page_reads_local = 0
        page_programs_local = 0
        buffer_stats = buffer.stats
        buf_read_hits = 0
        buf_read_misses = 0
        buf_write_hits = 0
        buf_write_misses = 0
        buf_dirty_evictions = 0
        buf_clean_evictions = 0
        served_local = 0
        bytes_read_local = 0
        bytes_written_local = 0
        finish = None
        self._walking = True
        try:
            while True:
                is_write, offset, size, submit, fua = yield finish
                # Admission: drain completions, then gate on the queue bound.
                while outstanding and outstanding[0] <= submit:
                    heappop(outstanding)
                if len(outstanding) < max_outstanding:
                    start = submit
                else:
                    earliest = heappop(outstanding)
                    start = submit if submit >= earliest else earliest
                # Host-interface parse/split into page-sized sub-requests:
                # the LPN run the byte range covers, wrapped onto the
                # device only when it reaches past the last logical page.
                # Parse cost: a fixed command decode plus 5% per extra
                # sub-request.
                first = offset // page_size
                last = (offset + size - 1) // page_size
                if first == last:
                    lpns = (first if first < logical_pages
                            else first % logical_pages,)
                    # firmware_ns * (1.0 + 0.05 * 0) == firmware_ns exactly.
                    firmware_done = start + firmware_ns
                else:
                    if last < logical_pages:
                        lpns = range(first, last + 1)
                    else:
                        lpns = [lpn % logical_pages
                                for lpn in range(first, last + 1)]
                    firmware_done = start + firmware_ns * (
                        1.0 + 0.05 * (last - first))
                finish = firmware_done

                if not is_write:
                    # -- reads: one fused pass in piece order -------------
                    # Buffer classification, translation and the die and
                    # channel reservations per page, so a 16-page chunk
                    # read is one tight loop instead of 16 scalar walks.
                    zero_finish = firmware_done + hit_ns
                    if (buffer_enabled and first != last
                            and all(map(buffer_has, lpns))):
                        # Every page is buffered: each is a hit that only
                        # moves it to the MRU end and finishes at
                        # zero_finish, so one pass serves the read.
                        for lpn in lpns:
                            buffer_move(lpn)
                        buf_read_hits += len(lpns)
                        if zero_finish > finish:
                            finish = zero_finish
                        lpns = ()  # nothing left for the per-page loop
                    for lpn in lpns:
                        if buffer_enabled and lpn in buffer_pages:
                            buffer_move(lpn)
                            buf_read_hits += 1
                            sub_finish = zero_finish
                        else:
                            buf_read_misses += 1
                            k = lpn - base_start
                            if 0 <= k < base_count and lpn not in base_gone:
                                ppn = ((k % plane_count) * pages_per_plane
                                       + k // plane_count)
                            else:
                                ppn = mapping_get(lpn)
                            if ppn is None:
                                # Never-written page: zeroes from the
                                # controller.
                                sub_finish = zero_finish
                            else:
                                # Inlined FlashInterfaceLayer.read_page
                                # against the flat occupancy arrays: array
                                # sensing, then the (optionally split)
                                # channel DMA.
                                die = ppn // pages_per_die
                                busy = die_busy[die]
                                array_start = (firmware_done
                                               if firmware_done >= busy
                                               else busy)
                                array_finish = array_start + read_ns
                                die_busy[die] = array_finish
                                channel = ppn // pages_per_channel
                                if split:
                                    partner = channel + 1
                                    if partner == channel_count:
                                        partner = 0
                                    busy = chan_busy[channel]
                                    t_start = (array_finish
                                               if array_finish >= busy
                                               else busy)
                                    finish_a = t_start + t_half
                                    chan_busy[channel] = finish_a
                                    busy = chan_busy[partner]
                                    t_start = (array_finish
                                               if array_finish >= busy
                                               else busy)
                                    finish_b = t_start + t_rest
                                    chan_busy[partner] = finish_b
                                    sub_finish = (finish_a
                                                  if finish_a >= finish_b
                                                  else finish_b)
                                else:
                                    busy = chan_busy[channel]
                                    t_start = (array_finish
                                               if array_finish >= busy
                                               else busy)
                                    sub_finish = t_start + t_full
                                    chan_busy[channel] = sub_finish
                                page_reads_local += 1
                                # Inlined read-miss fill (the buffer's
                                # _insert of a known-absent clean page): an
                                # enabled buffer holds at least one page,
                                # so a full one always has an LRU victim.
                                # The victim is dropped without a program,
                                # dirty or not.
                                if buffer_enabled:
                                    if len(buffer_pages) >= buffer_capacity:
                                        if buffer_popitem(last=False)[1]:
                                            buf_dirty_evictions += 1
                                        else:
                                            buf_clean_evictions += 1
                                    buffer_pages[lpn] = False
                        if sub_finish > finish:
                            finish = sub_finish
                else:
                    # -- writes (single- or multi-page) -------------------
                    for lpn in lpns:
                        if not fua and buffer_enabled:
                            # Buffered write: hits mark dirty in place,
                            # misses insert (possibly evicting the LRU
                            # victim, which is programmed if dirty).
                            if lpn in buffer_pages:
                                buffer_move(lpn)
                                buffer_pages[lpn] = True
                                buf_write_hits += 1
                                evicted = None
                            else:
                                buf_write_misses += 1
                                evicted = buffer_insert(lpn, True)
                            sub_finish = firmware_done + hit_ns
                            if evicted is not None and evicted[1]:
                                program_lpn = evicted[0]
                            else:
                                program_lpn = None
                        else:
                            # FUA (or no buffer): data must reach the media.
                            sub_finish = firmware_done
                            program_lpn = lpn
                        if program_lpn is not None:
                            ppn, gc_result = ftl_write(program_lpn)
                            # Inlined FlashInterfaceLayer.write_page: the
                            # (optionally split) DMA in, then the program.
                            channel = ppn // pages_per_channel
                            if split:
                                partner = channel + 1
                                if partner == channel_count:
                                    partner = 0
                                busy = chan_busy[channel]
                                t_start = (sub_finish if sub_finish >= busy
                                           else busy)
                                finish_a = t_start + t_half
                                chan_busy[channel] = finish_a
                                busy = chan_busy[partner]
                                t_start = (sub_finish if sub_finish >= busy
                                           else busy)
                                finish_b = t_start + t_rest
                                chan_busy[partner] = finish_b
                                transfer_finish = (finish_a
                                                   if finish_a >= finish_b
                                                   else finish_b)
                            else:
                                busy = chan_busy[channel]
                                t_start = (sub_finish if sub_finish >= busy
                                           else busy)
                                transfer_finish = t_start + t_full
                                chan_busy[channel] = transfer_finish
                            die = ppn // pages_per_die
                            busy = die_busy[die]
                            array_start = (transfer_finish
                                           if transfer_finish >= busy
                                           else busy)
                            sub_finish = array_start + program_ns
                            die_busy[die] = sub_finish
                            page_programs_local += 1
                            if gc_result is not None:
                                # GC relocations charged serially after the
                                # triggering program (rare).
                                sub_finish = self._charge_gc(gc_result,
                                                             sub_finish)
                        if sub_finish > finish:
                            finish = sub_finish

                # -- completion ---------------------------------------
                heappush(outstanding, finish)
                served_local += 1
                if is_write:
                    bytes_written_local += size
                else:
                    bytes_read_local += size
                if starts is not None:
                    starts.append(start)
        finally:
            # Fold the lifted counters back, also when a step raised
            # (partial state then matches the scalar sequence up to the
            # failing request) or the walk was closed.
            self._walking = False
            fil.page_reads += page_reads_local
            fil.page_programs += page_programs_local
            buffer_stats.read_hits += buf_read_hits
            buffer_stats.read_misses += buf_read_misses
            buffer_stats.write_hits += buf_write_hits
            buffer_stats.write_misses += buf_write_misses
            buffer_stats.dirty_evictions += buf_dirty_evictions
            buffer_stats.clean_evictions += buf_clean_evictions
            self.requests_served += served_local
            self.bytes_read += bytes_read_local
            self.bytes_written += bytes_written_local

    # -- power failure -------------------------------------------------------------------

    def supercap_flush(self, at_ns: float) -> float:
        """Flush every dirty buffered page to flash (supercap-backed).

        Returns the time at which the flush completes.  Used by the HAMS
        persistency design, which adds super-capacitors to ULL-Flash so the
        volatile internal buffer survives power loss (Section IV-B).
        """
        self._check_idle("supercap_flush")
        finish = at_ns
        for lpn in self.buffer.flush_all():
            address, gc_result = self.ftl.write(lpn)
            access = self.fil.write_page(address, finish)
            finish = max(finish, access.finish_ns)
            finish = self._charge_gc(gc_result, finish)
        return finish

    # -- internals -------------------------------------------------------------------

    def _check_idle(self, operation: str) -> None:
        """Refuse *operation* while a walk holds the hoisted state."""
        if self._walking:
            raise RuntimeError(f"{operation} while a walk is open on this SSD")

    def _charge_gc(self, gc_result: GCResult, at_ns: float) -> float:
        """Charge garbage-collection relocations triggered by an allocation."""
        finish = at_ns
        for old, new in gc_result.page_moves:
            read_access = self.fil.read_page(old, finish)
            write_access = self.fil.write_page(new, read_access.finish_ns)
            finish = write_access.finish_ns
        return finish

    # -- reporting -------------------------------------------------------------------

    def statistics(self) -> Dict[str, float]:
        """Unified ``flash_*`` counter fold over every layer of the stack.

        One stable namespace replaces the historical ad-hoc per-layer
        dictionaries: request service counters, the DRAM buffer's
        hit/eviction counters, FTL mapping/GC counters and the FIL/channel
        traffic counters all appear under ``flash_`` keys.  Block erases
        are the FTL's (GC is the only eraser).  Channel traffic is derived
        from the FIL's page counters: every channel reservation is one
        page read or program, moving the whole page in one transfer or,
        with split channels, in two halves.
        """
        self._check_idle("statistics")
        buffer_stats = self.buffer.stats
        fil = self.fil
        page_ops = fil.page_reads + fil.page_programs
        summary: Dict[str, float] = {
            "flash_requests_served": float(self.requests_served),
            "flash_bytes_read": float(self.bytes_read),
            "flash_bytes_written": float(self.bytes_written),
            "flash_buffer_hit_rate": buffer_stats.hit_rate,
            "flash_buffer_read_hits": float(buffer_stats.read_hits),
            "flash_buffer_read_misses": float(buffer_stats.read_misses),
            "flash_buffer_write_hits": float(buffer_stats.write_hits),
            "flash_buffer_write_misses": float(buffer_stats.write_misses),
            "flash_buffer_dirty_evictions": float(
                buffer_stats.dirty_evictions),
            "flash_buffer_clean_evictions": float(
                buffer_stats.clean_evictions),
            "flash_page_reads": float(fil.page_reads),
            "flash_page_programs": float(fil.page_programs),
            "flash_block_erases": float(sum(self.ftl.erase_counts())),
            "flash_channel_bytes_moved": float(page_ops * self.page_size),
            "flash_channel_transfers": float(
                page_ops * (2 if fil.split_channels else 1)),
        }
        summary.update({f"flash_ftl_{key}": float(value)
                        for key, value in self.ftl.statistics().items()})
        return summary


def make_ssd(kind: str, capacity_bytes: Optional[int] = None) -> SSD:
    """Build one of the paper's three SSD presets.

    ``kind`` is one of ``"ull-flash"``, ``"nvme-ssd"`` or ``"sata-ssd"``.
    """
    builders = {
        "ull-flash": SSDConfig.ull_flash,
        "nvme-ssd": SSDConfig.nvme_ssd,
        "sata-ssd": SSDConfig.sata_ssd,
    }
    try:
        builder = builders[kind]
    except KeyError:
        raise ValueError(
            f"unknown SSD kind {kind!r}; expected one of {sorted(builders)}"
        ) from None
    config = builder(capacity_bytes) if capacity_bytes else builder()
    return SSD(config)
