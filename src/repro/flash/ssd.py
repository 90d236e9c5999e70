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
layers' flat arrays.  :meth:`SSD.submit_batch` drives one walk per batch,
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
from typing import Callable, Dict, Iterator, List, Optional

from ..config import SSDConfig
from ..sim.stats import StatRegistry
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

    @property
    def device_time_ns(self) -> float:
        return self.finish_ns - self.start_ns


def _column(values, count: Optional[int] = None) -> list:
    """Normalise a per-request column to a plain Python list.

    Accepts numpy arrays (converted once via ``tolist``), sequences, or a
    scalar to broadcast over *count* requests.
    """
    tolist = getattr(values, "tolist", None)
    if tolist is not None:
        values = tolist()
    if isinstance(values, (bool, int, float)):
        if count is None:
            raise ValueError("cannot broadcast a scalar column without a "
                             "request count")
        return [values] * count
    return list(values)


class IORequestBatch:
    """A columnar vector of I/O requests serviced in one submission call.

    Columns (``is_write`` / ``byte_offset`` / ``size_bytes`` / ``fua``)
    accept numpy arrays, sequences, or scalars to broadcast.  Two submission
    modes exist:

    * **Open-loop** (default): ``submit_ns`` gives every request's
      submission clock up front (must be non-decreasing, as for scalar
      :meth:`SSD.submit`).  This is the migration-writeback shape: the
      caller knows each request's issue time before any of them completes.
    * **Chained** (``chained=True``): the submitter is a synchronous agent
      (a load/store miss path) whose next submission clock depends on the
      previous completion.  The clock starts at ``start_ns``; before
      request *j* it advances by ``pre_gap_ns[j]`` (e.g. a compute phase),
      the request submits, and afterwards the clock advances by
      ``post_gap_ns[j] + service_latency_ns[j]`` — where the service
      latency is ``(finish - submit)`` plus, when ``link`` is given, one
      ``link_bytes`` transfer over the link issued at the finish time
      (the exact :meth:`repro.interconnect.link.Link.transfer` recurrence,
      inlined).  This runs the whole closed-loop recurrence inside one
      batch call while remaining bit-identical to the scalar loop.
    """

    __slots__ = ("is_write", "byte_offset", "size_bytes", "submit_ns", "fua",
                 "chained", "start_ns", "pre_gap_ns", "post_gap_ns", "link",
                 "link_bytes")

    def __init__(self, is_write, byte_offset, size_bytes,
                 submit_ns=None, fua=None, *, chained: bool = False,
                 start_ns: float = 0.0, pre_gap_ns=None, post_gap_ns=None,
                 link=None, link_bytes: int = 0) -> None:
        self.byte_offset = _column(byte_offset)
        count = len(self.byte_offset)
        self.size_bytes = _column(size_bytes, count)
        self.is_write = _column(is_write, count)
        self.fua = _column(False if fua is None else fua, count)
        self.chained = bool(chained)
        if not (len(self.size_bytes) == len(self.is_write)
                == len(self.fua) == count):
            raise ValueError("batch columns must be equal-length")
        if count and min(self.byte_offset) < 0:
            raise ValueError("byte_offset must be non-negative")
        if count and min(self.size_bytes) <= 0:
            raise ValueError("size_bytes must be positive")
        if self.chained:
            self.submit_ns = None
            self.start_ns = float(start_ns)
            if self.start_ns < 0:
                raise ValueError("start_ns must be non-negative")
            self.pre_gap_ns = (None if pre_gap_ns is None
                               else _column(pre_gap_ns, count))
            self.post_gap_ns = (None if post_gap_ns is None
                                else _column(post_gap_ns, count))
            for gaps in (self.pre_gap_ns, self.post_gap_ns):
                if gaps is not None:
                    if len(gaps) != count:
                        raise ValueError("gap columns must be equal-length")
                    if count and min(gaps) < 0:
                        raise ValueError("gaps must be non-negative")
            self.link = link
            self.link_bytes = int(link_bytes)
            if self.link is not None and self.link_bytes <= 0:
                raise ValueError("link transfers need a positive link_bytes")
        else:
            if submit_ns is None:
                raise ValueError("open-loop batches need a submit_ns column")
            self.submit_ns = _column(submit_ns, count)
            if len(self.submit_ns) != count:
                raise ValueError("batch columns must be equal-length")
            if count and min(self.submit_ns) < 0:
                raise ValueError("submit_ns must be non-negative")
            self.start_ns = 0.0
            self.pre_gap_ns = None
            self.post_gap_ns = None
            self.link = None
            self.link_bytes = 0

    @classmethod
    def of_request(cls, request: IORequest) -> "IORequestBatch":
        """Batch-of-one view of an already-validated :class:`IORequest`."""
        batch = cls.__new__(cls)
        batch.is_write = [request.is_write]
        batch.byte_offset = [request.byte_offset]
        batch.size_bytes = [request.size_bytes]
        batch.submit_ns = [request.submit_ns]
        batch.fua = [request.fua]
        batch.chained = False
        batch.start_ns = 0.0
        batch.pre_gap_ns = None
        batch.post_gap_ns = None
        batch.link = None
        batch.link_bytes = 0
        return batch

    def __len__(self) -> int:
        return len(self.byte_offset)

    def request(self, index: int) -> IORequest:
        """Scalar view of one batch row (open-loop batches only)."""
        if self.submit_ns is None:
            raise ValueError("chained batches have no per-request submit_ns")
        return IORequest(is_write=bool(self.is_write[index]),
                         byte_offset=int(self.byte_offset[index]),
                         size_bytes=int(self.size_bytes[index]),
                         submit_ns=float(self.submit_ns[index]),
                         fua=bool(self.fua[index]))


@dataclass
class IOBatchResult:
    """Columnar completion record of one :class:`IORequestBatch`.

    ``start_ns`` / ``finish_ns`` / ``latency_ns`` hold one entry per
    request; device-wide counters live in :meth:`SSD.statistics`.  For
    chained batches, ``service_latency_ns`` holds the closed-loop service
    latency (device + link) per request and ``end_ns`` the clock after the
    last post-gap.
    """

    start_ns: List[float]
    finish_ns: List[float]
    latency_ns: List[float]
    service_latency_ns: Optional[List[float]] = None
    end_ns: float = 0.0

    def __len__(self) -> int:
        return len(self.finish_ns)


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
        if config.firmware_latency_ns < 0:
            raise ValueError("firmware latency cannot be negative")
        self.buffer = InternalDRAMBuffer(
            config.dram_buffer_bytes, self.page_size,
            enabled=config.dram_buffer_enabled,
            mapping_table_fraction=config.mapping_table_fraction)
        self.stats = StatRegistry(prefix=config.name)
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
        mapped keep their pages; the rest are written in LPN order by one
        :meth:`~repro.flash.ftl.FlashTranslationLayer.fill`.  On a fresh
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
            is_mapped = ftl.is_mapped
            lpns = [lpn for lpn in lpns if not is_mapped(lpn)]
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
        batch_result = self.submit_batch(IORequestBatch.of_request(request))
        return IOResult(request=request, start_ns=batch_result.start_ns[0],
                        finish_ns=batch_result.finish_ns[0])

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

    def submit_batch(self, batch: IORequestBatch) -> IOBatchResult:
        """Service a whole request vector through one :meth:`walk`.

        Bit-identical to submitting each request through :meth:`submit` in
        order: per-resource state (buffer LRU order, FTL mapping, die and
        channel occupancy) only ever advances in request order, and garbage
        collection triggers at the same points.  Requests must be ordered
        by non-decreasing submission clock, like :meth:`submit` callers.
        Chained batches run the closed-loop clock (and the optional inlined
        :meth:`~repro.interconnect.link.Link.transfer` recurrence) around
        the walk's steps.
        """
        chained = batch.chained
        now = batch.start_ns
        submits = batch.submit_ns
        pre_gaps = batch.pre_gap_ns
        post_gaps = batch.post_gap_ns
        link = batch.link
        link_count = 0
        if link is not None:
            link_bytes = batch.link_bytes
            link_busy = link.busy_until_ns
            link_overhead = link.per_transfer_overhead(link_bytes)
            link_raw = link.raw_transfer_time(link_bytes)
        starts: List[float] = []
        finishes: List[float] = []
        latencies: List[float] = []
        service_latencies: List[float] = []
        try:
            with self.walk(starts) as step:
                for j, (is_write, offset, size, fua) in enumerate(zip(
                        batch.is_write, batch.byte_offset, batch.size_bytes,
                        batch.fua)):
                    if not chained:
                        submit = submits[j]
                    elif pre_gaps is not None:
                        submit = now = now + pre_gaps[j]
                    else:
                        submit = now
                    finish = step((is_write, offset, size, submit, fua))
                    latency = finish - submit
                    finishes.append(finish)
                    latencies.append(latency)
                    if not chained:
                        continue
                    if link is not None:
                        # Inlined Link.transfer recurrence at finish time.
                        t_start = finish if finish >= link_busy else link_busy
                        link_busy = (t_start + link_overhead) + link_raw
                        link_count += 1
                        latency += link_busy - t_start
                    service_latencies.append(latency)
                    if post_gaps is not None:
                        now += post_gaps[j] + latency
                    else:
                        now += latency
        finally:
            if link_count:
                link.commit_transfers(link_count, link_count * link_bytes,
                                      link_busy)
        return IOBatchResult(
            start_ns=starts, finish_ns=finishes, latency_ns=latencies,
            service_latency_ns=service_latencies if chained else None,
            end_ns=now if chained else 0.0)

    @contextlib.contextmanager
    def walk(self, starts: Optional[List[float]] = None
             ) -> Iterator[Callable[[tuple], float]]:
        """Open one resumable walk over the flash stack and yield its step.

        Opening hoists the layer state once; ``step((is_write,
        byte_offset, size_bytes, submit_ns, fua))`` services one request
        and returns its finish (appending its admission time to *starts*
        when given); closing writes the lifted statistics back — also when
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
        die_states = array._states
        pages_per_die = ftl._pages_per_die
        pages_per_channel = ftl._pages_per_channel
        read_ns = array.timing.read_ns
        program_ns = array.timing.program_ns
        channels = self.channels
        chan_busy = channels.busy_until_ns
        chan_bytes = channels.bytes_moved
        chan_transfers = channels.transfers
        channel_count = channels.channel_count
        split = fil.split_channels
        if split:
            half = page_size // 2
            rest = page_size - half
            t_half = channels.transfer_time(half)
            t_rest = channels.transfer_time(rest)
        else:
            t_full = channels.transfer_time(page_size)
        # -- lifted per-request statistics (written back in ``finally``) --
        stat = self.stats.latency("request_latency")
        s_count = stat.count
        s_total = stat.total
        s_min = stat.min
        s_max = stat.max
        s_mean = stat._mean
        s_m2 = stat._m2
        page_reads_local = 0
        page_programs_local = 0
        buffer_stats = buffer.stats
        buf_read_hits = 0
        buf_read_misses = 0
        buf_write_hits = 0
        buf_write_misses = 0
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
                # Host-interface parse/split into page-sized sub-requests.
                # The single-whole-page fast path covers every hot caller.
                in_page = offset % page_size
                if size <= page_size - in_page:
                    n_sub = 1
                    lpns = (offset // page_size,)
                else:
                    lpns = []
                    cursor = offset
                    remaining = size
                    while remaining > 0:
                        lpns.append(cursor // page_size)
                        chunk = page_size - cursor % page_size
                        if chunk > remaining:
                            chunk = remaining
                        cursor += chunk
                        remaining -= chunk
                    n_sub = len(lpns)
                # Parse cost: a fixed command decode plus 5% per extra
                # sub-request.
                if n_sub == 1:
                    # firmware_ns * (1.0 + 0.05 * 0) == firmware_ns exactly.
                    firmware_done = start + firmware_ns
                else:
                    firmware_done = start + firmware_ns * (1.0
                                                          + 0.05 * (n_sub - 1))
                finish = firmware_done

                if not is_write:
                    # -- reads: one fused pass in piece order -------------
                    # Buffer classification, translation and the die and
                    # channel reservations per page, so a 16-page chunk
                    # read is one tight loop instead of 16 scalar walks.
                    zero_finish = firmware_done + hit_ns
                    for raw_lpn in lpns:
                        lpn = raw_lpn % logical_pages
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
                                state = die_states[ppn // pages_per_die]
                                busy = state.busy_until_ns
                                array_start = (firmware_done
                                               if firmware_done >= busy
                                               else busy)
                                array_finish = array_start + read_ns
                                state.busy_until_ns = array_finish
                                state.reads += 1
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
                                    chan_bytes[channel] += half
                                    chan_transfers[channel] += 1
                                    busy = chan_busy[partner]
                                    t_start = (array_finish
                                               if array_finish >= busy
                                               else busy)
                                    finish_b = t_start + t_rest
                                    chan_busy[partner] = finish_b
                                    chan_bytes[partner] += rest
                                    chan_transfers[partner] += 1
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
                                    chan_bytes[channel] += page_size
                                    chan_transfers[channel] += 1
                                page_reads_local += 1
                                # Read-miss fill: the page is known absent,
                                # so a clean insert (its eviction programs
                                # nothing).
                                if buffer_enabled:
                                    buffer_insert(lpn, False)
                        if sub_finish > finish:
                            finish = sub_finish
                else:
                    # -- writes (single- or multi-page) -------------------
                    for raw_lpn in lpns:
                        lpn = raw_lpn % logical_pages
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
                                chan_bytes[channel] += half
                                chan_transfers[channel] += 1
                                busy = chan_busy[partner]
                                t_start = (sub_finish if sub_finish >= busy
                                           else busy)
                                finish_b = t_start + t_rest
                                chan_busy[partner] = finish_b
                                chan_bytes[partner] += rest
                                chan_transfers[partner] += 1
                                transfer_finish = (finish_a
                                                   if finish_a >= finish_b
                                                   else finish_b)
                            else:
                                busy = chan_busy[channel]
                                t_start = (sub_finish if sub_finish >= busy
                                           else busy)
                                transfer_finish = t_start + t_full
                                chan_busy[channel] = transfer_finish
                                chan_bytes[channel] += page_size
                                chan_transfers[channel] += 1
                            state = die_states[ppn // pages_per_die]
                            busy = state.busy_until_ns
                            array_start = (transfer_finish
                                           if transfer_finish >= busy
                                           else busy)
                            sub_finish = array_start + program_ns
                            state.busy_until_ns = sub_finish
                            state.programs += 1
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
                latency = finish - submit
                # Inlined LatencyStat.record (Welford, exact update order).
                s_count += 1
                s_total += latency
                if latency < s_min:
                    s_min = latency
                if latency > s_max:
                    s_max = latency
                delta = latency - s_mean
                s_mean += delta / s_count
                s_m2 += delta * (latency - s_mean)
                if starts is not None:
                    starts.append(start)
        finally:
            # Fold the lifted statistics back, also when a step raised
            # (partial state then matches the scalar sequence up to the
            # failing request) or the walk was closed.
            self._walking = False
            stat.count = s_count
            stat.total = s_total
            stat.min = s_min
            stat.max = s_max
            stat._mean = s_mean
            stat._m2 = s_m2
            if served_local:
                self.stats.counter("requests").value += float(served_local)
            fil.page_reads += page_reads_local
            fil.page_programs += page_programs_local
            buffer_stats.read_hits += buf_read_hits
            buffer_stats.read_misses += buf_read_misses
            buffer_stats.write_hits += buf_write_hits
            buffer_stats.write_misses += buf_write_misses
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
        are the FTL's (GC is the only eraser).
        """
        self._check_idle("statistics")
        buffer_stats = self.buffer.stats
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
            "flash_page_reads": float(self.fil.page_reads),
            "flash_page_programs": float(self.fil.page_programs),
            "flash_block_erases": float(sum(self.ftl.erase_counts())),
        }
        summary.update({f"flash_{key}": value
                        for key, value in self.channels.statistics().items()})
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
