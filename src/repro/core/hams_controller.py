"""The HAMS controller: top-level composition of the MoS datapath (Figure 8).

The controller fields every memory request coming from the MMU:

1. the address manager decomposes the MoS address and the tag-array probe
   costs one NVDIMM line access plus the comparator,
2. a hit is served directly from the NVDIMM at DRAM latency,
3. a miss secures the direct-mapped entry — evicting the dirty victim to
   ULL-Flash (from a clone of the page, to avoid eviction hazards) and
   filling the requested page from ULL-Flash — through the hardware NVMe
   engine, with no OS involvement, and
4. the stalled instruction is retried once the data sits in the NVDIMM.

The same class covers all four evaluated configurations:

========  ==============  =======================================
platform  integration      datapath to ULL-Flash
========  ==============  =======================================
hams-LP   loose, persist  PCIe/NVMe, FUA, one outstanding I/O
hams-LE   loose, extend   PCIe/NVMe, parallel queue + journal tags
hams-TP   tight, persist  DDR4 register interface, FUA
hams-TE   tight, extend   DDR4 register interface, parallel queue
========  ==============  =======================================
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..config import SystemConfig
from ..flash.ssd import SSD
from ..interconnect.ddr_bus import DDR4Bus
from ..interconnect.pcie import PCIeLink
from ..memory.nvdimm import NVDIMM
from ..nvme.controller import NVMeController
from ..nvme.queues import SubmissionQueue
from .address_manager import AddressManager
from .nvme_engine import HardwareNVMeEngine
from .persistency import PersistencyController, RecoveryReport
from .register_interface import RegisterInterface


@dataclass
class HAMSAccessResult:
    """Timing of one MMU request served by HAMS."""

    address: int
    is_write: bool
    hit: bool
    start_ns: float
    finish_ns: float
    nvdimm_ns: float = 0.0
    dma_ns: float = 0.0
    ssd_ns: float = 0.0
    wait_ns: float = 0.0
    evicted: bool = False

    @property
    def latency_ns(self) -> float:
        return self.finish_ns - self.start_ns


@dataclass
class _DelayTotals:
    """Accumulated memory-delay components (Figure 18 categories)."""

    nvdimm_ns: float = 0.0
    dma_ns: float = 0.0
    ssd_ns: float = 0.0
    wait_ns: float = 0.0

    @property
    def total_ns(self) -> float:
        return self.nvdimm_ns + self.dma_ns + self.ssd_ns + self.wait_ns


@dataclass
class HAMSBatchPlan:
    """Clock-free classification of one request batch (see :meth:`classify_batch`).

    ``hits`` marks the requests served straight from the NVDIMM cache,
    ``serve_ns`` / ``probe_ns`` are the pure timing ingredients of every
    request, and the three ``miss_*`` lists carry, one int per miss in
    batch order, what :meth:`HAMSController.replay_miss` takes: the MoS
    page, the offset in it and the dirty victim's MoS page (``-1`` when the
    miss evicts nothing).
    """

    hits: np.ndarray
    serve_ns: np.ndarray
    probe_ns: float
    miss_pages: List[int]
    miss_offsets: List[int]
    miss_victims: List[int]


class HAMSController:
    """Hardware-automated Memory-over-Storage controller in the MCH."""

    #: Size of the critical chunk fetched first on a miss.  The MMU request
    #: only stalls until this chunk lands in the NVDIMM; the remainder of the
    #: MoS page streams in afterwards ("critical-chunk-first", matching the
    #: flash page size the ULL-Flash serves natively).
    CRITICAL_CHUNK_BYTES = 4096

    def __init__(self, config: SystemConfig,
                 ssd: Optional[SSD] = None) -> None:
        self.config = config
        self.hams_config = config.hams
        self.mos_page_bytes = config.hams.mos_page_bytes

        ssd_config = config.ssd
        if self.hams_config.is_tight:
            # The aggressive integration removes the SSD-internal DRAM buffer;
            # the NVDIMM is the only buffer on the path (Section IV-C).
            ssd_config = replace(ssd_config, dram_buffer_enabled=False)
        self.ssd = ssd if ssd is not None else SSD(ssd_config)

        self.nvdimm = NVDIMM(config.nvdimm)
        self.ddr_bus = DDR4Bus(config.nvdimm.ddr)
        if self.hams_config.is_tight:
            self.register_interface: Optional[RegisterInterface] = (
                RegisterInterface(self.ddr_bus))
            self.link = self.register_interface
            self.pcie: Optional[PCIeLink] = None
        else:
            self.register_interface = None
            self.pcie = PCIeLink(config.pcie)
            self.link = self.pcie

        self.address_manager = AddressManager(config.hams, config.nvdimm,
                                              self.ssd.capacity_bytes)
        self.tag_array = self.address_manager.tag_array
        # The SQ in the pinned region (no CQ is modelled).  The engine
        # drains it within each issue, so only the power-failure recovery
        # ever finds entries.
        self.sq = SubmissionQueue(depth=1024)
        self.nvme_controller = NVMeController(self.ssd, self.link, config.nvme)
        self.engine = HardwareNVMeEngine(self.nvme_controller, config.hams,
                                         register_interface=self.register_interface)
        self.persistency = PersistencyController(self.nvdimm, self.ssd,
                                                 self.nvme_controller,
                                                 self.sq)

        self.delays = _DelayTotals()
        self.accesses = 0
        self.evictions = 0
        self.fills = 0
        # Per tag-array index, the time until which the entry's background
        # remainder fill and eviction (extend mode) block its reuse; a miss
        # arriving earlier stalls until then (see replay_miss).
        self._background_evictions: Dict[int, float] = {}
        self.hazard_stalls = 0
        # Traffic moved by background fills/evictions in extend mode,
        # modelled analytically (see _background_stream).
        self.background_flash_reads = 0
        self.background_flash_programs = 0
        self.background_link_bytes = 0

        # Per-controller constants of the miss recurrence.
        nvdimm = self.nvdimm
        page_bytes = self.mos_page_bytes
        self._persist = self.hams_config.is_persist
        self._line_size = config.nvdimm.ddr.line_size
        self._probe_ns = (nvdimm.line_access_ns()
                          + self.hams_config.tag_check_ns)
        self._chunk_bytes = min(self.CRITICAL_CHUNK_BYTES, page_bytes)
        self._chunk_sectors = self._chunk_bytes // 512
        self._remainder_bytes = page_bytes - self._chunk_bytes
        self._clone_ns = 2 * nvdimm.page_access_ns(page_bytes)
        self._landing_ns = nvdimm.page_access_ns(self._chunk_bytes)
        self._remainder_pages, self._remainder_ns = self._background_stream(
            self._remainder_bytes, is_write=False)
        self._eviction_pages, self._eviction_ns = self._background_stream(
            page_bytes, is_write=True)

    # -- capacity -------------------------------------------------------------------

    @property
    def mos_capacity_bytes(self) -> int:
        """The flat byte-addressable space HAMS exposes to the MMU."""
        return self.address_manager.mos_capacity_bytes

    # -- the MMU-facing entry point -----------------------------------------------------

    def access(self, address: int, size_bytes: int, is_write: bool,
               at_ns: float) -> HAMSAccessResult:
        """Serve one memory request from the MMU (the scalar reference).

        The request is classified on its own — validation, tag probe,
        lookup — and its NVDIMM traffic is charged in scalar call order.  A
        hit is served straight from the cache entry; a miss installs its tag
        and then runs :meth:`replay_miss` on a batch-of-one
        :meth:`~repro.flash.ssd.SSD.walk`, the clocked miss sequence the
        batched path replays after :meth:`classify_batch`.  Requests must
        arrive in non-decreasing time order (the platform's trace loop
        guarantees this).
        """
        self.address_manager.validate(address, size_bytes)
        self.accesses += 1
        decomposed = self.address_manager.decompose(address)
        nvdimm = self.nvdimm
        tag_array = self.tag_array

        # 1. Tag probe: one NVDIMM line access plus the comparator.
        probe_ns = self._probe_ns
        nvdimm.access(self._line_size, is_write=False)
        lookup = tag_array.lookup(decomposed.mos_page)
        serve_ns = self._nvdimm_serve_ns(size_bytes)

        if lookup.hit:
            # 2. Serve the data from the NVDIMM cache entry.
            nvdimm.access(size_bytes, is_write=is_write)
            if is_write:
                tag_array.mark_dirty(decomposed.mos_page)
            result = HAMSAccessResult(address=address, is_write=is_write,
                                      hit=True, start_ns=at_ns,
                                      finish_ns=(at_ns + probe_ns) + serve_ns,
                                      nvdimm_ns=probe_ns + serve_ns)
        else:
            # 3. A miss: the victim clone (read + write), the critical-chunk
            #    landing and the serve, then the install.  Installing before
            #    the clocked replay is exact: the replay never reads the
            #    entry, only the ints taken from the lookup before it.
            page_bytes = self.mos_page_bytes
            victim_page = -1
            if lookup.needs_eviction:
                victim_page = tag_array.page_from(lookup.index,
                                                  lookup.victim_tag)
                nvdimm.access(page_bytes, is_write=False)
                nvdimm.access(page_bytes, is_write=True)
            nvdimm.access(page_bytes, is_write=True)
            nvdimm.access(size_bytes, is_write=is_write)
            tag_array.install(decomposed.mos_page, dirty=is_write)
            with self.ssd.walk() as step:
                finish, nvdimm_ns, dma_ns, ssd_ns, wait_ns = self.replay_miss(
                    decomposed.mos_page, decomposed.offset, victim_page,
                    serve_ns, at_ns, step)
            result = HAMSAccessResult(
                address=address, is_write=is_write, hit=False, start_ns=at_ns,
                finish_ns=finish, nvdimm_ns=nvdimm_ns, dma_ns=dma_ns,
                ssd_ns=ssd_ns, wait_ns=wait_ns, evicted=lookup.needs_eviction)

        self.delays.nvdimm_ns += result.nvdimm_ns
        self.delays.dma_ns += result.dma_ns
        self.delays.ssd_ns += result.ssd_ns
        self.delays.wait_ns += result.wait_ns
        return result

    # -- batched classification (the clock-free half of the datapath) --------------------

    def classify_batch(self, addresses: np.ndarray, sizes: np.ndarray,
                       writes: np.ndarray) -> HAMSBatchPlan:
        """Classify one non-empty request batch, clock-free.

        The tag array, the dirty bits and the direct-mapped installs do not
        depend on the clock, so :meth:`MoSTagArray.classify
        <repro.core.tag_array.MoSTagArray.classify>` resolves every hit,
        victim and final entry state of the batch in one index-sorted pass
        (misses install their page before their clocked replay, as
        :meth:`access` does).

        The batch's NVDIMM traffic — probe, victim clone read and write,
        critical-chunk landing, serve — is laid out in exact scalar call
        order from ``cumsum`` offsets and charged through one
        :meth:`~repro.memory.nvdimm.NVDIMM.access_batch`, so the DRAM
        counters (and the bit-exact ``busy_ns`` accumulation) match the
        scalar replay.  Everything clock-dependent — engine waits, NVMe
        issue, background-eviction stalls — stays out of the plan and runs
        later through :meth:`replay_miss`.
        """
        count = len(addresses)
        self.accesses += count
        tag_array = self.tag_array
        page_bytes = self.mos_page_bytes

        mos_pages = addresses // page_bytes
        hits, victim_tags, victim_dirty = tag_array.classify(mos_pages, writes)
        rows = np.flatnonzero(~hits)
        miss_pages = mos_pages[rows]
        victims = np.where(victim_dirty,
                           tag_array.page_from(tag_array.index_of(miss_pages),
                                               victim_tags), -1)
        serve_ns = np.empty(count, dtype=np.float64)
        for size in np.unique(sizes).tolist():
            serve_ns[sizes == size] = self._nvdimm_serve_ns(size)

        # -- the NVDIMM schedule, in exact scalar order -----------------------
        # Per request: probe, [clone read, clone write], landing, serve.
        calls = np.full(count, 2, dtype=np.int64)
        calls[rows] += 1 + 2 * victim_dirty
        ends = np.cumsum(calls)
        starts = ends - calls
        sched_sizes = np.full(int(ends[-1]), page_bytes, dtype=np.int64)
        sched_writes = np.ones(int(ends[-1]), dtype=bool)
        sched_sizes[starts] = self._line_size
        sched_writes[starts] = False
        sched_writes[starts[rows[victim_dirty]] + 1] = False
        sched_sizes[ends - 1] = sizes
        sched_writes[ends - 1] = writes
        self.nvdimm.access_batch(sched_sizes, sched_writes)
        return HAMSBatchPlan(
            hits=hits, serve_ns=serve_ns, probe_ns=self._probe_ns,
            miss_pages=miss_pages.tolist(),
            miss_offsets=(addresses[rows] % page_bytes).tolist(),
            miss_victims=victims.tolist())

    def replay_miss(self, mos_page: int, offset: int, victim_page: int,
                    serve_ns: float, at_ns: float, step
                    ) -> Tuple[float, float, float, float, float]:
        """Clocked replay of one classified miss: one recurrence over floats.

        The miss is plain ints: the MoS page and the byte *offset* in it of
        the request, and the MoS page of the dirty victim it evicts
        (*victim_page*, ``-1`` when it evicts nothing).  Runs the
        clock-dependent miss sequence — probe time, background-eviction
        stall, engine wait, victim clone, NVMe issue, landing and the
        *serve_ns* of the request — and returns ``(finish_ns,
        nvdimm_ns, dma_ns, ssd_ns, wait_ns)``.  Every NVMe command the miss
        issues goes through *step*, the step of an open
        :meth:`~repro.flash.ssd.SSD.walk` on :attr:`ssd`: the batched path
        opens one walk per service chunk, :meth:`access` a batch-of-one walk
        per miss.  The NVDIMM counters and the tag install are the caller's
        (:meth:`classify_batch`, or :meth:`access`), and so is accumulating
        the returned delay components.

        In extend mode only the *critical chunk* (the 4 KB covering the
        requested address) sits on the access's critical path; the rest of
        the MoS page and the eviction of the dirty victim drain through the
        NVMe queue in the background, which is where extend mode's advantage
        over persist mode comes from (Figure 18).  Persist mode serialises
        everything: the FUA eviction, the critical chunk and the remainder.

        Because the NVDIMM is both the MoS cache and the buffer NVMe
        commands transfer from, a miss faces two hazards (Section V-B,
        Figures 13-14): the *eviction hazard*, where the DMA of an eviction
        reads a cache frame the fill is already overwriting, and the
        *redundant eviction*, where a second miss on an entry whose
        eviction is still in flight issues it again.  The hardware clones
        the victim page into a PRP-pool buffer in pinned memory and points
        the eviction at the clone, sets a busy bit on the tag-array entry
        while its commands are in flight, and parks colliding requests in a
        wait queue until the bit clears.  Here the clone is the
        ``_clone_ns`` NVDIMM copy on the miss path (counted by
        ``hazards.evictions_cloned``, which equals :attr:`evictions`).  The
        busy bit and the wait queue are :attr:`_background_evictions`, the
        time until which the entry's background traffic blocks its reuse: a
        miss arriving earlier stalls until then, counted by
        :attr:`hazard_stalls`.  Every other command of a miss completes
        within this call, so no entry is busy between calls and the wait
        queue never holds more than the one stalled request.
        """
        probe_ns = self._probe_ns
        now = at_ns + probe_ns
        wait_ns = 0.0
        index = self.tag_array.index_of(mos_page)
        pending = self._background_evictions.get(index, 0.0)
        if pending > now:
            self.hazard_stalls += 1
            wait_ns = pending - now
            now = pending
            del self._background_evictions[index]

        engine = self.engine
        if self._persist:
            # One outstanding I/O: wait for the engine (extend mode issues
            # at once, a wait of exactly 0.0).
            engine_start = engine.next_available(now)
            wait_ns += engine_start - now
            now = engine_start

        page_lba = self.address_manager.lba_of(mos_page)
        chunk = self._chunk_bytes
        chunk_lba = page_lba + (offset // chunk) * self._chunk_sectors
        nvdimm_ns = probe_ns
        clone_ns = 0.0
        if victim_page >= 0:
            # Clone the victim into the PRP pool: an NVDIMM-internal copy of
            # one MoS page (read + write) that protects against the eviction
            # hazard while the DMA is in flight — the eviction's PRP points
            # at the clone, not at the live cache entry.  The copy runs at
            # DRAM bandwidth and overlaps with the critical fill from flash.
            clone_ns = self._clone_ns
            nvdimm_ns += clone_ns
            self.evictions += 1
        self.fills += 1

        issue = engine.issue
        remainder = self._remainder_bytes
        if self._persist:
            # Persist mode: one outstanding I/O at a time, eviction first
            # (FUA), then the whole page fill — everything stalls the MMU.
            cursor = now + clone_ns
            dma_ns = ssd_ns = 0.0
            if victim_page >= 0:
                cursor, protocol, transfer, device = issue(
                    step, True, self.address_manager.lba_of(victim_page),
                    self.mos_page_bytes, cursor)
                dma_ns += protocol + transfer
                ssd_ns += device
            cursor, protocol, transfer, device = issue(
                step, False, chunk_lba, chunk, cursor)
            dma_ns += protocol + transfer
            ssd_ns += device
            if remainder > 0:
                cursor, protocol, transfer, device = issue(
                    step, False, page_lba, remainder, cursor)
                dma_ns += protocol + transfer
                ssd_ns += device
            critical_finish = cursor
        else:
            # Extend mode: the critical chunk stalls the MMU; the remainder
            # and the eviction ride the NVMe queue in the background.  The
            # NVMe queue arbitration gives incoming (critical) reads priority
            # over the streaming background traffic, so the background work
            # is modelled analytically (the constants hoisted at
            # construction): it consumes flash and link bandwidth (visible
            # in the energy accounting and in the per-entry reuse blocking
            # below) but does not head-of-line-block later critical fills
            # the way a single serialised command stream would.
            fill_finish, protocol, transfer, device = issue(
                step, False, chunk_lba, chunk, now)
            dma_ns = protocol + transfer
            ssd_ns = device
            # The victim clone overlaps with the flash access; only the part
            # that outlasts the critical fill shows on the critical path.
            critical_finish = max(fill_finish, now + clone_ns)
            # The remainder streams in after the critical fill, the
            # eviction after the remainder.
            background_finish = fill_finish
            if remainder > 0:
                self.background_flash_reads += self._remainder_pages
                self.background_link_bytes += remainder
                background_finish += self._remainder_ns
            if victim_page >= 0:
                self.background_flash_programs += self._eviction_pages
                self.background_link_bytes += self.mos_page_bytes
                background_finish += self._eviction_ns
            if background_finish > critical_finish:
                # Block reuse of the entry until the background work drains.
                self._background_evictions[index] = background_finish

        if critical_finish > now:
            now = critical_finish
        # The critical chunk lands in the NVDIMM cache entry; the remainder
        # streams in behind it off the critical path.
        landing_ns = self._landing_ns
        return ((now + landing_ns) + serve_ns,
                (nvdimm_ns + landing_ns) + serve_ns, dma_ns, ssd_ns, wait_ns)

    def _background_stream(self, size_bytes: int,
                           is_write: bool) -> Tuple[int, float]:
        """Flash pages and duration of one extend-mode background transfer.

        Extend mode streams the non-critical part of a fill and the eviction
        of the dirty victim through the NVMe queue while the MMU already
        continues; the traffic still costs flash operations, link bytes and
        time (the duration blocks premature reuse of the cache entry), but
        it is not serialised in front of later critical fills — the
        hardware queue arbitration prioritises those.  The estimate is
        closed-form in the transfer size, so :meth:`replay_miss` adds the
        two durations computed here at construction.
        """
        if size_bytes <= 0:
            return 0, 0.0
        flash_page = self.ssd.page_size
        pages = max(1, size_bytes // flash_page)
        timing = self.ssd.config.timing
        array_ns = timing.program_ns if is_write else timing.read_ns
        channel_count = max(1, self.ssd.channels.geometry.channels)
        flash_stream_ns = (pages * self.ssd.channels.transfer_time(flash_page)
                           / channel_count) + array_ns
        link_ns = (self.link.raw_transfer_time(size_bytes)
                   + self.link.per_transfer_overhead(size_bytes))
        return pages, max(flash_stream_ns, link_ns)

    def _nvdimm_serve_ns(self, size_bytes: int) -> float:
        if size_bytes <= self._line_size:
            return self.nvdimm.line_access_ns()
        return self.nvdimm.page_access_ns(size_bytes)

    # -- persistency ----------------------------------------------------------------------

    def power_failure(self, at_ns: float) -> float:
        """Propagate a power failure through NVDIMM and ULL-Flash."""
        return self.persistency.power_failure(at_ns)

    def recover(self, at_ns: float) -> RecoveryReport:
        """Run the Figure 15 recovery procedure after a power failure."""
        return self.persistency.recover(at_ns)

    # -- reporting -------------------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        return self.tag_array.hit_rate

    def memory_delay_breakdown(self) -> Dict[str, float]:
        """Absolute memory-delay components (Figure 18 categories)."""
        return {
            "nvdimm_ns": self.delays.nvdimm_ns,
            "dma_ns": self.delays.dma_ns,
            "ssd_ns": self.delays.ssd_ns,
            "wait_ns": self.delays.wait_ns,
            "total_ns": self.delays.total_ns,
        }

    def dma_overhead_fraction(self) -> float:
        """Share of the average memory access time spent on the interface (Figure 10a)."""
        total = self.delays.total_ns
        if total <= 0:
            return 0.0
        return self.delays.dma_ns / total

    def statistics(self) -> Dict[str, float]:
        stats: Dict[str, float] = {
            "accesses": float(self.accesses),
            "hit_rate": self.hit_rate,
            "fills": float(self.fills),
            "evictions": float(self.evictions),
            "background_flash_reads": float(self.background_flash_reads),
            "background_flash_programs": float(self.background_flash_programs),
            "background_link_bytes": float(self.background_link_bytes),
        }
        stats.update({f"engine.{k}": v for k, v in self.engine.statistics().items()})
        # The Figure 13-14 hazard counters, kept under their hardware names
        # (see replay_miss): one clone per eviction, one parked request per
        # stall, and at most one clone and one parked request at a time.
        stats.update({
            "hazards.evictions_cloned": float(self.evictions),
            "hazards.redundant_evictions_avoided": float(self.hazard_stalls),
            "hazards.hazard_stalls": float(self.hazard_stalls),
            "hazards.wait_queue_max_occupancy": float(self.hazard_stalls > 0),
            "hazards.prp_peak_in_use": float(self.evictions > 0),
        })
        stats.update({f"link.{k}": v for k, v in self.link.statistics().items()})
        return stats
