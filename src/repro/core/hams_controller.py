"""The HAMS controller: top-level composition of the MoS datapath (Figure 8).

The controller fields every memory request coming from the MMU:

1. the address manager decomposes the MoS address and the tag-array probe
   costs one NVDIMM line access plus the comparator,
2. a hit is served directly from the NVDIMM at DRAM latency,
3. a miss secures the direct-mapped entry — evicting the dirty victim to
   ULL-Flash (after cloning it into the PRP pool to avoid eviction hazards)
   and filling the requested page from ULL-Flash — through the hardware
   NVMe engine, with no OS involvement, and
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

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..config import SystemConfig
from ..flash.ssd import SSD
from ..interconnect.ddr_bus import DDR4Bus
from ..interconnect.pcie import PCIeLink
from ..memory.nvdimm import NVDIMM
from ..nvme.commands import next_command_id
from ..nvme.controller import NVMeController
from ..nvme.prp import PRPPool, PRPPoolExhausted
from ..nvme.queues import QueuePair
from .address_manager import AddressManager, DecomposedAddress
from .hazard import HazardManager
from .tag_array import TagLookup
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
    ``serve_ns`` / ``probe_ns`` are their pure timing ingredients, and
    ``misses`` carries everything the clocked replay of each miss needs:
    ``(position, address, decomposed, lookup)`` in batch order.
    """

    hits: np.ndarray
    serve_ns: np.ndarray
    probe_ns: float
    misses: List[Tuple[int, int, DecomposedAddress, TagLookup]]


class HAMSController:
    """Hardware-automated Memory-over-Storage controller in the MCH."""

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
        self.prp_pool = PRPPool(config.hams.prp_pool_bytes,
                                self.mos_page_bytes)
        self.hazards = HazardManager(self.tag_array, self.prp_pool,
                                     config.hams.wait_queue_depth)
        # The SQ/CQ pair in the pinned region.  The engine drains it within
        # each issue, so only the power-failure recovery ever finds entries.
        self.queue_pair = QueuePair.create(depth=1024)
        self.nvme_controller = NVMeController(self.ssd, self.link, config.nvme)
        self.engine = HardwareNVMeEngine(self.nvme_controller, config.hams,
                                         register_interface=self.register_interface)
        self.persistency = PersistencyController(self.nvdimm, self.ssd,
                                                 self.nvme_controller,
                                                 self.queue_pair)

        self.delays = _DelayTotals()
        self.accesses = 0
        self.evictions = 0
        self.fills = 0
        # Background evictions outstanding per tag-array index (extend mode).
        self._background_evictions: Dict[int, float] = {}
        # Traffic moved by background fills/evictions in extend mode,
        # modelled analytically (see _background_transfer).
        self.background_flash_reads = 0
        self.background_flash_programs = 0
        self.background_link_bytes = 0

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

        # 1. Tag probe: one NVDIMM line access plus the comparator.
        probe_ns = nvdimm.line_access_ns() + self.hams_config.tag_check_ns
        nvdimm.access(self.config.nvdimm.ddr.line_size, is_write=False)
        lookup = self.tag_array.lookup(decomposed.mos_page)

        if lookup.hit:
            # 2. Serve the data from the NVDIMM cache entry.
            serve_ns = self._nvdimm_serve_ns(size_bytes)
            nvdimm.access(size_bytes, is_write=is_write)
            if is_write:
                self.tag_array.mark_dirty(decomposed.mos_page)
            result = HAMSAccessResult(address=address, is_write=is_write,
                                      hit=True, start_ns=at_ns,
                                      finish_ns=(at_ns + probe_ns) + serve_ns,
                                      nvdimm_ns=probe_ns + serve_ns)
        else:
            # 3. A miss: the victim clone (read + write), the critical-chunk
            #    landing and the serve, then the install.  Installing before
            #    the clocked replay is exact: the replay touches the entry
            #    only through the hazard manager's busy bit, which
            #    begin_miss sets and complete_miss clears.
            page_bytes = self.mos_page_bytes
            if lookup.needs_eviction:
                nvdimm.access(page_bytes, is_write=False)
                nvdimm.access(page_bytes, is_write=True)
            nvdimm.access(page_bytes, is_write=True)
            nvdimm.access(size_bytes, is_write=is_write)
            self.tag_array.install(decomposed.mos_page, dirty=is_write)
            with self.ssd.walk() as step:
                result = self.replay_miss(address, decomposed, lookup,
                                          size_bytes, is_write, at_ns, step)

        self.delays.nvdimm_ns += result.nvdimm_ns
        self.delays.dma_ns += result.dma_ns
        self.delays.ssd_ns += result.ssd_ns
        self.delays.wait_ns += result.wait_ns
        return result

    # -- batched classification (the clock-free half of the datapath) --------------------

    def classify_batch(self, addresses: np.ndarray, sizes: np.ndarray,
                       writes: np.ndarray) -> HAMSBatchPlan:
        """Walk one request batch through the tag array, clock-free.

        The tag array, the dirty bits and the direct-mapped installs do not
        depend on the clock, so one scalar-order walk classifies the whole
        batch and leaves the tag state exactly where the scalar loop would:
        hits mark their entry dirty on stores, misses install their page
        (before their clocked replay, as :meth:`access` does).  The
        walk also records the batch's complete NVDIMM traffic — probe,
        victim clone, critical-chunk landing, serve — in the exact scalar
        call order and charges it through one
        :meth:`~repro.memory.nvdimm.NVDIMM.access_batch` fold, so the DRAM
        counters (and the bit-exact ``busy_ns`` accumulation) match the
        scalar replay.  Everything clock-dependent — engine waits, NVMe
        issue, background-eviction parking — stays out of the plan and runs
        later through :meth:`replay_miss`.
        """
        count = len(addresses)
        self.accesses += count
        nvdimm = self.nvdimm
        mos_page_bytes = self.mos_page_bytes
        tag_array = self.tag_array
        entries = tag_array._entries
        entries_count = tag_array.entries_count
        line_size = self.config.nvdimm.ddr.line_size
        line_ns = nvdimm.line_access_ns()
        probe_ns = line_ns + self.hams_config.tag_check_ns

        mos_pages = addresses // mos_page_bytes
        offsets_col = addresses % mos_page_bytes
        indices_col = mos_pages % entries_count
        tags_col = mos_pages // entries_count

        serve_ns = np.empty(count, dtype=np.float64)
        fine = sizes <= line_size
        serve_ns[fine] = line_ns
        for size in np.unique(sizes[~fine]):
            serve_ns[sizes == size] = nvdimm.page_access_ns(int(size))

        mos_list = mos_pages.tolist()
        offset_list = offsets_col.tolist()
        index_list = indices_col.tolist()
        tag_list = tags_col.tolist()
        writes_list = writes.tolist()
        sizes_list = sizes.tolist()

        hits = np.empty(count, dtype=bool)
        misses: List[Tuple[int, int, DecomposedAddress, TagLookup]] = []
        hit_count = 0
        # The batch's NVDIMM call sequence, in exact scalar order.
        sched_sizes: List[int] = []
        sched_writes: List[bool] = []
        size_append = sched_sizes.append
        write_append = sched_writes.append
        addresses_list = None  # materialised only when the batch has misses
        for j in range(count):
            index = index_list[j]
            tag = tag_list[j]
            is_write = writes_list[j]
            entry = entries[index]
            size_append(line_size)        # tag probe
            write_append(False)
            if entry.valid and entry.tag == tag:
                hit_count += 1
                hits[j] = True
                if is_write:
                    entry.dirty = True
            else:
                hits[j] = False
                victim_tag = entry.tag if entry.valid else None
                victim_dirty = entry.dirty if victim_tag is not None else False
                lookup = TagLookup(index=index, tag=tag, hit=False,
                                   busy=entry.busy, victim_tag=victim_tag,
                                   victim_dirty=victim_dirty)
                decomposed = DecomposedAddress(mos_page=mos_list[j], tag=tag,
                                               index=index,
                                               offset=offset_list[j])
                if addresses_list is None:
                    addresses_list = addresses.tolist()
                misses.append((j, addresses_list[j], decomposed, lookup))
                if victim_tag is not None and victim_dirty:
                    size_append(mos_page_bytes)   # victim clone read
                    write_append(False)
                    size_append(mos_page_bytes)   # victim clone write
                    write_append(True)
                size_append(mos_page_bytes)       # critical-chunk landing
                write_append(True)
                # Install now so later lookups in this batch classify
                # exactly; the dirty bit already folds in the scalar
                # install + mark-dirty pair.
                entry.tag = tag
                entry.valid = True
                entry.dirty = is_write
                entry.busy = False
            size_append(sizes_list[j])    # serve from the cache entry
            write_append(is_write)
        tag_array.lookups += count
        tag_array.hits += hit_count
        tag_array.misses += count - hit_count
        nvdimm.access_batch(np.array(sched_sizes, dtype=np.int64),
                            np.array(sched_writes, dtype=bool))
        return HAMSBatchPlan(hits=hits, serve_ns=serve_ns, probe_ns=probe_ns,
                             misses=misses)

    def replay_miss(self, address: int, decomposed: DecomposedAddress,
                    lookup: TagLookup, size_bytes: int, is_write: bool,
                    at_ns: float, step) -> HAMSAccessResult:
        """Clocked replay of one pre-classified miss (see :meth:`classify_batch`).

        Runs the clock-dependent miss sequence — probe time, background-
        eviction parking, engine wait, clone, NVMe issue, landing, serve.
        Every NVMe command the miss issues goes through *step*, the step of
        an open :meth:`~repro.flash.ssd.SSD.walk` on :attr:`ssd`: the
        batched path opens one walk per service chunk, :meth:`access` a
        batch-of-one walk per miss.  The NVDIMM counters and the tag
        install are the caller's (the classification walk, or
        :meth:`access`), and so is accumulating the returned delay
        components.
        """
        result = HAMSAccessResult(address=address, is_write=is_write,
                                  hit=False, start_ns=at_ns, finish_ns=at_ns)
        probe_ns = (self.nvdimm.line_access_ns()
                    + self.hams_config.tag_check_ns)
        result.nvdimm_ns += probe_ns
        now = at_ns + probe_ns

        pending = self._background_evictions.get(decomposed.index, 0.0)
        if pending > now:
            self.hazards.park(decomposed.mos_page, is_write, now)
            result.wait_ns += pending - now
            now = pending
            self._background_evictions.pop(decomposed.index, None)
            self.hazards.drain_parked()

        now = self._handle_miss(decomposed, lookup, is_write, now, result,
                                step)

        serve_ns = self._nvdimm_serve_ns(size_bytes)
        result.nvdimm_ns += serve_ns
        now += serve_ns
        result.finish_ns = now
        return result

    # -- miss handling -------------------------------------------------------------------

    #: Size of the critical chunk fetched first on a miss.  The MMU request
    #: only stalls until this chunk lands in the NVDIMM; the remainder of the
    #: MoS page streams in afterwards ("critical-chunk-first", matching the
    #: flash page size the ULL-Flash serves natively).
    CRITICAL_CHUNK_BYTES = 4096

    def _handle_miss(self, decomposed, lookup, is_write: bool, now: float,
                     result: HAMSAccessResult, step) -> float:
        """Evict the victim (if dirty) and fill the requested page.

        Only the clock-dependent part: the NVDIMM traffic (clone, landing)
        is charged and the tag installed by the caller of
        :meth:`replay_miss`; here those steps only add their time.

        In extend mode only the *critical chunk* (the 4 KB covering the
        requested address) sits on the access's critical path; the rest of
        the MoS page and the eviction of the dirty victim drain through the
        NVMe queue in the background, which is where extend mode's advantage
        over persist mode comes from (Figure 18).  Persist mode serialises
        everything: the FUA eviction, the critical chunk and the remainder.
        """
        engine_start = self.engine.next_available(now)
        result.wait_ns += engine_start - now
        now = engine_start

        chunk = min(self.CRITICAL_CHUNK_BYTES, self.mos_page_bytes)
        page_lba = self.address_manager.lba_of(decomposed.mos_page)
        chunk_lba = page_lba + (decomposed.offset // chunk) * (chunk // 512)
        issue = self.engine.issue

        # -- eviction of the dirty victim -------------------------------------
        victim_page = None
        clone_ns = 0.0
        if lookup.needs_eviction:
            victim_page = self.tag_array.page_from(lookup.index,
                                                   lookup.victim_tag)
            # Clone the victim into the PRP pool: an NVDIMM-internal copy of
            # one MoS page (read + write) that protects against the eviction
            # hazard while the DMA is in flight — the eviction's PRP points
            # at the clone, not at the live cache entry.  The copy runs at
            # DRAM bandwidth and overlaps with the critical fill from flash.
            clone_ns = 2 * self.nvdimm.page_access_ns(self.mos_page_bytes)
            result.nvdimm_ns += clone_ns
            self.evictions += 1

        remainder_bytes = self.mos_page_bytes - chunk
        self.fills += 1

        try:
            # The clone is keyed by the critical fill's command id.
            self.hazards.begin_miss(
                lookup.index, decomposed.mos_page, victim_page,
                command_id=next_command_id(), completes_at_ns=now)
        except PRPPoolExhausted:
            # The pool is sized for the worst case; running out means the
            # caller is issuing more concurrent misses than the design
            # supports, so serialise behind the engine instead.
            pass

        if self.hams_config.is_persist:
            # Persist mode: one outstanding I/O at a time, eviction first
            # (FUA), then the whole page fill — everything stalls the MMU.
            commands = [(False, chunk_lba, chunk)]
            if victim_page is not None:
                commands.insert(0, (True, self.address_manager.lba_of(
                    victim_page), self.mos_page_bytes))
            if remainder_bytes > 0:
                commands.append((False, page_lba, remainder_bytes))
            cursor = now + clone_ns
            for evict, lba, length in commands:
                cursor, protocol_ns, transfer_ns, device_ns = issue(
                    step, evict, lba, length, cursor)
                result.dma_ns += protocol_ns + transfer_ns
                result.ssd_ns += device_ns
            critical_finish = cursor
        else:
            # Extend mode: the critical chunk stalls the MMU; the remainder
            # and the eviction ride the NVMe queue in the background.  The
            # NVMe queue arbitration gives incoming (critical) reads priority
            # over the streaming background traffic, so the background work
            # is modelled analytically: it consumes flash and link bandwidth
            # (visible in the energy accounting and in the per-entry reuse
            # blocking below) but does not head-of-line-block later critical
            # fills the way a single serialised command stream would.
            fill_finish, protocol_ns, transfer_ns, device_ns = issue(
                step, False, chunk_lba, chunk, now)
            result.dma_ns += protocol_ns + transfer_ns
            result.ssd_ns += device_ns
            # The victim clone overlaps with the flash access; only the part
            # that outlasts the critical fill shows on the critical path.
            critical_finish = max(fill_finish, now + clone_ns)
            background_finish = fill_finish
            if remainder_bytes > 0:
                background_finish = max(
                    background_finish,
                    self._background_transfer(remainder_bytes, is_write=False,
                                              at_ns=fill_finish))
            if victim_page is not None:
                background_finish = max(
                    background_finish,
                    self._background_transfer(self.mos_page_bytes,
                                              is_write=True,
                                              at_ns=background_finish))
            if background_finish > critical_finish:
                # Block reuse of the entry until the background work drains.
                self._background_evictions[lookup.index] = background_finish

        now = max(now, critical_finish)

        # The critical chunk lands in the NVDIMM cache entry; the remainder
        # streams in behind it off the critical path.
        landing_ns = self.nvdimm.page_access_ns(chunk)
        result.nvdimm_ns += landing_ns
        now += landing_ns

        self.hazards.complete_miss(lookup.index)
        result.evicted = victim_page is not None
        return now

    def _background_transfer(self, size_bytes: int, is_write: bool,
                             at_ns: float) -> float:
        """Account for background traffic between ULL-Flash and NVDIMM.

        Extend mode streams the non-critical part of a fill and the eviction
        of the dirty victim through the NVMe queue while the MMU already
        continues; the traffic still costs flash operations, link bytes and
        time (returned as the estimated completion, used to block premature
        reuse of the cache entry), but it is not serialised in front of later
        critical fills — the hardware queue arbitration prioritises those.
        """
        if size_bytes <= 0:
            return at_ns
        flash_page = self.ssd.page_size
        pages = max(1, size_bytes // flash_page)
        if is_write:
            self.background_flash_programs += pages
            array_ns = self.ssd.config.timing.program_ns
        else:
            self.background_flash_reads += pages
            array_ns = self.ssd.config.timing.read_ns
        self.background_link_bytes += size_bytes
        channel_count = max(1, self.ssd.channels.geometry.channels)
        flash_stream_ns = (pages * self.ssd.channels.transfer_time(flash_page)
                           / channel_count) + array_ns
        link_ns = (self.link.raw_transfer_time(size_bytes)
                   + self.link.per_transfer_overhead(size_bytes))
        return at_ns + max(flash_stream_ns, link_ns)

    def _nvdimm_serve_ns(self, size_bytes: int) -> float:
        if size_bytes <= self.config.nvdimm.ddr.line_size:
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
        stats.update({f"hazards.{k}": v
                      for k, v in self.hazards.statistics().items()})
        stats.update({f"link.{k}": v for k, v in self.link.statistics().items()})
        return stats
