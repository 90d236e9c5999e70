"""Platform base class and the shared trace-replay loop.

A platform is a complete system configuration (CPU + caches + some memory
expansion scheme).  Running a workload trace on a platform produces a
:class:`RunResult` that carries every quantity the paper's figures plot:
application throughput (pages/s or SQL ops/s), the execution-time breakdown
(app / OS / SSD, Figure 17), the memory-delay breakdown (NVDIMM / DMA / SSD,
Figure 18), the energy breakdown (Figure 19), and IPC/MIPS for Figure 7b and
the headline claim.

The replay loop is identical across platforms: compute instructions retire
at the base CPI, fine-grained references filter through the on-chip caches,
and what misses goes off-chip.  Two execution strategies produce
bit-identical results:

* the **scalar** reference loop hands each miss to
  :meth:`Platform.service_memory_access` one at a time, and
* the default **batched** loop takes the trace's L1/L2 outcomes from the
  memoised filter stage (:func:`repro.host.caches.filter_trace`, one walk
  per trace and ``CacheConfig``, shared by every platform), walks the
  columnar :class:`~repro.workloads.trace.AccessStream` chunk-at-a-time,
  gathers each chunk's misses into a :class:`MemoryRequestBatch` and hands
  the whole batch to :meth:`Platform.service_batch`.

``service_batch`` is the batched per-platform hook.  The analytic
platforms are truly vectorized; the page-cached
platforms (mmap, FlatFlash, NVDIMM-C, Optane memory mode, the ULL
bypasses) run an order-exact batched LRU walk
(:meth:`repro.host.os_stack.PageCache.access_batch`) and replay only its
misses — FlatFlash in one MMIO loop of its own, the others through
:meth:`MemoryRequestBatch.service_page_cached`; and HAMS splits its
datapath into a clock-free tag classification plus clock-exact miss
replay (:meth:`repro.core.hams_controller.HAMSController.classify_batch`).  All batched
bookkeeping uses :func:`repro.numerics.sequential_add`, which reproduces the
scalar loop's left-to-right floating-point rounding bit for bit — the
equivalence is locked in by ``tests/test_batched_replay.py``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..config import SystemConfig
from ..energy.accounting import EnergyAccount, EnergyBreakdown
from ..energy.models import EnergyModel
from ..host.caches import CacheHierarchy, filter_trace
from ..host.cpu import CPUModel
from ..numerics import sequential_add
from ..workloads.trace import WorkloadTrace


@dataclass
class MemoryServiceResult:
    """What one off-chip memory access cost on a given platform.

    The three components are *additive* and classified the way Figure 17
    classifies them: ``latency_ns`` is the part charged to the application
    itself (the LD/ST stall), ``os_ns`` is software-stack time (page faults,
    context switches, file system, block layer, driver), and ``storage_ns``
    is raw device wait that the OS exposes to the application.  Platforms
    without OS involvement (HAMS, oracle, Optane) fold everything into
    ``latency_ns``.
    """

    latency_ns: float
    os_ns: float = 0.0
    storage_ns: float = 0.0

    def __post_init__(self) -> None:
        if self.latency_ns < 0 or self.os_ns < 0 or self.storage_ns < 0:
            raise ValueError("latencies cannot be negative")


@dataclass
class BatchTimeline:
    """Exact clock-reconstruction data attached to a request batch.

    ``addends`` is the full sequence of time increments the scalar replay
    loop would apply to its ``now`` clock over the originating trace chunk —
    compute phases, cache-hit latencies and one (initially placeholder) slot
    per off-chip request.  ``service_slots[j]`` is the index of request
    *j*'s slot: everything before it has already elapsed when the request
    issues, so a sequential consumer can recover each request's exact issue
    time, and the replay loop later fills the slots with the measured
    service costs and folds the whole sequence into its clock.
    """

    addends: np.ndarray
    service_slots: np.ndarray


class MemoryRequestBatch:
    """A columnar batch of off-chip memory requests.

    ``addresses`` / ``sizes`` / ``writes`` are equal-length columns,
    ``on_chip_ns`` is the on-chip (cache walk) latency already paid per
    request, ``start_ns`` is the replay clock when the batch was formed and
    the :class:`BatchTimeline` is the chunk's clock sequence, from which
    every ``service_batch`` reproduces the scalar replay loop's
    per-request issue times exactly.  The batched replay loop builds every
    batch and always passes all three.

    ``tenant_ids`` is an optional int64 column tagging each request with
    the scenario tenant that issued it.  It is ``None`` for every
    non-scenario run; when present, the DRAM-cache platforms forward it to
    their page-cache walk for per-tenant attribution and partitioned-cache
    routing.  It never affects timing.
    """

    __slots__ = ("addresses", "sizes", "writes", "on_chip_ns", "start_ns",
                 "timeline", "tenant_ids")

    def __init__(self, addresses: np.ndarray, sizes: np.ndarray,
                 writes: np.ndarray, on_chip_ns: np.ndarray, start_ns: float,
                 timeline: BatchTimeline,
                 tenant_ids: Optional[np.ndarray] = None) -> None:
        self.addresses = np.asarray(addresses, dtype=np.int64)
        self.sizes = np.asarray(sizes, dtype=np.int64)
        self.writes = np.asarray(writes, dtype=bool)
        self.on_chip_ns = np.asarray(on_chip_ns, dtype=np.float64)
        self.start_ns = start_ns
        self.timeline = timeline
        if tenant_ids is not None:
            tenant_ids = np.asarray(tenant_ids, dtype=np.int64)
            if len(tenant_ids) != len(self.addresses):
                raise ValueError("tenant_ids must match the batch length")
        self.tenant_ids = tenant_ids
        if not (len(self.addresses) == len(self.sizes) == len(self.writes)
                == len(self.on_chip_ns)):
            raise ValueError("batch columns must be equal-length")

    def __len__(self) -> int:
        return len(self.addresses)

    def service_page_cached(self, hit_mask: np.ndarray,
                            hit_latency_ns: np.ndarray,
                            miss_indices: np.ndarray,
                            miss_service) -> "MemoryServiceBatch":
        """Fold a page-cache hit/miss split into a service batch, clock-exactly.

        The engine behind the DRAM-cache platforms' vectorized
        ``service_batch`` (FlatFlash folds the same way inside its own
        MMIO loop).  The caller classifies
        every request against its page cache (one
        :meth:`~repro.host.os_stack.PageCache.access_batch` walk) and
        computes the hits' clock-independent service latencies in one
        vectorized pass (``hit_latency_ns``, a full-length column whose
        values at miss positions are ignored).  This method then walks only
        the misses, handing ``miss_service(k, index, now)`` — the *k*-th
        miss, batch row *index* — the exact issue clock the scalar replay
        loop would have passed, and expecting ``(latency_ns, os_ns,
        storage_ns)`` back.  The clock is reconstructed from the batch's
        :class:`BatchTimeline` (every batch carries one) by the same
        left-to-right float accumulation the scalar loop performs (hit
        slots are pre-filled with their on-chip + service addends), so
        clock- and history-dependent miss paths (SSD reads, link transfers)
        stay bit-identical while the hits never enter a Python loop.
        """
        count = len(self)
        latency = np.array(hit_latency_ns, dtype=np.float64, copy=True)
        os_ns = np.zeros(count, dtype=np.float64)
        storage_ns = np.zeros(count, dtype=np.float64)
        if len(miss_indices) == 0:
            return MemoryServiceBatch(latency_ns=latency, os_ns=os_ns,
                                      storage_ns=storage_ns)
        addends = self.timeline.addends.copy()
        slots = self.timeline.service_slots
        hit_indices = np.flatnonzero(hit_mask)
        addends[slots[hit_indices]] = (self.on_chip_ns[hit_indices]
                                       + latency[hit_indices])
        addends_list = None  # materialised lazily, for short-gap folds only
        miss_slots = slots[miss_indices].tolist()
        miss_on_chip = self.on_chip_ns[miss_indices].tolist()
        now = self.start_ns
        cursor = 0
        for k, (j, slot, on_chip) in enumerate(zip(miss_indices.tolist(),
                                                   miss_slots, miss_on_chip)):
            gap = slot - cursor
            if gap >= 64:
                # Long hit/compute stretch: one strict sequential fold.
                now = sequential_add(now, addends[cursor:slot])
            elif gap:
                if addends_list is None:
                    addends_list = addends.tolist()
                for addend in addends_list[cursor:slot]:
                    now += addend
            service_latency, service_os, service_storage = \
                miss_service(k, j, now)
            latency[j] = service_latency
            os_ns[j] = service_os
            storage_ns[j] = service_storage
            total = (((on_chip + service_latency) + service_os)
                     + service_storage)
            now += total
            cursor = slot + 1
        return MemoryServiceBatch(latency_ns=latency, os_ns=os_ns,
                                  storage_ns=storage_ns)


class MemoryServiceBatch:
    """Columnar result of servicing a :class:`MemoryRequestBatch`.

    The three columns mirror :class:`MemoryServiceResult`; ``os_ns`` /
    ``storage_ns`` default to zeros (the common case for hardware-managed
    platforms).
    """

    __slots__ = ("latency_ns", "os_ns", "storage_ns")

    def __init__(self, latency_ns: np.ndarray,
                 os_ns: Optional[np.ndarray] = None,
                 storage_ns: Optional[np.ndarray] = None) -> None:
        self.latency_ns = np.asarray(latency_ns, dtype=np.float64)
        count = len(self.latency_ns)
        self.os_ns = (np.zeros(count, dtype=np.float64) if os_ns is None
                      else np.asarray(os_ns, dtype=np.float64))
        self.storage_ns = (np.zeros(count, dtype=np.float64)
                           if storage_ns is None
                           else np.asarray(storage_ns, dtype=np.float64))
        if not (len(self.os_ns) == len(self.storage_ns) == count):
            raise ValueError("result columns must be equal-length")
        for column in (self.latency_ns, self.os_ns, self.storage_ns):
            if count and float(column.min()) < 0:
                raise ValueError("latencies cannot be negative")


@dataclass
class RunResult:
    """Everything measured while replaying one trace on one platform."""

    platform: str
    workload: str
    suite: str
    operation_unit: str
    operations: float
    total_ns: float
    app_ns: float
    os_ns: float
    ssd_ns: float
    memory_stall_ns: float
    compute_ns: float
    instructions: int
    memory_accesses: int
    offchip_accesses: int
    ipc: float
    mips: float
    energy: EnergyBreakdown
    memory_delay: Dict[str, float] = field(default_factory=dict)
    extras: Dict[str, float] = field(default_factory=dict)
    #: Per-tenant statistics of a scenario run ({tenant name: snapshot}),
    #: plus an "aggregate" entry that is the exact merge of the tenant
    #: registries.  Empty for every non-scenario run — and deliberately
    #: kept out of ``extras`` so the scalar==batched golden comparisons
    #: and existing baselines are untouched.
    tenants: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def operations_per_second(self) -> float:
        if self.total_ns <= 0:
            return 0.0
        return self.operations / (self.total_ns / 1e9)

    @property
    def kilo_pages_per_second(self) -> float:
        """The Figure 16a metric (only meaningful for page-unit workloads)."""
        return self.operations_per_second / 1e3

    def breakdown_fractions(self) -> Dict[str, float]:
        """Normalised execution-time breakdown (Figure 17 categories)."""
        total = self.total_ns
        if total <= 0:
            return {"app": 0.0, "os": 0.0, "ssd": 0.0}
        return {
            "app": self.app_ns / total,
            "os": self.os_ns / total,
            "ssd": self.ssd_ns / total,
        }


class Platform(abc.ABC):
    """A complete simulated system able to replay workload traces."""

    #: Human-readable platform name (matches the paper's legend labels).
    name: str = "abstract"

    #: Accesses per replay chunk (one service batch each).
    replay_chunk_size: int = 4096

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.cpu = CPUModel(config.cpu)
        self.caches = CacheHierarchy(config.caches)

    # -- per-platform hooks -------------------------------------------------------

    @abc.abstractmethod
    def service_memory_access(self, address: int, size_bytes: int,
                              is_write: bool, at_ns: float) -> MemoryServiceResult:
        """Resolve one off-chip memory access starting at *at_ns*."""

    @abc.abstractmethod
    def service_batch(self, batch: MemoryRequestBatch) -> MemoryServiceBatch:
        """Resolve a whole batch of off-chip memory requests.

        Bit-identical to calling :meth:`service_memory_access` once per
        request at the issue clocks the batch's timeline gives.  Those
        whose service cost is clock-independent (oracle, Optane App
        Direct, the NVDIMM bypass) are truly vectorized; the page-cached
        platforms (mmap, NVDIMM-C, Optane memory mode, the ULL bypasses)
        run the batched page-cache walk +
        :meth:`MemoryRequestBatch.service_page_cached` fold, which replays
        only the misses against the device; FlatFlash runs its two cache
        walks + one MMIO loop over the misses
        (:class:`repro.platforms.flatflash.FlatFlashPlatform`); and HAMS
        the clock-free tag-classification walk in
        :class:`repro.platforms.hams_platform.HAMSPlatform`.
        """

    @abc.abstractmethod
    def collect_energy(self, account: EnergyAccount) -> None:
        """Populate *account* with the device activity of the finished run."""

    def energy_model(self) -> EnergyModel:
        """Default energy model; platforms without an SSD-internal DRAM override."""
        return EnergyModel(self.config.energy,
                           self.config.nvdimm.capacity_bytes,
                           ssd_internal_dram_present=True)

    def memory_delay_breakdown(self) -> Dict[str, float]:
        """Figure 18 components; platforms that track them override this."""
        return {}

    def prepare(self, trace: WorkloadTrace) -> None:
        """Hook called before replay (preconditioning, warm data placement)."""

    # -- the shared replay loop -------------------------------------------------------

    def page_caches(self) -> list:
        """Attribute names of this platform's partitionable page caches.

        The scenario engine uses this to install per-tenant cache
        partitions and to harvest per-tenant hit/miss/pollution counters.
        Platforms whose datapath includes an LRU :class:`~repro.host.
        os_stack.PageCache` (NVDIMM-C, Optane memory mode, the buffered
        ULL bypass) override it; the default — no partitionable cache —
        is correct for everything else.
        """
        return []

    def run(self, trace: WorkloadTrace, *, execution: str = "batched",
            observer: Optional[object] = None) -> RunResult:
        """Replay *trace* and return the full measurement record.

        ``execution`` selects the replay strategy: ``"batched"`` (the
        default) or ``"scalar"``.  Both produce bit-identical results; the
        scalar loop exists as the reference implementation and for the
        equivalence tests and throughput benchmarks that compare the two.

        ``observer``, when given, receives ``on_chunk(chunk, stall_ns,
        miss_indices, service)`` after each replayed chunk — the chunk's
        per-access memory-stall addends, its off-chip positions and the
        resolved :class:`MemoryServiceBatch` (``None`` when the chunk had
        no misses).  Observation is read-only and batched-only; the
        scenario engine rides it for per-tenant attribution.
        """
        if execution == "batched":
            return self._run_batched(trace, observer=observer)
        if execution == "scalar":
            if observer is not None:
                raise ValueError(
                    "replay observers require the batched execution mode")
            return self._run_scalar(trace)
        raise ValueError(f"unknown execution mode {execution!r}; "
                         f"expected 'batched' or 'scalar'")

    def _run_scalar(self, trace: WorkloadTrace) -> RunResult:
        """The reference per-access replay loop."""
        self.prepare(trace)
        now = 0.0
        compute_per_access = trace.compute_instructions_per_access
        cache_line = self.config.caches.line_size
        offchip = 0
        stream = trace.stream

        for address, size_bytes, is_write in zip(stream.addresses.tolist(),
                                                 stream.sizes.tolist(),
                                                 stream.writes.tolist()):
            # Compute phase between memory references.
            compute_instructions = int(compute_per_access)
            if compute_instructions:
                now += self.cpu.execute_compute(compute_instructions)

            # Page-granular references (the mmap microbenchmark) stream
            # through the caches without reuse, so they are treated as
            # off-chip accesses directly; fine-grained references filter
            # through L1/L2 first.
            if size_bytes <= cache_line:
                cache_result = self.caches.access(address, is_write)
                if not cache_result.is_miss:
                    now += self.cpu.execute_memory(cache_result.latency_ns)
                    continue
                on_chip_ns = cache_result.latency_ns
            else:
                self.caches.record_bypass()
                on_chip_ns = self.config.caches.l2_latency_ns

            offchip += 1
            service = self.service_memory_access(address, size_bytes,
                                                 is_write, now)
            stall_ns = on_chip_ns + service.latency_ns
            self.cpu.execute_memory(stall_ns)
            self.cpu.charge_os(service.os_ns)
            self.cpu.charge_storage(service.storage_ns)
            now += stall_ns + service.os_ns + service.storage_ns

        return self._build_result(trace, now, offchip)

    def _run_batched(self, trace: WorkloadTrace,
                     observer: Optional[object] = None) -> RunResult:
        """Chunk-at-a-time replay over the trace's columnar stream.

        The L1/L2 filter is not part of the loop: :func:`~repro.host.caches
        .filter_trace` classifies the whole trace once per (trace,
        ``CacheConfig``) and memoises the per-access outcomes on the trace,
        so every platform replaying the same trace object shares one walk.
        Per chunk, the outcome slice gives the full-miss mask and on-chip
        latencies, the misses form a :class:`MemoryRequestBatch` resolved by
        one :meth:`service_batch` call, and all CPU/clock accounting folds
        in through :func:`~repro.numerics.sequential_add`, which reproduces
        the scalar loop's floating-point rounding exactly.  After the loop
        the filter's counters are installed into ``self.caches``, so its
        statistics match the scalar walk's.
        """
        self.prepare(trace)
        cache_filter = filter_trace(trace, self.config.caches)
        account = self.cpu.account
        compute_instructions = int(trace.compute_instructions_per_access)
        # Same expression execute_compute evaluates, hoisted out of the loop.
        compute_ns = (compute_instructions * self.cpu.config.base_cpi
                      * self.cpu.cycle_ns)
        now = 0.0
        offchip = 0
        start = 0

        for chunk in trace.stream.chunks(self.replay_chunk_size):
            count = len(chunk)
            # y[i] starts as the on-chip latency of reference i and ends as
            # its memory-stall addend (hits keep the cache latency, misses
            # are overwritten with on-chip + service latency).
            miss, y = cache_filter.window(start, start + count)
            start += count
            miss_indices = np.flatnonzero(miss)
            misses = len(miss_indices)

            # The scalar loop advances its clock with one addend per access
            # (plus one compute addend when the workload has a compute
            # phase); reproduce that exact sequence, with the miss slots
            # filled in after the batch resolves.
            if compute_instructions:
                addends = np.empty(2 * count, dtype=np.float64)
                addends[0::2] = compute_ns
                addends[1::2] = y
                slots = 2 * miss_indices + 1
            else:
                addends = y.copy()
                slots = miss_indices

            tenant_tags = getattr(chunk, "tenants", None)
            results = None
            if misses:
                on_chip = y[miss_indices].copy()
                batch = MemoryRequestBatch(
                    addresses=chunk.addresses[miss_indices],
                    sizes=chunk.sizes[miss_indices],
                    writes=chunk.writes[miss_indices],
                    on_chip_ns=on_chip,
                    start_ns=now,
                    timeline=BatchTimeline(addends=addends,
                                           service_slots=slots),
                    tenant_ids=(None if tenant_tags is None
                                else tenant_tags[miss_indices]))
                results = self.service_batch(batch)
                stall = on_chip + results.latency_ns
                addends[slots] = (stall + results.os_ns) + results.storage_ns
                y[miss_indices] = stall
                account.os_ns = sequential_add(account.os_ns, results.os_ns)
                account.storage_ns = sequential_add(account.storage_ns,
                                                    results.storage_ns)
                offchip += misses

            now = sequential_add(now, addends)
            account.memory_stall_ns = sequential_add(account.memory_stall_ns,
                                                     y)
            if compute_instructions:
                account.compute_ns = sequential_add(
                    account.compute_ns,
                    np.full(count, compute_ns, dtype=np.float64))
                account.instructions += count * compute_instructions
            account.instructions += count
            account.memory_instructions += count
            if observer is not None:
                observer.on_chunk(chunk, y, miss_indices, results)

        cache_filter.install(self.caches)
        return self._build_result(trace, now, offchip)

    def _build_result(self, trace: WorkloadTrace, now: float,
                      offchip: int) -> RunResult:
        """Finalise accounting and energy into the RunResult record."""
        account = self.cpu.account
        total_ns = max(now, account.total_ns)

        energy_account = EnergyAccount()
        energy_account.charge_cpu(busy_ns=account.compute_ns + account.os_ns,
                                  idle_ns=0.0)
        self.collect_energy(energy_account)
        energy_account.finalise(total_ns)
        energy = energy_account.breakdown(self.energy_model())

        return RunResult(
            platform=self.name,
            workload=trace.name,
            suite=trace.suite,
            operation_unit=trace.operation_unit,
            operations=trace.operations,
            total_ns=total_ns,
            app_ns=account.app_ns,
            os_ns=account.os_ns,
            ssd_ns=account.storage_ns,
            memory_stall_ns=account.memory_stall_ns,
            compute_ns=account.compute_ns,
            instructions=account.instructions,
            memory_accesses=trace.memory_access_count,
            offchip_accesses=offchip,
            ipc=self.cpu.ipc,
            mips=self.cpu.mips,
            energy=energy,
            memory_delay=self.memory_delay_breakdown(),
            extras=self.extra_statistics(),
        )

    def extra_statistics(self) -> Dict[str, float]:
        """Additional per-platform statistics attached to the result."""
        return dict(self.caches.statistics())
