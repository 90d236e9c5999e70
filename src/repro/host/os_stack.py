"""OS storage-stack model: the software path the MMF baseline traverses.

Section II-B walks through the path a faulting ``mmap`` access takes:
page-fault handler, VMA/inode lookup and locking, the file system building a
``bio``, the blk-mq layer scheduling it, the NVMe driver issuing it, the
interrupt/completion path, and finally the data copy into the allocated
page.  Section III-B measures the aggregate at 15–20 us per fault —
around 6x the Z-NAND read itself — and Figure 7a shows it dominating
execution time.  This module charges those costs and manages the OS page
cache whose capacity determines how often the path is taken.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from ..config import OSStackConfig

#: An install policy run on every batched page-cache miss: it receives the
#: missing ``(page_number, is_write)`` and returns the page numbers of the
#: dirty victims its ``PageCache.install`` / ``install_run`` calls evicted,
#: in install order (a clean victim needs no writeback, so it is not
#: recorded).  The default policy installs the missing page itself;
#: platforms with prefetching installs (migration chunks, readahead)
#: supply their own.
InstallPolicy = Callable[[int, bool], List[int]]


@dataclass
class PageCacheBatchResult:
    """Outcome of one :meth:`PageCache.access_batch` walk.

    ``hits[i]`` is ``True`` when access *i* of the batch was resident;
    ``miss_indices`` lists the missing positions in access order, and
    ``evictions[k]`` holds the page numbers of the dirty victims the
    *k*-th miss's install policy evicted (in install order) — the
    writeback schedule the platforms replay against their devices.
    """

    hits: np.ndarray
    miss_indices: np.ndarray
    evictions: List[List[int]] = field(default_factory=list)

    @property
    def miss_count(self) -> int:
        return len(self.miss_indices)


class PageCache:
    """The OS page cache backing a memory-mapped file (LRU, write-back)."""

    def __init__(self, capacity_bytes: int, page_size: int) -> None:
        if page_size <= 0:
            raise ValueError("page size must be positive")
        self.page_size = page_size
        self.capacity_pages = max(0, capacity_bytes // page_size)
        self._pages: "OrderedDict[int, bool]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.dirty_writebacks = 0
        # Tenant attribution is strictly opt-in (scenario runs): until
        # enable_tenant_tracking() flips the flag, the only cost on the
        # default path is one boolean test per install.
        self._track_tenants = False
        self._install_tenant: Optional[int] = None
        self._owners: Dict[int, int] = {}
        self._tenant_hits: Optional[np.ndarray] = None
        self._tenant_misses: Optional[np.ndarray] = None
        self._evictions_suffered: Optional[np.ndarray] = None
        self._evictions_inflicted: Optional[np.ndarray] = None

    def enable_tenant_tracking(self, tenant_count: int) -> None:
        """Turn on per-tenant attribution for *tenant_count* tenants.

        Afterwards :meth:`access_batch` calls that carry a ``tenants``
        column split hits/misses per tenant and :meth:`install` records
        page ownership, counting cross-tenant evictions (pollution) both
        ways — suffered by the victim's owner, inflicted by the installer.
        The walk itself — residency, LRU order, eviction sequence,
        aggregate counters — is unchanged.
        """
        if tenant_count <= 0:
            raise ValueError("tenant count must be positive")
        self._track_tenants = True
        self._owners = {}
        self._tenant_hits = np.zeros(tenant_count, dtype=np.int64)
        self._tenant_misses = np.zeros(tenant_count, dtype=np.int64)
        self._evictions_suffered = np.zeros(tenant_count, dtype=np.int64)
        self._evictions_inflicted = np.zeros(tenant_count, dtype=np.int64)

    def tenant_statistics(self) -> Dict[int, Dict[str, int]]:
        """Per-tenant cache counters (empty unless tracking is enabled)."""
        if not self._track_tenants:
            return {}
        return {
            tenant: {
                "cache_hits": int(self._tenant_hits[tenant]),
                "cache_misses": int(self._tenant_misses[tenant]),
                "evictions_suffered": int(
                    self._evictions_suffered[tenant]),
                "evictions_inflicted": int(
                    self._evictions_inflicted[tenant]),
            }
            for tenant in range(len(self._tenant_hits))
        }

    def __contains__(self, page_number: int) -> bool:
        return page_number in self._pages

    def __len__(self) -> int:
        return len(self._pages)

    def access(self, page_number: int, is_write: bool) -> bool:
        """Touch *page_number*; returns ``True`` when it was resident."""
        if page_number in self._pages:
            self._pages.move_to_end(page_number)
            if is_write:
                self._pages[page_number] = True
            self.hits += 1
            return True
        self.misses += 1
        return False

    def install(self, page_number: int,
                dirty: bool = False) -> Optional[int]:
        """Insert a page after a fault; returns the evicted page when it
        was dirty (``None`` when the install evicted nothing or a clean
        page)."""
        if self.capacity_pages == 0:
            # A zero-capacity cache retains nothing: no insert and, in
            # particular, no eviction — the pre-existing residency set is
            # empty by construction, so there is never a victim to write
            # back.  Every access keeps counting a miss.
            return None
        resident = self._pages
        if page_number in resident:
            resident.move_to_end(page_number)
            if dirty:
                resident[page_number] = True
            return None
        dirty_victim: Optional[int] = None
        if len(resident) >= self.capacity_pages:
            victim, victim_dirty = resident.popitem(last=False)
            if victim_dirty:
                self.dirty_writebacks += 1
                dirty_victim = victim
            if self._track_tenants:
                self._charge_pollution(victim)
        resident[page_number] = dirty
        if self._track_tenants and self._install_tenant is not None:
            self._owners[page_number] = self._install_tenant
        return dirty_victim

    def _charge_pollution(self, victim: int) -> None:
        """Drop *victim*'s owner; a cross-tenant eviction counts against
        both the owner (suffered) and the installing tenant (inflicted)."""
        installer = self._install_tenant
        victim_owner = self._owners.pop(victim, None)
        if (victim_owner is not None and installer is not None
                and victim_owner != installer):
            self._evictions_suffered[victim_owner] += 1
            self._evictions_inflicted[installer] += 1

    def install_run(self, first: int, count: int,
                    dirty_first: bool) -> List[int]:
        """Install pages ``first .. first + count - 1``; returns the dirty
        victims' page numbers.

        Equivalent — in LRU order, dirty flags, ``dirty_writebacks``, the
        zero-capacity no-op and tenant ownership/pollution accounting — to::

            for offset in range(count):
                victim = self.install(first + offset,
                                      dirty=dirty_first and offset == 0)
                if victim is not None:
                    victims.append(victim)

        as one inlined loop: the run installs of migration chunks and
        readahead pay no per-page call.
        """
        capacity = self.capacity_pages
        victims: List[int] = []
        if capacity == 0:
            return victims
        resident = self._pages
        move_to_end = resident.move_to_end
        popitem = resident.popitem
        append = victims.append
        size = len(resident)
        track = self._track_tenants
        installer = self._install_tenant
        owners = self._owners
        dirty = dirty_first
        for page in range(first, first + count):
            if page in resident:
                move_to_end(page)
                if dirty:
                    resident[page] = True
            else:
                if size >= capacity:
                    victim, victim_dirty = popitem(last=False)
                    if victim_dirty:
                        append(victim)
                    if track:
                        self._charge_pollution(victim)
                else:
                    size += 1
                resident[page] = dirty
                if track and installer is not None:
                    owners[page] = installer
            dirty = False
        self.dirty_writebacks += len(victims)
        return victims

    def access_batch(self, pages, writes,
                     install: Optional[InstallPolicy] = None,
                     tenants: Optional[np.ndarray] = None
                     ) -> PageCacheBatchResult:
        """Replay a whole access column through the LRU, order-exactly.

        Equivalent — in residency set, LRU order, dirty flags, the
        ``hits``/``misses``/``dirty_writebacks`` counters and the dirty-victim
        sequence — to the scalar loop::

            for page, is_write in zip(pages, writes):
                if not self.access(page, is_write):
                    install(page, is_write)

        where the default install policy is
        ``self.install(page, dirty=is_write)`` (the single-page policy of
        Optane memory mode and the buffered ULL bypass).  A custom policy
        may install any set of pages (migration chunks, readahead) but must
        route every insertion through :meth:`install` or
        :meth:`install_run` and must not call :meth:`access` re-entrantly.

        The walk is run-length collapsed: consecutive accesses to the same
        page are folded into one LRU transition, because once a page is
        resident the rest of its run can only hit (a hit moves the page to
        the MRU end and never evicts).  Residency is tested first, so a run
        whose page is resident costs one membership test, one MRU move and
        one precomputed any-write flag.  Residency is re-checked after every
        install, so policies that fail to leave the missing page resident —
        a zero-capacity cache, or a chunk install whose own tail evicts the
        faulting page again — fall out of the collapse and keep missing,
        exactly as the scalar loop would.

        *tenants* (an int column parallel to *pages*) is only consulted
        when :meth:`enable_tenant_tracking` is on: it attributes each
        hit/miss to its tenant and tags installs with the faulting tenant
        for ownership/pollution accounting.  It never alters the walk.
        """
        pages = np.ascontiguousarray(pages, dtype=np.int64)
        writes = np.asarray(writes, dtype=bool)
        count = len(pages)
        if len(writes) != count:
            raise ValueError("pages and writes must be equal-length")
        hits = np.ones(count, dtype=bool)
        miss_positions: List[int] = []
        evictions: List[List[int]] = []
        if count == 0:
            return PageCacheBatchResult(hits=hits,
                                        miss_indices=np.empty(0, dtype=np.int64),
                                        evictions=evictions)
        if install is None:
            install = self._install_single_page

        # Maximal same-page runs: run k covers [starts[k], ends[k]).
        change = np.flatnonzero(pages[1:] != pages[:-1]) + 1
        starts = np.concatenate((np.zeros(1, dtype=np.int64), change))
        ends = np.concatenate((change, np.asarray([count], dtype=np.int64)))
        run_pages = pages[starts].tolist()
        starts_list = starts.tolist()
        ends_list = ends.tolist()
        # Whether each run holds a write: a resident run's one dirty-flag
        # update.
        run_writes = np.logical_or.reduceat(writes, starts).tolist()
        writes_list = writes.tolist()

        residency = self._pages
        move_to_end = residency.move_to_end
        attribute = self._track_tenants and tenants is not None
        if attribute:
            tenant_column = np.ascontiguousarray(tenants, dtype=np.int64)
            if len(tenant_column) != count:
                raise ValueError("tenants column must match the batch")
            tenants_list = tenant_column.tolist()
        for start, end, page, run_write in zip(starts_list, ends_list,
                                               run_pages, run_writes):
            if page in residency:
                # A resident run is all hits: one MRU move and one
                # dirty-flag update stand in for each scalar touch.
                move_to_end(page)
                if run_write:
                    residency[page] = True
                continue
            index = start
            while True:
                miss_positions.append(index)
                if attribute:
                    self._install_tenant = tenants_list[index]
                evictions.append(install(page, writes_list[index]))
                index += 1
                if index == end:
                    break
                if page in residency:
                    # The rest of the run is guaranteed hits.
                    move_to_end(page)
                    if run_write and True in writes_list[index:end]:
                        residency[page] = True
                    break
        self._install_tenant = None
        miss_count = len(miss_positions)
        miss_indices = np.asarray(miss_positions, dtype=np.int64)
        hits[miss_indices] = False
        self.hits += count - miss_count
        self.misses += miss_count
        if attribute:
            width = len(self._tenant_hits)
            missed = np.bincount(tenant_column[miss_indices],
                                 minlength=width)
            touched = np.bincount(tenant_column, minlength=width)
            self._tenant_misses += missed
            self._tenant_hits += touched - missed
        return PageCacheBatchResult(hits=hits, miss_indices=miss_indices,
                                    evictions=evictions)

    def _install_single_page(self, page_number: int,
                             is_write: bool) -> List[int]:
        """The default install policy: the missing page itself."""
        victim = self.install(page_number, dirty=is_write)
        return [] if victim is None else [victim]

    def resident_pages(self) -> List[int]:
        """The resident pages in LRU order (least recently used first)."""
        return list(self._pages)

    def dirty_pages(self) -> List[int]:
        return [page for page, dirty in self._pages.items() if dirty]

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def statistics(self, prefix: str = "page_cache") -> Dict[str, float]:
        """The cache's observable counters, keyed under *prefix*.

        The DRAM-cache platforms merge this into their ``RunResult`` extras
        (``dram_cache_*`` / ``page_buffer_*``), where the golden
        scalar-vs-batched tests compare every entry exactly.
        """
        return {
            f"{prefix}_hit_rate": self.hit_rate,
            f"{prefix}_hits": float(self.hits),
            f"{prefix}_misses": float(self.misses),
            f"{prefix}_writebacks": float(self.dirty_writebacks),
        }


class OSStorageStack:
    """Charges the software latencies of the mmap / storage-stack path.

    The costs are functions of the config and the page size alone, so the
    sums a fault and a writeback charge are taken once at construction;
    each call adds them to the counters and returns a float.
    """

    def __init__(self, config: OSStackConfig, page_size: int) -> None:
        self.config = config
        self.page_size = page_size
        self.page_faults_serviced = 0
        self.context_switches = 0
        self.total_mmap_ns = 0.0
        self.total_io_stack_ns = 0.0
        self.total_copy_ns = 0.0
        self._mmap_ns = config.mmap_overhead_ns
        self._io_stack_ns = config.io_stack_ns
        self._copy_ns = page_size / config.copy_bandwidth_bytes_per_ns
        self._major_fault_ns = (self._mmap_ns + self._io_stack_ns
                                + self._copy_ns)
        self._writeback_ns = self._io_stack_ns + self._copy_ns

    def fault_cost(self, needs_io: bool = True) -> float:
        """Software cost of one page fault of a :attr:`page_size` page.

        ``needs_io`` distinguishes a *minor* fault (page already in the page
        cache, only the PTE is missing; the mmap/page-fault portion alone)
        from a *major* fault that has to go down the I/O stack to the
        device and copy the page.
        """
        self.page_faults_serviced += 1
        if not needs_io:
            self.context_switches += 1
            self.total_mmap_ns += self._mmap_ns
            return self._mmap_ns
        self.context_switches += 2
        self.total_mmap_ns += self._mmap_ns
        self.total_io_stack_ns += self._io_stack_ns
        self.total_copy_ns += self._copy_ns
        return self._major_fault_ns

    def writeback_cost(self) -> float:
        """Software cost of writing a dirty page back through the I/O stack."""
        self.total_io_stack_ns += self._io_stack_ns
        self.total_copy_ns += self._copy_ns
        return self._writeback_ns

    @property
    def readahead_pages(self) -> int:
        return self.config.readahead_pages

    def statistics(self) -> Dict[str, float]:
        return {
            "page_faults_serviced": float(self.page_faults_serviced),
            "context_switches": float(self.context_switches),
            "total_mmap_ns": self.total_mmap_ns,
            "total_io_stack_ns": self.total_io_stack_ns,
            "total_copy_ns": self.total_copy_ns,
        }
