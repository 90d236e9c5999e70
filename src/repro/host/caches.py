"""On-chip cache hierarchy (L1D + L2) with LRU set-associative levels.

Memory references from a workload trace first filter through the caches;
only misses reach the memory expansion platform underneath.  The paper's
motivation section points out that "a large fraction of the load/store
instructions suffer from page cache misses due to the poor data locality" of
mmap-bench and SQLite — the hierarchy here lets that locality (or lack of
it) emerge from the trace instead of being an assumed constant.

The filter outcome depends only on the trace and the :class:`CacheConfig`,
never on the memory-expansion platform underneath, so the batched replay
runs it as a trace-pipeline stage: :func:`filter_trace` walks a whole trace
through a fresh hierarchy once, memoises the per-access outcome codes and
the final counters on the :class:`~repro.workloads.trace.WorkloadTrace`,
and every platform replaying that trace reuses them.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ..config import CacheConfig

if TYPE_CHECKING:
    from ..workloads.trace import WorkloadTrace

#: Per-access outcome codes of :meth:`CacheHierarchy.access_batch`: hit in
#: L1, hit in L2, full miss (goes off-chip), and a page-granular reference
#: that bypasses L1/L2 (also off-chip).
L1_HIT, L2_HIT, MISS, BYPASS = 0, 1, 2, 3

#: Accesses :func:`filter_trace` walks per :meth:`CacheHierarchy.access_batch`
#: call: bounds the stage's scratch lists for long (file-backed) traces.
FILTER_WINDOW = 1 << 16


@dataclass
class CacheAccessResult:
    """Outcome of one cache hierarchy lookup."""

    hit_level: Optional[str]
    latency_ns: float
    writeback: bool = False

    @property
    def is_miss(self) -> bool:
        return self.hit_level is None


class CacheLevel:
    """One set-associative, write-back, LRU cache level."""

    def __init__(self, name: str, size_bytes: int, line_size: int,
                 latency_ns: float, associativity: int = 8) -> None:
        if size_bytes < line_size:
            raise ValueError("cache smaller than one line")
        if associativity <= 0:
            raise ValueError("associativity must be positive")
        self.name = name
        self.line_size = line_size
        self.latency_ns = latency_ns
        self.associativity = associativity
        self.num_sets = max(1, size_bytes // (line_size * associativity))
        self._sets: List["OrderedDict[int, bool]"] = [
            OrderedDict() for _ in range(self.num_sets)
        ]
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    def _locate(self, address: int) -> Tuple[int, int]:
        line = address // self.line_size
        return line % self.num_sets, line

    def lookup(self, address: int, is_write: bool) -> bool:
        """Probe the cache; returns ``True`` on a hit and updates LRU order."""
        set_index, tag = self._locate(address)
        ways = self._sets[set_index]
        if tag in ways:
            ways.move_to_end(tag)
            if is_write:
                ways[tag] = True
            self.hits += 1
            return True
        self.misses += 1
        return False

    def fill(self, address: int, dirty: bool) -> Optional[bool]:
        """Install the line holding *address*.

        Returns the dirty flag of an evicted victim (``None`` when no
        eviction happened); the caller decides whether the writeback costs
        anything.
        """
        set_index, tag = self._locate(address)
        ways = self._sets[set_index]
        victim_dirty: Optional[bool] = None
        if tag in ways:
            ways.move_to_end(tag)
            if dirty:
                ways[tag] = True
            return None
        if len(ways) >= self.associativity:
            _, victim_dirty = ways.popitem(last=False)
            if victim_dirty:
                self.writebacks += 1
        ways[tag] = dirty
        return victim_dirty

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class CacheHierarchy:
    """L1D + unified L2, both write-back / write-allocate."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.l1 = CacheLevel("L1D", config.l1_size_bytes, config.line_size,
                             config.l1_latency_ns, associativity=8)
        self.l2 = CacheLevel("L2", config.l2_size_bytes, config.line_size,
                             config.l2_latency_ns, associativity=16)
        self.accesses = 0
        self.memory_accesses = 0
        # On-chip latency of each outcome code, indexed by the codes.
        full = self.l1.latency_ns + self.l2.latency_ns
        self.outcome_latency_ns = np.array(
            [self.l1.latency_ns, full, full, config.l2_latency_ns],
            dtype=np.float64)

    def access(self, address: int, is_write: bool) -> CacheAccessResult:
        """Look up one reference; on a full miss the caller goes to memory.

        The returned latency covers only the on-chip portion; memory latency
        is added by the platform that owns the hierarchy.
        """
        if address < 0:
            raise ValueError("negative address")
        self.accesses += 1
        if self.l1.lookup(address, is_write):
            return CacheAccessResult(hit_level="L1", latency_ns=self.l1.latency_ns)
        if self.l2.lookup(address, is_write):
            self.l1.fill(address, dirty=is_write)
            latency = self.l1.latency_ns + self.l2.latency_ns
            return CacheAccessResult(hit_level="L2", latency_ns=latency)
        # Full miss: allocate in both levels, report any dirty victim.
        self.memory_accesses += 1
        victim_dirty = self.l2.fill(address, dirty=is_write)
        self.l1.fill(address, dirty=is_write)
        latency = self.l1.latency_ns + self.l2.latency_ns
        return CacheAccessResult(hit_level=None, latency_ns=latency,
                                 writeback=bool(victim_dirty))

    def access_batch(self, addresses: np.ndarray, writes: np.ndarray,
                     sizes: np.ndarray) -> np.ndarray:
        """Filter a run of references through both levels in one walk.

        Performs exactly the lookup/fill sequence :meth:`access` performs per
        reference -- same LRU order, same dirty bits, same victims -- so the
        cache state and every counter after the batch are indistinguishable
        from the scalar walk; it just runs as one inlined loop over the two
        levels' set lists instead of method calls per reference.
        References wider than a line (per *sizes*) bypass the hierarchy
        per access, as :meth:`record_bypass` accounts them: they never
        touch cache state, so the fine-grained rows walk in order on their
        own.

        Returns one outcome code per reference (``uint8``): :data:`L1_HIT`,
        :data:`L2_HIT`, :data:`MISS` or :data:`BYPASS`; index
        :attr:`outcome_latency_ns` with it for the on-chip latencies.
        Addresses are assumed non-negative (the
        :class:`~repro.workloads.trace.AccessStream` validates this at
        construction).
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        writes = np.asarray(writes, dtype=bool)
        count = len(addresses)
        self.accesses += count
        l1, l2 = self.l1, self.l2
        fine_rows = None
        fine = np.asarray(sizes) <= l1.line_size
        if not fine.all():
            fine_rows = np.flatnonzero(fine)
            addresses = addresses[fine_rows]
            writes = writes[fine_rows]
        lines = addresses // l1.line_size
        l1_sets = l1._sets
        l2_sets, l2_set_count = l2._sets, l2.num_sets
        l1_ways, l2_ways = l1.associativity, l2.associativity
        outcome = bytearray(len(lines))  # zero-filled: L1_HIT
        l1_writebacks = l2_writebacks = 0
        index = -1
        for line, is_write, ways in zip(
                lines.tolist(), writes.tolist(),
                [l1_sets[s] for s in (lines % l1.num_sets).tolist()]):
            index += 1
            if line in ways:
                ways.move_to_end(line)
                if is_write:
                    ways[line] = True
                continue
            l2_set = l2_sets[line % l2_set_count]
            if line in l2_set:
                l2_set.move_to_end(line)
                if is_write:
                    l2_set[line] = True
                outcome[index] = L2_HIT
            else:
                if len(l2_set) >= l2_ways and l2_set.popitem(last=False)[1]:
                    l2_writebacks += 1
                l2_set[line] = is_write
                outcome[index] = MISS
            if len(ways) >= l1_ways and ways.popitem(last=False)[1]:
                l1_writebacks += 1
            ways[line] = is_write
        codes = np.frombuffer(outcome, dtype=np.uint8)
        l1_hits, l2_hits, misses = np.bincount(codes, minlength=3).tolist()
        l1.hits += l1_hits
        l1.misses += l2_hits + misses
        l1.writebacks += l1_writebacks
        l2.hits += l2_hits
        l2.misses += misses
        l2.writebacks += l2_writebacks
        self.memory_accesses += count - l1_hits - l2_hits
        if fine_rows is None:
            return codes
        scattered = np.full(count, BYPASS, dtype=np.uint8)
        scattered[fine_rows] = codes
        return scattered

    def record_bypass(self, count: int = 1) -> None:
        """Account *count* references that bypass L1/L2 entirely.

        Page-granular references (the mmap microbenchmark) stream through
        the hierarchy without reuse; the replay loop sends them straight
        off-chip and records them here so hit/miss statistics stay honest
        without the loop reaching into the counters by hand.
        """
        self.accesses += count
        self.memory_accesses += count

    @property
    def miss_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.memory_accesses / self.accesses

    def statistics(self) -> Dict[str, float]:
        return {
            "accesses": float(self.accesses),
            "memory_accesses": float(self.memory_accesses),
            "l1_hit_rate": self.l1.hit_rate,
            "l2_hit_rate": self.l2.hit_rate,
            "miss_rate": self.miss_rate,
        }


class CacheFilter:
    """The L1/L2 filter outcome of one whole trace under one CacheConfig.

    ``outcomes`` holds one :data:`L1_HIT` / :data:`L2_HIT` / :data:`MISS` /
    :data:`BYPASS` code per access; ``counters`` the final counters of the
    hierarchy that produced them.  :meth:`window` turns a slice of the codes
    into the replay loop's miss mask and on-chip latency column, and
    :meth:`install` hands the counters to a platform's own hierarchy, so its
    statistics read as if it had walked the trace itself.
    """

    __slots__ = ("outcomes", "latency_ns", "counters")

    def __init__(self, outcomes: np.ndarray,
                 hierarchy: CacheHierarchy) -> None:
        # Shared by every platform replaying the trace: never written again.
        outcomes.flags.writeable = False
        self.outcomes = outcomes
        self.latency_ns = hierarchy.outcome_latency_ns
        self.counters = (hierarchy.accesses, hierarchy.memory_accesses,
                         [(level.hits, level.misses, level.writebacks)
                          for level in (hierarchy.l1, hierarchy.l2)])

    def window(self, start: int, stop: int) -> Tuple[np.ndarray, np.ndarray]:
        """Full-miss mask and on-chip latency of accesses ``[start, stop)``."""
        codes = self.outcomes[start:stop]
        return codes >= MISS, self.latency_ns[codes]

    def install(self, hierarchy: CacheHierarchy) -> None:
        """Add the filter's counters to *hierarchy*'s."""
        accesses, memory_accesses, levels = self.counters
        hierarchy.accesses += accesses
        hierarchy.memory_accesses += memory_accesses
        for level, (hits, misses, writebacks) in zip(
                (hierarchy.l1, hierarchy.l2), levels):
            level.hits += hits
            level.misses += misses
            level.writebacks += writebacks


def filter_trace(trace: "WorkloadTrace",
                 config: CacheConfig) -> CacheFilter:
    """The memoised L1/L2 filter stage of *trace* under *config*.

    The first call walks the whole stream once through a fresh
    :class:`CacheHierarchy` -- fine-grained references through
    :meth:`CacheHierarchy.access_batch`, page-granular windows straight to
    :meth:`CacheHierarchy.record_bypass` -- and memoises the result on the
    trace, keyed by *config*; later calls (every other platform replaying
    the same trace object) return it without touching a cache.  The walk
    goes window by window, so a file-backed trace never materialises whole.
    """
    memo = trace.cache_filters
    result = memo.get(config)
    if result is None:
        hierarchy = CacheHierarchy(config)
        outcomes = np.empty(len(trace.stream), dtype=np.uint8)
        start = 0
        for window in trace.stream.chunks(FILTER_WINDOW):
            stop = start + len(window)
            if (window.sizes <= config.line_size).any():
                outcomes[start:stop] = hierarchy.access_batch(
                    window.addresses, window.writes, window.sizes)
            else:
                hierarchy.record_bypass(stop - start)
                outcomes[start:stop] = BYPASS
            start = stop
        result = memo[config] = CacheFilter(outcomes, hierarchy)
    return result
