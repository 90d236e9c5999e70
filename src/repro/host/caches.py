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

Each :class:`CacheLevel` keeps its ways in numpy columns that only this
module touches, and :meth:`CacheLevel.walk` serves a whole run of lines in
set-parallel rounds against the scalar lookup/fill reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from ..config import CacheConfig

if TYPE_CHECKING:
    from ..workloads.trace import WorkloadTrace

#: Per-access outcome codes of :meth:`CacheHierarchy.access_batch`: hit in
#: L1, hit in L2, full miss (goes off-chip), and a page-granular reference
#: that bypasses L1/L2 (also off-chip).
L1_HIT, L2_HIT, MISS, BYPASS = 0, 1, 2, 3

#: Accesses :func:`filter_trace` walks per :meth:`CacheHierarchy.access_batch`
#: call: bounds the stage's scratch arrays for long (file-backed) traces.
FILTER_WINDOW = 1 << 16

#: Stamp :meth:`CacheLevel.walk` gives a set's matching way when choosing
#: one: below every real stamp and the empty ways' ``-1``.
_MATCHED = -(1 << 62)


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
    """One set-associative, write-back, LRU cache level.

    The state is three flat columns of ``num_sets * associativity`` slots,
    set ``s`` owning slots ``[s * associativity, (s + 1) * associativity)``:
    :attr:`tags` (int64 line number, ``-1`` for an empty way),
    :attr:`stamps` (int64 clock of the last touch, ``-1`` for an empty
    way) and :attr:`dirty` (bool).  A set's LRU order is its stamp order.
    The scalar :meth:`lookup` / :meth:`fill` pair and the batched
    :meth:`walk` both read and write these columns and advance the one
    :attr:`clock`, so the two can be interleaved freely.
    """

    def __init__(self, name: str, size_bytes: int, line_size: int,
                 latency_ns: float, associativity: int = 8) -> None:
        if associativity <= 0:
            raise ValueError("associativity must be positive")
        self.name = name
        self.line_size = line_size
        self.latency_ns = latency_ns
        self.associativity = associativity
        self.num_sets = max(1, size_bytes // (line_size * associativity))
        slots = self.num_sets * associativity
        self.tags = np.full(slots, -1, dtype=np.int64)
        self.stamps = np.full(slots, -1, dtype=np.int64)
        self.dirty = np.zeros(slots, dtype=bool)
        self.clock = 0
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    def _probe(self, address: int) -> Tuple[int, int, int]:
        """Line of *address*, its set's first slot, and the way holding
        the line (``-1`` when absent)."""
        line = address // self.line_size
        base = line % self.num_sets * self.associativity
        ways = self.tags[base:base + self.associativity].tolist()
        return line, base, ways.index(line) if line in ways else -1

    def _touch(self, slot: int) -> None:
        self.clock += 1
        self.stamps[slot] = self.clock

    def lookup(self, address: int, is_write: bool) -> bool:
        """Probe the cache; returns ``True`` on a hit and updates LRU order."""
        _, base, way = self._probe(address)
        if way < 0:
            self.misses += 1
            return False
        self._touch(base + way)
        if is_write:
            self.dirty[base + way] = True
        self.hits += 1
        return True

    def fill(self, address: int, dirty: bool) -> Optional[bool]:
        """Install the line holding *address*.

        Returns the dirty flag of an evicted victim (``None`` when no
        eviction happened); the caller decides whether the writeback costs
        anything.
        """
        line, base, way = self._probe(address)
        victim_dirty: Optional[bool] = None
        if way >= 0:
            slot = base + way
            dirty = dirty or bool(self.dirty[slot])
        else:
            # An empty way's stamp (-1) is below every touched way's.
            slot = base + int(
                self.stamps[base:base + self.associativity].argmin())
            if self.tags[slot] >= 0:
                victim_dirty = bool(self.dirty[slot])
                if victim_dirty:
                    self.writebacks += 1
            self.tags[slot] = line
        self.dirty[slot] = dirty
        self._touch(slot)
        return victim_dirty

    def walk(self, lines: np.ndarray, writes: np.ndarray) -> np.ndarray:
        """Look up and allocate a run of line numbers; returns the hit mask.

        Each reference does what :meth:`lookup` and, on a miss,
        :meth:`fill` do for it -- same hit, same victim, same dirty bits,
        same LRU order -- but sets never interact, so the run goes one
        *round* at a time: round ``k`` is the ``k``-th reference of every
        set, and one numpy step serves the whole round.  The chosen way is
        the ``argmin`` of the set's stamps with the matching way forced
        lowest: the hit way, else an empty way, else the LRU way.
        Reference ``i`` stamps ``clock + i + 1``, so within a set the
        stamps keep the run's order.
        """
        count = len(lines)
        ways = self.associativity
        sets = lines % self.num_sets
        # Keys in their narrowest dtype let the stable sorts run as radix
        # sorts.
        order = np.argsort(sets.astype(np.min_scalar_type(self.num_sets)),
                           kind="stable")
        per_set = np.bincount(sets, minlength=self.num_sets)
        rank = np.arange(count) - (np.cumsum(per_set) - per_set)[sets[order]]
        order = order[np.argsort(rank.astype(np.min_scalar_type(count)),
                                 kind="stable")]
        bounds = np.cumsum(np.bincount(rank)).tolist()
        round_lines = lines[order]
        round_sets = sets[order]
        round_bases = round_sets * ways
        round_writes = writes[order]
        round_stamps = order + (self.clock + 1)
        tags, stamps, dirty = self.tags, self.stamps, self.dirty
        tag_rows = tags.reshape(self.num_sets, ways)
        stamp_rows = stamps.reshape(self.num_sets, ways)
        hits = np.empty(count, dtype=bool)
        evicted_dirty = np.empty(count, dtype=bool)
        start = 0
        for stop in bounds:
            members = slice(start, stop)
            line = round_lines[members]
            rows = round_sets[members]
            match = tag_rows[rows] == line[:, None]
            slot = round_bases[members] + np.where(
                match, _MATCHED, stamp_rows[rows]).argmin(axis=1)
            hit = hits[members] = tags[slot] == line
            was_dirty = dirty[slot]
            evicted_dirty[members] = was_dirty > hit
            tags[slot] = line
            stamps[slot] = round_stamps[members]
            dirty[slot] = round_writes[members] | (hit & was_dirty)
            start = stop
        self.clock += count
        mask = np.empty(count, dtype=bool)
        mask[order] = hits
        hit_count = int(np.count_nonzero(hits))
        self.hits += hit_count
        self.misses += count - hit_count
        self.writebacks += int(np.count_nonzero(evicted_dirty))
        return mask

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
        """Filter a run of references through both levels.

        Leaves exactly the state the per-reference :meth:`access` sequence
        leaves -- same LRU order, same dirty bits, same victims, same
        counters -- as two :meth:`CacheLevel.walk` calls: L1's state never
        depends on L2, so L1 walks the whole run, then L2 walks the L1
        misses in order.
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
        fine_rows = None
        fine = np.asarray(sizes) <= self.l1.line_size
        if not fine.all():
            fine_rows = np.flatnonzero(fine)
            addresses = addresses[fine_rows]
            writes = writes[fine_rows]
        lines = addresses // self.l1.line_size
        l1_hits = self.l1.walk(lines, writes)
        codes = np.where(l1_hits, np.uint8(L1_HIT), np.uint8(MISS))
        missed = np.flatnonzero(~l1_hits)
        l2_hits = self.l2.walk(lines[missed], writes[missed])
        codes[missed[l2_hits]] = L2_HIT
        on_chip = len(lines) - len(missed) + int(np.count_nonzero(l2_hits))
        self.memory_accesses += count - on_chip
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
