"""Access-pattern generators.

Each generator produces a deterministic (seeded) stream of byte addresses
over a dataset of a given size.  Four patterns cover the suites:

* :class:`SequentialPattern` — a linear scan, the microbenchmark's
  seqRd/seqWr and SQLite's seqSel/seqIns behaviour,
* :class:`RandomPattern` — uniformly random positions, the rndRd/rndWr and
  rndSel/rndIns behaviour with deliberately poor locality,
* :class:`ZipfianPattern` — skewed accesses in which a small hot set absorbs
  most references; used for SQLite's update and the Rodinia kernels whose
  working set is partly resident,
* :class:`StridedPattern` — a fixed-stride walk used by the Rodinia kernels
  that stream over large arrays (NN, KMN distance phases).
"""

from __future__ import annotations

import abc
import mmap
from typing import Iterator, List, Optional

import numpy as np

from .trace import AccessStream

#: Default accesses per block for the chunk-wise emission path; matches
#: the trace store's chunk size so disk builds flush whole chunks.
DEFAULT_STREAM_CHUNK = 1 << 20
#: Slots per ``arange`` block when :func:`shuffled_slots` fills its map;
#: keeps each block's temporary small (128 KB of int32).
_FILL_CHUNK = 1 << 15


class AccessPatternGenerator(abc.ABC):
    """Produces a stream of byte addresses within ``[0, dataset_bytes)``."""

    def __init__(self, dataset_bytes: int, access_size: int, seed: int = 7) -> None:
        if dataset_bytes <= 0:
            raise ValueError("dataset size must be positive")
        if access_size <= 0 or access_size > dataset_bytes:
            raise ValueError("access size must be positive and fit the dataset")
        self.dataset_bytes = dataset_bytes
        self.access_size = access_size
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    @abc.abstractmethod
    def addresses(self, count: int) -> np.ndarray:
        """Return *count* starting addresses (aligned to the access size)."""

    def stream(self, count: int, write_fraction: float = 0.0,
               write_rng: Optional[np.random.Generator] = None
               ) -> AccessStream:
        """Build a columnar :class:`~repro.workloads.trace.AccessStream`.

        The addresses come from :meth:`addresses`; ``write_fraction`` of the
        accesses (drawn from *write_rng*, defaulting to a generator seeded
        with ``seed + 1000``) are stores.  This is the native construction
        path — no per-access record objects are ever created.
        """
        if not 0.0 <= write_fraction <= 1.0:
            raise ValueError("write_fraction must be in [0, 1]")
        addresses = self.addresses(count)
        if write_rng is None:
            write_rng = np.random.default_rng(self.seed + 1000)
        writes = write_rng.random(count) < write_fraction
        return AccessStream.from_arrays(addresses, self.access_size, writes)

    def iter_addresses(self, count: int,
                       chunk_accesses: int) -> Iterator[np.ndarray]:
        """Yield :meth:`addresses`\\ (count) in order, in bounded blocks.

        Contract: concatenating the blocks is bit-equal to a fresh
        generator's one-shot ``addresses(count)`` for *every* block size —
        subclasses consume ``self.rng`` in exactly the one-shot draw
        order, so disk builds that stream through here produce the same
        trace the in-memory path does.  The base implementation is the
        conservative fallback (one block) for exotic subclasses; every
        registry pattern overrides it with a genuinely streaming walk.
        """
        yield self.addresses(count)

    def stream_chunks(self, count: int, write_fraction: float = 0.0,
                      write_rng: Optional[np.random.Generator] = None,
                      chunk_accesses: int = DEFAULT_STREAM_CHUNK
                      ) -> Iterator[AccessStream]:
        """Yield :meth:`stream` as bounded chunks, bit-identically.

        Concatenating the yielded chunks equals ``stream(count,
        write_fraction)`` from a fresh generator: both the address draws
        (:meth:`iter_addresses`) and the write mask consume their RNGs
        value-by-value, so splitting the draws never changes them.  This
        is what lets :func:`repro.trace.writer.build_trace_file`
        materialise any workload to disk without holding the trace.
        """
        if not 0.0 <= write_fraction <= 1.0:
            raise ValueError("write_fraction must be in [0, 1]")
        if chunk_accesses <= 0:
            raise ValueError("chunk_accesses must be positive")
        if write_rng is None:
            write_rng = np.random.default_rng(self.seed + 1000)
        for block in self.iter_addresses(count, chunk_accesses):
            writes = write_rng.random(len(block)) < write_fraction
            yield AccessStream.from_arrays(block, self.access_size, writes)

    @property
    def slots(self) -> int:
        """Number of non-overlapping access slots in the dataset."""
        return max(1, self.dataset_bytes // self.access_size)

    def _slots_to_addresses(self, slots: np.ndarray) -> np.ndarray:
        return slots.astype(np.int64) * self.access_size


class SequentialPattern(AccessPatternGenerator):
    """A wrap-around linear scan of the dataset."""

    def __init__(self, dataset_bytes: int, access_size: int, seed: int = 7,
                 start_slot: int = 0) -> None:
        super().__init__(dataset_bytes, access_size, seed)
        self.start_slot = start_slot % self.slots

    def addresses(self, count: int) -> np.ndarray:
        slots = (np.arange(count, dtype=np.int64) + self.start_slot) % self.slots
        return self._slots_to_addresses(slots)

    def iter_addresses(self, count: int,
                       chunk_accesses: int) -> Iterator[np.ndarray]:
        for start in range(0, count, chunk_accesses):
            stop = min(start + chunk_accesses, count)
            slots = (np.arange(start, stop, dtype=np.int64)
                     + self.start_slot) % self.slots
            yield self._slots_to_addresses(slots)


class RandomPattern(AccessPatternGenerator):
    """Uniformly random accesses across the whole dataset."""

    def addresses(self, count: int) -> np.ndarray:
        slots = self.rng.integers(0, self.slots, size=count, dtype=np.int64)
        return self._slots_to_addresses(slots)

    def iter_addresses(self, count: int,
                       chunk_accesses: int) -> Iterator[np.ndarray]:
        # PCG64 fills element-wise, so chunked integer draws concatenate
        # bit-equal to the one-shot draw.
        for start in range(0, count, chunk_accesses):
            size = min(chunk_accesses, count - start)
            slots = self.rng.integers(0, self.slots, size=size,
                                      dtype=np.int64)
            yield self._slots_to_addresses(slots)


class ZipfianPattern(AccessPatternGenerator):
    """Zipf-distributed accesses: a hot head plus a long cold tail.

    ``theta`` controls the skew (1.0 is the classic YCSB-style hotspot); the
    hottest slots are shuffled across the dataset so the hot set is not
    physically contiguous.
    """

    def __init__(self, dataset_bytes: int, access_size: int, seed: int = 7,
                 theta: float = 1.1, run_length: int = 1) -> None:
        super().__init__(dataset_bytes, access_size, seed)
        if theta <= 1.0:
            raise ValueError("numpy's zipf sampler requires theta > 1")
        if run_length <= 0:
            raise ValueError("run_length must be positive")
        self.theta = theta
        self.run_length = run_length
        # A fixed permutation decouples "rank" from physical position.
        self._permutation: Optional[np.ndarray] = None

    def _rank_to_slot(self, ranks: np.ndarray) -> np.ndarray:
        if self._permutation is None:
            self._permutation = shuffled_slots(self.slots, self.seed + 1)
        return self._permutation[ranks % self.slots]

    def addresses(self, count: int) -> np.ndarray:
        starts = -(-count // self.run_length)  # ceil division
        ranks = self.rng.zipf(self.theta, size=starts) - 1
        slots = self._rank_to_slot(ranks.astype(np.int64))
        slots = expand_runs(slots, self.run_length, self.slots)[:count]
        return self._slots_to_addresses(slots)

    def iter_addresses(self, count: int,
                       chunk_accesses: int) -> Iterator[np.ndarray]:
        # The zipf sampler rejects per value, so chunked draws consume the
        # bitstream exactly like the one-shot draw; run expansion and the
        # final truncation are per-start, so they split cleanly too.
        starts_total = -(-count // self.run_length)
        starts_per_block = max(1, chunk_accesses // self.run_length)
        drawn = 0
        emitted = 0
        while drawn < starts_total:
            block = min(starts_per_block, starts_total - drawn)
            ranks = self.rng.zipf(self.theta, size=block) - 1
            slots = self._rank_to_slot(ranks.astype(np.int64))
            expanded = expand_runs(slots, self.run_length, self.slots)
            take = min(len(expanded), count - emitted)
            yield self._slots_to_addresses(expanded[:take])
            drawn += block
            emitted += take


class HotspotPattern(AccessPatternGenerator):
    """Hot-set accesses: most references land in a small hot region.

    ``hot_fraction`` of the dataset receives ``hot_probability`` of the
    accesses; the remainder is uniform over the whole dataset.  This is the
    locality profile of the "random" database and microbenchmark workloads:
    random at the request level, but concentrated on indexes, internal
    B-tree nodes and recently used heap pages, which is what lets an 8 GB
    NVDIMM reach the ~94 % MoS hit rate the paper reports.
    """

    def __init__(self, dataset_bytes: int, access_size: int, seed: int = 7,
                 hot_fraction: float = 0.25, hot_probability: float = 0.85,
                 run_length: int = 1) -> None:
        super().__init__(dataset_bytes, access_size, seed)
        if not 0.0 < hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in (0, 1]")
        if not 0.0 <= hot_probability <= 1.0:
            raise ValueError("hot_probability must be in [0, 1]")
        if run_length <= 0:
            raise ValueError("run_length must be positive")
        self.hot_fraction = hot_fraction
        self.hot_probability = hot_probability
        self.run_length = run_length

    def addresses(self, count: int) -> np.ndarray:
        hot_slots = max(1, int(self.slots * self.hot_fraction))
        starts = -(-count // self.run_length)  # ceil division
        is_hot = self.rng.random(starts) < self.hot_probability
        hot = self.rng.integers(0, hot_slots, size=starts, dtype=np.int64)
        cold = self.rng.integers(0, self.slots, size=starts, dtype=np.int64)
        chosen = np.where(is_hot, hot, cold)
        slots = expand_runs(chosen, self.run_length, self.slots)[:count]
        return self._slots_to_addresses(slots)

    def iter_addresses(self, count: int,
                       chunk_accesses: int) -> Iterator[np.ndarray]:
        # The one-shot draw order is grouped — ALL hot/cold coin flips,
        # then ALL hot positions, then ALL cold positions — so matching it
        # bit-for-bit requires materialising the start-space columns up
        # front: O(count / run_length) int64s, not the expanded stream.
        # Only the run expansion streams.
        hot_slots = max(1, int(self.slots * self.hot_fraction))
        starts = -(-count // self.run_length)  # ceil division
        is_hot = self.rng.random(starts) < self.hot_probability
        hot = self.rng.integers(0, hot_slots, size=starts, dtype=np.int64)
        cold = self.rng.integers(0, self.slots, size=starts, dtype=np.int64)
        chosen = np.where(is_hot, hot, cold)
        starts_per_block = max(1, chunk_accesses // self.run_length)
        emitted = 0
        for index in range(0, starts, starts_per_block):
            expanded = expand_runs(chosen[index:index + starts_per_block],
                                   self.run_length, self.slots)
            take = min(len(expanded), count - emitted)
            yield self._slots_to_addresses(expanded[:take])
            emitted += take


class StridedPattern(AccessPatternGenerator):
    """A constant-stride walk (in units of access slots), wrapping around."""

    def __init__(self, dataset_bytes: int, access_size: int, seed: int = 7,
                 stride_slots: int = 16) -> None:
        super().__init__(dataset_bytes, access_size, seed)
        if stride_slots <= 0:
            raise ValueError("stride must be positive")
        self.stride_slots = stride_slots

    def addresses(self, count: int) -> np.ndarray:
        slots = (np.arange(count, dtype=np.int64) * self.stride_slots) % self.slots
        return self._slots_to_addresses(slots)

    def iter_addresses(self, count: int,
                       chunk_accesses: int) -> Iterator[np.ndarray]:
        for start in range(0, count, chunk_accesses):
            stop = min(start + chunk_accesses, count)
            slots = (np.arange(start, stop, dtype=np.int64)
                     * self.stride_slots) % self.slots
            yield self._slots_to_addresses(slots)


def shuffled_slots(slots: int, seed: int) -> np.ndarray:
    """``np.random.default_rng(seed).permutation(slots)``, value for value,
    as int32 (int64 past its range) in an anonymous memory map.

    A shuffle's swaps depend only on the length and the RNG, so shuffling
    a narrower ``arange`` gives the same values at half the memory.  The
    array is a scratch of up to tens of MB that lives for one trace build;
    mapped outside the malloc heap, its pages go back to the system when
    it is freed, where a heap block of that size leaves a hole that later
    small allocations can pin, so the next build grows the heap again.
    """
    dtype = np.dtype(np.int32 if slots <= np.iinfo(np.int32).max
                     else np.int64)
    permutation = np.frombuffer(mmap.mmap(-1, slots * dtype.itemsize),
                                dtype=dtype)
    for start in range(0, slots, _FILL_CHUNK):
        stop = min(start + _FILL_CHUNK, slots)
        permutation[start:stop] = np.arange(start, stop, dtype=dtype)
    np.random.default_rng(seed).shuffle(permutation)
    return permutation


def expand_runs(start_slots: np.ndarray, run_length: int,
                total_slots: int) -> np.ndarray:
    """Expand each start slot into a short sequential run of slots.

    A run models the spatial locality of scanning a database page or an
    adjacency list: after jumping to a location, the next ``run_length - 1``
    references touch the following slots.  Runs wrap around the dataset.
    """
    if run_length <= 1:
        return start_slots
    offsets = np.arange(run_length, dtype=np.int64)
    expanded = (start_slots[:, None] + offsets[None, :]) % total_slots
    return expanded.reshape(-1)


def interleave(generators: List[AccessPatternGenerator], count: int,
               weights: Optional[List[float]] = None,
               seed: int = 11) -> np.ndarray:
    """Mix several patterns into one stream according to *weights*.

    Used to build composite behaviours such as "mostly zipfian point lookups
    with an occasional sequential range scan" for the SQLite workloads.
    """
    if not generators:
        raise ValueError("need at least one generator")
    if weights is None:
        weights = [1.0 / len(generators)] * len(generators)
    if len(weights) != len(generators):
        raise ValueError("weights must match generators")
    total = sum(weights)
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    normalised = [weight / total for weight in weights]
    rng = np.random.default_rng(seed)
    choices = rng.choice(len(generators), size=count, p=normalised)
    streams = [generator.addresses(count) for generator in generators]
    out = np.empty(count, dtype=np.int64)
    for index, stream in enumerate(streams):
        mask = choices == index
        out[mask] = stream[mask]
    return out
