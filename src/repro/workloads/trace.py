"""Trace records: the unit of work platforms consume.

A :class:`WorkloadTrace` is an access stream plus the bookkeeping needed to
convert simulated time into the paper's application-level metrics (pages/s
for the microbenchmark and Rodinia, SQL operations/s for SQLite) and to
charge the compute instructions that execute between memory references.

The access stream itself is columnar: :class:`AccessStream` keeps one
structure-of-arrays record (int64 addresses, int64 sizes, bool write flags)
instead of one frozen :class:`MemoryAccess` dataclass per reference.  At the
scales the experiments replay this is the difference between a few dozen
bytes per access (three Python objects once boxed) and ~17 bytes per access,
and it is what lets the batched replay loop and the vectorized platforms
(:meth:`repro.platforms.base.Platform.service_batch`) work on whole chunks
at a time.  :class:`MemoryAccess` remains the scalar *view*: indexing or
iterating a stream (or a trace) yields `MemoryAccess` records, so per-access
consumers keep working unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Union

import numpy as np


@dataclass(frozen=True)
class MemoryAccess:
    """One memory reference issued by the workload (scalar view)."""

    address: int
    size_bytes: int
    is_write: bool

    def __post_init__(self) -> None:
        if self.address < 0:
            raise ValueError("address must be non-negative")
        if self.size_bytes <= 0:
            raise ValueError("size must be positive")


class AccessStream:
    """A columnar (structure-of-arrays) sequence of memory references.

    The three columns always have equal length: ``addresses`` (int64 byte
    addresses), ``sizes`` (int64 access sizes) and ``writes`` (bool store
    flags).  Slicing returns a zero-copy view onto the same arrays, which is
    how :meth:`chunks` hands the replay loop cheap windows over a long
    trace; indexing and iteration materialise scalar :class:`MemoryAccess`
    records for backwards compatibility.
    """

    __slots__ = ("addresses", "sizes", "writes")

    def __init__(self, addresses: np.ndarray, sizes: np.ndarray,
                 writes: np.ndarray) -> None:
        self.addresses = addresses
        self.sizes = sizes
        self.writes = writes

    # -- construction ------------------------------------------------------------

    @classmethod
    def from_arrays(cls, addresses, sizes, writes,
                    validate: bool = True) -> "AccessStream":
        """Build a stream from array-likes; *sizes* may be a scalar.

        The inputs are converted (not copied when already of the right
        dtype) to int64 / int64 / bool columns.  ``validate`` checks the
        same invariants :class:`MemoryAccess` enforces per record.
        """
        addresses = np.ascontiguousarray(addresses, dtype=np.int64)
        writes = np.ascontiguousarray(writes, dtype=bool)
        if np.isscalar(sizes) or getattr(sizes, "ndim", 1) == 0:
            sizes = np.full(addresses.shape, int(sizes), dtype=np.int64)
        else:
            sizes = np.ascontiguousarray(sizes, dtype=np.int64)
        if not (addresses.shape == sizes.shape == writes.shape) \
                or addresses.ndim != 1:
            raise ValueError("columns must be one-dimensional and equal-length")
        if validate and len(addresses):
            if int(addresses.min()) < 0:
                raise ValueError("address must be non-negative")
            if int(sizes.min()) <= 0:
                raise ValueError("size must be positive")
        return cls(addresses, sizes, writes)

    @classmethod
    def from_accesses(cls, accesses: Iterable[MemoryAccess]) -> "AccessStream":
        """Build a stream from scalar :class:`MemoryAccess` records."""
        accesses = list(accesses)
        addresses = np.fromiter((access.address for access in accesses),
                                dtype=np.int64, count=len(accesses))
        sizes = np.fromiter((access.size_bytes for access in accesses),
                            dtype=np.int64, count=len(accesses))
        writes = np.fromiter((access.is_write for access in accesses),
                             dtype=bool, count=len(accesses))
        return cls.from_arrays(addresses, sizes, writes)

    @classmethod
    def coerce(cls, accesses: Union["AccessStream", Sequence[MemoryAccess]]
               ) -> "AccessStream":
        """Accept either representation; lists are converted once."""
        if isinstance(accesses, AccessStream):
            return accesses
        return cls.from_accesses(accesses)

    # -- sequence protocol ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.addresses)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return AccessStream(self.addresses[index], self.sizes[index],
                                self.writes[index])
        return MemoryAccess(address=int(self.addresses[index]),
                            size_bytes=int(self.sizes[index]),
                            is_write=bool(self.writes[index]))

    def __iter__(self) -> Iterator[MemoryAccess]:
        for address, size, write in zip(self.addresses.tolist(),
                                        self.sizes.tolist(),
                                        self.writes.tolist()):
            yield MemoryAccess(address=address, size_bytes=size,
                               is_write=write)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AccessStream):
            return NotImplemented
        return (np.array_equal(self.addresses, other.addresses)
                and np.array_equal(self.sizes, other.sizes)
                and np.array_equal(self.writes, other.writes))

    def __repr__(self) -> str:
        return f"AccessStream(length={len(self)}, nbytes={self.nbytes})"

    # -- columnar accessors ----------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Memory footprint of the three columns."""
        return (self.addresses.nbytes + self.sizes.nbytes
                + self.writes.nbytes)

    @property
    def read_count(self) -> int:
        return len(self) - self.write_count

    @property
    def write_count(self) -> int:
        return int(np.count_nonzero(self.writes))

    def touched_bytes(self) -> int:
        """Upper bound of the address range the stream touches."""
        if not len(self):
            return 0
        return int((self.addresses + self.sizes).max())

    def chunks(self, chunk_size: int) -> Iterator["AccessStream"]:
        """Yield zero-copy windows of at most *chunk_size* accesses."""
        if chunk_size <= 0:
            raise ValueError("chunk size must be positive")
        for start in range(0, len(self), chunk_size):
            yield self[start:start + chunk_size]

    def to_accesses(self) -> List[MemoryAccess]:
        """Materialise the stream as scalar records (tests, debugging)."""
        return list(self)


class WorkloadTrace:
    """A generated trace ready to be replayed on a platform.

    ``accesses`` accepts either an :class:`AccessStream` or a sequence of
    :class:`MemoryAccess` records (converted once); it is stored — and
    exposed through both ``trace.stream`` and the legacy ``trace.accesses``
    name — as the columnar stream.

    ``cache_filters`` memoises the trace's L1/L2 filter outcome per
    :class:`~repro.config.CacheConfig` (:func:`repro.host.caches
    .filter_trace`); it lives exactly as long as the trace, so a runner's
    or pool worker's trace memo filters each trace once for all platforms.
    """

    __slots__ = ("name", "suite", "stream", "dataset_bytes",
                 "compute_instructions_per_access", "accesses_per_operation",
                 "operation_unit", "total_instructions", "cache_filters")

    def __init__(self, name: str, suite: str,
                 accesses: Union[AccessStream, Sequence[MemoryAccess]],
                 dataset_bytes: int,
                 compute_instructions_per_access: float,
                 accesses_per_operation: float,
                 operation_unit: str,
                 total_instructions: int) -> None:
        if dataset_bytes <= 0:
            raise ValueError("dataset size must be positive")
        if compute_instructions_per_access < 0:
            raise ValueError("compute instructions cannot be negative")
        if accesses_per_operation <= 0:
            raise ValueError("accesses_per_operation must be positive")
        self.name = name
        self.suite = suite
        self.stream = AccessStream.coerce(accesses)
        self.dataset_bytes = dataset_bytes
        self.compute_instructions_per_access = compute_instructions_per_access
        self.accesses_per_operation = accesses_per_operation
        self.operation_unit = operation_unit
        self.total_instructions = total_instructions
        self.cache_filters: dict = {}

    @property
    def accesses(self) -> AccessStream:
        """Legacy name for the stream (iterates as MemoryAccess records)."""
        return self.stream

    def __len__(self) -> int:
        return len(self.stream)

    def __iter__(self) -> Iterator[MemoryAccess]:
        return iter(self.stream)

    def __repr__(self) -> str:
        return (f"WorkloadTrace(name={self.name!r}, suite={self.suite!r}, "
                f"accesses={len(self)}, dataset_bytes={self.dataset_bytes})")

    @property
    def memory_access_count(self) -> int:
        return len(self.stream)

    @property
    def operations(self) -> float:
        """Application-level operations represented by the trace."""
        return self.memory_access_count / self.accesses_per_operation

    @property
    def read_count(self) -> int:
        return self.stream.read_count

    @property
    def write_count(self) -> int:
        return self.stream.write_count

    @property
    def write_fraction(self) -> float:
        if not len(self):
            return 0.0
        return self.write_count / len(self)

    def touched_bytes(self) -> int:
        """Upper bound of the address range the trace touches."""
        return self.stream.touched_bytes()

    def operations_per_second(self, elapsed_ns: float) -> float:
        """Convert a run duration into the paper's throughput metric."""
        if elapsed_ns <= 0:
            return 0.0
        return self.operations / (elapsed_ns / 1e9)
