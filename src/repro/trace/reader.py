"""Zero-copy replay of ``repro.trace/1`` files.

:class:`TraceReader` memory-maps a trace file and serves column windows.
For uncompressed files every window that falls inside one chunk record is a
``np.frombuffer`` view straight onto the map — no copy, no decode — which
is exactly the common replay shape: the batched replay loop walks windows
of ``replay_chunk_size`` (thousands) accesses through file chunks of
:data:`~repro.trace.format.DEFAULT_CHUNK_ACCESSES` (a million), so almost
every window it sees is a zero-copy slice.  Zlib files decode one chunk at
a time behind a single-entry cache, so sequential replay pays one inflate
per chunk and RSS stays bounded by one chunk of column data regardless of
trace length.

:class:`FileAccessStream` adapts a reader window to the
:class:`~repro.workloads.trace.AccessStream` interface.  The batched
replay contract only ever calls ``chunks()``/``len()`` — both stream from
the file — so replaying a 100M-access trace never materialises it.  The
full-column accessors (``addresses``/``sizes``/``writes``) exist for the
scalar reference replay and materialise the window on first touch;
that is deliberate and documented, not an accident to optimise away.
"""

from __future__ import annotations

import bisect
import hashlib
import mmap
import zlib
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

import numpy as np

from ..workloads.trace import AccessStream, WorkloadTrace
from .format import (
    ACCESS_BYTES,
    TraceFormatError,
    content_hash_of,
    trace_summary,
)

_I8 = np.dtype("<i8")


def _empty_stream() -> AccessStream:
    return AccessStream(np.empty(0, dtype=np.int64),
                        np.empty(0, dtype=np.int64),
                        np.empty(0, dtype=bool))


class TraceReader:
    """Random-access window server over one ``repro.trace/1`` file.

    Opening validates header, footer and chunk index (rejecting truncated
    or torn files) but reads no column data.  ``verify_chunks=True`` makes
    every uncompressed chunk CRC-checked on first access; zlib chunks are
    always CRC-checked when decoded (the check is cheap next to the
    inflate).  :meth:`verify` does a full pass: every CRC plus the
    chunking-invariant content hash against the footer.
    """

    def __init__(self, path: Union[str, Path], *,
                 verify_chunks: bool = False) -> None:
        self.path = Path(path)
        self.footer: Dict[str, Any] = trace_summary(self.path)
        self.length: int = self.footer["length"]
        self.compression: str = self.footer["compression"]
        self.chunk_accesses: int = self.footer["chunk_accesses"]
        self.verify_chunks = verify_chunks
        # bounds[i] is the absolute access index where chunk i starts;
        # bounds[-1] == length.  Window lookup is a bisect over this.
        bounds: List[int] = [0]
        for _offset, accesses, _stored, _crc in self.footer["chunks"]:
            bounds.append(bounds[-1] + accesses)
        self._bounds = bounds
        self._handle = open(self.path, "rb")
        self._mmap = (mmap.mmap(self._handle.fileno(), 0,
                                access=mmap.ACCESS_READ)
                      if self.footer["data_end"] else None)
        self._cached_index: Optional[int] = None
        self._cached_stream: Optional[AccessStream] = None

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        self._cached_index = None
        self._cached_stream = None
        if self._mmap is not None:
            try:
                self._mmap.close()
            except BufferError:
                # Zero-copy views onto the map are still alive; the map
                # stays open until they are collected.
                pass
            else:
                self._mmap = None
        self._handle.close()

    def __enter__(self) -> "TraceReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass

    # -- chunk access ------------------------------------------------------------

    def _chunk_payload(self, index: int) -> memoryview:
        """The uncompressed column payload of chunk *index* (no copy for
        uncompressed files, one inflate for zlib)."""
        offset, accesses, stored, crc = self.footer["chunks"][index]
        if self.compression == "zlib":
            try:
                payload = memoryview(
                    zlib.decompress(self._mmap[offset:offset + stored]))
            except zlib.error as error:
                raise TraceFormatError(
                    f"{self.path}: chunk {index} failed to decompress "
                    f"({error})") from error
            if len(payload) != accesses * ACCESS_BYTES:
                raise TraceFormatError(
                    f"{self.path}: chunk {index} decompressed to "
                    f"{len(payload)} bytes, expected "
                    f"{accesses * ACCESS_BYTES}")
            if zlib.crc32(payload) != crc:
                raise TraceFormatError(
                    f"{self.path}: chunk {index} checksum mismatch")
            return payload
        payload = memoryview(self._mmap)[offset:offset + stored]
        if self.verify_chunks and zlib.crc32(payload) != crc:
            raise TraceFormatError(
                f"{self.path}: chunk {index} checksum mismatch")
        return payload

    def chunk_stream(self, index: int) -> AccessStream:
        """Chunk *index* as an AccessStream (zero-copy when uncompressed).

        A single-entry cache holds the last chunk served: sequential
        replay decodes (or re-views) each chunk exactly once, and RSS for
        compressed files is bounded by one chunk of column data.
        """
        if index == self._cached_index:
            return self._cached_stream
        _offset, accesses, _stored, _crc = self.footer["chunks"][index]
        payload = self._chunk_payload(index)
        addresses = np.frombuffer(payload, dtype=_I8, count=accesses)
        sizes = np.frombuffer(payload, dtype=_I8, count=accesses,
                              offset=8 * accesses)
        writes = np.frombuffer(payload, dtype=np.uint8, count=accesses,
                               offset=16 * accesses).view(bool)
        stream = AccessStream(addresses, sizes, writes)
        self._cached_index = index
        self._cached_stream = stream
        return stream

    def window(self, start: int, stop: int) -> AccessStream:
        """Accesses ``[start, stop)`` as a plain in-memory AccessStream.

        Zero-copy when the window falls inside one chunk record of an
        uncompressed file; otherwise the boundary pieces are concatenated
        (a copy bounded by the window size, never the trace size).
        """
        start = max(0, start)
        stop = min(stop, self.length)
        if stop <= start:
            return _empty_stream()
        first = bisect.bisect_right(self._bounds, start) - 1
        last = bisect.bisect_right(self._bounds, stop - 1) - 1
        if first == last:
            local = start - self._bounds[first]
            chunk = self.chunk_stream(first)
            return chunk[local:local + (stop - start)]
        pieces = []
        for index in range(first, last + 1):
            low = max(start, self._bounds[index]) - self._bounds[index]
            high = min(stop, self._bounds[index + 1]) - self._bounds[index]
            chunk = self.chunk_stream(index)
            pieces.append((chunk.addresses[low:high],
                           chunk.sizes[low:high],
                           chunk.writes[low:high]))
        return AccessStream(
            np.concatenate([piece[0] for piece in pieces]),
            np.concatenate([piece[1] for piece in pieces]),
            np.concatenate([piece[2] for piece in pieces]))

    def full_stream(self) -> "FileAccessStream":
        """The whole file as a lazy, chunk-streaming AccessStream."""
        return FileAccessStream(self)

    # -- integrity ---------------------------------------------------------------

    def verify(self) -> str:
        """Full integrity pass; returns the verified content hash.

        Checks every chunk CRC (uncompressed files included) and refolds
        the three column digests, comparing the result to the footer's
        ``content_hash``.  Raises :class:`TraceFormatError` on the first
        mismatch.
        """
        addr_sha = hashlib.sha256()
        size_sha = hashlib.sha256()
        write_sha = hashlib.sha256()
        for index, (_off, accesses, _stored, crc) in enumerate(
                self.footer["chunks"]):
            payload = self._chunk_payload(index)
            if zlib.crc32(payload) != crc:
                raise TraceFormatError(
                    f"{self.path}: chunk {index} checksum mismatch")
            addr_sha.update(payload[:8 * accesses])
            size_sha.update(payload[8 * accesses:16 * accesses])
            write_sha.update(payload[16 * accesses:17 * accesses])
        computed = content_hash_of(addr_sha, size_sha, write_sha)
        if computed != self.footer["content_hash"]:
            raise TraceFormatError(
                f"{self.path}: content hash mismatch (footer says "
                f"{self.footer['content_hash']}, data hashes to "
                f"{computed})")
        return computed


class FileAccessStream(AccessStream):
    """A whole trace file behind the AccessStream interface.

    ``chunks()``, ``len()``, contiguous slices, ``write_count`` and
    ``touched_bytes()`` stream from the file or read its footer: the
    replay path never materialises more than a window at a time.  The
    full-column accessors
    (``addresses`` etc.), and with them the indexing, iteration and
    equality inherited from :class:`AccessStream`, materialise the whole
    file once; only the scalar reference replay and tests use them.
    """

    __slots__ = ("_reader", "_columns_cache")

    def __init__(self, reader: TraceReader) -> None:
        # Deliberately does NOT call AccessStream.__init__: the base slots
        # stay unset and the properties below shadow them.
        self._reader = reader
        self._columns_cache: Optional[AccessStream] = None

    def _columns(self) -> AccessStream:
        cached = self._columns_cache
        if cached is None:
            cached = self._reader.window(0, self._reader.length)
            self._columns_cache = cached
        return cached

    @property
    def addresses(self) -> np.ndarray:  # materialises the file
        return self._columns().addresses

    @property
    def sizes(self) -> np.ndarray:  # materialises the file
        return self._columns().sizes

    @property
    def writes(self) -> np.ndarray:  # materialises the file
        return self._columns().writes

    def __len__(self) -> int:
        return self._reader.length

    def __getitem__(self, index):
        """A contiguous slice reads only its own window (scenario tenants)."""
        if isinstance(index, slice) and index.step in (None, 1):
            start, stop, _ = index.indices(len(self))
            return self._reader.window(start, stop)
        return super().__getitem__(index)

    @property
    def write_count(self) -> int:
        return self._reader.footer["write_count"]

    def touched_bytes(self) -> int:
        return int(self._reader.footer["max_end"])

    def chunks(self, chunk_size: int) -> Iterator[AccessStream]:
        """Stream plain in-memory windows of at most *chunk_size* accesses.

        Each yielded window is a zero-copy view onto the map whenever it
        falls inside one file chunk (always, when *chunk_size* divides the
        file's ``chunk_accesses``); windows straddling a chunk boundary
        copy only their own accesses.
        """
        if chunk_size <= 0:
            raise ValueError("chunk size must be positive")
        length = self._reader.length
        for start in range(0, length, chunk_size):
            yield self._reader.window(start, min(start + chunk_size, length))


def load_trace_file(path: Union[str, Path], *,
                    dataset_bytes_override: Optional[int] = None,
                    verify_chunks: bool = False) -> WorkloadTrace:
    """Open a trace file as a replay-ready, file-backed WorkloadTrace.

    The stream is a :class:`FileAccessStream` over the whole file, so the
    trace replays with bounded RSS; the WorkloadTrace metadata comes from
    the footer (with the usual ``dataset_bytes_override`` hook applied on
    top, mirroring :func:`~repro.workloads.registry.build_trace`).
    """
    reader = TraceReader(path, verify_chunks=verify_chunks)
    meta = reader.footer["meta"]
    dataset_bytes = (dataset_bytes_override
                     if dataset_bytes_override is not None
                     else meta["dataset_bytes"])
    return WorkloadTrace(
        name=meta["name"],
        suite=meta["suite"],
        accesses=reader.full_stream(),
        dataset_bytes=dataset_bytes,
        compute_instructions_per_access=meta[
            "compute_instructions_per_access"],
        accesses_per_operation=meta["accesses_per_operation"],
        operation_unit=meta["operation_unit"],
        total_instructions=meta["total_instructions"],
    )
