"""Streaming construction of ``repro.trace/1`` files.

:class:`TraceWriter` accepts column data in arbitrarily sized pieces —
generator chunks, importer parse blocks, whole in-memory streams — buffers
them to exact ``chunk_accesses`` boundaries, and writes one chunk record at
a time, so building a billion-access trace never holds more than one chunk
of column data plus the running footer index.  The file lands atomically:
everything is written to a same-directory temp name and ``os.replace``\\ d
over the target at :meth:`~TraceWriter.close`, so readers can never observe
a half-written trace and a crashed build leaves no valid file behind.

:func:`build_trace_file` is the generator front-end: it materialises any
registry workload to disk at any scale by streaming the pattern generator's
chunk-wise emission (:meth:`~repro.workloads.generators
.AccessPatternGenerator.stream_chunks`, bit-identical to the one-shot
in-memory build) straight into a writer, and records the generator
**provenance** — workload name, exact scale, dataset override — in the
footer so file-backed submissions of the workload share run-cache identity
with in-memory ones.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import os
import socket
import time
import zlib
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from ..workloads.trace import AccessStream
from .format import (
    ACCESS_BYTES,
    COMPRESSIONS,
    DEFAULT_CHUNK_ACCESSES,
    FLAG_ZLIB,
    MAGIC,
    TRACE_SCHEMA,
    content_hash_of,
    encode_footer,
    pad_to_alignment,
    trace_meta_defaults,
)

#: Disambiguates temp files within one process (mirrors atomic_write_text).
_TMP_COUNTER = itertools.count()

_PAD = bytes(8)


class TraceWriter:
    """Build one trace file chunk-at-a-time with bounded memory.

    Parameters
    ----------
    path:
        Final location of the trace file.  The writer writes a temp file
        next to it and renames on :meth:`close`.
    chunk_accesses:
        Accesses per chunk record.  Every chunk except the last holds
        exactly this many, so a reader's re-chunking windows slice
        zero-copy whenever they align.
    compression:
        ``None``/``"none"`` for raw (memory-mappable) column bytes, or
        ``"zlib"`` for per-chunk compressed records.
    meta:
        Optional :class:`~repro.workloads.trace.WorkloadTrace` metadata
        overrides (``name``, ``suite``, ``dataset_bytes``, ...); anything
        not given is defaulted from the data at close time.
    provenance:
        Optional generator provenance dict (``workload`` + ``scale`` +
        ``dataset_bytes_override``) recorded verbatim in the footer.

    Use as a context manager: an exception inside the ``with`` block
    aborts the build and removes the temp file, leaving *path* untouched.
    """

    def __init__(self, path: Union[str, Path], *,
                 chunk_accesses: int = DEFAULT_CHUNK_ACCESSES,
                 compression: Optional[str] = None,
                 meta: Optional[Dict[str, Any]] = None,
                 provenance: Optional[Dict[str, Any]] = None,
                 validate: bool = True) -> None:
        compression = compression or "none"
        if compression not in COMPRESSIONS:
            raise ValueError(f"unknown compression {compression!r}; "
                             f"expected one of {COMPRESSIONS}")
        if chunk_accesses <= 0:
            raise ValueError("chunk_accesses must be positive")
        self.path = Path(path)
        self.chunk_accesses = int(chunk_accesses)
        self.compression = compression
        self.meta = dict(meta or {})
        self.provenance = (dict(provenance)
                           if provenance is not None else None)
        self.validate = validate

        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._tmp = self.path.with_name(
            f".{self.path.name}.{socket.gethostname()}.{os.getpid()}"
            f".{next(_TMP_COUNTER)}.tmp")
        self._handle = open(self._tmp, "wb")
        flags = FLAG_ZLIB if compression == "zlib" else 0
        self._handle.write(MAGIC + flags.to_bytes(2, "little"))
        self._offset = len(MAGIC) + 2

        self._pending: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._pending_count = 0
        self._chunks: List[List[int]] = []
        self.length = 0
        self.write_count = 0
        self._min_address: Optional[int] = None
        self._max_end = 0
        self._addr_sha = hashlib.sha256()
        self._size_sha = hashlib.sha256()
        self._write_sha = hashlib.sha256()
        self._closed = False
        self._aborted = False

    # -- appending ---------------------------------------------------------------

    def append(self, stream: AccessStream) -> None:
        """Append every access of *stream* (an AccessStream or view)."""
        self.append_arrays(stream.addresses, stream.sizes, stream.writes)

    def append_arrays(self, addresses, sizes, writes) -> None:
        """Append columnar data; *sizes* may be a scalar (fixed size)."""
        if self._closed:
            raise ValueError("TraceWriter is closed")
        piece = AccessStream.from_arrays(addresses, sizes, writes,
                                         validate=self.validate)
        if not len(piece):
            return
        self._pending.append((piece.addresses, piece.sizes, piece.writes))
        self._pending_count += len(piece)
        while self._pending_count >= self.chunk_accesses:
            self._flush_chunk(self.chunk_accesses)

    # -- chunk emission ----------------------------------------------------------

    def _take(self, count: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pop exactly *count* buffered accesses as three columns."""
        parts: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        taken = 0
        while taken < count:
            addresses, sizes, writes = self._pending[0]
            need = count - taken
            if len(addresses) <= need:
                parts.append(self._pending.pop(0))
                taken += len(addresses)
            else:
                parts.append((addresses[:need], sizes[:need], writes[:need]))
                self._pending[0] = (addresses[need:], sizes[need:],
                                    writes[need:])
                taken += need
        self._pending_count -= count
        if len(parts) == 1:
            return parts[0]
        return (np.concatenate([part[0] for part in parts]),
                np.concatenate([part[1] for part in parts]),
                np.concatenate([part[2] for part in parts]))

    def _flush_chunk(self, count: int) -> None:
        addresses, sizes, writes = self._take(count)
        addr_bytes = np.ascontiguousarray(addresses, dtype="<i8").tobytes()
        size_bytes = np.ascontiguousarray(sizes, dtype="<i8").tobytes()
        write_bytes = np.ascontiguousarray(writes, dtype=np.uint8).tobytes()
        self._addr_sha.update(addr_bytes)
        self._size_sha.update(size_bytes)
        self._write_sha.update(write_bytes)
        payload = addr_bytes + size_bytes + write_bytes
        crc = zlib.crc32(payload)

        if self.compression == "zlib":
            record = zlib.compress(payload)
        else:
            record = payload + _PAD[:pad_to_alignment(len(payload))]
        stored = (len(record) if self.compression == "zlib"
                  else len(payload))
        self._chunks.append([self._offset, count, stored, crc])
        self._handle.write(record)
        self._offset += len(record)

        self.length += count
        self.write_count += int(np.count_nonzero(writes))
        low = int(addresses.min())
        self._min_address = (low if self._min_address is None
                             else min(self._min_address, low))
        self._max_end = max(self._max_end, int((addresses + sizes).max()))

    # -- finalisation ------------------------------------------------------------

    @property
    def content_hash(self) -> str:
        """Chunking-invariant identity of everything appended so far."""
        return content_hash_of(self._addr_sha.copy(), self._size_sha.copy(),
                               self._write_sha.copy())

    def footer(self) -> Dict[str, Any]:
        """The footer payload :meth:`close` will write."""
        meta = trace_meta_defaults(self.path.stem, self.length,
                                   self._max_end)
        meta.update(self.meta)
        return {
            "schema": TRACE_SCHEMA,
            "length": self.length,
            "compression": self.compression,
            "chunk_accesses": self.chunk_accesses,
            "chunks": self._chunks,
            "content_hash": self.content_hash,
            "write_count": self.write_count,
            "min_address": self._min_address,
            "max_end": self._max_end,
            "meta": meta,
            "provenance": self.provenance,
            "created_unix": time.time(),
        }

    def close(self) -> Path:
        """Flush the final partial chunk, write the footer, rename, return.

        Closing an aborted build — including one whose first close failed
        at the rename — raises instead of returning a path it never wrote.
        """
        if self._closed:
            if self._aborted:
                raise RuntimeError(f"trace build of {self.path} was aborted")
            return self.path
        if self._pending_count:
            self._flush_chunk(self._pending_count)
        footer = self.footer()
        try:
            self._handle.write(encode_footer(footer))
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()
            os.replace(self._tmp, self.path)
        except BaseException:
            self.abort()
            raise
        self._closed = True
        return self.path

    def abort(self) -> None:
        """Discard the build: close and remove the temp file."""
        if self._closed:
            return
        self._closed = True
        self._aborted = True
        try:
            self._handle.close()
        finally:
            try:
                self._tmp.unlink()
            except OSError:
                pass

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None and not self._aborted:
            self.close()
        else:
            self.abort()


def build_trace_file(workload: str, path: Union[str, Path], *,
                     scale=None, dataset_bytes_override: Optional[int] = None,
                     chunk_accesses: int = DEFAULT_CHUNK_ACCESSES,
                     compression: Optional[str] = None) -> Path:
    """Materialise registry workload *workload* to disk at any scale.

    The trace content is **bit-identical** to
    ``build_trace(workload, scale).stream``: the pattern generator's
    chunk-wise emission consumes its RNG in exactly the one-shot draw
    order (see :meth:`~repro.workloads.generators.AccessPatternGenerator
    .stream_chunks`), but only ever holds one chunk of column data — no
    per-access Python objects, no full-trace arrays — so trace length is
    bounded by disk, not RAM.  The footer records full provenance, making
    ``trace:<path>`` submissions of this file cache-key-identical to
    in-memory submissions of (*workload*, *scale*).
    """
    from ..workloads.registry import ExperimentScale, trace_plan

    scale = scale if scale is not None else ExperimentScale()
    plan = trace_plan(workload, scale,
                      dataset_bytes_override=dataset_bytes_override)
    provenance = {
        "workload": workload,
        "scale": dataclasses.asdict(scale),
        "dataset_bytes_override": dataset_bytes_override,
    }
    with TraceWriter(path, chunk_accesses=chunk_accesses,
                     compression=compression, meta=plan.meta,
                     provenance=provenance) as writer:
        for chunk in plan.generator.stream_chunks(
                plan.access_count, plan.write_fraction,
                write_rng=plan.write_rng(),
                chunk_accesses=chunk_accesses):
            writer.append(chunk)
    return writer.path
