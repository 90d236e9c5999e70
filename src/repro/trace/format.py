"""The ``repro.trace/1`` on-disk columnar trace format.

One trace file holds three logical columns — int64 byte addresses, int64
access sizes, bool write flags — split into fixed-size chunks so writers
stream and readers replay without ever materialising the whole trace:

.. code-block:: text

    offset 0   MAGIC  b"repro.trace/1\\n"            (14 bytes)
    offset 14  flags  <H little-endian                (bit 0: zlib chunks)
    offset 16  chunk records, back to back
    ...        footer JSON (utf-8)
    EOF-16     <Q footer length in bytes
    EOF-8      END_MAGIC  b"RPTRACE1"

An **uncompressed chunk record** of *n* accesses is the raw column bytes —
``<i8 * n`` addresses, ``<i8 * n`` sizes, ``u8 * n`` write flags — padded
with zeros to the next 8-byte boundary, so every record (and therefore
every int64 column within it) starts 8-aligned and a reader can hand out
zero-copy ``np.frombuffer`` views straight onto the memory map.  A **zlib
chunk record** is ``zlib.compress`` of the same payload, unpadded.

The **footer** is one JSON object carrying the chunk index (``[offset,
accesses, stored_bytes, crc32]`` per chunk, where the CRC always covers the
*uncompressed* payload), summary statistics the in-memory
:class:`~repro.workloads.trace.AccessStream` would otherwise need a full
column scan for (``write_count``, ``min_address``, ``max_end``), the
:class:`~repro.workloads.trace.WorkloadTrace` metadata needed to replay the
file, an optional generator **provenance** record (workload name + the
exact :class:`~repro.workloads.registry.ExperimentScale` it was built
under), and a chunking-invariant **content hash**: three running SHA-256s
— one per logical column, fed in access order — folded into one digest, so
re-chunking or re-compressing a trace never changes its identity.

Files are written atomically (same-directory temp + ``os.replace``, the
:func:`repro.runner.artifacts.atomic_write_text` pattern), so a torn write
can never leave a half-trace behind a valid name; readers validate magic,
footer structure and chunk-index bounds at open and reject anything
truncated or torn.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

#: Schema tag recorded in the footer; bump when the layout changes.
TRACE_SCHEMA = "repro.trace/1"

#: Leading magic; doubles as a human-readable file(1) hint.
MAGIC = b"repro.trace/1\n"
#: Trailing magic: the last 8 bytes of every complete trace file.
END_MAGIC = b"RPTRACE1"
#: ``<Q footer_length`` + :data:`END_MAGIC`.
TAIL_STRUCT = struct.Struct("<Q8s")
#: ``MAGIC`` + ``<H`` flags.
HEADER_SIZE = len(MAGIC) + 2
#: Header flag bit 0: chunk records are zlib-compressed.
FLAG_ZLIB = 0x1

#: Supported chunk compressions.
COMPRESSIONS = ("none", "zlib")

#: Default accesses per chunk (1 Mi accesses = 17 MB of column data):
#: large enough that per-chunk overhead vanishes, small enough that a
#: compressed reader's working set stays a few tens of megabytes.
DEFAULT_CHUNK_ACCESSES = 1 << 20

#: Bytes per access across the three columns (8 + 8 + 1).
ACCESS_BYTES = 17

#: Workload names with this prefix name a trace file, not a Table III
#: generator: ``"trace:/data/seqRd.trace"``.
TRACE_SOURCE_PREFIX = "trace:"


class TraceFormatError(ValueError):
    """A trace file is structurally invalid, truncated or corrupt."""


def is_trace_source(workload: object) -> bool:
    """True when a workload name refers to a ``repro.trace/1`` file."""
    return (isinstance(workload, str)
            and workload.startswith(TRACE_SOURCE_PREFIX))


def trace_source_path(workload: str) -> Path:
    """The file path a ``trace:`` workload name points at."""
    if not is_trace_source(workload):
        raise ValueError(f"not a trace source: {workload!r}")
    return Path(workload[len(TRACE_SOURCE_PREFIX):])


def trace_source_name(path: Union[str, Path]) -> str:
    """The ``trace:<path>`` workload name for a trace file."""
    return f"{TRACE_SOURCE_PREFIX}{path}"


def pad_to_alignment(nbytes: int, alignment: int = 8) -> int:
    """Zero bytes needed to pad *nbytes* to the next alignment boundary."""
    return (-nbytes) % alignment


def content_hash_of(addr_sha: "hashlib._Hash", size_sha: "hashlib._Hash",
                    write_sha: "hashlib._Hash") -> str:
    """Fold the three per-column digests into the one trace identity.

    Each column digest is fed the column's little-endian bytes in access
    order, chunk by chunk — concatenated feeds hash identically however the
    chunks are cut, which is what makes the content hash (and therefore
    the run-cache identity of a file-backed run) invariant under
    re-chunking and re-compression.
    """
    outer = hashlib.sha256(TRACE_SCHEMA.encode("ascii") + b"\x00")
    outer.update(addr_sha.digest())
    outer.update(size_sha.digest())
    outer.update(write_sha.digest())
    return f"sha256:{outer.hexdigest()}"


def encode_footer(footer: Dict[str, Any]) -> bytes:
    """Footer JSON + fixed tail, ready to append after the last chunk."""
    body = json.dumps(footer, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    return body + TAIL_STRUCT.pack(len(body), END_MAGIC)


_FOOTER_FIELDS = ("schema", "length", "compression", "chunk_accesses",
                  "chunks", "content_hash", "write_count", "min_address",
                  "max_end", "meta")

#: Typed footer fields: name -> (accepted JSON types, least value or None).
_TYPED_FIELDS = {"length": (int, 0), "chunk_accesses": (int, 1),
                 "write_count": (int, 0), "max_end": (int, 0),
                 "content_hash": (str, None)}
#: The WorkloadTrace metadata every footer carries (trace_meta_defaults);
#: the least accesses_per_operation is the smallest positive float.
_META_FIELDS = {"name": (str, None), "suite": (str, None),
                "operation_unit": (str, None), "dataset_bytes": (int, 1),
                "total_instructions": ((int, float), 0),
                "compute_instructions_per_access": ((int, float), 0),
                "accesses_per_operation": ((int, float), 5e-324)}


def _invalid(value: Any, types, least=None) -> bool:
    """True unless *value* is a finite non-bool *types* value >= *least*."""
    return (not isinstance(value, types) or isinstance(value, bool)
            or (isinstance(value, float) and not math.isfinite(value))
            or (least is not None and value < least))


def validate_footer(footer: Dict[str, Any], path: Path,
                    file_size: int) -> Dict[str, Any]:
    """Structural validation of a parsed footer; returns it for chaining.

    Every field a reader, ``repro trace info`` or a replay consumes is
    checked for type and range here, so a hostile or bit-flipped footer
    fails with :class:`TraceFormatError` at open instead of a
    ``TypeError``/``ValueError`` later.
    """
    if footer.get("schema") != TRACE_SCHEMA:
        raise TraceFormatError(
            f"{path}: unsupported trace schema {footer.get('schema')!r} "
            f"(expected {TRACE_SCHEMA})")
    missing = [name for name in _FOOTER_FIELDS if name not in footer]
    if missing:
        raise TraceFormatError(f"{path}: footer is missing fields {missing}")
    if footer["compression"] not in COMPRESSIONS:
        raise TraceFormatError(
            f"{path}: unknown compression {footer['compression']!r}")
    for name, (types, least) in _TYPED_FIELDS.items():
        if _invalid(footer[name], types, least):
            raise TraceFormatError(
                f"{path}: footer field {name!r} is invalid ({footer[name]!r})")
    if (footer["min_address"] is not None
            and _invalid(footer["min_address"], int, 0)
            or footer["write_count"] > footer["length"]):
        raise TraceFormatError(f"{path}: footer summary statistics are "
                               f"inconsistent")
    provenance = footer.get("provenance")
    if provenance is not None and (not isinstance(provenance, dict) or
                                   _invalid(provenance.get("workload"), str)):
        raise TraceFormatError(f"{path}: footer provenance is malformed")
    chunks = footer["chunks"]
    if not isinstance(chunks, list):
        raise TraceFormatError(f"{path}: footer chunk index is not a list")
    uncompressed = footer["compression"] == "none"
    total = 0
    previous_end = HEADER_SIZE
    for index, entry in enumerate(chunks):
        if not (isinstance(entry, list) and len(entry) == 4) or any(
                _invalid(field, int, 0) for field in entry):
            raise TraceFormatError(
                f"{path}: chunk index entry {index} is malformed")
        offset, accesses, stored_bytes, _crc = entry
        if accesses <= 0:
            raise TraceFormatError(
                f"{path}: chunk {index} has non-positive access count")
        if offset < previous_end or offset + stored_bytes > file_size:
            raise TraceFormatError(
                f"{path}: chunk {index} lies outside the data region "
                f"(offset {offset}, {stored_bytes} stored bytes, file is "
                f"{file_size} bytes)")
        if uncompressed and stored_bytes != accesses * ACCESS_BYTES:
            raise TraceFormatError(
                f"{path}: uncompressed chunk {index} stores {stored_bytes} "
                f"bytes for {accesses} accesses (expected "
                f"{accesses * ACCESS_BYTES})")
        previous_end = offset + stored_bytes
        total += accesses
    if total != footer["length"]:
        raise TraceFormatError(
            f"{path}: chunk index covers {total} accesses but the footer "
            f"declares {footer['length']}")
    meta = footer["meta"]
    if not isinstance(meta, dict) or any(
            _invalid(meta.get(name), types, least)
            for name, (types, least) in _META_FIELDS.items()):
        raise TraceFormatError(f"{path}: footer meta is not a valid "
                               f"WorkloadTrace metadata object")
    return footer


def read_trace_footer(path: Union[str, Path]) -> Dict[str, Any]:
    """Parse and validate header + footer of one trace file (no data I/O).

    Raises :class:`TraceFormatError` for anything that is not a complete,
    structurally sound ``repro.trace/1`` file — wrong magic, truncated
    tail, torn footer JSON, a footer field of the wrong type or range
    (:func:`validate_footer`), chunk offsets outside the data region.
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            header = handle.read(HEADER_SIZE)
            if len(header) < HEADER_SIZE or not header.startswith(MAGIC):
                raise TraceFormatError(
                    f"{path}: not a {TRACE_SCHEMA} file (bad magic)")
            (flags,) = struct.unpack_from("<H", header, len(MAGIC))
            handle.seek(0, os.SEEK_END)
            file_size = handle.tell()
            if file_size < HEADER_SIZE + TAIL_STRUCT.size:
                raise TraceFormatError(f"{path}: truncated (no footer tail)")
            handle.seek(file_size - TAIL_STRUCT.size)
            footer_length, end_magic = TAIL_STRUCT.unpack(
                handle.read(TAIL_STRUCT.size))
            if end_magic != END_MAGIC:
                raise TraceFormatError(
                    f"{path}: truncated or torn (bad end magic)")
            footer_start = file_size - TAIL_STRUCT.size - footer_length
            if footer_start < HEADER_SIZE:
                raise TraceFormatError(
                    f"{path}: footer length {footer_length} exceeds the "
                    f"file")
            handle.seek(footer_start)
            body = handle.read(footer_length)
    except OSError as error:
        raise TraceFormatError(f"{path}: cannot read trace file "
                               f"({error})") from error
    try:
        footer = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise TraceFormatError(f"{path}: footer is not valid JSON "
                               f"({error})") from error
    if not isinstance(footer, dict):
        raise TraceFormatError(f"{path}: footer is not a JSON object")
    validate_footer(footer, path, footer_start)
    expect_zlib = footer["compression"] == "zlib"
    if bool(flags & FLAG_ZLIB) != expect_zlib:
        raise TraceFormatError(
            f"{path}: header compression flag disagrees with the footer")
    footer["data_end"] = footer_start
    return footer


# ---------------------------------------------------------------------------
# Footer summary cache
# ---------------------------------------------------------------------------
#
# Run-cache key computation, shard cost estimation and spec labelling all
# consult the footer of the same files over and over (once per spec, per
# submission); one parsed footer per (path, size, mtime) makes those reads
# O(1) dictionary hits after the first.

_SUMMARY_CACHE: Dict[Tuple[str, int, int], Dict[str, Any]] = {}


def trace_summary(path: Union[str, Path]) -> Dict[str, Any]:
    """The (cached) validated footer of one trace file.

    The cache key includes file size and mtime, so overwriting a trace file
    in place — the atomic-rename writer always does — invalidates its
    entry naturally.  Treat the returned dict as read-only.
    """
    path = Path(path)
    try:
        stat = path.stat()
    except OSError as error:
        raise TraceFormatError(f"{path}: cannot stat trace file "
                               f"({error})") from error
    key = (str(path.resolve()), stat.st_size, stat.st_mtime_ns)
    cached = _SUMMARY_CACHE.get(key)
    if cached is None:
        cached = read_trace_footer(path)
        _SUMMARY_CACHE[key] = cached
    return cached


def trace_run_identity(workload: str, scale_dict: Dict[str, Any],
                       dataset_bytes_override: Optional[int]
                       ) -> Union[str, Dict[str, str]]:
    """What a ``trace:`` workload contributes to a run-cache key.

    When the file records generator **provenance** and that provenance was
    built under exactly the scale and dataset override of the run at hand,
    the file is bit-identical to what :func:`~repro.workloads.registry
    .build_trace` would synthesise in memory — so the identity collapses to
    the provenance workload *name* and the cache key of the file-backed
    submission equals the in-memory one: the content-addressed cache,
    shard-manifest keys and ``repro serve`` dedup all treat the two
    submissions as the same run.  Imported traces (or a scale mismatch)
    fall back to the chunking-invariant content hash, so any change to the
    file's accesses — and nothing else — changes the key.
    """
    summary = trace_summary(trace_source_path(workload))
    provenance = summary.get("provenance")
    if (isinstance(provenance, dict)
            and provenance.get("scale") == scale_dict
            and provenance.get("dataset_bytes_override")
            == dataset_bytes_override):
        return provenance["workload"]
    return {"trace_content": summary["content_hash"]}


def trace_meta_defaults(name: str, length: int, max_end: int) -> Dict[str, Any]:
    """WorkloadTrace metadata defaults for traces without richer metadata."""
    return {
        "name": name,
        "suite": "trace",
        "dataset_bytes": max(int(max_end), 1),
        "compute_instructions_per_access": 0.0,
        "accesses_per_operation": 1.0,
        "operation_unit": "ops",
        "total_instructions": int(length),
    }


def summarize(footer: Dict[str, Any]) -> List[str]:
    """Human-readable ``repro trace info`` lines for one parsed footer."""
    meta = footer["meta"]
    chunks = footer["chunks"]
    stored = sum(entry[2] for entry in chunks)
    logical = footer["length"] * ACCESS_BYTES
    lines = [
        f"schema            {footer['schema']}",
        f"accesses          {footer['length']}",
        f"write fraction    "
        f"{footer['write_count'] / footer['length']:.3f}"
        if footer["length"] else "write fraction    n/a",
        f"address range     [{footer['min_address']}, {footer['max_end']})"
        if footer["length"] else "address range     empty",
        f"chunks            {len(chunks)} x <= {footer['chunk_accesses']} "
        f"accesses",
        f"compression       {footer['compression']}"
        + (f" ({stored / logical:.2%} of raw)" if logical else ""),
        f"stored bytes      {stored}",
        f"content hash      {footer['content_hash']}",
        f"workload          {meta['name']} ({meta['suite']}, "
        f"{meta['operation_unit']}, dataset {meta['dataset_bytes']} B)",
    ]
    provenance = footer.get("provenance")
    if provenance:
        scale = provenance.get("scale", {})
        lines.append(
            f"provenance        built from workload "
            f"{provenance['workload']!r} at scale "
            f"{json.dumps(scale, sort_keys=True)}")
    else:
        lines.append("provenance        none (imported or hand-built)")
    return lines
