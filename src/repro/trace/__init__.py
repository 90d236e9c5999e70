"""``repro.trace`` — the out-of-core columnar trace store.

A versioned on-disk format (``repro.trace/1``: chunked int64 address /
int64 size / bool write columns, per-chunk checksums, a footer index and
optional zlib-per-chunk compression), a streaming :class:`TraceWriter`, a
memory-mapping :class:`TraceReader` whose replay path is zero-copy for
uncompressed files, and streaming CSV/binary importers.  Everything here
works chunk-at-a-time: building, importing, verifying and replaying a
trace all run in memory bounded by one chunk, so trace length is limited
by disk, not RAM.

Workload names of the form ``trace:<path>`` plug trace files into the
rest of the stack — :func:`repro.workloads.registry.build_trace`, run
specs, the run cache, shard planning and ``repro serve`` all accept them.
"""

from .format import (
    ACCESS_BYTES,
    COMPRESSIONS,
    DEFAULT_CHUNK_ACCESSES,
    TRACE_SCHEMA,
    TRACE_SOURCE_PREFIX,
    TraceFormatError,
    is_trace_source,
    read_trace_footer,
    trace_run_identity,
    trace_source_name,
    trace_source_path,
    trace_summary,
)
from .importers import BINARY_LAYOUTS, import_binary, import_csv
from .reader import FileAccessStream, TraceReader, load_trace_file
from .writer import TraceWriter, build_trace_file

__all__ = [
    "ACCESS_BYTES",
    "BINARY_LAYOUTS",
    "COMPRESSIONS",
    "DEFAULT_CHUNK_ACCESSES",
    "TRACE_SCHEMA",
    "TRACE_SOURCE_PREFIX",
    "TraceFormatError",
    "TraceReader",
    "TraceWriter",
    "FileAccessStream",
    "build_trace_file",
    "import_binary",
    "import_csv",
    "is_trace_source",
    "load_trace_file",
    "read_trace_footer",
    "trace_run_identity",
    "trace_source_name",
    "trace_source_path",
    "trace_summary",
]
