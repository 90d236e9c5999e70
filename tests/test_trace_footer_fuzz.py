"""Hostile and corrupted ``repro.trace/1`` footers and tails.

:func:`~repro.trace.format.read_trace_footer` promises
:class:`~repro.trace.format.TraceFormatError` for every structurally
unsound file.  The named cases are footers that once crashed with
``TypeError``/``ValueError`` at open or on the first ``window()``; the
hypothesis suites truncate the file, flip bits in the footer and tail, and
plant out-of-range values in footer fields.  Every case must either raise
``TraceFormatError`` or load cleanly: footer, ``repro trace info`` summary,
a full replay-stream pass and a verify pass.
"""

import itertools
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.runner.cli import main as repro_main
from repro.trace import (
    TraceFormatError,
    TraceReader,
    load_trace_file,
    TraceWriter,
    read_trace_footer,
)
from repro.trace.format import TAIL_STRUCT, encode_footer, summarize
from repro.workloads.trace import AccessStream

_names = itertools.count()
_FUZZ = settings(max_examples=120, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


def write_stream(path, stream: AccessStream, **options):
    """Write one in-memory stream as a trace file."""
    with TraceWriter(path, **options) as writer:
        writer.append(stream)
    return writer.path


def _valid_trace(directory, compression: str) -> bytes:
    """Bytes of a small valid three-chunk trace file."""
    rng = np.random.default_rng(5)
    stream = AccessStream(rng.integers(0, 1 << 20, 40) * 64,
                          np.full(40, 64, dtype=np.int64),
                          rng.random(40) < 0.5)
    path = directory / f"source-{compression}.trace"
    write_stream(path, stream, chunk_accesses=16, compression=compression,
                 provenance={"workload": "fuzz", "scale": {}})
    return path.read_bytes()


def _split(data: bytes):
    """(data region, parsed footer) of a valid trace file's bytes."""
    footer_length, _ = TAIL_STRUCT.unpack(data[-TAIL_STRUCT.size:])
    footer_start = len(data) - TAIL_STRUCT.size - footer_length
    return data[:footer_start], json.loads(data[footer_start:-TAIL_STRUCT.size])


def _write(directory, data: bytes):
    # A fresh name per case: the footer summary cache keys on path, size
    # and mtime, which a same-size rewrite within one tick would not move.
    path = directory / f"case-{next(_names)}.trace"
    path.write_bytes(data)
    return path


def _load_or_reject(path) -> bool:
    """Load *path* end to end; ``False`` when it is rejected cleanly."""
    try:
        footer = read_trace_footer(path)
        summarize(footer)
        trace = load_trace_file(path)
        for _chunk in trace.stream.chunks(7):
            pass
        with TraceReader(path) as reader:
            reader.verify()
    except TraceFormatError:
        return False
    return True


@pytest.fixture(scope="module", params=["none", "zlib"])
def source(request, tmp_path_factory):
    directory = tmp_path_factory.mktemp(f"fuzz-{request.param}")
    return directory, _valid_trace(directory, request.param)


def _with_footer(source, mutate) -> bytes:
    directory, data = source
    body, footer = _split(data)
    mutate(footer)
    return body + encode_footer(footer)


def _set_chunk_field(position: int, value):
    def mutate(footer):
        footer["chunks"][0][position] = value
    return mutate


def _set_field(name: str, value):
    def mutate(footer):
        footer[name] = value
    return mutate


def _more_accesses_than_stored(footer):
    # One access more than chunk 0's stored bytes hold; the declared
    # length follows, so only the stored-bytes check can catch it.
    footer["chunks"][0][1] += 1
    footer["length"] += 1


class TestNamedHostileFooters:
    @pytest.mark.parametrize("mutate", [
        _set_field("chunks", 5),
        _set_field("chunks", None),
        _set_chunk_field(1, "16"),
        _set_chunk_field(0, None),
        _set_field("meta", []),
    ], ids=["chunks-int", "chunks-null", "string-accesses", "null-offset",
            "meta-list"])
    def test_rejected_at_open(self, source, mutate, capsys):
        path = _write(source[0], _with_footer(source, mutate))
        with pytest.raises(TraceFormatError):
            read_trace_footer(path)
        assert repro_main(["trace", "info", str(path)]) == 1
        assert repro_main(["trace", "verify", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("mutate", [
        _set_chunk_field(2, -1),
        _set_chunk_field(1, 16.0),
        _more_accesses_than_stored,
    ], ids=["negative-stored", "fractional-accesses",
            "accesses-beyond-stored"])
    def test_uncompressed_size_fields_rejected_at_open(self, tmp_path,
                                                       mutate):
        source = (tmp_path, _valid_trace(tmp_path, "none"))
        path = _write(tmp_path, _with_footer(source, mutate))
        with pytest.raises(TraceFormatError):
            read_trace_footer(path)

    @pytest.mark.parametrize("name, value", [
        ("length", True), ("chunk_accesses", 0), ("write_count", 10**6),
        ("max_end", -1), ("min_address", "0"), ("content_hash", 7),
        ("provenance", [1]),
    ])
    def test_top_level_fields_rejected_at_open(self, source, name, value):
        path = _write(source[0], _with_footer(source, _set_field(name, value)))
        with pytest.raises(TraceFormatError):
            read_trace_footer(path)

    @pytest.mark.parametrize("name, value", [
        ("name", None), ("dataset_bytes", 0), ("dataset_bytes", 1.5),
        ("accesses_per_operation", 0), ("operation_unit", 3),
        ("compute_instructions_per_access", -1.0),
    ])
    def test_meta_fields_rejected_at_open(self, source, name, value):
        def mutate(footer):
            footer["meta"][name] = value
        path = _write(source[0], _with_footer(source, mutate))
        with pytest.raises(TraceFormatError):
            read_trace_footer(path)

    def test_unmodified_source_loads(self, source):
        assert _load_or_reject(_write(source[0], source[1]))


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70)
    | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6)


class TestFooterFuzz:
    @_FUZZ
    @given(data=st.data())
    def test_truncated_files(self, source, data):
        directory, raw = source
        cut = data.draw(st.integers(0, len(raw) - 1))
        assert not _load_or_reject(_write(directory, raw[:cut]))

    @_FUZZ
    @given(data=st.data())
    def test_bit_flips_in_footer_and_tail(self, source, data):
        directory, raw = source
        body, _ = _split(raw)
        mutated = bytearray(raw)
        for _ in range(data.draw(st.integers(1, 3))):
            position = data.draw(st.integers(len(body), len(raw) - 1))
            mutated[position] ^= 1 << data.draw(st.integers(0, 7))
        _load_or_reject(_write(directory, bytes(mutated)))

    @_FUZZ
    @given(data=st.data())
    def test_out_of_range_footer_values(self, source, data):
        directory, raw = source
        body, footer = _split(raw)
        target = data.draw(st.sampled_from(
            ["top", "chunk", "meta", "provenance"]))
        value = data.draw(_json_values)
        if target == "top":
            footer[data.draw(st.sampled_from(sorted(footer)))] = value
        elif target == "chunk":
            entry = data.draw(st.integers(0, len(footer["chunks"]) - 1))
            field = data.draw(st.integers(0, 3))
            footer["chunks"][entry][field] = value
        else:
            key = data.draw(st.sampled_from(sorted(footer[target])))
            footer[target][key] = value
        _load_or_reject(_write(directory, body + encode_footer(footer)))

    @_FUZZ
    @given(length=st.integers(0, 2**64 - 1))
    def test_out_of_bounds_footer_length(self, source, length):
        directory, raw = source
        tail = TAIL_STRUCT.pack(length, raw[-8:])
        _load_or_reject(_write(directory, raw[:-TAIL_STRUCT.size] + tail))

    @_FUZZ
    @given(tail=st.binary(min_size=0, max_size=40))
    def test_arbitrary_tail_bytes(self, source, tail):
        directory, raw = source
        _load_or_reject(_write(directory, raw[:-TAIL_STRUCT.size] + tail))
