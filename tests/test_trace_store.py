"""The out-of-core trace store: format round-trips, corruption rejection,
streaming generation parity, golden file-backed replay, cache-key identity.
"""

import dataclasses
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import run_scalar
from repro.config import default_config
from repro.distrib.manifest import estimate_spec_cost
from repro.platforms.registry import available_platforms, create_platform
from repro.runner.artifacts import run_cache_key
from repro.runner.cli import main as repro_main
from repro.runner.specs import RunSpec, matrix_specs
from repro.trace import (
    FileAccessStream,
    TraceFormatError,
    TraceReader,
    TraceWriter,
    build_trace_file,
    import_binary,
    import_csv,
    load_trace_file,
    read_trace_footer,
    trace_source_name,
)
from repro.trace.format import END_MAGIC, HEADER_SIZE, MAGIC
from repro.workloads.generators import (
    HotspotPattern,
    SequentialPattern,
    StridedPattern,
    ZipfianPattern,
)
from repro.workloads.registry import (
    ExperimentScale,
    build_trace,
    scale_system_config,
)
from repro.workloads.trace import AccessStream
from repro.units import KB, MB

SCALE = ExperimentScale(capacity_scale=1.0 / 256.0, min_accesses=200,
                        max_accesses=600)


def write_stream(path, stream: AccessStream, **options):
    """Write one in-memory stream as a trace file."""
    with TraceWriter(path, **options) as writer:
        writer.append(stream)
    return writer.path


def assert_streams_equal(a, b):
    assert len(a) == len(b)
    assert np.array_equal(np.asarray(a.addresses), np.asarray(b.addresses))
    assert np.array_equal(np.asarray(a.sizes), np.asarray(b.sizes))
    assert np.array_equal(np.asarray(a.writes), np.asarray(b.writes))


streams = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2**40),
              st.integers(min_value=1, max_value=KB(64)),
              st.booleans()),
    max_size=80,
).map(lambda rows: AccessStream.from_arrays(
    np.array([row[0] for row in rows], dtype=np.int64),
    np.array([row[1] for row in rows], dtype=np.int64),
    np.array([row[2] for row in rows], dtype=bool)))


# ---------------------------------------------------------------------------
# Round-trips
# ---------------------------------------------------------------------------


class TestRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(stream=streams,
           chunk_accesses=st.integers(min_value=1, max_value=23),
           compression=st.sampled_from(["none", "zlib"]))
    def test_write_read_bit_exact(self, tmp_path_factory, stream,
                                  chunk_accesses, compression):
        path = tmp_path_factory.mktemp("rt") / "t.trace"
        write_stream(path, stream, chunk_accesses=chunk_accesses,
                     compression=compression)
        with TraceReader(path) as reader:
            assert_streams_equal(reader.full_stream(), stream)
            assert reader.verify() == reader.footer["content_hash"]

    @settings(max_examples=25, deadline=None)
    @given(stream=streams, chunks_a=st.integers(min_value=1, max_value=7),
           chunks_b=st.integers(min_value=8, max_value=64))
    def test_split_invariance(self, tmp_path_factory, stream, chunks_a,
                              chunks_b):
        """Re-chunking and re-compressing never change content or hash."""
        base = tmp_path_factory.mktemp("si")
        a = write_stream(base / "a.trace", stream, chunk_accesses=chunks_a)
        b = write_stream(base / "b.trace", stream, chunk_accesses=chunks_b,
                         compression="zlib")
        fa, fb = read_trace_footer(a), read_trace_footer(b)
        assert fa["content_hash"] == fb["content_hash"]
        with TraceReader(a) as ra, TraceReader(b) as rb:
            assert ra.full_stream() == rb.full_stream()

    def test_compressed_equals_uncompressed_replay(self, tmp_path):
        raw = build_trace_file("update", tmp_path / "u.trace", scale=SCALE,
                               chunk_accesses=64)
        packed = build_trace_file("update", tmp_path / "z.trace",
                                  scale=SCALE, chunk_accesses=97,
                                  compression="zlib")
        mem = build_trace("update", SCALE)
        for path in (raw, packed):
            trace = load_trace_file(path)
            assert trace.stream == mem.stream
            for chunk_size in (1, 13, 100, 10**6):
                got = list(trace.stream.chunks(chunk_size))
                want = list(mem.stream.chunks(chunk_size))
                assert len(got) == len(want)
                for g, w in zip(got, want):
                    assert_streams_equal(g, w)

    def test_empty_stream_round_trips(self, tmp_path):
        path = write_stream(tmp_path / "e.trace",
                            AccessStream.from_arrays([], 64, []))
        with TraceReader(path) as reader:
            assert len(reader.full_stream()) == 0
            assert reader.verify()

    def test_writer_abort_leaves_no_file(self, tmp_path):
        target = tmp_path / "aborted.trace"
        with pytest.raises(RuntimeError):
            with TraceWriter(target) as writer:
                writer.append_arrays([0, 64], 64, [False, True])
                raise RuntimeError("boom")
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []  # temp cleaned up too

    def test_atomic_overwrite_replaces_whole_file(self, tmp_path):
        path = tmp_path / "t.trace"
        write_stream(path, AccessStream.from_arrays([0], 64, [True]))
        first = read_trace_footer(path)["content_hash"]
        write_stream(path, AccessStream.from_arrays([64, 128], 64,
                                                    [False, False]))
        assert read_trace_footer(path)["content_hash"] != first
        assert len(load_trace_file(path)) == 2


# ---------------------------------------------------------------------------
# Corruption rejection
# ---------------------------------------------------------------------------


def _flip_byte(path: Path, offset: int) -> None:
    data = bytearray(path.read_bytes())
    data[offset] ^= 0xFF
    path.write_bytes(data)


class TestCorruptionRejection:
    @pytest.fixture()
    def trace_path(self, tmp_path):
        return build_trace_file("seqRd", tmp_path / "s.trace", scale=SCALE,
                                chunk_accesses=128)

    def test_truncated_tail_rejected(self, trace_path):
        data = trace_path.read_bytes()
        trace_path.write_bytes(data[:-8])
        with pytest.raises(TraceFormatError, match="end magic"):
            read_trace_footer(trace_path)

    def test_truncated_mid_file_rejected(self, trace_path):
        data = trace_path.read_bytes()
        trace_path.write_bytes(data[:len(data) // 2])
        with pytest.raises(TraceFormatError):
            read_trace_footer(trace_path)

    def test_bad_magic_rejected(self, trace_path):
        _flip_byte(trace_path, 0)
        with pytest.raises(TraceFormatError, match="magic"):
            read_trace_footer(trace_path)

    def test_torn_footer_rejected(self, trace_path):
        size = trace_path.stat().st_size
        _flip_byte(trace_path, size - 20)  # inside the footer JSON
        with pytest.raises(TraceFormatError):
            read_trace_footer(trace_path)

    def test_checksum_mismatch_rejected_by_verify(self, trace_path):
        _flip_byte(trace_path, HEADER_SIZE + 3)  # first chunk's payload
        with TraceReader(trace_path) as reader:
            with pytest.raises(TraceFormatError, match="mismatch"):
                reader.verify()

    def test_checksum_mismatch_rejected_on_read(self, trace_path):
        _flip_byte(trace_path, HEADER_SIZE + 3)
        with TraceReader(trace_path, verify_chunks=True) as reader:
            with pytest.raises(TraceFormatError, match="checksum"):
                reader.window(0, 10)

    def test_compressed_chunk_always_checked(self, tmp_path):
        path = build_trace_file("seqRd", tmp_path / "z.trace", scale=SCALE,
                                compression="zlib")
        footer = read_trace_footer(path)
        offset, _accesses, stored, _crc = footer["chunks"][0]
        _flip_byte(path, offset + stored // 2)
        with TraceReader(path) as reader:
            with pytest.raises(TraceFormatError):
                reader.window(0, 10)

    def test_chunk_out_of_bounds_rejected(self, tmp_path):
        path = tmp_path / "t.trace"
        footer = {
            "schema": "repro.trace/1", "length": 1, "compression": "none",
            "chunk_accesses": 1, "chunks": [[HEADER_SIZE, 1, 10**6, 0]],
            "content_hash": "sha256:0", "write_count": 0,
            "min_address": 0, "max_end": 64,
            "meta": {"name": "x"},
        }
        import json
        body = json.dumps(footer).encode()
        path.write_bytes(MAGIC + b"\x00\x00" + body
                         + struct.pack("<Q8s", len(body), END_MAGIC))
        with pytest.raises(TraceFormatError, match="outside the data"):
            read_trace_footer(path)


# ---------------------------------------------------------------------------
# Streaming generation (satellite: generators emit chunk-wise)
# ---------------------------------------------------------------------------


GENERATORS = {
    "sequential": lambda: SequentialPattern(MB(1), 64, seed=3, start_slot=9),
    "zipfian": lambda: ZipfianPattern(MB(1), 64, seed=3, run_length=16),
    "hotspot": lambda: HotspotPattern(MB(1), 64, seed=3, run_length=16),
    "hotspot-unit-runs": lambda: HotspotPattern(MB(1), 64, seed=3),
    "strided": lambda: StridedPattern(MB(1), 64, seed=3, stride_slots=17),
}


class TestStreamingGeneration:
    @pytest.mark.parametrize("name", sorted(GENERATORS))
    @pytest.mark.parametrize("chunk_accesses", [1, 7, 64, 1000, 10**6])
    def test_stream_chunks_bit_equal_to_one_shot(self, name, chunk_accesses):
        one_shot = GENERATORS[name]().stream(777, write_fraction=0.3)
        chunked = list(GENERATORS[name]().stream_chunks(
            777, write_fraction=0.3, chunk_accesses=chunk_accesses))
        assert sum(len(c) for c in chunked) == 777
        rebuilt = AccessStream(
            np.concatenate([c.addresses for c in chunked]),
            np.concatenate([c.sizes for c in chunked]),
            np.concatenate([c.writes for c in chunked]))
        assert_streams_equal(rebuilt, one_shot)

    def test_build_trace_file_matches_in_memory_for_all_workloads(
            self, tmp_path):
        from repro.workloads.registry import all_workload_names
        for name in all_workload_names():
            path = build_trace_file(name, tmp_path / f"{name}.trace",
                                    scale=SCALE, chunk_accesses=113)
            mem = build_trace(name, SCALE)
            disk = load_trace_file(path)
            assert disk.stream == mem.stream, name
            assert disk.dataset_bytes == mem.dataset_bytes
            assert disk.total_instructions == mem.total_instructions
            assert disk.accesses_per_operation == mem.accesses_per_operation


# ---------------------------------------------------------------------------
# FileAccessStream behaviour
# ---------------------------------------------------------------------------


class TestFileAccessStream:
    @pytest.fixture()
    def pair(self, tmp_path):
        mem = build_trace("BFS", SCALE)
        path = build_trace_file("BFS", tmp_path / "b.trace", scale=SCALE,
                                chunk_accesses=128)
        return mem.stream, load_trace_file(path).stream

    def test_slicing_stays_lazy_and_exact(self, pair):
        mem, disk = pair
        window = disk[100:300]
        assert disk._columns_cache is None  # read one window, not the file
        assert_streams_equal(window, mem[100:300])
        assert window[25:50] == mem[125:150]
        assert disk[7] == mem[7]
        assert disk[-1] == mem[len(mem) - 1]

    def test_iteration_and_eq(self, pair):
        mem, disk = pair
        assert list(disk[:40]) == list(mem[:40])
        assert disk == mem and mem == disk
        assert not (disk[1:] == mem[:-1])

    def test_stats_use_footer_for_full_window(self, pair):
        mem, disk = pair
        assert disk.write_count == mem.write_count
        assert disk.read_count == mem.read_count
        assert disk.touched_bytes() == mem.touched_bytes()
        assert disk[10:90].write_count == mem[10:90].write_count
        assert disk[10:90].touched_bytes() == mem[10:90].touched_bytes()

    def test_batched_replay_never_materialises_columns(self, tmp_path,
                                                       monkeypatch):
        """The bounded-RSS guarantee: the batched replay path must drive
        ``chunks()`` only — touching a full-window column accessor means a
        full-trace materialisation snuck back in."""
        path = build_trace_file("seqRd", tmp_path / "s.trace", scale=SCALE,
                                chunk_accesses=128)
        trace = load_trace_file(path)

        def boom(self):
            raise AssertionError("full-column materialisation on the "
                                 "batched replay path")

        monkeypatch.setattr(FileAccessStream, "_columns", boom)
        config = scale_system_config(default_config(), SCALE)
        result = create_platform("hams-TE", config).run(trace)
        assert result.operations > 0

    def test_scalar_replay_matches_batched(self, tmp_path):
        path = build_trace_file("seqRd", tmp_path / "s.trace", scale=SCALE)
        config = scale_system_config(default_config(), SCALE)
        trace = load_trace_file(path)
        batched = create_platform("mmap", config).run(trace)
        scalar = run_scalar(create_platform("mmap", config),
                            load_trace_file(path))
        assert dataclasses.asdict(batched) == dataclasses.asdict(scalar)


# ---------------------------------------------------------------------------
# Golden parity: file-backed replay across the full platform registry
# ---------------------------------------------------------------------------


class TestGoldenReplayParity:
    def test_all_platforms_bit_identical_to_in_memory(self, tmp_path):
        config = scale_system_config(default_config(), SCALE)
        mem = build_trace("rndWr", SCALE)
        path = build_trace_file("rndWr", tmp_path / "r.trace", scale=SCALE,
                                chunk_accesses=100)
        platforms = available_platforms()
        assert len(platforms) == 17
        for name in platforms:
            expected = create_platform(name, config).run(mem)
            actual = create_platform(name, config).run(
                load_trace_file(path))
            assert dataclasses.asdict(actual) == dataclasses.asdict(
                expected), name


# ---------------------------------------------------------------------------
# Cache keys, labels and shard-planning cost
# ---------------------------------------------------------------------------


class TestRunnerIntegration:
    def test_cache_key_identical_for_provenance_matched_file(self, tmp_path):
        config = scale_system_config(default_config(), SCALE)
        path = build_trace_file("seqRd", tmp_path / "s.trace", scale=SCALE)
        in_memory = run_cache_key(
            RunSpec(platform="mmap", workload="seqRd"), config, SCALE)
        file_backed = run_cache_key(
            RunSpec(platform="mmap", workload=trace_source_name(path)),
            config, SCALE)
        assert in_memory == file_backed

    def test_cache_key_content_addressed_on_scale_mismatch(self, tmp_path):
        config = scale_system_config(default_config(), SCALE)
        path = build_trace_file("seqRd", tmp_path / "s.trace", scale=SCALE)
        spec = RunSpec(platform="mmap", workload=trace_source_name(path))
        other_scale = dataclasses.replace(SCALE, seed=SCALE.seed + 1)
        mismatched = run_cache_key(spec, config, other_scale)
        in_memory = run_cache_key(
            RunSpec(platform="mmap", workload="seqRd"), config, other_scale)
        assert mismatched != in_memory

    def test_cache_key_invariant_under_rechunk_and_recompress(self, tmp_path):
        stream = AccessStream.from_arrays([0, 64, 4096], 64,
                                          [True, False, True])
        a = write_stream(tmp_path / "a.trace", stream, chunk_accesses=1)
        b = write_stream(tmp_path / "b.trace", stream, chunk_accesses=8,
                         compression="zlib")
        config = scale_system_config(default_config(), SCALE)
        key_a = run_cache_key(
            RunSpec(platform="mmap", workload=trace_source_name(a)),
            config, SCALE)
        key_b = run_cache_key(
            RunSpec(platform="mmap", workload=trace_source_name(b)),
            config, SCALE)
        assert key_a == key_b  # identity is content, never path or layout

    def test_matrix_specs_label_trace_workloads(self, tmp_path):
        path = build_trace_file("update", tmp_path / "u.trace", scale=SCALE)
        specs = matrix_specs(["mmap", "oracle"],
                             [trace_source_name(path), "seqRd"])
        assert specs[0].result_key == ("mmap", "update")
        assert specs[1].result_key == ("oracle", "update")
        assert specs[2].result_key == ("mmap", "seqRd")
        # the label is presentation only: canonical() still hashes the path
        assert specs[0].canonical()["workload"].startswith("trace:")
        round_tripped = RunSpec.from_dict(specs[0].to_dict())
        assert round_tripped == specs[0]

    def test_estimate_spec_cost_reads_footer_length(self, tmp_path):
        path = build_trace_file("update", tmp_path / "u.trace", scale=SCALE)
        spec = RunSpec(platform="mmap", workload=trace_source_name(path))
        tiny = dataclasses.replace(SCALE, min_accesses=1, max_accesses=2)
        # the file fixes its length; the estimating scale's clamps don't
        assert estimate_spec_cost(spec, tiny) == len(build_trace(
            "update", SCALE))

    def test_build_trace_accepts_trace_sources(self, tmp_path):
        path = build_trace_file("KMN", tmp_path / "k.trace", scale=SCALE)
        trace = build_trace(trace_source_name(path), SCALE)
        assert isinstance(trace.stream, FileAccessStream)
        assert trace.name == "KMN"
        override = build_trace(trace_source_name(path), SCALE,
                               dataset_bytes_override=MB(64))
        assert override.dataset_bytes == MB(64)


# ---------------------------------------------------------------------------
# Importers
# ---------------------------------------------------------------------------


class TestImporters:
    def test_csv_round_trip(self, tmp_path):
        source = tmp_path / "log.csv"
        source.write_text("address,size,write\n"
                          "# comment\n"
                          "0x1000,64,w\n"
                          "8192,,r\n"
                          "12288\n"
                          "16384,128,1\n")
        path = import_csv(source, tmp_path / "log.trace", default_size=32,
                          chunk_accesses=2)
        stream = load_trace_file(path).stream
        assert stream.addresses.tolist() == [4096, 8192, 12288, 16384]
        assert stream.sizes.tolist() == [64, 32, 32, 128]
        assert stream.writes.tolist() == [True, False, False, True]
        footer = read_trace_footer(path)
        assert footer["meta"]["suite"] == "imported"
        assert footer["provenance"] is None

    def test_csv_bad_row_rejected(self, tmp_path):
        source = tmp_path / "log.csv"
        source.write_text("4096,64,w\nnot-an-address,64,r\n")
        with pytest.raises(TraceFormatError, match="bad address"):
            import_csv(source, tmp_path / "log.trace")
        assert not (tmp_path / "log.trace").exists()  # aborted atomically

    def test_binary_addr64_round_trip(self, tmp_path):
        addresses = np.arange(0, 640, 64, dtype="<u8")
        source = tmp_path / "a.bin"
        source.write_bytes(addresses.tobytes())
        path = import_binary(source, tmp_path / "a.trace", layout="addr64",
                             access_size=128, chunk_accesses=3)
        stream = load_trace_file(path).stream
        assert stream.addresses.tolist() == addresses.tolist()
        assert set(stream.sizes.tolist()) == {128}
        assert not stream.writes.any()

    def test_binary_records_round_trip(self, tmp_path):
        records = [(0, 64, 1), (4096, 128, 0), (8192, 32, 1)]
        source = tmp_path / "r.bin"
        source.write_bytes(b"".join(
            struct.pack("<QQB", *record) for record in records))
        path = import_binary(source, tmp_path / "r.trace", layout="records",
                             chunk_accesses=2, compression="zlib")
        stream = load_trace_file(path).stream
        assert stream.addresses.tolist() == [0, 4096, 8192]
        assert stream.sizes.tolist() == [64, 128, 32]
        assert stream.writes.tolist() == [True, False, True]

    def test_binary_truncated_rejected(self, tmp_path):
        source = tmp_path / "t.bin"
        source.write_bytes(b"\x00" * 12)  # not a multiple of 8
        with pytest.raises(TraceFormatError, match="truncated"):
            import_binary(source, tmp_path / "t.trace", layout="addr64")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestTraceCLI:
    def test_build_info_verify_run(self, tmp_path, capsys):
        trace = tmp_path / "seqRd.trace"
        assert repro_main(["trace", "build", str(trace), "--workload",
                           "seqRd", "--smoke", "--accesses", "300"]) == 0
        assert read_trace_footer(trace)["length"] == 300
        assert repro_main(["trace", "info", str(trace)]) == 0
        assert "provenance" in capsys.readouterr().out
        assert repro_main(["trace", "verify", str(trace)]) == 0

    def test_verify_fails_on_corruption(self, tmp_path, capsys):
        trace = tmp_path / "s.trace"
        build_trace_file("seqRd", trace, scale=SCALE)
        _flip_byte(trace, HEADER_SIZE + 1)
        assert repro_main(["trace", "verify", str(trace)]) == 1

    def test_import_csv_cli(self, tmp_path, capsys):
        source = tmp_path / "in.csv"
        source.write_text("4096,64,w\n8192,64,r\n")
        out = tmp_path / "in.trace"
        assert repro_main(["trace", "import", str(source), str(out),
                           "--format", "csv"]) == 0
        assert read_trace_footer(out)["length"] == 2

    def test_run_replays_trace_workload(self, tmp_path, capsys):
        trace = tmp_path / "seqRd.trace"
        build_trace_file("seqRd", trace, scale=SCALE)
        code = repro_main([
            "run", "--smoke", "--no-cache", "--executor", "serial",
            "--platforms", "mmap", "--workloads", f"trace:{trace}",
            "--output-dir", str(tmp_path / "out"), "--quiet"])
        assert code == 0
        import json
        artifact = json.loads(
            (tmp_path / "out" / "custom.json").read_text())
        assert artifact["runs"][0]["workload_key"] == "seqRd"
        assert artifact["runs"][0]["result"]["workload"] == "seqRd"
