"""Crash injection between temp-write and rename for the trace writer and
the experiment artifacts.

Both writers build the whole file under a same-directory temp name and
promote it with one ``os.replace``.  Killing exactly that rename must leave
the target absent (a fresh write) or holding its previous bytes (an
overwrite), with no ``.tmp`` sibling left behind — and the writer must not
report a file it never promoted.  Modelled on ``crash_at_rename`` in
``tests/test_spool.py``.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path

import pytest

from repro.api import Session
from repro.runner.artifacts import (
    atomic_write_text,
    load_experiment_artifact,
    write_experiment_artifact,
)
from repro.trace import TraceReader, TraceWriter, read_trace_footer
from repro.workloads.registry import ExperimentScale
from repro.workloads.trace import AccessStream

TINY = ExperimentScale(capacity_scale=1 / 256, min_accesses=200,
                       max_accesses=200)


def write_stream(path, stream: AccessStream, **options):
    """Write one in-memory stream as a trace file."""
    with TraceWriter(path, **options) as writer:
        writer.append(stream)
    return writer.path


@contextlib.contextmanager
def crash_at_rename(target: Path):
    """Make the rename onto *target* raise, as if killed right there."""
    real = os.replace

    def replace(src, dst):
        if Path(dst) == Path(target):
            raise OSError("killed at the rename")
        return real(src, dst)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "replace", replace)
        yield


def listing(directory: Path) -> list:
    return sorted(path.name for path in directory.iterdir())


def stream(count: int) -> AccessStream:
    return AccessStream.from_arrays(list(range(0, 64 * count, 64)), 64,
                                    [index % 2 == 0 for index in range(count)])


# -- TraceWriter.close ---------------------------------------------------------


def test_trace_close_killed_at_rename_leaves_no_file(tmp_path):
    target = tmp_path / "fresh.trace"
    writer = TraceWriter(target, chunk_accesses=3)
    writer.append(stream(7))
    with crash_at_rename(target):
        with pytest.raises(OSError, match="killed at the rename"):
            writer.close()
    assert listing(tmp_path) == []
    # The killed build is not reported as written.
    with pytest.raises(RuntimeError, match="aborted"):
        writer.close()
    assert listing(tmp_path) == []


def test_trace_overwrite_killed_at_rename_keeps_previous_bytes(tmp_path):
    target = tmp_path / "kept.trace"
    write_stream(target, stream(5), compression="zlib")
    previous = target.read_bytes()
    with crash_at_rename(target):
        with pytest.raises(OSError, match="killed at the rename"):
            with TraceWriter(target) as writer:
                writer.append(stream(9))
    assert listing(tmp_path) == ["kept.trace"]
    assert target.read_bytes() == previous
    assert read_trace_footer(target)["length"] == 5
    with TraceReader(target) as reader:
        assert reader.verify()
    # The next build, not killed, lands whole.
    write_stream(target, stream(9))
    assert read_trace_footer(target)["length"] == 9
    assert listing(tmp_path) == ["kept.trace"]


# -- runner.artifacts.atomic_write_text ------------------------------------------


def test_atomic_write_killed_at_rename_leaves_no_file(tmp_path):
    target = tmp_path / "fresh.json"
    with crash_at_rename(target):
        with pytest.raises(OSError, match="killed at the rename"):
            atomic_write_text(target, '{"new": true}\n')
    assert listing(tmp_path) == []


def test_atomic_write_killed_at_rename_keeps_previous_bytes(tmp_path):
    target = tmp_path / "kept.json"
    atomic_write_text(target, '{"old": true}\n')
    with crash_at_rename(target):
        with pytest.raises(OSError, match="killed at the rename"):
            atomic_write_text(target, '{"new": true}\n')
    assert listing(tmp_path) == ["kept.json"]
    assert target.read_text(encoding="utf-8") == '{"old": true}\n'


def test_experiment_artifact_killed_at_rename(tmp_path):
    """An experiment artifact rewritten over a killed rename still loads
    as the previous run's artifact."""
    session = Session(scale=TINY, executor="serial")
    experiment = session.compare(["mmap"], ["seqRd"])
    path = write_experiment_artifact(tmp_path, "demo", experiment,
                                     session.config, meta={"round": 1})
    previous = path.read_bytes()
    with crash_at_rename(path):
        with pytest.raises(OSError, match="killed at the rename"):
            write_experiment_artifact(tmp_path, "demo", experiment,
                                      session.config, meta={"round": 2})
    assert listing(tmp_path) == ["demo.json"]
    assert path.read_bytes() == previous
    assert load_experiment_artifact(path)["meta"] == {"round": 1}
