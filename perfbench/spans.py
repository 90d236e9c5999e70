"""Span recorder and layer instrumentation for the traced benchmark pass.

The traced pass wraps the public entry points of each layer of the
reproduction from *outside* the program: :func:`instrument` replaces a
method or module function with a wrapper that opens a span, calls the
original and closes the span, and restores every original on exit.  Nothing
in ``src/`` knows it is being observed, so run results stay bit-identical
(the benchmark checks this by digest).

Spans are recorded in memory as columns (name, start, end, parent, run) and
written once, at the end, by :meth:`SpanRecorder.save`.  A span's *self*
time is its duration minus the time covered by its direct children; the
recorder folds self time, counts and simulated counters per span name as
spans close, so the per-layer report needs no second pass over the spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

# Span names, one per layer entry point.  ``run`` is the per-run span
# (``execute_spec``); every other span of a run nests under it.
RUN = "run"
BUILD = "workloads.build"
READ = "trace.read"
CREATE = "platforms.create"
PLATFORM_RUN = "platforms.run"
PREPARE = "platforms.prepare"
SERVICE = "platforms.service"
PRECONDITION = "flash.precondition"
SUBMIT_BATCH = "flash.submit_batch"
SCALAR_IO = "flash.scalar_io"
FILTER = "host.caches.filter"
WALK = "host.page_cache.walk"
CLASSIFY = "core.classify"
REPLAY_MISS = "core.replay_miss"
MEMORY = "memory.access_batch"
CACHE_KEY = "runner.cache_key"
CACHE_STORE = "runner.cache_store"
CACHE_LOAD = "runner.cache_load"

#: Self-time metric name of each span name, for the traced cold pass; these
#: plus ``other_s`` add up to the pass's wall time.  The run span's own self
#: time (spec/config glue in ``execute_spec``) and ``prepare``'s (placement
#: around the SSD preconditioning) are left unattributed: they land in
#: ``other_s`` with executor and handle overhead.  ``platforms.prepare_s``
#: is reported as the whole prepare phase instead.  Cache loads in a cold
#: pass are misses, hence ``cache_probe``; the warm pass reports its loads
#: as ``runner.cache_load_s``.
SELF_TIME_METRICS = {
    BUILD: "workloads.build_s",
    READ: "trace.read_s",
    CREATE: "platforms.create_s",
    PLATFORM_RUN: "platforms.run_self_s",
    SERVICE: "platforms.service_self_s",
    PRECONDITION: "flash.precondition_s",
    SUBMIT_BATCH: "flash.submit_batch_s",
    SCALAR_IO: "flash.scalar_io_s",
    FILTER: "host.caches.filter_s",
    WALK: "host.page_cache.walk_s",
    CLASSIFY: "core.classify_s",
    REPLAY_MISS: "core.replay_miss_s",
    MEMORY: "memory.access_batch_s",
    CACHE_KEY: "runner.cache_key_s",
    CACHE_STORE: "runner.cache_store_s",
    CACHE_LOAD: "runner.cache_probe_s",
}


class SpanRecorder:
    """In-memory span columns plus running per-name aggregates."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.runs: List[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        # Open spans: (span index, name, start, child time).
        self._stack: List[list] = []
        self._run_id = -1
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.counters: Dict[str, float] = defaultdict(float)

    @property
    def top(self) -> Optional[str]:
        """Name of the innermost open span (``None`` outside any span)."""
        return self._stack[-1][1] if self._stack else None

    def begin_run(self, run_id: str) -> None:
        """Tag the spans that follow with *run_id* (platform/workload)."""
        self.runs.append(run_id)
        self._run_id = len(self.runs) - 1

    def open(self, name: str) -> None:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.run.append(self._run_id)
        self.end.append(0.0)
        now = time.perf_counter()
        self.start.append(now)
        self._stack.append([index, name, now, 0.0])

    def close(self) -> None:
        now = time.perf_counter()
        index, name, started, child = self._stack.pop()
        self.end[index] = now
        duration = now - started
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        if self._stack:
            self._stack[-1][3] += duration

    def count(self, counter: str, amount: float = 1.0) -> None:
        self.counters[counter] += amount

    def save(self, path: Path) -> Path:
        """Write every span as one JSON document (columns + name tables)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": "perfbench.spans/1",
            "names": self.names,
            "runs": self.runs,
            "columns": ["name", "start", "end", "parent", "run"],
            "name": self.name_id.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "run": self.run.tolist(),
        }
        path.write_text(json.dumps(payload, separators=(",", ":")),
                        encoding="utf-8")
        return path


def _span_wrapper(recorder: SpanRecorder, original: Callable, name: str,
                  before: Optional[Callable] = None,
                  after: Optional[Callable] = None,
                  skip_inside: frozenset = frozenset()) -> Callable:
    """Wrap *original* in a span called *name*.

    *before(args, kwargs)* runs first (counters that read the arguments),
    *after(args, result)* runs once the span closed (counters that read the
    result or the object's final state).  A call made while the innermost
    open span is one of *skip_inside* records nothing: the enclosing span
    already owns it (``SSD.read`` -> ``submit`` -> ``submit_batch``).
    """

    @functools.wraps(original)
    def traced(*args, **kwargs):
        if skip_inside and recorder.top in skip_inside:
            return original(*args, **kwargs)
        if before is not None:
            before(args, kwargs)
        recorder.open(name)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.close()
        if after is not None:
            after(args, result)
        return result

    return traced


def _harvest_platform(recorder: SpanRecorder, platform,
                      hams_type: type) -> None:
    """Fold the simulated device counters of a finished run."""
    caches = platform.caches
    recorder.count("l1_hits", caches.l1.hits)
    recorder.count("l1_lookups", caches.l1.hits + caches.l1.misses)
    recorder.count("l2_hits", caches.l2.hits)
    recorder.count("l2_lookups", caches.l2.hits + caches.l2.misses)
    controller = getattr(platform, "controller", None)
    ssd = getattr(platform, "ssd", None) or getattr(controller, "ssd", None)
    if ssd is not None:
        stats = ssd.statistics()
        recorder.count("flash.page_reads", stats["flash_page_reads"])
        recorder.count("buffer_read_hits", stats["flash_buffer_read_hits"])
        recorder.count("buffer_reads", stats["flash_buffer_read_hits"]
                       + stats["flash_buffer_read_misses"])
    if isinstance(controller, hams_type):
        recorder.count("mos_hits", controller.hit_rate * controller.accesses)
        recorder.count("mos_accesses", controller.accesses)


@contextlib.contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Install span wrappers on every layer entry point; undo on exit."""
    import repro.platforms.registry as platforms
    import repro.runner.parallel as parallel
    import repro.workloads.registry as registry
    from repro.core.hams_controller import HAMSController
    from repro.flash.ssd import SSD
    from repro.host.caches import CacheHierarchy
    from repro.host.os_stack import PageCache
    from repro.memory.dram import DRAMDevice
    from repro.memory.nvdimm import NVDIMM
    from repro.memory.optane import OptaneDCPMM
    from repro.platforms import base
    from repro.runner.artifacts import RunCache
    from repro.trace.reader import TraceReader

    platform_classes = [base.Platform] + [
        cls for cls in vars(platforms).values()
        if isinstance(cls, type) and issubclass(cls, base.Platform)
        and cls is not base.Platform]

    def run_started(args, kwargs):
        spec = args[0]
        label = spec.workload_label or spec.workload
        recorder.begin_run(f"{spec.platform}/{label}")

    def count_arg(counter: str, position: int, measure=len):
        def before(args, kwargs):
            recorder.count(counter, measure(args[position]))
        return before

    def walk_hits(args, result):
        recorder.count("page_cache_hits", int(result.hits.sum()))
        recorder.count("page_cache_lookups", len(result.hits))

    def platform_finished(args, result):
        _harvest_platform(recorder, args[0], HAMSController)

    def count_call(counter: str):
        def before(args, kwargs):
            recorder.count(counter)
        return before

    # (owner, attribute, span name, before, after)
    targets = [
        (parallel, "execute_spec", RUN, run_started, None),
        (parallel, "create_platform", CREATE, None, None),
        (registry, "build_trace", BUILD, None, None),
        (TraceReader, "window", READ, count_call("trace.chunks"), None),
        (base.Platform, "run", PLATFORM_RUN, None, platform_finished),
        (SSD, "precondition", PRECONDITION,
         count_arg("flash.precondition_pages", 2, int), None),
        (SSD, "submit_batch", SUBMIT_BATCH,
         count_arg("flash.submit_batch_requests", 1), None),
        (CacheHierarchy, "access_batch", FILTER,
         count_arg("host.caches.accesses", 1), None),
        (PageCache, "access_batch", WALK, None, walk_hits),
        (HAMSController, "classify_batch", CLASSIFY, None, None),
        (HAMSController, "replay_miss", REPLAY_MISS,
         count_call("core.replay_misses"), None),
        (parallel.ParallelExperimentRunner, "cache_key", CACHE_KEY, None,
         None),
        (RunCache, "store", CACHE_STORE, None, None),
        (RunCache, "load", CACHE_LOAD, None, None),
    ]
    for method in ("submit", "read", "write"):
        targets.append((SSD, method, SCALAR_IO,
                        count_call("flash.scalar_io_calls"), None))
    for device in (DRAMDevice, NVDIMM, OptaneDCPMM):
        targets.append((device, "access_batch", MEMORY, None, None))
    for cls in platform_classes:
        if "prepare" in vars(cls):
            targets.append((cls, "prepare", PREPARE, None, None))
        if "service_batch" in vars(cls):
            targets.append((cls, "service_batch", SERVICE,
                            count_arg("platforms.requests", 1), None))

    # SSD.read -> submit -> submit_batch is one scalar I/O, owned by the
    # outermost scalar span.
    scalar = frozenset({SCALAR_IO})
    originals = []
    try:
        for owner, attribute, name, before, after in targets:
            original = vars(owner)[attribute]
            originals.append((owner, attribute, original))
            skip = scalar if name in (SCALAR_IO, SUBMIT_BATCH) else frozenset()
            setattr(owner, attribute, _span_wrapper(
                recorder, original, name, before, after, skip))
        yield recorder
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)
