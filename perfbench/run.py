#!/usr/bin/env python3
"""The repository benchmark: end-to-end and per-layer host time of the replay.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig16-cold --seed 42 \
        --seconds 20 --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen):

* ``fig16-cold`` -- the ``fig16`` preset (11 platforms x 12 Table III
  workloads) at the library-default scale, through
  ``Session(executor="serial")`` with a fresh, empty run cache: the
  command users run to reproduce Figure 16.
* ``replay-fine`` -- one long fine-grained ``update`` trace (64 B zipfian,
  50% stores) frozen to a zlib ``repro.trace/1`` file and replayed as a
  ``trace:`` source on five platforms.
* ``replay-page`` -- one long page-granular ``rndWr`` trace (4 KB hotspot,
  90% stores), same five platforms.

The load is a closed loop: one process issues one run at a time.  Set-up
(interpreter start, imports and trace-file generation, in a child process)
is repeated five times and reported as a median.  Passes over the workload
repeat until ``--seconds`` have elapsed (at least one pass); each pass uses
a fresh session and an empty run cache.  A fixed reference loop probes the
host every 50 ms, and host times are reported at the host's undisturbed
speed: each run's time is divided by how much other tenants slowed the
host while it ran (:class:`Probe`), then the median over its executions is
taken (very short runs get extra copies, see :func:`short_copies`).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced pass, then one traced pass with spans around each layer's entry
points (:mod:`spans`), then a warm pass against the cache the traced pass
filled, and reports the per-layer metrics.

Correctness: every run's ``run_result_to_dict`` is hashed.  At the default
seed each digest must equal the one committed in ``perfbench/digests.json``;
at every seed a run must pass basic invariants and give the same digest in
every pass, traced or not.  A run that raises counts as failed.  The last
line of standard output is one JSON object with ``correct``, ``attempted``
(runs), ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import dataclasses
import hashlib
import json
import math
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from array import array
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Generated inputs and run caches of one invocation; removed at exit.
WORK = ROOT / ".bench_work"
#: Spans and per-seed digests, written at the end of a run.
OUT = ROOT / ".bench_out"
DIGESTS = HERE / "digests.json"

#: The seed the committed digests were recorded at (ExperimentScale's
#: default, so ``--seed 42`` reproduces what users run).
DEFAULT_SEED = 42
SETUP_REPEATS = 5
#: A run taking under ``SHORT_RUN_SHARE`` of the first pass (oracle on the
#: page-granular trace: ~25 ms of ~7 s) is too short to time once per
#: pass: later passes append ``SHORT_RUN_COPIES`` labelled copies of it.
SHORT_RUN_SHARE = 0.01
SHORT_RUN_COPIES = 4

#: The paper's headline claims, from EXPERIMENTS.md "Headline claims":
#: HAMS +97% (hams-LE) / +119% (hams-TE) over mmap, energy -41% / -45%.
PAPER_SPEEDUP_PCT = {"hams-LE": 97.0, "hams-TE": 119.0}
PAPER_ENERGY_PCT = {"hams-LE": -41.0, "hams-TE": -45.0}

#: The platforms both replay workloads run; each has a ``rate.*`` metric.
RATE_PLATFORMS = ("mmap", "flatflash-M", "nvdimm-C", "hams-TE", "oracle")

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "wall_s": "s",
    "accesses_per_s": "1/s",
    "run_p50_s": "s",
    "run_p90_s": "s",
    **{f"rate.{name}": "1/s" for name in RATE_PLATFORMS},
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "paper_gap_pts": "pp",
}

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER = {
    "workloads.build_s": "s",
    "trace.write_s": "s",
    "trace.read_s": "s",
    "trace.chunks": "count",
    "platforms.create_s": "s",
    "platforms.prepare_s": "s",
    "platforms.service_self_s": "s",
    "platforms.run_self_s": "s",
    "platforms.requests": "count",
    "flash.precondition_s": "s",
    "flash.precondition_pages": "count",
    "flash.submit_batch_s": "s",
    "flash.submit_batch_requests": "count",
    "flash.scalar_io_s": "s",
    "flash.scalar_io_calls": "count",
    "flash.page_reads": "count",
    "flash.buffer_read_hit_rate": "ratio",
    "host.caches.filter_s": "s",
    "host.caches.accesses": "count",
    "host.caches.l1_hit_rate": "ratio",
    "host.caches.l2_hit_rate": "ratio",
    "host.page_cache.walk_s": "s",
    "host.page_cache.hit_rate": "ratio",
    "core.classify_s": "s",
    "core.replay_miss_s": "s",
    "core.replay_misses": "count",
    "core.mos_hit_rate": "ratio",
    "memory.access_batch_s": "s",
    "runner.cache_key_s": "s",
    "runner.cache_probe_s": "s",
    "runner.cache_store_s": "s",
    "runner.warm_pass_s": "s",
    "runner.cache_load_s": "s",
    "exec.overhead_s": "s",
    "energy_gap_pts": "pp",
    "tracing.wall_s": "s",
    "tracing.overhead_ratio": "ratio",
    "other_s": "s",
}


@dataclass(frozen=True)
class Plan:
    """What one workload replays.

    ``workloads`` are registry names replayed as-is; a plan with a
    ``trace_workload`` instead freezes that registry workload to a
    ``trace:`` file during set-up and replays the file.  ``scale`` carries
    everything but the seed, which comes from ``--seed``.
    """

    name: str
    platforms: Tuple[str, ...]
    workloads: Tuple[str, ...]
    scale: object
    trace_workload: Optional[str] = None

    def scale_for(self, seed: int):
        return dataclasses.replace(self.scale, seed=seed)


def plans() -> Dict[str, Plan]:
    """The benchmark's workloads (imports the program; call after setup)."""
    from repro.runner.presets import get_preset
    from repro.workloads.registry import ExperimentScale

    fig16 = get_preset("fig16")
    return {
        "fig16-cold": Plan("fig16-cold", fig16.platforms, fig16.workloads,
                           ExperimentScale()),
        # Long traces amortise each platform's SSD preconditioning; the
        # lengths keep one pass near 7 s on a 2-core host.
        "replay-fine": Plan("replay-fine", RATE_PLATFORMS, (),
                            ExperimentScale(min_accesses=400_000,
                                            max_accesses=400_000),
                            trace_workload="update"),
        "replay-page": Plan("replay-page", RATE_PLATFORMS, (),
                            ExperimentScale(min_accesses=400_000,
                                            max_accesses=400_000),
                            trace_workload="rndWr"),
    }


# -- host probe ---------------------------------------------------------------


def _reference_loop() -> int:
    """Fixed plain-Python work (an LRU table walk, ~0.5 ms); no repo code."""
    table: "OrderedDict[int, int]" = OrderedDict()
    hits = 0
    for i in range(2000):
        key = (i * 7919) % 769
        if key in table:
            table.move_to_end(key)
            hits += 1
        else:
            table[key] = i
            if len(table) > 512:
                table.popitem(last=False)
    return hits


class Probe:
    """Measures how much other tenants slow this host, run by run.

    On a shared host, neighbours slow every process in bursts of one to a
    few seconds by up to 2x, CPU time included, so one execution's raw
    wall or CPU time is not steady.  While :meth:`running`, a timer signal
    runs :func:`_reference_loop` every ``INTERVAL_S`` (about 1% of the
    time) and records how long it took.  An interval's *slowdown* is the
    mean tick within ``PAD_S`` of it over ``NOMINAL_TICK_S``, the tick of
    an undisturbed host (the 10th percentile of the ticks of quiet runs on
    the 2-core Xeon VM this was tuned on); dividing host time by it gives
    seconds at that undisturbed speed.  A fixed nominal tick keeps a busy
    invocation from moving the unit.  Tick time is taken off every
    interval.
    """

    INTERVAL_S = 0.05
    PAD_S = 0.15
    NOMINAL_TICK_S = 0.00053

    def __init__(self) -> None:
        self.starts = array("d")
        self.durations = array("d")

    def _tick(self, signum, frame) -> None:
        started = time.perf_counter()
        _reference_loop()
        self.starts.append(started)
        self.durations.append(time.perf_counter() - started)

    @contextlib.contextmanager
    def running(self) -> Iterator["Probe"]:
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def _ticks(self, start: float, end: float) -> array:
        return self.durations[bisect.bisect_left(self.starts, start):
                              bisect.bisect_left(self.starts, end)]

    def slowdown(self, start: float, end: float) -> float:
        """Mean tick near ``[start, end)`` over the nominal tick (1.0 when
        no tick was taken)."""
        ticks = self._ticks(start - self.PAD_S, end + self.PAD_S)
        if not ticks:
            return 1.0
        return statistics.fmean(ticks) / self.NOMINAL_TICK_S

    def seconds(self, start: float, end: float) -> float:
        """Host time of ``[start, end)`` less ticks, at undisturbed speed."""
        busy = sum(self._ticks(start, end))
        return (end - start - busy) / self.slowdown(start, end)


# -- inputs -------------------------------------------------------------------


def write_trace(workload: str, scale_json: str, path: str) -> None:
    """Freeze registry *workload* at the given scale to a zlib trace file."""
    from repro.trace.writer import build_trace_file
    from repro.workloads.registry import ExperimentScale

    build_trace_file(workload, path,
                     scale=ExperimentScale(**json.loads(scale_json)),
                     compression="zlib")


_SETUP_CHILD = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import repro.api, run\n"
    "if len(sys.argv) > 3: run.write_trace(*sys.argv[3:6])\n")


def setup(plan: Plan, seed: int,
          work: Path) -> Tuple[List[Tuple[float, float]], Optional[Path]]:
    """Time set-up in a fresh interpreter, ``SETUP_REPEATS`` times.

    One set-up is what a user pays before the first run: interpreter
    start, ``import repro.api`` and, for replay workloads, generating the
    ``trace:`` file.  The file is regenerated identically each repetition.
    Returns the ``(start, end)`` of each repetition and the trace path.
    """
    argv = [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(HERE)]
    path = None
    if plan.trace_workload is not None:
        path = work / f"{plan.trace_workload}.trace"
        argv += [plan.trace_workload,
                 json.dumps(dataclasses.asdict(plan.scale_for(seed))),
                 str(path)]
    intervals = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run(argv, check=True, cwd=ROOT)
        intervals.append((started, time.perf_counter()))
    return intervals, path


def sources(plan: Plan, trace_path: Optional[Path]) -> Tuple[str, ...]:
    """The workload sources the plan's runs replay."""
    if trace_path is not None:
        return (f"trace:{trace_path}",)
    return plan.workloads


# -- one pass -----------------------------------------------------------------


def run_id(spec) -> str:
    """``platform/workload`` -- a trace file reports its recorded workload;
    a copy of a short run reports ``platform#n/workload``."""
    platform, workload = spec.result_key
    return f"{platform}/{workload}"


def base_id(rid: str) -> str:
    """The run an id names: ``mmap#2/update`` -> ``mmap/update``."""
    platform, _, workload = rid.partition("/")
    return f"{platform.partition('#')[0]}/{workload}"


def short_copies(specs: list, first: Pass) -> list:
    """Labelled copies of the runs far shorter than *first*, the first pass.

    A label renames the result key but not the run-cache key, so a copy
    replays the identical run, in the same session and after the same
    runs as the original.
    """
    total = sum(end - start for start, end in first.intervals.values())
    return [dataclasses.replace(spec, label=f"{spec.platform}#{copy}")
            for spec in specs
            if run_id(spec) in first.intervals
            and (first.intervals[run_id(spec)][1]
                 - first.intervals[run_id(spec)][0]) < SHORT_RUN_SHARE * total
            for copy in range(2, 2 + SHORT_RUN_COPIES)]


def run_digest(result) -> str:
    """sha256 of the canonical JSON form of a RunResult."""
    from repro.runner.artifacts import run_result_to_dict

    payload = json.dumps(run_result_to_dict(result), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class Pass:
    """One pass over some runs: results, per-run host time, failures.

    ``intervals`` holds each run's ``(start, end)`` on the
    ``time.perf_counter`` clock.
    """

    wall_s: float
    experiment: object
    results: Dict[str, object] = field(default_factory=dict)
    intervals: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    errors: Dict[str, str] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.results) + len(self.errors)

    def digests(self) -> Dict[str, str]:
        return {rid: run_digest(result)
                for rid, result in self.results.items()}


def run_pass(plan: Plan, specs: list, seed: int, cache_dir: Path) -> Pass:
    """Submit *specs* once through a fresh serial session.

    A run's host time is the gap between consecutive results: replay plus
    its cache store, as a user of ``iter_results()`` sees it.  A run that
    raises is recorded as failed and the pass continues with the next spec.
    """
    from repro.analysis.experiments import ExperimentResult
    from repro.api import Session

    started = time.perf_counter()
    session = Session(scale=plan.scale_for(seed), executor="serial",
                      cache_dir=cache_dir)
    remaining = list(specs)
    done = Pass(wall_s=0.0, experiment=ExperimentResult(scale=session.scale))
    last = time.perf_counter()
    while remaining:
        handle = session.submit(remaining, name=plan.name)
        finished = set()
        try:
            for run in handle.iter_results():
                now = time.perf_counter()
                rid = run_id(run.spec)
                done.results[rid] = run.result
                done.intervals[rid] = (last, now)
                done.experiment.add(*run.spec.result_key, run.result)
                finished.add(run.index)
                last = now
            remaining = []
        except Exception:  # a failing run must not end the measurement
            index = min(set(range(len(remaining))) - finished)
            done.errors[run_id(remaining[index])] = traceback.format_exc()
            print(done.errors[run_id(remaining[index])], file=sys.stderr)
            remaining = remaining[index + 1:]
            last = time.perf_counter()
    done.wall_s = time.perf_counter() - started
    return done


# -- correctness --------------------------------------------------------------


def run_problems(result) -> List[str]:
    """Invariants every RunResult satisfies, whatever the seed."""
    problems = []
    if not (math.isfinite(result.total_ns) and result.total_ns > 0):
        problems.append(f"total_ns={result.total_ns}")
    if not result.operations > 0:
        problems.append(f"operations={result.operations}")
    if not 0 <= result.offchip_accesses <= result.memory_accesses:
        problems.append(f"offchip={result.offchip_accesses} of "
                        f"{result.memory_accesses} accesses")
    if not (math.isfinite(result.energy.total_nj)
            and result.energy.total_nj > 0):
        problems.append(f"energy={result.energy.total_nj}")
    return problems


def failed_runs(done: Pass, expected: Optional[Dict[str, str]],
                reference: Optional[Dict[str, str]]) -> Dict[str, str]:
    """Run id -> reason, for every run of *done* that failed its check.

    *expected* holds the committed digests (default seed only);
    *reference* the digests of an earlier pass of this invocation.
    """
    failures = {rid: "raised" for rid in done.errors}
    for rid, digest in done.digests().items():
        problems = run_problems(done.results[rid])
        if problems:
            failures[rid] = "; ".join(problems)
        elif expected is not None and expected.get(base_id(rid)) != digest:
            failures[rid] = "digest differs from perfbench/digests.json"
        elif reference is not None and reference.get(base_id(rid)) != digest:
            failures[rid] = "digest differs from the first pass"
    return failures


def load_expected(workload: str) -> Dict[str, str]:
    if not DIGESTS.is_file():
        return {}
    payload = json.loads(DIGESTS.read_text(encoding="utf-8"))
    return payload["workloads"].get(workload, {})


def record_digests(workload: str, digests: Dict[str, str]) -> None:
    payload = {"seed": DEFAULT_SEED, "workloads": {}}
    if DIGESTS.is_file():
        payload = json.loads(DIGESTS.read_text(encoding="utf-8"))
    payload["workloads"][workload] = dict(sorted(digests.items()))
    DIGESTS.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")


# -- metrics ------------------------------------------------------------------


def percentile(samples: List[float], pct: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def paper_gap(experiment, plan: Plan, claims: Dict[str, float],
              measure: str) -> float:
    """Mean |reproduced - paper| in percentage points, against mmap.

    Over the HAMS variants the plan runs; *measure* is ``mean_speedup`` or
    ``energy_ratio`` of :class:`~repro.analysis.experiments.ExperimentResult`.
    """
    gaps = [abs((getattr(experiment, measure)(variant, "mmap") - 1.0) * 100.0
                - claim)
            for variant, claim in claims.items() if variant in plan.platforms]
    return sum(gaps) / len(gaps)


def run_seconds(passes: List[Pass], probe: Probe) -> Dict[str, float]:
    """Each run's median host time over its executions, at undisturbed
    speed."""
    executions: Dict[str, List[float]] = {}
    for done in passes:
        for rid, interval in done.intervals.items():
            executions.setdefault(base_id(rid), []).append(
                probe.seconds(*interval))
    return {rid: statistics.median(times)
            for rid, times in executions.items()}


def end_to_end(plan: Plan, passes: List[Pass],
               setup_intervals: List[Tuple[float, float]],
               probe: Probe) -> Dict[str, float]:
    """The ``--trace 0`` metrics, in seconds at undisturbed speed (see
    :class:`Probe`).

    ``wall_s`` is one pass: the sum of every run's time plus the median
    time a pass spends outside its runs (session, cache keys, fold).
    """
    best = run_seconds(passes, probe)
    accesses = {base_id(rid): result.memory_accesses
                for done in passes for rid, result in done.results.items()}
    outside = statistics.median(
        done.wall_s - sum(end - start
                          for start, end in done.intervals.values())
        for done in passes)
    wall = sum(best.values()) + outside
    metrics = {
        "wall_s": wall,
        "accesses_per_s": sum(accesses[rid] for rid in best) / wall,
        "run_p50_s": percentile(list(best.values()), 50),
        "run_p90_s": percentile(list(best.values()), 90),
    }
    for platform in RATE_PLATFORMS:
        rids = [rid for rid in best if rid.split("/")[0] == platform]
        seconds = sum(best[rid] for rid in rids)
        # 0 only when every run of the platform raised (correct is false).
        metrics[f"rate.{platform}"] = (sum(accesses[rid] for rid in rids)
                                       / seconds if seconds else 0.0)
    metrics["setup_s"] = statistics.median(
        probe.seconds(*interval) for interval in setup_intervals)
    metrics["peak_rss_mb"] = peak_rss_mb()
    metrics["paper_gap_pts"] = paper_gap(passes[0].experiment, plan,
                                         PAPER_SPEEDUP_PCT, "mean_speedup")
    return metrics


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_layer(plan: Plan, untraced: Pass, traced: Pass, warm: Pass,
              cold, warm_spans, write_s: float) -> Dict[str, float]:
    """The ``--trace 1`` metrics from the cold and warm span recorders.

    Every metric in :data:`spans.SELF_TIME_METRICS` is the summed self time
    of its spans in the traced cold pass; those plus ``other_s`` add up to
    ``tracing.wall_s``.  Outside that sum: ``platforms.prepare_s`` (the
    whole prepare phase, mostly ``flash.precondition_s``),
    ``trace.write_s`` (set-up), ``runner.warm_pass_s`` /
    ``runner.cache_load_s`` (warm pass) and ``exec.overhead_s`` (wall
    minus whole-run spans).
    """
    import spans

    def ratio(hits: str, total: str) -> float:
        denominator = cold.counters.get(total, 0.0)
        if not denominator:
            return 0.0
        return cold.counters.get(hits, 0.0) / denominator

    metrics = {name: cold.self_s.get(span, 0.0)
               for span, name in spans.SELF_TIME_METRICS.items()}
    metrics["other_s"] = traced.wall_s - sum(metrics.values())
    metrics.update({
        "platforms.prepare_s": cold.total_s.get(spans.PREPARE, 0.0),
        "trace.write_s": write_s,
        "runner.warm_pass_s": warm.wall_s,
        "runner.cache_load_s": warm_spans.self_s.get(spans.CACHE_LOAD, 0.0),
        "exec.overhead_s": traced.wall_s - cold.total_s.get(spans.RUN, 0.0),
        "tracing.wall_s": traced.wall_s,
        "tracing.overhead_ratio": traced.wall_s / untraced.wall_s,
        "energy_gap_pts": paper_gap(untraced.experiment, plan,
                                    PAPER_ENERGY_PCT, "energy_ratio"),
        "flash.buffer_read_hit_rate": ratio("buffer_read_hits",
                                            "buffer_reads"),
        "host.caches.l1_hit_rate": ratio("l1_hits", "l1_lookups"),
        "host.caches.l2_hit_rate": ratio("l2_hits", "l2_lookups"),
        "host.page_cache.hit_rate": ratio("page_cache_hits",
                                          "page_cache_lookups"),
        "core.mos_hit_rate": ratio("mos_hits", "mos_accesses"),
    })
    for counter in ("trace.chunks", "platforms.requests",
                    "flash.precondition_pages", "flash.submit_batch_requests",
                    "flash.scalar_io_calls", "flash.page_reads",
                    "host.caches.accesses", "core.replay_misses"):
        metrics[counter] = cold.counters.get(counter, 0.0)
    return metrics


# -- driver -------------------------------------------------------------------


def measure(plan: Plan, seed: int, seconds: float, trace: bool, work: Path,
            expected: Optional[Dict[str, str]]) -> dict:
    """Set up, run the passes, check every run; returns the result object.

    The result also carries ``digests`` (first pass) and, when traced,
    ``spans`` (the cold-pass recorder) for the caller to write out.
    """
    from repro.runner.specs import matrix_specs

    probe = Probe()
    passes: List[Pass] = []
    with contextlib.ExitStack() as stack:
        if not trace:
            stack.enter_context(probe.running())
        setup_intervals, trace_path = setup(plan, seed, work)
        specs = matrix_specs(plan.platforms, sources(plan, trace_path))
        started = time.perf_counter()
        passes.append(run_pass(plan, specs, seed, work / "cache-0"))
        copies = short_copies(specs, passes[0])
        while not trace and time.perf_counter() - started < seconds:
            passes.append(run_pass(plan, specs + copies, seed,
                                   work / f"cache-{len(passes)}"))
    reference = passes[0].digests()
    failures = {}
    for index, done in enumerate(passes):
        failures.update({f"pass{index}:{rid}": why for rid, why in
                         failed_runs(done, expected,
                                     reference if index else None).items()})
    outcome = {"passes": passes, "digests": reference, "spans": None}
    if trace:
        import spans

        write_s = 0.0
        if plan.trace_workload is not None:
            started = time.perf_counter()
            write_trace(plan.trace_workload,
                        json.dumps(dataclasses.asdict(plan.scale_for(seed))),
                        str(work / "rewrite.trace"))
            write_s = time.perf_counter() - started
        cold, warm_spans = spans.SpanRecorder(), spans.SpanRecorder()
        with spans.instrument(cold):
            traced = run_pass(plan, specs, seed, work / "cache-traced")
        with spans.instrument(warm_spans):
            warm = run_pass(plan, specs, seed, work / "cache-traced")
        for label, done in (("traced", traced), ("warm", warm)):
            failures.update({f"{label}:{rid}": why for rid, why in
                             failed_runs(done, expected, reference).items()})
        passes += [traced, warm]
        metrics = per_layer(plan, passes[0], traced, warm, cold, warm_spans,
                            write_s)
        if metrics["other_s"] < 0:
            failures["spans"] = f"self times exceed the wall: {metrics}"
        units = PER_LAYER
        outcome["spans"] = cold
    else:
        metrics = end_to_end(plan, passes, setup_intervals, probe)
        units = END_TO_END
        print(f"{len(passes)} passes, {len(copies) * (len(passes) - 1)} "
              f"short-run copies, raw wall_s "
              f"{[round(done.wall_s, 3) for done in passes]}, mean slowdown "
              f"{probe.slowdown(-math.inf, math.inf):.3f} over "
              f"{len(probe.durations)} probe ticks", file=sys.stderr)
    for why in sorted(failures.items()):
        print("failed:", *why, file=sys.stderr)
    outcome["result"] = {
        "correct": not failures,
        "attempted": sum(done.attempted for done in passes),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return outcome


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end and per-layer benchmark of the HAMS "
                    "reproduction.")
    parser.add_argument("--workload", required=True,
                        choices=("fig16-cold", "replay-fine", "replay-page"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure passes until this much time elapsed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="write this run's digests to perfbench/"
                             "digests.json (default seed only)")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'repro'} is missing; "
              f"run from a full checkout", file=sys.stderr)
        return 2
    if args.record_digests and args.seed != DEFAULT_SEED:
        parser.error(f"--record-digests needs --seed {DEFAULT_SEED}")
    sys.path.insert(0, str(SRC))
    plan = plans()[args.workload]
    expected = None
    if args.seed == DEFAULT_SEED and not args.record_digests:
        expected = load_expected(args.workload)

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        outcome = measure(plan, args.seed, args.seconds, bool(args.trace),
                          work, expected)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    tag = f"{args.workload}-seed{args.seed}"
    if args.record_digests:
        record_digests(args.workload, outcome["digests"])
    OUT.mkdir(exist_ok=True)
    digest_path = OUT / f"digests-{tag}.json"
    digest_path.write_text(json.dumps(outcome["digests"], indent=1,
                                      sort_keys=True) + "\n",
                           encoding="utf-8")
    combined = hashlib.sha256(digest_path.read_bytes()).hexdigest()
    print(f"digests: {digest_path.relative_to(ROOT)} sha256={combined}")
    if outcome["spans"] is not None:
        spans_path = outcome["spans"].save(OUT / f"spans-{tag}.json")
        print(f"spans: {spans_path.relative_to(ROOT)}")
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
