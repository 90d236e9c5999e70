#!/usr/bin/env python3
"""Replay-throughput microbenchmark: scalar vs batched accesses/sec.

Replays the same traces through the product replay (``Platform.run``, one
``service_batch`` call per chunk) and through the per-access reference
replay of ``tests/oracles/`` (``run_scalar``), and records the accesses/sec
of each, per (platform, workload), as
``results/BENCH_replay_throughput.json``.  The two produce bit-identical
results (see ``tests/test_batched_replay.py``); this records what the
batched path buys in wall-clock terms:

* ``oracle`` / ``optane-P`` have truly vectorized ``service_batch``
  implementations — page-granular traces collapse to numpy work, so these
  are the headline speedups,
* ``nvdimm-C`` / ``optane-M`` / ``bypass-ull-buff`` are the DRAM-cache
  platforms: their batched path runs the order-exact LRU walk
  (``PageCache.access_batch``) plus a vectorized hit fold, so their
  speedup is gated by how much traffic the DRAM cache absorbs.  The
  ``pageHot`` rows (a page-granular page-cache-friendly trace, see
  :func:`build_bench_trace`) are the acceptance rows: each must reach
  >= 5x,
* the ``migrate`` rows are the migration-bound acceptance rows: a
  repeated sequential sweep whose chunk-level locality keeps every
  migration surrounded by cache hits, so a platform only clears the
  >= 5x bar when both its hit fold *and* its flash miss path (one
  ``SSD.walk`` opened per chunk and stepped once per miss) are
  vectorized.  ``nvdimm-C``,
  ``bypass-ull`` (one loop over every miss on one open walk) and
  ``hams-TE`` (the index-sorted tag classification + miss replay) are
  held to it; their ``seqRd`` rows document the colder chunk-miss regime,
* ``mmap`` / ``flatflash-M`` / ``flatflash-P`` are the page-fault
  baselines: their batched path is the same page-cache walk (the fault
  install with readahead, the promotion counter) plus an exact replay of
  only the faults / MMIO accesses, whose storage-stack and flash work
  stays per-request.  Their ``pageHot`` rows record the speedup without
  a bar: flatflash-P has no host cache, so its gain is the inlined link
  recurrence and the batched device-cache walk alone,
* every row of a platform that owns a flash stack also records the
  unified ``flash_*`` counter namespace (``SSD.statistics()``) of the
  batched replay, pinning how much device work the run performed.

Timing covers the replay only: each measured platform is warmed with
``prepare(trace)`` first, so the one-off SSD preconditioning (identical
work in both strategies, and explicitly untimed by the paper's
methodology) does not dilute the replay rates.

Runs standalone (``python benchmarks/bench_replay_throughput.py``) and as a
pytest-benchmark test (``pytest benchmarks/bench_replay_throughput.py``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Sequence

import numpy as np

# The per-access reference replay lives with the tests.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from oracles import run_scalar
from repro.config import default_config
from repro.platforms.registry import create_platform
from repro.units import GB, KB
from repro.workloads.generators import ZipfianPattern
from repro.workloads.registry import (
    ExperimentScale,
    build_trace,
    scale_system_config,
)
from repro.workloads.trace import AccessStream, WorkloadTrace

#: Schema tag of the JSON record this benchmark writes.
REPLAY_BENCH_SCHEMA = "repro.bench-replay/1"

#: Synthetic page-cache-friendly workload (not a Table III entry): a
#: page-granular (4 KB) zipfian point-hot stream.  Every reference bypasses
#: the on-chip caches and reaches ``service_batch``, and the skew
#: (theta=3.0) makes consecutive repeat touches of the hottest pages
#: common — exactly the consecutive-same-page pattern the
#: run-length-collapsed LRU walk amortises, and the regime in which the
#: DRAM cache (rather than the deliberately sequential flash miss path)
#: carries the traffic.
PAGE_LOCAL_WORKLOAD = "pageHot"

#: Synthetic migration-heavy workload: a page-granular (4 KB) wrap-around
#: sequential sweep in which each page is touched ``MIGRATE_REPEATS``
#: consecutive times (30 % stores).  Every migration chunk the sweep
#: enters costs one clock-dependent flash migration, and the chunk-level
#: locality (chunk pages x repeats hits per miss) means wall-clock is
#: carried by *both* halves of the batched design: the vectorized hit
#: fold and the batched flash walk behind the misses.
MIGRATION_WORKLOAD = "migrate"
MIGRATE_REPEATS = 6
MIGRATE_WRITE_FRACTION = 0.3

#: (platform, workload) rows; the DRAM-cache platforms' ``pageHot`` rows
#: are acceptance rows (>= 5x), ``migrate`` rows are the migration-bound
#: acceptance rows (>= 5x), ``seqRd`` rows document the colder
#: chunk-miss regime, and the page-fault baselines' ``pageHot`` rows are
#: recorded without a bar.
MATRIX = (
    ("oracle", "seqRd"),
    ("oracle", "update"),
    ("optane-P", "seqRd"),
    ("optane-P", "update"),
    ("nvdimm-C", "seqRd"),
    ("nvdimm-C", PAGE_LOCAL_WORKLOAD),
    ("nvdimm-C", MIGRATION_WORKLOAD),
    ("optane-M", "seqRd"),
    ("optane-M", PAGE_LOCAL_WORKLOAD),
    ("bypass-ull-buff", PAGE_LOCAL_WORKLOAD),
    ("bypass-ull", "seqRd"),
    ("bypass-ull", MIGRATION_WORKLOAD),
    ("hams-TE", "seqRd"),
    ("hams-TE", MIGRATION_WORKLOAD),
    ("mmap", PAGE_LOCAL_WORKLOAD),
    ("flatflash-M", PAGE_LOCAL_WORKLOAD),
    ("flatflash-P", PAGE_LOCAL_WORKLOAD),
)

#: The DRAM-cache platforms and the acceptance bar their ``pageHot``
#: speedup must clear (the ISSUE/ROADMAP >= 5x criterion).
DRAM_CACHE_PLATFORMS = ("nvdimm-C", "optane-M", "bypass-ull-buff")
DRAM_CACHE_MIN_SPEEDUP = 5.0

#: The migration-bound platforms and the bar their ``migrate`` speedup
#: must clear — the batched flash-stack acceptance criterion.
MIGRATION_PLATFORMS = ("nvdimm-C", "bypass-ull", "hams-TE")
MIGRATION_MIN_SPEEDUP = 5.0

#: The default benchmark scale: the library-default ExperimentScale.
REPLAY_SCALE = ExperimentScale()

DEFAULT_OUTPUT = (Path(__file__).parent / "results"
                  / "BENCH_replay_throughput.json")


def build_bench_trace(workload: str, scale: ExperimentScale) -> WorkloadTrace:
    """A registry trace, or one of the synthetic bench workloads."""
    if workload == PAGE_LOCAL_WORKLOAD:
        dataset_bytes = scale.scaled_bytes(GB(16))
        access_count = 2 * scale.max_accesses
        generator = ZipfianPattern(dataset_bytes, KB(4), scale.seed,
                                   theta=3.0, run_length=1)
        stream = generator.stream(access_count, 0.3,
                                  np.random.default_rng(scale.seed + 1000))
    elif workload == MIGRATION_WORKLOAD:
        dataset_bytes = scale.scaled_bytes(GB(16))
        access_count = 2 * scale.max_accesses
        slots = dataset_bytes // KB(4)
        runs = -(-access_count // MIGRATE_REPEATS)  # ceil division
        pages = np.repeat(np.arange(runs, dtype=np.int64) % slots,
                          MIGRATE_REPEATS)[:access_count]
        writes = (np.random.default_rng(scale.seed + 1000).random(access_count)
                  < MIGRATE_WRITE_FRACTION)
        stream = AccessStream.from_arrays(pages * KB(4), KB(4), writes)
    else:
        return build_trace(workload, scale)
    return WorkloadTrace(
        name=workload,
        suite="bench",
        accesses=stream,
        dataset_bytes=dataset_bytes,
        compute_instructions_per_access=4000.0,
        accesses_per_operation=1.0,
        operation_unit="pages",
        total_instructions=access_count * 4001,
    )


def _replay_seconds(platform_name: str, trace, config, mode: str):
    """Wall seconds of one fresh-platform replay in *mode* (``"scalar"``:
    :func:`run_scalar`, ``"batched"``: ``Platform.run``), and the platform."""
    platform = create_platform(platform_name, config)
    # Warm the device state outside the timed region; both replays
    # re-invoke prepare(), an O(1) no-op on an already-warmed platform.
    platform.prepare(trace)
    started = time.perf_counter()
    if mode == "scalar":
        run_scalar(platform, trace)
    else:
        platform.run(trace)
    return time.perf_counter() - started, platform


def _best_rates(platform_name: str, trace, config, repeats: int):
    """Accesses/sec of the fastest of *repeats* scalar and batched replays.

    Each repeat times one scalar and one batched replay back to back, and
    the repeats alternate which of the two runs first, so a drift of the
    host's speed lands on both strategies rather than on whichever ran
    later.  Returns ``(scalar_rate, batched_rate, platform)`` — the last
    batched platform, whose device counters the caller may record.
    """
    best = {"scalar": float("inf"), "batched": float("inf")}
    platform = None
    for repeat in range(repeats):
        modes = ("scalar", "batched") if repeat % 2 == 0 else ("batched",
                                                               "scalar")
        for mode in modes:
            seconds, replayed = _replay_seconds(platform_name, trace, config,
                                                mode)
            best[mode] = min(best[mode], seconds)
            if mode == "batched":
                platform = replayed
    return len(trace) / best["scalar"], len(trace) / best["batched"], platform


def _flash_statistics(platform) -> Dict[str, float]:
    """The unified ``flash_*`` counters of the platform's SSD, if it has one."""
    ssd = getattr(platform, "ssd", None)
    if ssd is None:
        controller = getattr(platform, "controller", None)
        ssd = getattr(controller, "ssd", None)
    if ssd is None:
        return {}
    return {key: float(value) for key, value in ssd.statistics().items()}


def measure(scale: ExperimentScale = REPLAY_SCALE,
            matrix: Sequence = MATRIX,
            repeats: int = 3) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Measure scalar vs batched replay rates for every matrix entry."""
    config = scale_system_config(default_config(), scale)
    results: Dict[str, Dict[str, Dict[str, float]]] = {}
    traces: Dict[str, WorkloadTrace] = {}
    for platform_name, workload in matrix:
        if workload not in traces:
            traces[workload] = build_bench_trace(workload, scale)
        trace = traces[workload]
        scalar, batched, platform = _best_rates(platform_name, trace, config,
                                                repeats)
        row = {
            "accesses": float(len(trace)),
            "scalar_accesses_per_s": scalar,
            "batched_accesses_per_s": batched,
            "speedup": batched / scalar,
        }
        flash = _flash_statistics(platform)
        if flash:
            row["flash"] = flash
        results.setdefault(platform_name, {})[workload] = row
    return results


def dram_cache_speedups(results) -> Dict[str, float]:
    """The acceptance speedup (``pageHot`` row) per DRAM-cache platform."""
    return {platform: results[platform][PAGE_LOCAL_WORKLOAD]["speedup"]
            for platform in DRAM_CACHE_PLATFORMS
            if PAGE_LOCAL_WORKLOAD in results.get(platform, {})}


def migration_speedups(results) -> Dict[str, float]:
    """The acceptance speedup (``migrate`` row) per migration-bound platform."""
    return {platform: results[platform][MIGRATION_WORKLOAD]["speedup"]
            for platform in MIGRATION_PLATFORMS
            if MIGRATION_WORKLOAD in results.get(platform, {})}


def write_record(results: Dict[str, Dict[str, Dict[str, float]]],
                 path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": REPLAY_BENCH_SCHEMA,
        "figure": "replay_throughput",
        "created_unix": time.time(),
        "tables": {"replay_throughput": results},
    }
    path.write_text(json.dumps(payload, sort_keys=True, indent=1),
                    encoding="utf-8")
    return path


def _report(results: Dict[str, Dict[str, Dict[str, float]]]) -> str:
    lines = [f"{'platform':16s} {'workload':9s} {'scalar/s':>12s} "
             f"{'batched/s':>12s} {'speedup':>8s}"]
    for platform_name, by_workload in results.items():
        for workload, row in by_workload.items():
            lines.append(f"{platform_name:16s} {workload:9s} "
                         f"{row['scalar_accesses_per_s']:12.0f} "
                         f"{row['batched_accesses_per_s']:12.0f} "
                         f"{row['speedup']:7.2f}x")
    return "\n".join(lines)


def test_replay_throughput(benchmark):
    """pytest-benchmark wrapper; asserts the vectorized-platform speedups."""
    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    path = write_record(results, DEFAULT_OUTPUT)
    print()
    print(_report(results))
    print(f"-> {path}")
    # The analytic-platform bar: >= 2x accesses/sec on at least one
    # vectorized platform at the default benchmark scale.
    vectorized = [results["oracle"][w]["speedup"] for w in results["oracle"]]
    vectorized += [results["optane-P"][w]["speedup"]
                   for w in results["optane-P"]]
    assert max(vectorized) >= 2.0
    # The DRAM-cache acceptance bar: every newly vectorized platform must
    # reach >= 5x on the page-granular page-cache-friendly trace.
    speedups = dram_cache_speedups(results)
    assert set(speedups) == set(DRAM_CACHE_PLATFORMS)
    for platform, speedup in speedups.items():
        assert speedup >= DRAM_CACHE_MIN_SPEEDUP, (platform, speedup)
    # The batched flash-stack acceptance bar: the migration-bound platforms
    # must reach >= 5x on the migration-heavy trace.
    flash_speedups = migration_speedups(results)
    assert set(flash_speedups) == set(MIGRATION_PLATFORMS)
    for platform, speedup in flash_speedups.items():
        assert speedup >= MIGRATION_MIN_SPEEDUP, (platform, speedup)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="scalar vs batched replay throughput")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help="JSON record path "
                             "(default: results/BENCH_replay_throughput.json)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="replays per measurement (best-of, default 3)")
    args = parser.parse_args(argv)
    results = measure(repeats=args.repeats)
    print(_report(results))
    print(f"-> {write_record(results, args.output)}")
    best = max(row["speedup"] for by_workload in results.values()
               for row in by_workload.values())
    ok = (best >= 2.0
          and all(speedup >= DRAM_CACHE_MIN_SPEEDUP
                  for speedup in dram_cache_speedups(results).values())
          and all(speedup >= MIGRATION_MIN_SPEEDUP
                  for speedup in migration_speedups(results).values()))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
