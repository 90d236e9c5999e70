"""Shared fixtures and helpers for the figure-reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper's evaluation
(Section VI).  The simulations are deterministic, so each benchmark runs its
experiment exactly once (``benchmark.pedantic(..., rounds=1)``) and prints
the same rows/series the figure plots; the pytest-benchmark timing then
reports how long regenerating that figure takes.

The harness runs on the public :class:`repro.api.Session` facade: each
figure's (platform x workload) matrix fans out over the session's process
pool (``$REPRO_WORKERS`` workers, defaulting to the CPU count), and every
figure additionally records its plotted tables as a machine-readable
``results/BENCH_<figure>.json`` artifact that CI uploads.  The run cache is
deliberately disabled here so the benchmark timings measure real work; the
``python -m repro run`` CLI is the cache-aware path.

The experiment scale used here is deliberately smaller than the library
default so the full harness finishes in minutes; the relative platform
ordering — the part of the figures we reproduce — is insensitive to it.

Setting ``$REPRO_BENCH_EXECUTOR`` (``serial``/``pool``/``sharded``) pins
the execution tier; ``sharded`` routes every figure's matrix through the
``repro.distrib`` plan → work → merge protocol in this process.  The
results are bit-identical either way — that is the executor layer's
contract — so this is a way to measure each tier's overhead on real figure
matrices, not a different experiment.
"""

from __future__ import annotations

import json
import os
import socket
import time
from pathlib import Path
from typing import Any, Dict, Mapping, Optional

import pytest

from repro.api import Session
from repro.workloads.registry import ExperimentScale

#: Execution tier override: serial | pool | sharded (empty: the default).
BENCH_EXECUTOR = os.environ.get("REPRO_BENCH_EXECUTOR", "").strip() or None

#: All figure tables are appended here as well as printed, so the numbers
#: survive pytest's stdout capture of passing tests.
RESULTS_DIR = Path(__file__).parent / "results"
RESULTS_FILE = RESULTS_DIR / "figures.txt"

#: Schema tag of the per-figure JSON records written by :func:`record_figure`.
FIGURE_SCHEMA = "repro.bench-figure/1"


def emit(text: str = "") -> None:
    """Print *text* and append it to ``benchmarks/results/figures.txt``."""
    print(text)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    with RESULTS_FILE.open("a", encoding="utf-8") as handle:
        handle.write(str(text) + "\n")


def record_figure(figure: str, tables: Mapping[str, Any],
                  meta: Optional[Mapping[str, Any]] = None) -> Path:
    """Write the figure's plotted tables as ``results/BENCH_<figure>.json``.

    *tables* maps a table name to the nested ``{row: {column: value}}``
    mapping the benchmark printed, so CI (and regression tooling) can diff
    the numbers without scraping stdout.
    """
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{figure}.json"
    payload: Dict[str, Any] = {
        "schema": FIGURE_SCHEMA,
        "figure": figure,
        "created_unix": time.time(),
        "host": socket.gethostname(),
        "executor": BENCH_EXECUTOR or "default",
        "tables": dict(tables),
    }
    if meta:
        payload["meta"] = dict(meta)
    path.write_text(json.dumps(payload, sort_keys=True, indent=1),
                    encoding="utf-8")
    return path


#: Scale used by the application-level benchmarks (Figures 16-20).
BENCH_SCALE = ExperimentScale(capacity_scale=1 / 64, min_accesses=1_500,
                              max_accesses=3_000)

#: Scale used by the motivation benchmarks (Figures 6, 7, 10), which run
#: more platform/workload combinations per figure.
SMALL_SCALE = ExperimentScale(capacity_scale=1 / 128, min_accesses=1_000,
                              max_accesses=2_000)


@pytest.fixture(scope="session")
def bench_runner() -> Session:
    """Session shared by the application-level figure benchmarks."""
    return Session(BENCH_SCALE, executor=BENCH_EXECUTOR)


@pytest.fixture(scope="session")
def small_runner() -> Session:
    """Session shared by the motivation-figure benchmarks."""
    return Session(SMALL_SCALE, executor=BENCH_EXECUTOR)


def run_once(benchmark, function):
    """Execute *function* exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(function, rounds=1, iterations=1)
