"""``python -m repro`` — run, list and report experiments from the shell.

Subcommands
-----------

``run [EXPERIMENT ...]``
    Execute named experiment presets (default: the CI ``smoke`` preset when
    ``--smoke`` is given, otherwise every figure preset), write one
    versioned JSON artifact per experiment plus a ``repro.events/1`` JSONL
    event log, and print the throughput summary.  ``--executor
    {serial,pool,sharded}`` picks the execution tier (default: the process
    pool; results are bit-identical on every tier; ``--shards``/``--spool``
    configure the sharded tier and are rejected on any other),
    ``--progress`` renders a live completed/total/ETA ticker from the
    streaming :class:`~repro.exec.ExperimentHandle`, and
    ``--platforms``/``--workloads`` replace the presets with one ad-hoc
    experiment called ``custom``.

``list``
    Show the available platforms, workloads and experiment presets.

``report [EXPERIMENT ...]``
    Re-read previously written artifacts and print their summaries without
    re-running anything (what CI does after downloading artifacts).

``report --diff BASELINE CANDIDATE [--threshold FRACTION]``
    Compare two artifact files run by run and exit non-zero when any run's
    throughput drops by more than the relative threshold (or disappears).
    CI uses this as its perf-regression gate: a committed baseline artifact
    versus the fresh smoke run.  Both paths accept glob patterns, each of
    which must resolve to exactly one artifact.

``sweep --platform P --workloads W... --section S --field F --values V...``
    Sweep one config field of one platform across a value grid and write
    the experiment artifact (same ``(label, workload)`` keys the Figure
    20a study plots).  With ``--adaptive``, only a coarse seed of the
    grid is evaluated and refinement bisects wherever the metric curve's
    discrete curvature exceeds ``--tolerance`` (knee finding): cells
    whose content-addressed cache key is already resolved cost nothing,
    ``--budget`` caps the total estimated simulated accesses (pruned
    cells are recorded, not silently dropped), settled knees stop early,
    and the full refinement trace lands next to the artifact as a
    ``repro.sweep/1`` record.  Evaluated cells are bit-identical to the
    fixed-grid run of the same grid — ``repro report --diff`` between the
    two passes at threshold 0.

``shard plan|work|merge|status``
    The distributed execution tier (see :mod:`repro.distrib`): ``plan``
    partitions one experiment into N ``repro.shard/1`` manifests under a
    spool directory (``--balance cost`` weighs specs by estimated trace
    length instead of count), ``work`` claims and executes pending shards
    (any number of hosts sharing the spool may run it concurrently;
    crashed shards resume from the shared run cache, and every finished
    run is appended to the spool's per-run progress records), ``merge``
    provenance-checks the shard artifacts and writes the final
    ``repro.experiment/1`` artifact — bit-identical in its runs to an
    unsharded execution — and ``status`` shows where every shard stands
    (``--watch`` keeps polling, tailing the per-run progress records,
    until the spool completes).

``serve start|status|submit|watch|shutdown``
    The long-running multi-tenant experiment service (see
    :mod:`repro.serve` and :mod:`repro.serve.cli`): a daemon owning the
    run cache and a crash-safe persistent job queue, accepting
    submissions over HTTP/JSON, scheduling them priority-first with
    per-tenant fairness, deduping identical submissions against one
    execution, and streaming per-run progress as ``repro.events/1``.

``trace build|import|info|verify``
    The out-of-core trace store (see :mod:`repro.trace` and
    :mod:`repro.trace.cli`): materialise registry workloads to
    ``repro.trace/1`` files at any scale, ingest foreign CSV/binary
    access logs, and inspect or integrity-check trace files.  A built or
    imported file replays anywhere a workload name is accepted via
    ``trace:<path>`` — e.g. ``repro run --platforms mmap --workloads
    trace:seqRd.trace``.

``scenario run|plan|report``
    The multi-tenant scenario engine (see :mod:`repro.scenario` and
    :mod:`repro.scenario.cli`): deterministically interleave N tenants'
    access streams into one shared-system replay, attribute every cost
    back to its tenant, and study contention under QoS policies —
    ``run`` prints the per-tenant breakdown, ``plan`` the stream lengths
    and mix identity without running, ``report`` the solo-vs-mixed
    slowdown table with Jain's fairness index.
"""

from __future__ import annotations

import argparse
import glob as glob_module
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence, Union

from ..analysis.experiments import ExperimentResult
from ..analysis.reporting import format_table
from ..api import Session
from ..config import default_config
from ..distrib import (
    BALANCE_MODES,
    SHARD_MANIFEST_SCHEMA,
    SHARD_RESULT_SCHEMA,
    ShardSpool,
    estimate_spec_cost,
    execute_shard_file,
    experiment_tag,
    load_shard_results,
    merge_shards,
    plan_shards,
    work_spool,
)
from ..exec import EXECUTOR_NAMES, Executor, ShardedExecutor
from .events import read_events
from ..platforms.registry import PLATFORM_NAMES, available_platforms
from ..workloads.registry import (
    ExperimentScale,
    all_workload_names,
    scale_system_config,
)
from .artifacts import (
    EXPERIMENT_SCHEMA,
    experiment_from_artifact,
    load_experiment_artifact,
    read_json_object,
    write_experiment_artifact,
)
from .presets import SMOKE_SCALE, ExperimentPreset, get_preset, preset_names
from .regression import DEFAULT_THRESHOLD, diff_artifacts
from .specs import matrix_specs, workload_display_label

DEFAULT_OUTPUT_DIR = Path("benchmarks") / "results"


def _workload_display_map(workloads: Sequence[str]) -> dict:
    """Raw result keys -> readable column labels for report tables.

    Runs recorded under raw ``trace:<path>`` / ``scenario:{...}`` keys
    (older artifacts, specs built without a ``workload_label``) print as
    the trace's recorded workload name or the scenario's name instead of
    a path or JSON blob.  Distinct sources that would collide on the same
    label keep their raw keys — a rename must never merge columns.
    """
    labels = {workload: workload_display_label(workload) or workload
              for workload in workloads}
    owners: dict = {}
    for workload, label in labels.items():
        owners.setdefault(label, []).append(workload)
    for label, raw_keys in owners.items():
        if len(raw_keys) > 1:
            for raw in raw_keys:
                labels[raw] = raw
    return labels


def _add_matrix_arguments(parser: argparse.ArgumentParser) -> None:
    """Ad-hoc experiment axes shared by ``run`` and ``shard plan``."""
    parser.add_argument("--platforms", nargs="+", metavar="PLATFORM",
                        help="ad-hoc experiment: platform registry names")
    parser.add_argument("--workloads", nargs="+", metavar="WORKLOAD",
                        help="ad-hoc experiment: Table III workload names "
                             "or trace:<path> trace files")


def _add_scale_arguments(parser: argparse.ArgumentParser) -> None:
    """Scale knobs shared by ``run`` and ``shard plan``."""
    parser.add_argument("--smoke", action="store_true",
                        help="tiny-scale CI smoke run (defaults to the "
                             "'smoke' preset)")
    parser.add_argument("--capacity-scale", type=float, default=None,
                        help="capacity shrink factor (e.g. 0.015625 for "
                             "1/64)")
    parser.add_argument("--instruction-scale", type=float, default=None,
                        help="instruction-stream shrink factor")
    parser.add_argument("--min-accesses", type=int, default=None,
                        help="lower bound on trace length")
    parser.add_argument("--max-accesses", type=int, default=None,
                        help="upper bound on trace length")
    parser.add_argument("--seed", type=int, default=None,
                        help="trace generator seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HAMS reproduction experiment runner")
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser(
        "run", help="execute experiments and write JSON artifacts")
    run.add_argument("experiments", nargs="*", metavar="EXPERIMENT",
                     help=f"preset names ({', '.join(preset_names())}); "
                          f"default: all figure presets")
    run.add_argument("--workers", type=int, default=None,
                     help="worker processes (default: $REPRO_WORKERS or CPU "
                          "count)")
    run.add_argument("--output-dir", type=Path, default=DEFAULT_OUTPUT_DIR,
                     help="directory for experiment artifacts "
                          "(default: benchmarks/results)")
    run.add_argument("--cache-dir", type=Path, default=None,
                     help="content-addressed run cache "
                          "(default: <output-dir>/cache)")
    run.add_argument("--no-cache", action="store_true",
                     help="disable the run cache entirely")
    run.add_argument("--force", action="store_true",
                     help="ignore cache hits but refresh stored runs")
    run.add_argument("--executor", default=None, metavar="TIER",
                     help=f"execution tier: one of {EXECUTOR_NAMES} "
                          f"(default: pool, or sharded when --shards or "
                          f"--spool is given); results are bit-identical "
                          f"on every tier")
    run.add_argument("--shards", type=int, default=None,
                     help="shard count for the sharded executor "
                          "(implies --executor sharded; default: 2)")
    run.add_argument("--spool", type=Path, default=None,
                     help="spool directory for the sharded executor: keeps "
                          "shard artifacts and lets `repro shard work` "
                          "helpers on other hosts join in (implies "
                          "--executor sharded)")
    run.add_argument("--progress", action="store_true",
                     help="render a live completed/total/ETA ticker on "
                          "stderr while the experiment streams")
    _add_matrix_arguments(run)
    _add_scale_arguments(run)
    run.add_argument("--quiet", action="store_true",
                     help="only print the one-line summary per experiment")
    run.set_defaults(handler=cmd_run)

    lst = subparsers.add_parser(
        "list", help="list platforms, workloads and experiment presets")
    lst.add_argument("--artifacts", type=Path, default=None,
                     metavar="DIR",
                     help="instead list the artifact JSONs under DIR with "
                          "their schema and shard provenance")
    lst.set_defaults(handler=cmd_list)

    report = subparsers.add_parser(
        "report", help="summarise previously written artifacts")
    report.add_argument("experiments", nargs="*", metavar="EXPERIMENT",
                        help="artifact names (default: every *.json in the "
                             "output directory)")
    report.add_argument("--output-dir", type=Path,
                        default=DEFAULT_OUTPUT_DIR,
                        help="directory holding the artifacts")
    report.add_argument("--diff", nargs=2, metavar=("BASELINE", "CANDIDATE"),
                        type=str, default=None,
                        help="compare two artifact files (glob patterns "
                             "resolving to one file each); exit non-zero on "
                             "a throughput regression past the threshold")
    report.add_argument("--threshold", type=float,
                        default=DEFAULT_THRESHOLD,
                        help="relative regression tolerance for --diff "
                             f"(default: {DEFAULT_THRESHOLD})")
    report.set_defaults(handler=cmd_report)

    sweep = subparsers.add_parser(
        "sweep", help="sweep one config field across a value grid "
                      "(--adaptive: refine where the metric curve bends)")
    sweep.add_argument("--platform", required=True,
                       help="platform registry name to sweep")
    sweep.add_argument("--workloads", nargs="+", required=True,
                       metavar="WORKLOAD",
                       help="workloads to evaluate at every grid value")
    sweep.add_argument("--section", required=True,
                       help="config section holding the swept field "
                            "(e.g. hams)")
    sweep.add_argument("--field", required=True,
                       help="config field to sweep (e.g. mos_page_bytes)")
    sweep.add_argument("--values", nargs="+", required=True, metavar="VALUE",
                       help="the value grid (numbers, strictly increasing "
                            "for --adaptive)")
    sweep.add_argument("--labels", nargs="+", default=None, metavar="LABEL",
                       help="per-value result labels (default: the value "
                            "itself; duplicates are rejected)")
    sweep.add_argument("--adaptive", action="store_true",
                       help="evaluate a coarse seed of the grid and refine "
                            "where the metric's curvature exceeds the "
                            "tolerance instead of enumerating every cell")
    sweep.add_argument("--metric", default="operations_per_second",
                       help="RunResult attribute driving refinement "
                            "(default: operations_per_second)")
    sweep.add_argument("--tolerance", type=float, default=0.05,
                       help="curvature threshold above which a grid "
                            "interval is bisected (default: 0.05)")
    sweep.add_argument("--budget", type=int, default=None,
                       help="cap on total estimated simulated accesses; "
                            "candidates past it are pruned and reported")
    sweep.add_argument("--seed-points", type=int, default=5,
                       help="grid cells evaluated per workload in round 0 "
                            "(default: 5, endpoints always included)")
    sweep.add_argument("--rounds", type=int, default=12,
                       help="refinement round cap (default: 12)")
    sweep.add_argument("--settle-rounds", type=int, default=3,
                       help="consecutive rounds a workload's knee must "
                            "hold still to stop refining it early "
                            "(default: 3; 0 disables early stop)")
    sweep.add_argument("--name", default="sweep",
                       help="artifact name (default: sweep)")
    sweep.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: $REPRO_WORKERS or "
                            "CPU count)")
    sweep.add_argument("--output-dir", type=Path, default=DEFAULT_OUTPUT_DIR,
                       help="directory for the experiment artifact and the "
                            "repro.sweep/1 record "
                            "(default: benchmarks/results)")
    sweep.add_argument("--cache-dir", type=Path, default=None,
                       help="content-addressed run cache "
                            "(default: <output-dir>/cache); a shared cache "
                            "is what makes re-runs and overlapping sweeps "
                            "cost zero for already-resolved cells")
    sweep.add_argument("--no-cache", action="store_true",
                       help="disable the run cache entirely")
    sweep.add_argument("--force", action="store_true",
                       help="ignore cache hits but refresh stored runs")
    sweep.add_argument("--executor", default=None, metavar="TIER",
                       help=f"execution tier: one of {EXECUTOR_NAMES} "
                            f"(default: pool, or sharded when --shards or "
                            f"--spool is given)")
    sweep.add_argument("--shards", type=int, default=None,
                       help="shard count for the sharded executor "
                            "(implies --executor sharded; default: 2)")
    sweep.add_argument("--spool", type=Path, default=None,
                       help="spool directory for the sharded executor "
                            "(implies --executor sharded)")
    _add_scale_arguments(sweep)
    sweep.add_argument("--quiet", action="store_true",
                       help="only print the one-line summary")
    sweep.set_defaults(handler=cmd_sweep)

    shard = subparsers.add_parser(
        "shard", help="distributed sharded execution over a spool directory")
    shard_sub = shard.add_subparsers(dest="shard_command", required=True)

    plan = shard_sub.add_parser(
        "plan", help="partition one experiment into N shard manifests")
    plan.add_argument("experiment", nargs="?", metavar="EXPERIMENT",
                      help="preset name (default: 'smoke' with --smoke)")
    plan.add_argument("--shards", type=int, required=True,
                      help="number of shard manifests to produce")
    plan.add_argument("--spool", type=Path, required=True,
                      help="spool directory (local FS or NFS) the workers "
                           "share")
    plan.add_argument("--balance", choices=BALANCE_MODES, default="count",
                      help="partition by spec count (default) or by "
                           "estimated per-run cost (trace length), so "
                           "long and short workloads spread evenly")
    _add_matrix_arguments(plan)
    _add_scale_arguments(plan)
    plan.set_defaults(handler=cmd_shard_plan)

    work = shard_sub.add_parser(
        "work", help="claim and execute pending shards from a spool")
    work.add_argument("manifests", nargs="*", type=Path, metavar="MANIFEST",
                      help="explicit manifest/claim files to (re-)execute "
                           "instead of claiming pending shards — the "
                           "recovery path for orphaned claims")
    work.add_argument("--spool", type=Path, required=True,
                      help="spool directory to claim shards from")
    work.add_argument("--workers", type=int, default=None,
                      help="process-pool size per shard (default: "
                           "$REPRO_WORKERS or CPU count)")
    work.add_argument("--host", default=None,
                      help="worker identity recorded in claims/results "
                           "(default: hostname:pid)")
    work.add_argument("--max-shards", type=int, default=None,
                      help="stop after executing this many shards")
    work.add_argument("--force", action="store_true",
                      help="ignore run-cache hits but refresh stored runs")
    work.set_defaults(handler=cmd_shard_work)

    merge = shard_sub.add_parser(
        "merge", help="validate and merge shard results into one artifact")
    merge.add_argument("results", nargs="*", type=Path, metavar="RESULT",
                       help="shard result files (default: every "
                            "results/shard-*.json in the spool)")
    merge.add_argument("--spool", type=Path, default=None,
                       help="spool directory holding the shard results")
    merge.add_argument("--experiment", default=None, metavar="NAME_OR_ID",
                       help="merge only this plan's shards: an experiment "
                            "name, a full experiment id, or the short id "
                            "tag shown by `shard status` (required when "
                            "several plans share the spool)")
    merge.add_argument("--output", type=Path, default=None,
                       help="merged artifact path (default: "
                            "<spool>/<experiment>.json)")
    merge.add_argument("--quiet", action="store_true",
                       help="only print the one-line summary")
    merge.set_defaults(handler=cmd_shard_merge)

    status = shard_sub.add_parser(
        "status", help="show pending/running/done state of every shard")
    status.add_argument("--spool", type=Path, required=True,
                        help="spool directory to inspect")
    status.add_argument("--watch", action="store_true",
                        help="keep polling (tailing the per-run progress "
                             "records) until every shard is done")
    status.add_argument("--interval", type=float, default=2.0,
                        help="poll interval in seconds for --watch "
                             "(default: 2)")
    status.set_defaults(handler=cmd_shard_status)

    # Lazy: the serve and trace verb trees live with their packages, and
    # this module must stay importable before they finish loading.
    from ..serve.cli import register as register_serve
    register_serve(subparsers)
    from ..trace.cli import register as register_trace
    register_trace(subparsers)
    from ..scenario.cli import register as register_scenario
    register_scenario(subparsers)

    return parser


def _build_scale(args: argparse.Namespace) -> ExperimentScale:
    """Start from the smoke or default scale, then apply explicit knobs."""
    base = SMOKE_SCALE if args.smoke else ExperimentScale()
    kwargs = {}
    if args.capacity_scale is not None:
        kwargs["capacity_scale"] = args.capacity_scale
    if args.instruction_scale is not None:
        kwargs["instruction_scale"] = args.instruction_scale
    if args.min_accesses is not None:
        kwargs["min_accesses"] = args.min_accesses
    if args.max_accesses is not None:
        kwargs["max_accesses"] = args.max_accesses
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if not kwargs:
        return base
    import dataclasses
    return dataclasses.replace(base, **kwargs)


def _session_of(args: argparse.Namespace) -> Session:
    """The Session a ``run``/``sweep`` invocation executes through."""
    if args.no_cache:
        cache_dir = None
    else:
        cache_dir = args.cache_dir or args.output_dir / "cache"
    return Session(scale=_build_scale(args), workers=args.workers,
                   cache_dir=cache_dir, force=args.force,
                   executor=_executor_of(args))


def _executor_of(args: argparse.Namespace) -> Union[str, Executor, None]:
    """``--executor``, with ``--shards``/``--spool`` configuring the sharded
    tier — and only that tier: on any other they would be silently lost."""
    if args.shards is None and args.spool is None:
        return args.executor
    if args.executor not in (None, "sharded"):
        raise ValueError(f"--shards/--spool only apply to --executor "
                         f"sharded, not {args.executor!r}")
    return ShardedExecutor(
        shards=2 if args.shards is None else args.shards,
        spool_dir=args.spool)


def _select_presets(args: argparse.Namespace) -> List[ExperimentPreset]:
    if args.platforms or args.workloads:
        if not (args.platforms and args.workloads):
            raise ValueError(
                "--platforms and --workloads must be given together")
        return [ExperimentPreset(
            name="custom", figure="custom",
            description="ad-hoc experiment from the command line",
            platforms=tuple(args.platforms),
            workloads=tuple(args.workloads),
            baseline=args.platforms[0])]
    names = list(args.experiments)
    if not names:
        names = ["smoke"] if args.smoke else [
            name for name in preset_names() if name != "smoke"]
    return [get_preset(name) for name in names]


def _summarise(experiment: ExperimentResult,
               preset_name: str, baseline: str) -> str:
    """Throughput table plus the mean-speedup headline when possible."""
    lines = []
    labels = _workload_display_map(experiment.workloads())
    throughput = {
        platform: {labels[workload]: experiment.get(platform, workload)
                   .operations_per_second
                   for workload in experiment.workloads()
                   if (platform, workload) in experiment.results}
        for platform in experiment.platforms()
    }
    lines.append(format_table(
        throughput, title=f"{preset_name}: throughput (ops/s)",
        float_format="{:.0f}", row_header="platform"))
    if baseline in experiment.platforms():
        speedups = {
            platform: {f"speedup vs {baseline}":
                       experiment.mean_speedup(platform, baseline)}
            for platform in experiment.platforms()
        }
        lines.append("")
        lines.append(format_table(
            speedups, title=f"{preset_name}: mean speedup",
            float_format="{:.2f}", row_header="platform"))
    return "\n".join(lines)


def cmd_run(args: argparse.Namespace) -> int:
    try:
        presets = _select_presets(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    try:
        session = _session_of(args)
    except ValueError as error:  # e.g. a malformed $REPRO_WORKERS
        print(f"error: {error}", file=sys.stderr)
        return 2

    for preset in presets:
        started = time.perf_counter()
        events_path = args.output_dir / f"{preset.name}.events.jsonl"
        specs = matrix_specs(list(preset.platforms), list(preset.workloads))
        try:
            # `run` is a thin consumer of the streaming submit() API: the
            # handle yields runs as they complete (which is what the
            # --progress ticker renders) and result() folds them into the
            # same ExperimentResult the blocking verbs return.
            handle = session.submit(specs, name=preset.name,
                                    events_path=events_path)
            for _ in handle.iter_results():
                if args.progress:
                    print(f"\r{preset.name}: {handle.progress().format()}",
                          end="", file=sys.stderr, flush=True)
            if args.progress:
                print(file=sys.stderr)
            experiment = handle.result()
        except ValueError as error:
            # Unknown platform/workload names surface here (ad-hoc
            # --platforms/--workloads matrices are not validated up front).
            print(f"error: {error}", file=sys.stderr)
            return 2
        elapsed = time.perf_counter() - started
        snapshot = handle.progress()
        hits = snapshot.cache_hits
        path = write_experiment_artifact(
            args.output_dir, preset.name, experiment, session.config,
            meta={
                "figure": preset.figure,
                "description": preset.description,
                "baseline": preset.baseline,
                "workers": session.workers,
                "executor": handle.executor,
                "elapsed_s": elapsed,
                "cache_hits": hits,
                "cache_misses": snapshot.total - hits,
                "events": events_path.name,
            })
        if not args.quiet:
            print()
            print(_summarise(experiment, preset.name, preset.baseline))
            print()
        print(f"{preset.name}: {preset.run_count} runs in {elapsed:.2f}s "
              f"({handle.executor} executor, {session.workers} workers, "
              f"{hits} cached) -> {path}")
    return 0


def _parse_sweep_value(raw: str):
    """CLI sweep values: int where possible, float next, else the string."""
    for parse in (int, float):
        try:
            return parse(raw)
        except ValueError:
            continue
    return raw


def cmd_sweep(args: argparse.Namespace) -> int:
    values = [_parse_sweep_value(raw) for raw in args.values]
    try:
        session = _session_of(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    try:
        if args.adaptive:
            from ..sweep import write_sweep_record

            def narrate(round_) -> None:
                ran = sum(cell.cost for cell in round_.evaluated)
                print(f"{args.name}: round {round_.number}: "
                      f"{len(round_.evaluated)} evaluated, "
                      f"{len(round_.skipped)} cached, "
                      f"{len(round_.pruned)} pruned "
                      f"({ran} accesses)", file=sys.stderr)

            result = session.adaptive_sweep(
                args.platform, args.workloads, args.section, args.field,
                values, labels=args.labels, metric=args.metric,
                tolerance=args.tolerance, budget=args.budget,
                seed_points=args.seed_points, max_rounds=args.rounds,
                settle_rounds=args.settle_rounds or None, name=args.name,
                observer=None if args.quiet else narrate)
            experiment = result.experiment
        else:
            experiment = session.sweep(
                args.platform, args.workloads, args.section, args.field,
                values, labels=args.labels)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started

    meta = {
        "sweep": {
            "mode": "adaptive" if args.adaptive else "grid",
            "platform": args.platform,
            "section": args.section,
            "field": args.field,
            "values": values,
        },
        "workers": session.workers,
        "elapsed_s": elapsed,
    }
    if args.adaptive:
        meta["sweep"].update({
            "metric": result.metric,
            "tolerance": result.tolerance,
            "budget": result.budget,
            "evaluated": len(result.evaluated_cells),
            "skipped": len(result.skipped_cells),
            "pruned": len(result.pruned_cells),
            "grid_cost": result.grid_cost,
            "spent_cost": result.spent_cost,
            "stop_reason": result.stop_reason,
            "knees": result.knees,
            "record": f"{args.name}.sweep.json",
        })
    path = write_experiment_artifact(args.output_dir, args.name, experiment,
                                     session.config, meta=meta)
    if not args.quiet:
        print()
        print(_summarise(experiment, args.name, args.platform))
        print()
    if args.adaptive:
        record_path = write_sweep_record(args.output_dir, args.name, result,
                                         session.config)
        knees = ", ".join(
            f"{workload}={value}" for workload, value in
            result.knees.items())
        saved = (1.0 - result.spent_cost / result.grid_cost) \
            if result.grid_cost else 0.0
        print(f"{args.name}: {len(result.evaluated_cells)} of "
              f"{len(values) * len(args.workloads)} cells evaluated "
              f"({len(result.skipped_cells)} cached, "
              f"{len(result.pruned_cells)} pruned) in "
              f"{len(result.rounds)} round(s), {elapsed:.2f}s; "
              f"spent {result.spent_cost}/{result.grid_cost} accesses "
              f"({saved:.0%} saved), stop: {result.stop_reason}; "
              f"knees: {knees}")
        print(f"{args.name}: artifact -> {path}; refinement trace -> "
              f"{record_path}")
    else:
        print(f"{args.name}: {len(values) * len(args.workloads)} runs in "
              f"{elapsed:.2f}s -> {path}")
    return 0


def _artifact_provenance(payload: dict) -> str:
    """One-line shard provenance of an artifact, or '' when unsharded."""
    schema = payload.get("schema", "?")
    if schema in (SHARD_MANIFEST_SCHEMA, SHARD_RESULT_SCHEMA):
        host = payload.get("host") or payload.get(
            "claim", {}).get("owner")
        host_part = f", host {host}" if host else ""
        return (f"  [shard {payload.get('shard_index', '?')}/"
                f"{payload.get('shard_count', '?')}{host_part}]")
    sharded = payload.get("meta", {}).get("sharded")
    if sharded:
        hosts = ",".join(dict.fromkeys(sharded.get("hosts", []))) or "?"
        return (f"  [merged from {sharded.get('shard_count', '?')} "
                f"shard(s), hosts {hosts}]")
    return ""


def cmd_list_artifacts(directory: Path) -> int:
    paths = sorted(Path(directory).glob("*.json")) + \
        sorted(Path(directory).glob("*/shard-*.json"))
    if not paths:
        print(f"error: no artifacts found under {directory}",
              file=sys.stderr)
        return 1
    print(f"artifacts under {directory}:")
    for path in paths:
        payload = read_json_object(path)
        if payload is None:
            # An inspection command must surface broken artifacts, not
            # hide exactly the files the operator is hunting for.
            if path.exists():  # else it vanished mid-scan
                print(f"  {str(path.relative_to(directory)):32s} "
                      f"(unreadable: not a JSON object)")
            continue
        schema = payload.get("schema")
        if not isinstance(schema, str) or not schema.startswith("repro."):
            continue  # foreign JSON legitimately sharing the directory
        runs = payload.get("runs") or payload.get("specs") or []
        print(f"  {str(path.relative_to(directory)):32s} {schema:22s} "
              f"{len(runs):4d} runs{_artifact_provenance(payload)}")
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    if args.artifacts is not None:
        return cmd_list_artifacts(args.artifacts)
    print("platforms (Figure 16 legend order):")
    for name in PLATFORM_NAMES:
        print(f"  {name}")
    extra = sorted(set(available_platforms()) - set(PLATFORM_NAMES))
    print("additional registry entries:")
    for name in extra:
        print(f"  {name}")
    print()
    print("workloads (Table III order):")
    for name in all_workload_names():
        print(f"  {name}")
    print()
    print("experiments:")
    for name in preset_names():
        preset = get_preset(name)
        print(f"  {name:8s} {preset.figure:12s} {preset.run_count:4d} runs  "
              f"{preset.description}")
    return 0


def _resolve_artifact_pattern(pattern: str) -> Path:
    """Expand one ``--diff`` operand: a literal path or a glob pattern.

    The pattern must name exactly one artifact — sharded pipelines often
    only know the spool directory, not the experiment name, so
    ``spool/*.json`` style patterns are accepted as long as they are
    unambiguous.
    """
    path = Path(pattern)
    if path.is_file():
        return path
    matches = sorted(Path(match) for match in glob_module.glob(pattern))
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise ValueError(f"no artifact matches {pattern!r}")
    listing = ", ".join(str(match) for match in matches)
    raise ValueError(
        f"pattern {pattern!r} is ambiguous ({len(matches)} matches: "
        f"{listing})")


def cmd_report(args: argparse.Namespace) -> int:
    if args.diff is not None:
        try:
            baseline_path, candidate_path = (
                _resolve_artifact_pattern(pattern) for pattern in args.diff)
            report = diff_artifacts(baseline_path, candidate_path,
                                    threshold=args.threshold)
        except (OSError, ValueError, KeyError, TypeError) as error:
            print(f"error: cannot diff artifacts ({error})", file=sys.stderr)
            return 2
        print(report.format())
        return 0 if report.passed else 1

    directory = args.output_dir
    # Explicitly named artifacts must load (errors are reported); under the
    # default glob, foreign JSON sharing the directory — the benchmarks'
    # BENCH_<figure>.json records, garbage — is skipped silently.  Each
    # file is read and parsed exactly once either way.
    strict = bool(args.experiments)
    if strict:
        paths = [directory / f"{name}.json" for name in args.experiments]
    else:
        paths = sorted(directory.glob("*.json"))
    status = 0
    loaded = []
    for path in paths:
        try:
            payload = load_experiment_artifact(path)
            experiment = experiment_from_artifact(payload)
        except (OSError, ValueError, KeyError, TypeError) as error:
            if strict:
                print(f"error: {path}: cannot read artifact ({error!r})",
                      file=sys.stderr)
                status = 1
            continue
        loaded.append((payload, experiment))
    if not loaded and not strict:
        print(f"error: no experiment artifacts found under {directory}",
              file=sys.stderr)
        return 1
    for payload, experiment in loaded:
        meta = payload.get("meta", {})
        baseline = meta.get("baseline", "mmap")
        print()
        print(f"== {payload['experiment']} "
              f"({meta.get('figure', 'unknown figure')}), "
              f"config {payload['config_hash'][:15]}..., "
              f"{len(payload['runs'])} runs ==")
        print(_summarise(experiment, payload["experiment"], baseline))
    return status


def _select_single_preset(args: argparse.Namespace) -> ExperimentPreset:
    """One experiment, named or ad-hoc (``shard plan``, ``serve submit``)."""
    if args.experiment and (args.platforms or args.workloads):
        raise ValueError(
            f"cannot combine the {args.experiment!r} preset with "
            f"--platforms/--workloads: name a preset or describe an "
            f"ad-hoc matrix, not both")
    args.experiments = [args.experiment] if args.experiment else []
    presets = _select_presets(args)
    if len(presets) != 1:
        raise ValueError(
            "need exactly one experiment: name a preset, pass "
            "--smoke, or give --platforms/--workloads")
    return presets[0]


def cmd_shard_plan(args: argparse.Namespace) -> int:
    try:
        preset = _select_single_preset(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    scale = _build_scale(args)
    config = scale_system_config(default_config(), scale)
    specs = matrix_specs(list(preset.platforms), list(preset.workloads))
    try:
        manifests = plan_shards(preset.name, specs, config, scale,
                                args.shards, baseline=preset.baseline,
                                balance=args.balance)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    spool = ShardSpool(args.spool).prepare()
    paths = spool.add_manifests(manifests)
    sizes = [len(manifest["specs"]) for manifest in manifests]
    print(f"{preset.name}: planned {len(specs)} runs into "
          f"{len(manifests)} shard(s) (sizes {sizes}, balanced by "
          f"{args.balance}) under {spool.pending_dir}")
    if args.balance == "cost":
        costs = [sum(estimate_spec_cost(
                     specs[entry["index"]], scale)
                     for entry in manifest["specs"])
                 for manifest in manifests]
        print(f"estimated per-shard cost (accesses): {costs}")
    skipped = len(manifests) - len(paths)
    if skipped:
        print(f"{skipped} shard(s) already claimed or done in this spool; "
              f"queued {len(paths)}")
    print(f"experiment id: {manifests[0]['experiment_id']}")
    return 0


def cmd_shard_work(args: argparse.Namespace) -> int:
    spool = ShardSpool(args.spool).prepare()
    try:
        if args.manifests:
            published = [
                execute_shard_file(path, spool, workers=args.workers,
                                   force=args.force, owner=args.host)
                for path in args.manifests]
        else:
            published = work_spool(spool, owner=args.host,
                                   workers=args.workers, force=args.force,
                                   max_shards=args.max_shards)
    except (OSError, ValueError, KeyError, TypeError) as error:
        # KeyError/TypeError cover structurally broken manifest files, the
        # same class of bad input cmd_shard_merge guards against.
        print(f"error: {error!r}", file=sys.stderr)
        return 2
    if not published:
        print("no pending shards to claim")
        return 0
    for path in published:
        print(f"shard result -> {path}")
    return 0


def cmd_shard_merge(args: argparse.Namespace) -> int:
    if args.results:
        result_paths = list(args.results)
    elif args.spool is not None:
        result_paths = ShardSpool(args.spool).result_paths()
    else:
        print("error: give shard result files or --spool", file=sys.stderr)
        return 2
    if args.output is None and args.spool is None:
        # Fail the cheap precondition before loading and folding shards.
        print("error: give --output when merging explicit result files",
              file=sys.stderr)
        return 2
    try:
        payloads = load_shard_results(result_paths)
        if args.experiment is not None:
            # Experiment names are not unique across plans (ad-hoc plans
            # are all called 'custom'), so the selector also accepts the
            # experiment id or its short tag.
            def selected(payload: dict) -> bool:
                experiment_id = payload.get("experiment_id", "")
                return args.experiment in (payload.get("experiment"),
                                           experiment_id,
                                           experiment_tag(experiment_id))

            payloads = [payload for payload in payloads if selected(payload)]
            if not payloads:
                print(f"error: no shard results for experiment "
                      f"{args.experiment!r}", file=sys.stderr)
                return 1
        merged = merge_shards(payloads)
    except (OSError, ValueError, KeyError, TypeError) as error:
        print(f"error: cannot merge shards ({error})", file=sys.stderr)
        return 1
    output = (args.output if args.output is not None
              else Path(args.spool) / f"{merged.experiment}.json")
    try:
        path = merged.write_artifact(output)
    except OSError as error:
        print(f"error: cannot write merged artifact ({error})",
              file=sys.stderr)
        return 1
    if not args.quiet:
        print()
        print(_summarise(merged.result, merged.experiment,
                         merged.baseline or "mmap"))
        print()
    hosts = ",".join(dict.fromkeys(merged.hosts)) or "none"
    print(f"{merged.experiment}: merged {merged.total_runs} runs from "
          f"{merged.shard_count} shard(s) (hosts {hosts}) -> {path}")
    return 0


def _spool_run_progress(spool: ShardSpool) -> tuple:
    """(runs done, runs total) across every shard of a spool.

    A shard's total comes from its manifest (pending/claimed) or artifact
    (done); its completed count from the artifact when finished, else from
    the unique run indices of its per-run progress records — resumed
    shards append duplicate indices, so the count dedupes.  Totals are
    best-effort: an unreadable file counts as zero rather than crashing
    the one command an operator watches a spool with.
    """
    def count(value) -> int:
        return len(value) if isinstance(value, list) else 0

    done = 0
    total = 0
    seen = set()
    for state in ("results", "claims", "pending"):
        for path, payload in spool.scan(state, "shard-*.json"):
            if path.name in seen:
                continue  # finished shard with raced claim cleanup
            seen.add(path.name)
            if state == "results":
                runs = count(payload.get("runs"))
                done, total = done + runs, total + runs
                continue
            total += count(payload.get("specs"))
            events, _ = read_events(spool.progress_path(path.name))
            done += len({event.index for event in events
                         if event.index is not None})
    return done, total


def _print_spool_status(spool: ShardSpool, status) -> None:
    print(f"spool {spool.root}: {len(status.done)} done, "
          f"{len(status.running)} running, {len(status.pending)} pending")
    for label in sorted(status.pending):
        print(f"  {label}  pending")
    for label, owner in sorted(status.running.items()):
        print(f"  {label}  running  ({owner})")
    for label in sorted(status.done):
        print(f"  {label}  done")


def cmd_shard_status(args: argparse.Namespace) -> int:
    spool = ShardSpool(args.spool)
    if not args.watch:
        status = spool.status()
        if status.total == 0:
            print(f"error: no shards found under {spool.root} "
                  f"(did `repro shard plan` run?)", file=sys.stderr)
            return 1
        _print_spool_status(spool, status)
        return 0 if status.complete else 3

    # --watch: poll until the spool completes, tailing the per-run
    # progress records so the operator sees shards advance run by run,
    # not just flip state at the end.  An empty spool is legal here (the
    # plan may not have landed yet) but is called out once — watching a
    # mistyped --spool path forever with no diagnostic would be cruel.
    warned_empty = False
    while True:
        status = spool.status()
        if status.total == 0:
            if not warned_empty:
                warned_empty = True
                print(f"no shards found under {spool.root} yet — waiting "
                      f"(did `repro shard plan` run, and is --spool "
                      f"right?)", file=sys.stderr)
        else:
            done_runs, total_runs = _spool_run_progress(spool)
            print(f"spool {spool.root}: {len(status.done)} done, "
                  f"{len(status.running)} running, "
                  f"{len(status.pending)} pending | "
                  f"runs {done_runs}/{total_runs}", flush=True)
            if status.complete:
                _print_spool_status(spool, status)
                return 0
        time.sleep(args.interval)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # Piping into `head` and friends closes stdout early; exit quietly
        # like a well-behaved UNIX tool instead of tracebacking.  Point
        # stdout at devnull so the interpreter's exit-time flush does not
        # raise again.
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    raise SystemExit(main())
