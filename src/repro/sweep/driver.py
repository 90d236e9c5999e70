"""The adaptive sweep driver: spend simulated accesses where the signal is.

Fixed-grid sensitivity studies (the Figure 20a page-size sweep) evaluate
every cell of a ``values x workloads`` grid even where the metric curve is
a straight line.  This driver evaluates a coarse seed subsample of the
grid first and then iteratively *refines*: wherever a workload's metric
curve bends — the discrete curvature of an evaluated triple exceeds the
tolerance — the neighbouring grid intervals are bisected and only those
midpoints are evaluated next round.  Three mechanisms keep the spend
proportional to the signal:

* **cache skips** — a candidate cell whose content-addressed
  :func:`~repro.runner.artifacts.run_cache_key` is already resolved in the
  session's run cache costs zero budget (it streams back as a cache hit),
  so re-running a sweep — or sharing a cache with a previous fixed-grid
  study — only pays for genuinely new cells;
* **budget** — a cap on the total *estimated simulated accesses*
  (:func:`~repro.distrib.manifest.estimate_spec_cost`) prunes candidates
  once the spend would exceed it, and the pruned cells are recorded, not
  silently dropped;
* **early stop** — a workload whose knee estimate has been stable for
  ``settle_rounds`` consecutive refinement rounds is *settled*: its
  remaining candidates are recorded as settled instead of evaluated.

Every cell the driver does evaluate is submitted as exactly the
:class:`~repro.runner.specs.RunSpec` a fixed-grid :meth:`Session.sweep`
would build (same platform, same ``{section: {field: value}}`` override,
same label) — so evaluated cells are **bit-identical** to their fixed-grid
counterparts, share the same cache entries, and the adaptive experiment
artifact threshold-0 diffs cleanly against a full-grid baseline.

The driver is a consumer of :meth:`Session.submit`: each round's specs go
to the session's executor (serial, pool, sharded or ``serve:``) and the
refinement analysis runs *while the round streams* — as soon as the last
cell of a workload arrives through
:meth:`~repro.exec.ExperimentHandle.iter_results`, that workload's next
candidates are computed, overlapping analysis with the remaining runs'
execution on any tier.

Refinement geometry lives in **grid-index space**: candidates are always
cells of the supplied grid, and linearity is judged by interpolating the
metric between evaluated grid indices.  A geometrically spaced grid (page
sizes in powers of two) is therefore judged in log space, exactly as its
author laid it out — and the evaluated-cells-are-grid-cells invariant is
what makes the parity contract above checkable at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..analysis.experiments import ExperimentResult
from ..platforms.base import RunResult
from ..runner.specs import RunSpec

#: Stop reasons recorded by :class:`AdaptiveSweepResult`.
STOP_CONVERGED = "converged"    #: no triple above tolerance anywhere
STOP_BUDGET = "budget"          #: every remaining candidate was pruned
STOP_SETTLED = "settled"        #: every refining workload early-stopped
STOP_MAX_ROUNDS = "max-rounds"  #: the round cap fired first


def sweep_labels(values: Sequence[Any],
                 labels: Optional[Sequence[str]] = None) -> List[str]:
    """Resolve and validate the per-value labels of a sweep.

    The default label is ``str(value)``.  Duplicate labels — two values
    that stringify identically (``4096`` and ``"4096"``), or user-passed
    duplicates — are rejected: each value keys a ``(label, workload)``
    cell of the experiment result, and a duplicate would silently
    overwrite another value's runs.
    """
    values = list(values)
    if labels is None:
        labels = [str(value) for value in values]
    labels = [str(label) for label in labels]
    if len(labels) != len(values):
        raise ValueError("labels must match values")
    counts: Dict[str, int] = {}
    for label in labels:
        counts[label] = counts.get(label, 0) + 1
    duplicates = sorted(label for label, count in counts.items() if count > 1)
    if duplicates:
        raise ValueError(
            f"duplicate sweep label(s) {duplicates}: every (label, workload) "
            f"result key must be unique, or values would overwrite each "
            f"other; pass distinct values or explicit labels=")
    return labels


def metric_function(metric: Union[str, Callable[[RunResult], float]]
                    ) -> Callable[[RunResult], float]:
    """Turn a metric name (a ``RunResult`` attribute) into an extractor."""
    if callable(metric):
        return metric
    if not isinstance(metric, str) or not hasattr(RunResult, metric):
        raise ValueError(
            f"unknown sweep metric {metric!r}: expected a RunResult "
            f"attribute name (e.g. 'operations_per_second') or a callable")
    return lambda result: float(getattr(result, metric))


def curvature_scores(curve: Mapping[int, float]) -> Dict[int, float]:
    """Discrete-curvature score of every interior evaluated grid index.

    For each evaluated triple ``(i0, i1, i2)`` (consecutive in the sorted
    evaluated set, interpolated in index space), the score is the metric's
    deviation from the linear interpolation at ``i1``, normalised by the
    curve's largest absolute metric value.  Zero everywhere for a straight
    line; large at a knee.  Fewer than three points score nothing.
    """
    indices = sorted(curve)
    if len(indices) < 3:
        return {}
    scale = max(abs(curve[index]) for index in indices)
    scores: Dict[int, float] = {}
    for position in range(1, len(indices) - 1):
        i0, i1, i2 = indices[position - 1:position + 2]
        fraction = (i1 - i0) / (i2 - i0)
        linear = curve[i0] + (curve[i2] - curve[i0]) * fraction
        deviation = abs(curve[i1] - linear)
        scores[i1] = deviation / scale if scale > 0 else 0.0
    return scores


def knee_index(curve: Mapping[int, float]) -> Optional[int]:
    """The evaluated grid index of maximum curvature (ties: the smallest).

    ``None`` until the curve has an interior point, or when it is exactly
    linear (every score zero) — a line has no knee to report.
    """
    scores = curvature_scores(curve)
    if not scores or max(scores.values()) <= 0.0:
        return None
    best = max(scores.values())
    return min(index for index, score in scores.items() if score == best)


def refinement_candidates(curve: Mapping[int, float],
                          tolerance: float) -> Set[int]:
    """Grid indices to bisect next, given one workload's evaluated curve.

    Both intervals flanking any interior point whose curvature score
    exceeds *tolerance* are bisected (integer midpoint of the grid
    indices); intervals already at unit width cannot refine further.
    The result never contains an already-evaluated index.
    """
    indices = sorted(curve)
    out: Set[int] = set()
    scores = curvature_scores(curve)
    for position in range(1, len(indices) - 1):
        i1 = indices[position]
        if scores.get(i1, 0.0) <= tolerance:
            continue
        i0, i2 = indices[position - 1], indices[position + 1]
        for low, high in ((i0, i1), (i1, i2)):
            if high - low >= 2:
                out.add((low + high) // 2)
    return out - set(indices)


def seed_indices(grid_size: int, seed_points: int) -> List[int]:
    """Near-evenly spaced grid indices, always including both endpoints."""
    if grid_size <= 0:
        raise ValueError("the value grid must not be empty")
    points = max(2, min(int(seed_points), grid_size))
    if grid_size == 1:
        return [0]
    picked = {round(position * (grid_size - 1) / (points - 1))
              for position in range(points)}
    return sorted(picked)


@dataclass(frozen=True)
class SweepCell:
    """One resolved cell of an adaptive sweep (evaluated or cache-skipped)."""

    workload: str
    index: int        #: position on the value grid
    value: Any
    label: str
    metric: float
    cost: int         #: estimated accesses charged (0 for cache skips)
    cache_hit: bool
    key: Optional[str]

    def to_record(self) -> Dict[str, Any]:
        return {"workload": self.workload, "index": self.index,
                "value": self.value, "label": self.label,
                "metric": self.metric, "cost": self.cost,
                "cache_hit": self.cache_hit, "key": self.key}


@dataclass(frozen=True)
class SweepRound:
    """One refinement round: what ran, what the cache served, what did not.

    ``pruned`` cells fell to the budget cap; ``settled`` cells belonged to
    workloads whose knee had already stabilised.  Both are recorded as
    ``(workload, grid index)`` pairs so an audit can tell exactly which
    part of the grid was *not* explored and why.
    """

    number: int
    evaluated: Tuple[SweepCell, ...]
    skipped: Tuple[SweepCell, ...]
    pruned: Tuple[Tuple[str, int], ...]
    settled: Tuple[Tuple[str, int], ...]


@dataclass
class AdaptiveSweepResult:
    """Everything an adaptive sweep produced, decided and declined to run.

    ``experiment`` holds every resolved cell under the same
    ``(label, workload)`` keys a fixed-grid :meth:`Session.sweep` would
    use — bit-identical values for the cells both evaluated.  ``rounds``
    is the full refinement trace; ``knees`` the final knee estimate
    (grid value) per workload; the cost fields express what adaptivity
    saved relative to enumerating the grid.
    """

    platform: str
    section: str
    field_name: str
    values: List[Any]
    labels: List[str]
    workloads: List[str]
    metric: str
    tolerance: float
    budget: Optional[int]
    seed_points: int
    settle_rounds: Optional[int]
    experiment: ExperimentResult
    rounds: List[SweepRound] = field(default_factory=list)
    knees: Dict[str, Optional[Any]] = field(default_factory=dict)
    grid_cost: int = 0
    spent_cost: int = 0
    stop_reason: str = STOP_CONVERGED

    @property
    def evaluated_cells(self) -> List[SweepCell]:
        return [cell for round_ in self.rounds for cell in round_.evaluated]

    @property
    def skipped_cells(self) -> List[SweepCell]:
        return [cell for round_ in self.rounds for cell in round_.skipped]

    @property
    def pruned_cells(self) -> List[Tuple[str, int]]:
        return [cell for round_ in self.rounds for cell in round_.pruned]

    @property
    def settled_cells(self) -> List[Tuple[str, int]]:
        return [cell for round_ in self.rounds for cell in round_.settled]

    def curve(self, workload: str) -> Dict[int, float]:
        """The evaluated metric curve of one workload, by grid index."""
        return {cell.index: cell.metric for round_ in self.rounds
                for cell in (*round_.evaluated, *round_.skipped)
                if cell.workload == workload}


class AdaptiveSweepDriver:
    """Drives one adaptive sweep over a :class:`~repro.api.Session`.

    Built (and normally invoked) through :meth:`Session.adaptive_sweep`;
    separate from the facade so the refinement algorithm is testable
    without a live session and reusable by the CLI and benchmarks.
    *observer*, when given, is called with each completed
    :class:`SweepRound` — the CLI's per-round progress line.
    """

    def __init__(self, session: Any, platform: str,
                 workloads: Sequence[str], section: str, field_name: str,
                 values: Sequence[Any], *,
                 labels: Optional[Sequence[str]] = None,
                 metric: Union[str, Callable[[RunResult], float]]
                 = "operations_per_second",
                 tolerance: float = 0.05,
                 budget: Optional[int] = None,
                 seed_points: int = 5,
                 max_rounds: int = 12,
                 settle_rounds: Optional[int] = 3,
                 name: Optional[str] = None,
                 executor: Any = None,
                 observer: Optional[Callable[[SweepRound], None]] = None
                 ) -> None:
        self.session = session
        self.platform = platform
        self.workloads = list(workloads)
        self.section = section
        self.field_name = field_name
        self.values = list(values)
        if not self.values:
            raise ValueError("the sweep needs at least one value")
        if not self.workloads:
            raise ValueError("the sweep needs at least one workload")
        numeric = [value for value in self.values
                   if isinstance(value, (int, float))
                   and not isinstance(value, bool)]
        if len(numeric) == len(self.values):
            if any(later <= earlier for earlier, later
                   in zip(self.values, self.values[1:])):
                raise ValueError(
                    "adaptive sweep values must be strictly increasing — "
                    "the grid is the bisection axis")
        elif len(self.values) > 1:
            raise ValueError(
                "adaptive sweep values must be numeric (the grid is "
                "bisected by position); use Session.sweep for categorical "
                "values")
        self.labels = sweep_labels(self.values, labels)
        self.metric = metric if isinstance(metric, str) else getattr(
            metric, "__name__", "custom")
        self._metric_fn = metric_function(metric)
        if tolerance < 0:
            raise ValueError("tolerance must be >= 0")
        self.tolerance = float(tolerance)
        if budget is not None and budget < 0:
            raise ValueError("budget must be >= 0 (estimated accesses)")
        self.budget = budget
        self.seed_points = max(2, min(int(seed_points), len(self.values)))
        if max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        self.max_rounds = int(max_rounds)
        if settle_rounds is not None and settle_rounds < 1:
            raise ValueError("settle_rounds must be >= 1 (or None)")
        self.settle_rounds = settle_rounds
        self.name = name or f"adaptive-{platform}-{section}.{field_name}"
        self.executor = executor
        self.observer = observer
        self._workload_order = {workload: position for position, workload
                                in enumerate(self.workloads)}

    # -- spec/cost plumbing ----------------------------------------------------------

    def _spec(self, workload: str, index: int) -> RunSpec:
        """Exactly the spec a fixed-grid ``Session.sweep`` would submit."""
        return RunSpec(platform=self.platform, workload=workload,
                       config_overrides={
                           self.section: {self.field_name:
                                          self.values[index]}},
                       label=self.labels[index])

    def _cell_cost(self, spec: RunSpec) -> int:
        from ..distrib.manifest import estimate_spec_cost
        return estimate_spec_cost(spec, self.session.scale)

    def _cache_resolved(self, key: Optional[str]) -> bool:
        """Would this key stream back from the run cache without executing?"""
        runner = self.session.runner
        if key is None or runner.force or not runner.cache.enabled:
            return False
        path = runner.cache.path_for(key)
        return path is not None and path.is_file()

    def grid_cost(self) -> int:
        """Estimated accesses of enumerating the full grid (the baseline)."""
        return sum(self._cell_cost(self._spec(workload, index))
                   for workload in self.workloads
                   for index in range(len(self.values)))

    # -- the refinement loop ---------------------------------------------------------

    def run(self) -> AdaptiveSweepResult:
        runner = self.session.runner
        result = AdaptiveSweepResult(
            platform=self.platform, section=self.section,
            field_name=self.field_name, values=list(self.values),
            labels=list(self.labels), workloads=list(self.workloads),
            metric=self.metric, tolerance=self.tolerance, budget=self.budget,
            seed_points=self.seed_points, settle_rounds=self.settle_rounds,
            experiment=ExperimentResult(scale=self.session.scale),
            grid_cost=self.grid_cost())
        curves: Dict[str, Dict[int, float]] = {workload: {}
                                               for workload in self.workloads}
        knee_history: Dict[str, List[Optional[int]]] = {
            workload: [] for workload in self.workloads}
        settled: Set[str] = set()
        seeds = seed_indices(len(self.values), self.seed_points)
        candidates: Set[Tuple[str, int]] = {
            (workload, index)
            for workload in self.workloads for index in seeds}
        spent = 0

        for round_number in range(self.max_rounds):
            if not candidates:
                break
            ordered = sorted(candidates, key=lambda cell: (
                self._workload_order[cell[0]], cell[1]))
            settled_cells = tuple(cell for cell in ordered
                                  if cell[0] in settled)
            live = [cell for cell in ordered if cell[0] not in settled]

            # Budget partition.  Cache-resolved candidates are free; the
            # rest charge their estimated access count, in submission
            # order, until the budget line — everything past it is pruned
            # (recorded, never silently dropped).
            to_run: List[Tuple[str, int, RunSpec, Optional[str], int]] = []
            pruned: List[Tuple[str, int]] = []
            for workload, index in live:
                spec = self._spec(workload, index)
                key = (runner.cache_key(spec) if runner.cache.enabled
                       else None)
                cost = (0 if self._cache_resolved(key)
                        else self._cell_cost(spec))
                if self.budget is not None and cost \
                        and spent + cost > self.budget:
                    pruned.append((workload, index))
                    continue
                spent += cost
                to_run.append((workload, index, spec, key, cost))

            if not to_run:
                result.rounds.append(SweepRound(
                    number=round_number, evaluated=(), skipped=(),
                    pruned=tuple(pruned), settled=settled_cells))
                if self.observer is not None:
                    self.observer(result.rounds[-1])
                result.stop_reason = STOP_BUDGET if pruned else STOP_SETTLED
                break

            # One submission per round; refinement of a workload starts
            # the moment its last cell streams in, overlapping analysis
            # with the execution still in flight on the chosen tier.
            handle = self.session.submit(
                [spec for _, _, spec, _, _ in to_run],
                name=f"{self.name}-r{round_number}",
                executor=self.executor)
            outstanding: Dict[str, int] = {}
            for workload, _, _, _, _ in to_run:
                outstanding[workload] = outstanding.get(workload, 0) + 1
            next_candidates: Set[Tuple[str, int]] = set()
            evaluated: List[SweepCell] = []
            skipped: List[SweepCell] = []
            for run in handle.iter_results():
                workload, index, spec, key, charged = to_run[run.index]
                value = self._metric_fn(run.result)
                curves[workload][index] = value
                platform_key, workload_key = spec.result_key
                result.experiment.add(platform_key, workload_key, run.result)
                # The streamed flag is ground truth; reconcile the charge
                # when the prediction was wrong (e.g. a torn cache file).
                actual = 0 if run.cache_hit else self._cell_cost(spec)
                spent += actual - charged
                cell = SweepCell(
                    workload=workload, index=index, value=self.values[index],
                    label=self.labels[index], metric=value, cost=actual,
                    cache_hit=run.cache_hit, key=key)
                (skipped if run.cache_hit else evaluated).append(cell)
                outstanding[workload] -= 1
                if outstanding[workload] == 0:
                    next_candidates.update(
                        (workload, candidate) for candidate in
                        refinement_candidates(curves[workload],
                                              self.tolerance))
            handle.result()  # raises ExperimentCancelled on a partial round

            result.rounds.append(SweepRound(
                number=round_number, evaluated=tuple(evaluated),
                skipped=tuple(skipped), pruned=tuple(pruned),
                settled=settled_cells))
            if self.observer is not None:
                self.observer(result.rounds[-1])

            # Early stop: a workload whose knee estimate has not moved for
            # settle_rounds consecutive rounds stops refining.
            for workload in self.workloads:
                if workload in settled:
                    continue
                knee_history[workload].append(knee_index(curves[workload]))
                history = knee_history[workload]
                if self.settle_rounds is not None \
                        and len(history) >= self.settle_rounds \
                        and history[-1] is not None \
                        and len(set(
                            history[-self.settle_rounds:])) == 1:
                    settled.add(workload)

            candidates = {(workload, index)
                          for workload, index in next_candidates
                          if index not in curves[workload]}
            if not candidates:
                result.stop_reason = STOP_CONVERGED
                break
        else:
            result.stop_reason = STOP_MAX_ROUNDS

        result.spent_cost = spent
        result.knees = {}
        for workload in self.workloads:
            knee = knee_index(curves[workload])
            result.knees[workload] = (self.values[knee]
                                      if knee is not None else None)
        return result
