"""Property tests for the merge algebra the shard coordinator relies on.

The distributed tier is only correct if folding shards is insensitive to
how the work was partitioned and in which order the partial aggregates are
combined.  These tests state that as hypothesis properties over
``Counter.merge``, ``LatencyStat.merge``,
``StatRegistry.merge`` and ``ExperimentResult.merge``:

* **splitting invariance** — merging the aggregates of any partition of a
  sample stream equals aggregating the whole stream at once;
* **associativity / order-insensitivity** — any merge tree over the same
  shards yields the same aggregate.

Counts, min and max are exact (integer or order-free
arithmetic).  Sums and the Welford mean/M2 are floating point, where
reassociation legitimately perturbs the last ulps, so those compare with a
tight relative tolerance rather than bit equality.  ``ExperimentResult``
holds runs by key without arithmetic, so its merges are exact.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import ExperimentResult
from repro.energy.accounting import EnergyBreakdown
from repro.platforms.base import RunResult
from repro.sim.stats import Counter, LatencyStat, StatRegistry
from repro.workloads.registry import ExperimentScale

SCALE = ExperimentScale()

#: Latency-like samples: non-negative, wide dynamic range, no NaN/inf.
samples = st.floats(min_value=0.0, max_value=1e9, allow_nan=False,
                    allow_infinity=False)
sample_lists = st.lists(samples, max_size=40)

#: A partition of one stream into shard-sized pieces.
sharded_samples = st.lists(sample_lists, min_size=1, max_size=5)


def close(left: float, right: float, tolerance: float = 1e-9) -> bool:
    return math.isclose(left, right, rel_tol=tolerance, abs_tol=1e-6)


# ---------------------------------------------------------------------------
# Counter
# ---------------------------------------------------------------------------


def counter_of(values) -> Counter:
    counter = Counter("c")
    for value in values:
        counter.add(value)
    return counter


@settings(max_examples=50, deadline=None)
@given(sharded_samples)
def test_counter_split_invariance(shards):
    whole = counter_of([value for shard in shards for value in shard])
    merged = Counter("c")
    for shard in shards:
        merged.merge(counter_of(shard))
    assert close(merged.value, whole.value)


@settings(max_examples=50, deadline=None)
@given(sample_lists, sample_lists, sample_lists)
def test_counter_merge_associative(a, b, c):
    left = counter_of(a)
    left.merge(counter_of(b))
    left.merge(counter_of(c))
    bc = counter_of(b)
    bc.merge(counter_of(c))
    right = counter_of(a)
    right.merge(bc)
    assert close(left.value, right.value)


# ---------------------------------------------------------------------------
# LatencyStat (parallel Welford merge)
# ---------------------------------------------------------------------------


def latency_of(values) -> LatencyStat:
    stat = LatencyStat("lat")
    for value in values:
        stat.record(value)
    return stat


def assert_latency_equal(left: LatencyStat, right: LatencyStat) -> None:
    assert left.count == right.count
    if left.count == 0:
        return
    assert left.min == right.min
    assert left.max == right.max
    assert close(left.total, right.total)
    assert close(left.mean, right.mean)
    # M2 is a sum of squared deviations: scale the tolerance to it rather
    # than comparing variances directly, which amplifies cancellation noise.
    assert close(left._m2, right._m2, tolerance=1e-6)


@settings(max_examples=50, deadline=None)
@given(sharded_samples)
def test_latency_split_invariance(shards):
    whole = latency_of([value for shard in shards for value in shard])
    merged = LatencyStat("lat")
    for shard in shards:
        merged.merge(latency_of(shard))
    assert_latency_equal(merged, whole)


@settings(max_examples=50, deadline=None)
@given(sample_lists, sample_lists, sample_lists)
def test_latency_merge_associative(a, b, c):
    left = latency_of(a)
    left.merge(latency_of(b))
    left.merge(latency_of(c))
    bc = latency_of(b)
    bc.merge(latency_of(c))
    right = latency_of(a)
    right.merge(bc)
    assert_latency_equal(left, right)


@settings(max_examples=30, deadline=None)
@given(st.permutations(list(range(4))), sharded_samples)
def test_latency_shard_order_insensitive(order, shards):
    shards = (shards * 4)[:4]
    forward = LatencyStat("lat")
    for shard in shards:
        forward.merge(latency_of(shard))
    permuted = LatencyStat("lat")
    for index in order:
        permuted.merge(latency_of(shards[index]))
    assert_latency_equal(forward, permuted)


# ---------------------------------------------------------------------------
# StatRegistry (the union-merge the ROADMAP names for sharded stats)
# ---------------------------------------------------------------------------

registry_payload = st.fixed_dictionaries({
    "counters": st.dictionaries(
        st.sampled_from(["reads", "writes", "evictions"]),
        sample_lists, max_size=3),
    "latencies": st.dictionaries(
        st.sampled_from(["read_ns", "write_ns"]),
        sample_lists, max_size=2),
})


def registry_of(payload) -> StatRegistry:
    registry = StatRegistry(prefix="dev")
    for name, values in payload["counters"].items():
        for value in values:
            registry.counter(name).add(value)
    for name, values in payload["latencies"].items():
        for value in values:
            registry.latency(name).record(value)
    return registry


def assert_registry_close(left: StatRegistry, right: StatRegistry) -> None:
    left_snapshot, right_snapshot = left.snapshot(), right.snapshot()
    assert left_snapshot.keys() == right_snapshot.keys()
    for name in left_snapshot:
        assert close(left_snapshot[name], right_snapshot[name]), name


@settings(max_examples=40, deadline=None)
@given(registry_payload, registry_payload, registry_payload)
def test_registry_merge_associative(a, b, c):
    left = registry_of(a)
    left.merge(registry_of(b))
    left.merge(registry_of(c))
    bc = registry_of(b)
    bc.merge(registry_of(c))
    right = registry_of(a)
    right.merge(bc)
    assert_registry_close(left, right)


@settings(max_examples=40, deadline=None)
@given(registry_payload, registry_payload)
def test_registry_merge_order_insensitive(a, b):
    forward = registry_of(a)
    forward.merge(registry_of(b))
    backward = registry_of(b)
    backward.merge(registry_of(a))
    assert_registry_close(forward, backward)


# ---------------------------------------------------------------------------
# ExperimentResult (keyed runs, no arithmetic: exact in every order)
# ---------------------------------------------------------------------------


def run_result(platform: str, workload: str, value: float) -> RunResult:
    return RunResult(
        platform=platform, workload=workload, suite="microbench",
        operation_unit="ops", operations=value, total_ns=value * 10 + 1.0,
        app_ns=value, os_ns=0.0, ssd_ns=0.0, memory_stall_ns=0.0,
        compute_ns=value, instructions=int(value), memory_accesses=1,
        offchip_accesses=0, ipc=1.0, mips=1.0,
        energy=EnergyBreakdown(cpu_nj=value))


experiment_keys = st.lists(
    st.tuples(st.sampled_from(["mmap", "hams-TE", "oracle", "optane-M"]),
              st.sampled_from(["seqRd", "update", "BFS"])),
    unique=True, max_size=8)


def experiment_of(keys, offset=0.0) -> ExperimentResult:
    experiment = ExperimentResult(scale=SCALE)
    for index, (platform, workload) in enumerate(keys):
        experiment.add(platform, workload,
                       run_result(platform, workload, index + 1 + offset))
    return experiment


@settings(max_examples=50, deadline=None)
@given(experiment_keys, experiment_keys, experiment_keys)
def test_experiment_merge_associative_exact(a, b, c):
    left = experiment_of(a).merge(experiment_of(b)).merge(experiment_of(c))
    right = experiment_of(a).merge(
        experiment_of(b).merge(experiment_of(c)))
    assert left.results == right.results


@settings(max_examples=50, deadline=None)
@given(experiment_keys, experiment_keys)
def test_experiment_merge_order_insensitive_on_disjoint_shards(a, b):
    """Disjoint shards (the planner's case) commute exactly as mappings."""
    b = [key for key in b if key not in set(a)]
    forward = experiment_of(a).merge(experiment_of(b, offset=100))
    backward = experiment_of(b, offset=100).merge(experiment_of(a))
    assert forward.results == backward.results


@settings(max_examples=30, deadline=None)
@given(experiment_keys)
def test_experiment_merge_last_shard_wins_on_overlap(keys):
    """Overlapping keys take the later shard's run — matching add()."""
    first = experiment_of(keys)
    second = experiment_of(keys, offset=100)
    expected = dict(second.results)
    merged = experiment_of(keys).merge(second)
    assert dict(merged.results) == expected
