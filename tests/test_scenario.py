"""The multi-tenant scenario engine: merge properties, attribution, QoS.

Four contracts are pinned here:

* **Merge determinism and chunking invariance** (hypothesis): the
  interleave and rate merges are pure functions of the spec and the
  tenant lengths — the emitted sequence never depends on the internal
  block granularity or on how the mixed stream is chunked for replay,
  each tenant's stream is consumed strictly sequentially, and projecting
  a tenant back out of the mix returns its original stream exactly.

* **1-tenant identity** (golden, every registry platform): a scenario
  with one tenant replays bit-identically to the plain solo run — same
  RunResult field for field — with the per-tenant payload riding only in
  ``RunResult.tenants``.

* **Conservation** (threshold 0): in any mix, the per-tenant statistics
  sum exactly to the aggregate payload, and the integer totals match the
  platform's own accounting.

* **Plumbing parity**: ``scenario:`` specs flow through the runner, the
  content-addressed cache, the executor tiers and serve validation like
  any other workload source, and QoS policies measurably change what
  each tenant experiences.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import default_config
from repro.distrib.manifest import estimate_spec_cost
from repro.platforms.registry import available_platforms, create_platform
from repro.runner.artifacts import (
    run_cache_key,
    run_result_from_dict,
    run_result_to_dict,
    scale_to_dict,
)
from repro.runner.parallel import execute_spec
from repro.runner.specs import RunSpec, workload_display_label
from repro.scenario import (
    ScenarioSpec,
    TenantSpec,
    build_mixed_trace,
    mix_content_hash,
    run_scenario,
    scenario_run_spec,
    scenario_source,
    scenario_spec_length,
    parse_scenario_source,
    tenant_projection,
)
from repro.scenario.mix import (
    MERGE_BLOCK,
    _interleave_blocks,
    _rate_blocks,
)
from repro.scenario.policy import jains_index, tenant_slowdowns
from repro.workloads.registry import (
    ExperimentScale,
    build_trace,
    scale_system_config,
)

#: Small enough for the full platform matrix, large enough for cache
#: evictions and migrations (mirrors tests/test_batched_replay.py).
SCALE = ExperimentScale(capacity_scale=1 / 256, min_accesses=200,
                        max_accesses=600)

#: Larger streams for the contention/policy assertions, where tenants
#: must actually fight over the page cache.
CONTENTION_SCALE = ExperimentScale(capacity_scale=1 / 256,
                                   min_accesses=1500, max_accesses=3000)


def trio_spec(**kwargs) -> ScenarioSpec:
    defaults = dict(
        name="trio",
        tenants=(TenantSpec(workload="seqRd"),
                 TenantSpec(workload="rndRd"),
                 TenantSpec(workload="update", weight=2)))
    defaults.update(kwargs)
    return ScenarioSpec(**defaults)


@pytest.fixture(scope="module")
def config():
    return scale_system_config(default_config(), SCALE)


# ---------------------------------------------------------------------------
# Spec layer
# ---------------------------------------------------------------------------


class TestScenarioSpec:
    def test_source_round_trip(self):
        spec = trio_spec(arrival="rate", policy="throttle",
                         policy_params={"limits": {"seqRd": 0.5}})
        source = scenario_source(spec)
        assert source.startswith("scenario:")
        assert parse_scenario_source(source) == spec
        # The source is canonical: re-encoding the parse is a fixpoint.
        assert scenario_source(parse_scenario_source(source)) == source

    def test_from_dict_round_trip(self):
        spec = trio_spec()
        assert ScenarioSpec.from_dict(spec.canonical()) == spec

    def test_validation_errors(self):
        tenants = (TenantSpec(workload="seqRd"),)
        with pytest.raises(ValueError, match="arrival"):
            ScenarioSpec(name="x", tenants=tenants, arrival="poisson")
        with pytest.raises(ValueError, match="policy"):
            ScenarioSpec(name="x", tenants=tenants, policy="magic")
        with pytest.raises(ValueError, match="rate"):
            ScenarioSpec(name="x", tenants=tenants, policy="throttle")
        with pytest.raises(ValueError, match="phase"):
            ScenarioSpec(name="x", tenants=(
                TenantSpec(workload="seqRd", phase=1.0),))
        with pytest.raises(ValueError, match="nest"):
            TenantSpec(workload="scenario:{}")
        with pytest.raises(ValueError, match="weight"):
            TenantSpec(workload="seqRd", weight=0)
        with pytest.raises(ValueError, match="reserved"):
            TenantSpec(workload="seqRd", name="aggregate")
        with pytest.raises(ValueError, match="at least one tenant"):
            ScenarioSpec(name="x", tenants=())

    def test_tenant_names_dedup(self):
        spec = ScenarioSpec(name="selfmix", tenants=(
            TenantSpec(workload="rndRd"),
            TenantSpec(workload="rndRd"),
            TenantSpec(workload="seqRd", name="reader")))
        assert spec.tenant_names() == ["rndRd#0", "rndRd#1", "reader"]

    def test_identity_ignores_tenant_file_paths(self, tmp_path):
        from repro.trace.writer import build_trace_file
        a = tmp_path / "a.trace"
        b = tmp_path / "sub" / "b.trace"
        b.parent.mkdir()
        build_trace_file("seqRd", a, scale=SCALE)
        build_trace_file("seqRd", b, scale=SCALE)
        scale_dict = scale_to_dict(SCALE)
        identities = [
            ScenarioSpec(name="m", tenants=(
                TenantSpec(workload=f"trace:{path}", name="t0"),
                TenantSpec(workload="update"))).identity(scale_dict)
            for path in (a, b)]
        # Same content, different paths: one identity (and one cache key).
        assert identities[0] == identities[1]

    def test_spec_length_matches_built_trace(self):
        spec = trio_spec()
        assert scenario_spec_length(spec, SCALE) == \
            len(build_mixed_trace(spec, SCALE))
        run = scenario_run_spec(spec, "mmap")
        assert estimate_spec_cost(run, SCALE) == \
            scenario_spec_length(spec, SCALE)

    def test_workload_display_label(self):
        run = scenario_run_spec(trio_spec(), "mmap")
        assert run.workload_label == "trio"
        assert workload_display_label(run.workload) == "trio"
        assert workload_display_label("seqRd") is None


# ---------------------------------------------------------------------------
# Merge order properties (hypothesis)
# ---------------------------------------------------------------------------


def drain(blocks):
    """Concatenate a merge generator into (indices, positions) columns."""
    pairs = list(blocks)
    if not pairs:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    return (np.concatenate([indices for indices, _ in pairs]),
            np.concatenate([positions for _, positions in pairs]))


def assert_sequential_consumption(indices, positions, lengths):
    """Every tenant's positions come out as 0..length-1, in order."""
    for tenant, length in enumerate(lengths):
        mine = positions[indices == tenant]
        np.testing.assert_array_equal(
            mine, np.arange(length, dtype=np.int64))


@st.composite
def tenant_shapes(draw):
    count = draw(st.integers(min_value=1, max_value=4))
    lengths = draw(st.lists(st.integers(min_value=0, max_value=60),
                            min_size=count, max_size=count))
    weights = draw(st.lists(st.integers(min_value=1, max_value=5),
                            min_size=count, max_size=count))
    return lengths, weights


class TestInterleaveMerge:
    @given(shapes=tenant_shapes(),
           block=st.sampled_from([1, 3, 17, MERGE_BLOCK]))
    @settings(max_examples=60, deadline=None)
    def test_block_size_never_changes_the_sequence(self, shapes, block):
        lengths, weights = shapes
        reference = drain(_interleave_blocks(lengths, weights,
                                             block=MERGE_BLOCK))
        candidate = drain(_interleave_blocks(lengths, weights, block=block))
        np.testing.assert_array_equal(reference[0], candidate[0])
        np.testing.assert_array_equal(reference[1], candidate[1])
        assert_sequential_consumption(*candidate, lengths)

    def test_weighted_cycle_order(self):
        indices, positions = drain(_interleave_blocks([4, 2], [2, 1],
                                                      block=3))
        np.testing.assert_array_equal(
            indices, [0, 0, 1, 0, 0, 1])
        np.testing.assert_array_equal(
            positions, [0, 1, 0, 2, 3, 1])


@st.composite
def rate_shapes(draw):
    count = draw(st.integers(min_value=1, max_value=4))
    lengths = draw(st.lists(st.integers(min_value=0, max_value=60),
                            min_size=count, max_size=count))
    # Dyadic rates/phases: exactly representable, so equality of issue
    # clocks across buffering granularities is exact, not approximate.
    rates = draw(st.lists(st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]),
                          min_size=count, max_size=count))
    phases = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5]),
                           min_size=count, max_size=count))
    priorities = draw(st.lists(st.integers(min_value=0, max_value=3),
                               min_size=count, max_size=count))
    return lengths, rates, phases, priorities


class TestRateMerge:
    @given(shapes=rate_shapes(),
           block=st.sampled_from([1, 3, 17, MERGE_BLOCK]),
           windows=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_buffering_never_changes_the_sequence(self, shapes, block,
                                                  windows):
        lengths, rates, phases, priorities = shapes
        reference = drain(_rate_blocks(lengths, rates, phases, priorities,
                                       block=MERGE_BLOCK,
                                       priority_windows=windows))
        candidate = drain(_rate_blocks(lengths, rates, phases, priorities,
                                       block=block,
                                       priority_windows=windows))
        np.testing.assert_array_equal(reference[0], candidate[0])
        np.testing.assert_array_equal(reference[1], candidate[1])
        assert_sequential_consumption(*candidate, lengths)

    @given(shapes=rate_shapes())
    @settings(max_examples=40, deadline=None)
    def test_issue_clocks_are_globally_sorted(self, shapes):
        lengths, rates, phases, _ = shapes
        indices, positions = drain(
            _rate_blocks(lengths, rates, phases, [0] * len(lengths)))
        issue = np.asarray([phases[t] + (p + 1.0) / rates[t]
                            for t, p in zip(indices, positions)])
        assert np.all(np.diff(issue) >= 0)

    def test_rate_scaling_doubles_arrivals(self):
        # Tenant 0 at rate 2 lands two accesses per unit clock; tenant 1
        # at rate 1 lands one — so the merged prefix alternates 0,0,1.
        indices, _ = drain(_rate_blocks([8, 4], [2.0, 1.0], [0.0, 0.0],
                                        [0, 0]))
        np.testing.assert_array_equal(indices[:6], [0, 0, 1, 0, 0, 1])

    def test_priority_reorders_within_windows(self):
        # Same clocks; higher priority of tenant 1 wins inside each unit
        # window but cannot jump into an earlier window.
        plain, _ = drain(_rate_blocks([4, 4], [1.0, 1.0], [0.0, 0.0],
                                      [0, 1]))
        windowed, _ = drain(_rate_blocks([4, 4], [1.0, 1.0], [0.0, 0.0],
                                         [0, 1], priority_windows=True))
        np.testing.assert_array_equal(plain, [0, 1] * 4)
        np.testing.assert_array_equal(windowed, [1, 0] * 4)


# ---------------------------------------------------------------------------
# The mixed stream
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def trio_trace():
    return build_mixed_trace(trio_spec(), SCALE)


class TestMixedStream:
    def test_deterministic_rebuild(self, trio_trace):
        again = build_mixed_trace(trio_spec(), SCALE)
        np.testing.assert_array_equal(trio_trace.stream.addresses,
                                      again.stream.addresses)
        assert mix_content_hash(trio_trace.stream) == \
            mix_content_hash(again.stream)

    @given(chunk_size=st.integers(min_value=1, max_value=2000))
    @settings(max_examples=25, deadline=None)
    def test_chunking_invariance(self, trio_trace, chunk_size):
        stream = trio_trace.stream
        chunks = list(stream.chunks(chunk_size))
        assert all(len(chunk) == chunk_size for chunk in chunks[:-1])
        assert sum(len(chunk) for chunk in chunks) == len(stream)
        np.testing.assert_array_equal(
            np.concatenate([chunk.addresses for chunk in chunks]),
            stream.addresses)
        np.testing.assert_array_equal(
            np.concatenate([chunk.tenants for chunk in chunks]),
            stream.tenants)
        assert mix_content_hash(stream, chunk_size=chunk_size) == \
            mix_content_hash(stream)

    def test_tenant_projection_equals_original(self, trio_trace):
        spec = trio_spec()
        for index, tenant in enumerate(spec.tenants):
            original = build_trace(tenant.workload, SCALE).stream
            projected = tenant_projection(trio_trace.stream, index)
            np.testing.assert_array_equal(projected.addresses,
                                          original.addresses)
            np.testing.assert_array_equal(projected.sizes, original.sizes)
            np.testing.assert_array_equal(projected.writes,
                                          original.writes)

    def test_tenant_spans_do_not_overlap(self, trio_trace):
        stream = trio_trace.stream
        bases = stream.bases
        assert bases == tuple(sorted(bases))
        for index in range(len(bases)):
            mine = stream.addresses[stream.tenants == index]
            assert mine.min() >= bases[index]
            if index + 1 < len(bases):
                assert mine.max() < bases[index + 1]

    def test_accounting_merges(self, trio_trace):
        spec = trio_spec()
        solos = [build_trace(tenant.workload, SCALE)
                 for tenant in spec.tenants]
        assert len(trio_trace) == sum(len(solo) for solo in solos)
        assert trio_trace.stream.write_count == \
            sum(solo.stream.write_count for solo in solos)
        assert trio_trace.operations == \
            sum(solo.operations for solo in solos)
        assert trio_trace.total_instructions == \
            sum(solo.total_instructions for solo in solos)
        assert trio_trace.suite == "scenario"


# ---------------------------------------------------------------------------
# Replay: identity, conservation, attribution
# ---------------------------------------------------------------------------


class TestOneTenantIdentity:
    @pytest.mark.parametrize("platform_name", available_platforms())
    def test_bit_identical_to_solo(self, platform_name, config):
        spec = ScenarioSpec(name="solo", tenants=(
            TenantSpec(workload="update"),))
        mixed = run_scenario(spec, create_platform(platform_name, config),
                             SCALE)
        solo = create_platform(platform_name, config).run(
            build_trace("update", SCALE))
        mixed_fields = dataclasses.asdict(mixed)
        tenants = mixed_fields.pop("tenants")
        solo_fields = dataclasses.asdict(solo)
        solo_fields.pop("tenants")
        assert mixed_fields == solo_fields
        assert set(tenants) == {"update", "aggregate"}
        assert tenants["update"] == tenants["aggregate"]
        assert tenants["update"]["accesses"] == mixed.memory_accesses


CONSERVATION_PLATFORMS = ("mmap", "oracle", "nvdimm-C", "hams-TE")


class TestConservation:
    @pytest.mark.parametrize("platform_name", CONSERVATION_PLATFORMS)
    def test_per_tenant_sums_to_aggregate(self, platform_name, config):
        spec = trio_spec()
        result = run_scenario(
            spec, create_platform(platform_name, config), SCALE)
        names = spec.tenant_names()
        assert set(result.tenants) == set(names) | {"aggregate"}
        aggregate = result.tenants["aggregate"]
        keys = {key for name in names for key in result.tenants[name]
                if not key.startswith("service_ns")}
        for key in keys:
            total = sum(result.tenants[name].get(key, 0.0)
                        for name in names)
            assert total == pytest.approx(aggregate[key], abs=0, rel=0), \
                f"{key} not conserved on {platform_name}"
        assert aggregate["accesses"] == result.memory_accesses
        assert aggregate.get("offchip", 0.0) == result.offchip_accesses
        # The latency aggregate merges too: counts add exactly.
        if "service_ns.count" in aggregate:
            assert aggregate["service_ns.count"] == sum(
                result.tenants[name].get("service_ns.count", 0.0)
                for name in names)


# ---------------------------------------------------------------------------
# QoS policies
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def contention_config():
    return scale_system_config(default_config(), CONTENTION_SCALE)


def stall_per_access(result, names):
    return {name: result.tenants[name]["stall_ns"]
            / result.tenants[name]["accesses"] for name in names}


class TestPolicies:
    def test_cache_partition_changes_outcomes(self, contention_config):
        spec = trio_spec()
        names = spec.tenant_names()
        shared = run_scenario(
            spec, create_platform("nvdimm-C", contention_config),
            CONTENTION_SCALE)
        parted = run_scenario(
            trio_spec(policy="cache-partition"),
            create_platform("nvdimm-C", contention_config),
            CONTENTION_SCALE)
        # Shared cache: tenants evict each other.  Partitioned: that is
        # structurally impossible, and the outcomes measurably move.
        assert sum(shared.tenants[name].get("evictions_suffered", 0.0)
                   for name in names) > 0
        assert all(parted.tenants[name].get("evictions_suffered", 0.0) == 0
                   for name in names)
        assert stall_per_access(shared, names) != \
            stall_per_access(parted, names)

    def test_cache_partition_needs_a_cache(self, contention_config):
        with pytest.raises(ValueError, match="no partitionable"):
            run_scenario(trio_spec(policy="cache-partition"),
                         create_platform("mmap", contention_config),
                         CONTENTION_SCALE)

    def test_cache_partition_honours_shares(self, contention_config):
        lopsided = trio_spec(policy="cache-partition",
                             policy_params={"shares": {"rndRd": 8.0}})
        fair = trio_spec(policy="cache-partition")
        big = run_scenario(
            lopsided, create_platform("nvdimm-C", contention_config),
            CONTENTION_SCALE)
        even = run_scenario(
            fair, create_platform("nvdimm-C", contention_config),
            CONTENTION_SCALE)
        # Eight shares of the cache buy rndRd at least as many hits.
        assert big.tenants["rndRd"]["cache_hits"] >= \
            even.tenants["rndRd"]["cache_hits"]

    def test_throttle_clamps_the_merge(self):
        base = trio_spec(arrival="rate")
        throttled = trio_spec(
            arrival="rate", policy="throttle",
            policy_params={"limits": {"seqRd": 0.25}})
        plain = build_mixed_trace(base, SCALE).stream
        clamped = build_mixed_trace(throttled, SCALE).stream
        assert len(plain) == len(clamped)  # admission delays, not drops
        assert mix_content_hash(plain) != mix_content_hash(clamped)
        # The throttled tenant's accesses shift later in the mix.
        assert np.mean(np.flatnonzero(clamped.tenants == 0)) > \
            np.mean(np.flatnonzero(plain.tenants == 0))

    def test_throttle_unknown_tenant_rejected(self):
        spec = trio_spec(arrival="rate", policy="throttle",
                         policy_params={"limits": {"nobody": 0.5}})
        with pytest.raises(ValueError, match="unknown tenants"):
            build_mixed_trace(spec, SCALE).stream.addresses

    def test_fairness_metrics(self):
        assert jains_index([1.0, 1.0, 1.0]) == pytest.approx(1.0)
        assert jains_index([1.0, 0.0, 0.0]) == pytest.approx(1 / 3)
        mixed = {"a": {"accesses": 10.0, "stall_ns": 40.0},
                 "b": {"accesses": 10.0, "stall_ns": 10.0}}
        solo_result = dataclasses.make_dataclass(
            "Solo", ["memory_stall_ns", "memory_accesses"])
        slowdowns = tenant_slowdowns(
            mixed, {"a": solo_result(20.0, 10), "b": solo_result(10.0, 10)})
        assert slowdowns == {"a": 2.0, "b": 1.0}


# ---------------------------------------------------------------------------
# Runner / cache / executor / serve plumbing
# ---------------------------------------------------------------------------


class TestRunnerPlumbing:
    def test_execute_spec_dispatches_scenarios(self, config):
        spec = scenario_run_spec(trio_spec(), "nvdimm-C")
        result = execute_spec(spec, config, SCALE)
        assert set(result.tenants) == \
            set(trio_spec().tenant_names()) | {"aggregate"}

    def test_result_serialisation_round_trip(self, config):
        spec = scenario_run_spec(trio_spec(), "oracle")
        result = execute_spec(spec, config, SCALE)
        payload = json.loads(json.dumps(run_result_to_dict(result)))
        restored = run_result_from_dict(payload)
        assert restored.tenants == result.tenants
        # Plain runs stay byte-stable: no "tenants" key at all.
        solo = execute_spec(RunSpec(platform="oracle", workload="seqRd"),
                            config, SCALE)
        assert "tenants" not in run_result_to_dict(solo)

    def test_cache_key_is_stable_and_label_free(self, config):
        spec = scenario_run_spec(trio_spec(), "oracle")
        relabelled = dataclasses.replace(spec, label="x",
                                         workload_label="y")
        assert run_cache_key(spec, config, SCALE) == \
            run_cache_key(relabelled, config, SCALE)

    def test_executor_tiers_and_cache_agree(self, tmp_path):
        from repro.api import Session
        spec = scenario_run_spec(trio_spec(), "nvdimm-C")
        sessions = {
            "serial": Session(SCALE, executor="serial"),
            "pool": Session(SCALE, workers=2),
            "sharded": Session(SCALE, executor="sharded"),
        }
        outputs = {}
        for tier, session in sessions.items():
            experiment = session.collect([spec], name=f"mix-{tier}")
            outputs[tier] = run_result_to_dict(
                experiment.get("nvdimm-C", "trio"))
        assert outputs["serial"] == outputs["pool"] == outputs["sharded"]

        cached = Session(SCALE, cache_dir=tmp_path / "cache")
        first = cached.simulate("nvdimm-C", spec.workload)
        hits = [hit for _, _, hit, _ in
                cached.runner.iter_specs([spec])]
        assert hits == [True]
        again = cached.simulate("nvdimm-C", spec.workload)
        assert run_result_to_dict(first) == run_result_to_dict(again)
        assert again.tenants  # the payload survives the cache round-trip

    def test_serve_validation(self, tmp_path):
        from repro.serve.server import ServeConfig, ServeDaemon, ServeError
        daemon = ServeDaemon(ServeConfig(state_dir=tmp_path / "state",
                                         scale=SCALE))
        good = scenario_run_spec(trio_spec(), "mmap")
        assert daemon._validate_specs([good.to_dict()])[0] == good
        bad = dataclasses.replace(
            good, workload=scenario_source(ScenarioSpec(
                name="bad", tenants=(TenantSpec(workload="nope"),))))
        with pytest.raises(ServeError, match="tenant workload"):
            daemon._validate_specs([bad.to_dict()])
        with pytest.raises(ServeError, match="not a scenario|malformed"):
            daemon._validate_specs([dataclasses.replace(
                good, workload="scenario:not-json").to_dict()])
