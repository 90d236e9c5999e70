"""Analysis helpers, matrix replay, and end-to-end integration checks."""

import pytest

from repro.analysis.breakdown import (
    average_breakdown,
    execution_breakdown_table,
    memory_delay_table,
    normalised_energy_table,
)
from repro.analysis.reporting import format_series, format_table, series_to_rows
from repro.api import Session
from repro.workloads.registry import ExperimentScale

SCALE = ExperimentScale(capacity_scale=1 / 512, min_accesses=200,
                        max_accesses=400)


@pytest.fixture(scope="module")
def small_experiment():
    session = Session(SCALE, executor="serial")
    return session.compare(["mmap", "hams-LE", "hams-TE", "oracle"],
                           ["seqRd", "rndSel"])


class TestReporting:
    def test_format_table_contains_rows_and_columns(self):
        text = format_table({"a": {"x": 1.0, "y": 2.0}, "b": {"x": 3.0}},
                            title="demo")
        assert "demo" in text
        assert "a" in text and "b" in text
        assert "1.000" in text
        assert "-" in text  # missing value placeholder

    def test_format_table_empty(self):
        assert "(empty)" in format_table({})

    def test_series_to_rows_transposes(self):
        rows = series_to_rows({"s1": {"x1": 1.0}, "s2": {"x1": 2.0}})
        assert rows == {"x1": {"s1": 1.0, "s2": 2.0}}

    def test_format_series(self):
        text = format_series({"s1": {"1": 10.0, "2": 20.0}})
        assert "s1" in text and "10.000" in text


class TestExperimentRunner:
    """Matrix replay through the serial session tier."""

    def test_traces_are_memoised(self):
        session = Session(SCALE, executor="serial")
        assert session.trace("seqRd") is session.trace("seqRd")

    def test_run_matrix_covers_all_combinations(self, small_experiment):
        assert len(small_experiment.results) == 8
        assert set(small_experiment.platforms()) == {"mmap", "hams-LE",
                                                     "hams-TE", "oracle"}
        assert small_experiment.workloads() == ["seqRd", "rndSel"]

    def test_speedup_over_baseline(self, small_experiment):
        speedups = small_experiment.speedup_over("hams-TE", "mmap")
        assert speedups["seqRd"] > 1.0

    def test_mean_speedup_and_energy_ratio(self, small_experiment):
        assert small_experiment.mean_speedup("oracle", "mmap") > 1.0
        assert small_experiment.energy_ratio("hams-TE", "mmap") < 1.0

    def test_headline_claim_shape(self, small_experiment):
        """HAMS outperforms the software MMF design and saves energy."""
        assert small_experiment.mean_speedup("hams-TE", "mmap") > 1.2
        assert small_experiment.mean_speedup("hams-LE", "mmap") > 1.1


class TestBreakdownTables:
    def test_execution_breakdown_normalised_to_baseline(self, small_experiment):
        results = {name: small_experiment.get(name, "seqRd")
                   for name in ("mmap", "hams-TE")}
        table = execution_breakdown_table(results, baseline="mmap")
        assert table["mmap"]["total"] == pytest.approx(1.0)
        assert table["hams-TE"]["total"] < 1.0
        assert table["hams-TE"]["os"] == pytest.approx(0.0)

    def test_execution_breakdown_requires_baseline(self, small_experiment):
        with pytest.raises(ValueError):
            execution_breakdown_table(
                {"hams-TE": small_experiment.get("hams-TE", "seqRd")},
                baseline="mmap")

    def test_memory_delay_table_self_normalised(self, small_experiment):
        results = {name: small_experiment.get(name, "seqRd")
                   for name in ("hams-LE", "hams-TE")}
        table = memory_delay_table(results)
        for row in table.values():
            assert row["total"] == pytest.approx(1.0) or row["total"] == 0.0

    def test_memory_delay_table_with_baseline(self, small_experiment):
        results = {name: small_experiment.get(name, "seqRd")
                   for name in ("hams-LE", "hams-TE")}
        table = memory_delay_table(results, baseline="hams-LE")
        assert table["hams-LE"]["total"] == pytest.approx(1.0)

    def test_energy_table(self, small_experiment):
        results = {name: small_experiment.get(name, "seqRd")
                   for name in ("mmap", "hams-TE", "oracle")}
        table = normalised_energy_table(results, baseline="mmap")
        assert table["mmap"]["total"] == pytest.approx(1.0)
        assert table["hams-TE"]["total"] < 1.0

    def test_average_breakdown(self):
        tables = [
            {"p": {"app": 0.5, "os": 0.5}},
            {"p": {"app": 1.0, "os": 0.0}},
        ]
        averaged = average_breakdown(tables)
        assert averaged["p"]["app"] == pytest.approx(0.75)
        assert averaged["p"]["os"] == pytest.approx(0.25)


class TestPaperShapes:
    """End-to-end checks of the qualitative results the paper reports."""

    def test_memory_delay_dma_share_larger_for_loose_hams(self, small_experiment):
        loose = small_experiment.get("hams-LE", "seqRd").memory_delay
        tight = small_experiment.get("hams-TE", "seqRd").memory_delay
        loose_dma = loose["dma_ns"] / loose["total_ns"]
        tight_dma = tight["dma_ns"] / tight["total_ns"]
        assert loose_dma > tight_dma

    def test_hams_energy_below_mmap_on_microbench(self, small_experiment):
        mmap_energy = small_experiment.get("mmap", "seqRd").energy.total_nj
        hams_energy = small_experiment.get("hams-TE", "seqRd").energy.total_nj
        assert hams_energy < mmap_energy

    def test_oracle_has_no_storage_time(self, small_experiment):
        oracle = small_experiment.get("oracle", "seqRd")
        assert oracle.ssd_ns == 0.0
        assert oracle.os_ns == 0.0
