"""Smoke tests for the example applications and the repository documentation.

The examples are part of the public deliverable; these tests make sure they
stay importable and that the fast ones run end-to-end, and that the
documentation files keep covering the pieces they promise.
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = REPO_ROOT / "examples"
BENCHMARKS = REPO_ROOT / "benchmarks"


def _load_module(path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    assert spec.loader is not None
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_all_examples_exist(self):
        names = {path.name for path in EXAMPLES.glob("*.py")}
        assert {"quickstart.py", "persistent_memory_expansion.py",
                "sqlite_workload_study.py", "page_size_sweep.py"} <= names

    def test_examples_define_main(self):
        for path in sorted(EXAMPLES.glob("*.py")):
            module = _load_module(path)
            assert callable(getattr(module, "main", None)), path.name

    def test_persistent_memory_expansion_runs(self, capsys):
        module = _load_module(EXAMPLES / "persistent_memory_expansion.py")
        module.main()
        output = capsys.readouterr().out
        assert "recovery report" in output
        assert "consistent                 : True" in output

    def test_examples_have_docstrings(self):
        for path in sorted(EXAMPLES.glob("*.py")):
            text = path.read_text(encoding="utf-8")
            assert text.lstrip().startswith(('#!/usr/bin/env python3', '"""')), \
                path.name
            assert '"""' in text


class TestBenchmarksLayout:
    def test_one_bench_file_per_figure(self):
        names = {path.name for path in BENCHMARKS.glob("bench_fig*.py")}
        expected = {
            "bench_fig05_ull_characterization.py",
            "bench_fig06_mmf_performance.py",
            "bench_fig07_software_overhead.py",
            "bench_fig10_dma_overhead.py",
            "bench_fig16_application_performance.py",
            "bench_fig17_execution_breakdown.py",
            "bench_fig18_memory_delay.py",
            "bench_fig19_energy.py",
            "bench_fig20_sensitivity.py",
        }
        assert expected <= names


class TestDocumentation:
    def test_design_covers_every_experiment(self):
        text = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
        for token in ("Fig. 5", "Fig. 16", "Fig. 17", "Fig. 18", "Fig. 19",
                      "Fig. 20", "Table III", "bench_fig16"):
            assert token in text, token

    def test_experiments_covers_headline_claim(self):
        text = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        for token in ("+97", "+119", "−41", "−45", "Fig. 10a", "Fig. 20b"):
            assert token in text, token

    def test_readme_quickstart_mentions_public_api(self):
        text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        for token in ("Session", "hams-TE", "pytest benchmarks/",
                      "examples/quickstart.py"):
            assert token in text, token


class TestPublicAPI:
    def test_top_level_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_version_string(self):
        import repro

        assert repro.__version__.count(".") == 2
