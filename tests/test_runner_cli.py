"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.runner import EXPERIMENT_SCHEMA, get_preset, preset_names
from repro.runner.cli import build_parser, main
from repro.runner.presets import SMOKE_SCALE


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.command == "run"
        assert args.experiments == []
        assert not args.smoke
        assert args.workers is None
        assert not args.no_cache

    def test_run_flags(self):
        args = build_parser().parse_args([
            "run", "fig16", "smoke", "--workers", "4", "--smoke",
            "--no-cache", "--force", "--max-accesses", "512",
            "--seed", "7"])
        assert args.experiments == ["fig16", "smoke"]
        assert args.workers == 4
        assert args.smoke and args.no_cache and args.force
        assert args.max_accesses == 512
        assert args.seed == 7

    def test_report_and_list_subcommands(self):
        assert build_parser().parse_args(["list"]).command == "list"
        args = build_parser().parse_args(["report", "fig16"])
        assert args.experiments == ["fig16"]

    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestPresets:
    def test_known_presets_exist(self):
        names = preset_names()
        for expected in ("fig16", "fig17", "fig18", "fig19", "smoke"):
            assert expected in names

    def test_unknown_preset_raises(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            get_preset("fig99")

    def test_fig16_covers_full_matrix(self):
        preset = get_preset("fig16")
        assert preset.run_count == 11 * 12

    def test_smoke_scale_is_tiny(self):
        assert SMOKE_SCALE.max_accesses <= 1000


class TestListCommand:
    def test_list_output(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for token in ("hams-TE", "mmap", "seqRd", "update", "fig16",
                      "smoke"):
            assert token in out


class TestRunCommand:
    def test_smoke_run_writes_artifact(self, tmp_path, capsys):
        status = main(["run", "--smoke", "--workers", "1",
                       "--output-dir", str(tmp_path), "--quiet"])
        assert status == 0
        artifact = tmp_path / "smoke.json"
        assert artifact.is_file()
        payload = json.loads(artifact.read_text(encoding="utf-8"))
        assert payload["schema"] == EXPERIMENT_SCHEMA
        assert payload["experiment"] == "smoke"
        assert payload["meta"]["workers"] == 1
        assert len(payload["runs"]) == get_preset("smoke").run_count
        assert (tmp_path / "cache").is_dir()
        out = capsys.readouterr().out
        assert "smoke:" in out and "0 cached" in out

    def test_second_run_hits_cache(self, tmp_path, capsys):
        main(["run", "--smoke", "--workers", "1",
              "--output-dir", str(tmp_path), "--quiet"])
        capsys.readouterr()
        main(["run", "--smoke", "--workers", "1",
              "--output-dir", str(tmp_path), "--quiet"])
        out = capsys.readouterr().out
        runs = get_preset("smoke").run_count
        assert f"{runs} cached" in out

    def test_custom_matrix(self, tmp_path):
        status = main(["run", "--smoke", "--workers", "1", "--no-cache",
                       "--platforms", "mmap", "hams-TE",
                       "--workloads", "seqRd",
                       "--output-dir", str(tmp_path), "--quiet"])
        assert status == 0
        payload = json.loads((tmp_path / "custom.json")
                             .read_text(encoding="utf-8"))
        keys = {(run["platform_key"], run["workload_key"])
                for run in payload["runs"]}
        assert keys == {("mmap", "seqRd"), ("hams-TE", "seqRd")}

    def test_executor_tiers_write_identical_runs(self, tmp_path, capsys):
        """`repro run --executor X` is bit-identical across tiers."""
        serialised = {}
        for executor in ("serial", "pool", "sharded"):
            status = main(["run", "--workers", "1", "--no-cache", "--quiet",
                           "--executor", executor,
                           "--platforms", "mmap", "oracle",
                           "--workloads", "seqRd",
                           "--output-dir", str(tmp_path / executor)]
                          + TINY_FLAGS)
            assert status == 0
            assert f"({executor} executor" in capsys.readouterr().out
            payload = json.loads((tmp_path / executor / "custom.json")
                                 .read_text(encoding="utf-8"))
            assert payload["meta"]["executor"] == executor
            serialised[executor] = json.dumps(payload["runs"],
                                              sort_keys=True)
        assert serialised["pool"] == serialised["serial"]
        assert serialised["sharded"] == serialised["serial"]

    def test_run_writes_events_artifact(self, tmp_path):
        main(["run", "--workers", "1", "--no-cache", "--quiet",
              "--platforms", "mmap", "--workloads", "seqRd",
              "--output-dir", str(tmp_path)] + TINY_FLAGS)
        lines = [json.loads(line) for line in
                 (tmp_path / "custom.events.jsonl")
                 .read_text(encoding="utf-8").splitlines()]
        assert lines[0]["schema"] == "repro.events/1"
        assert lines[0]["kind"] == "submitted"
        assert [line["kind"] for line in lines].count("finish") == 1

    def test_run_progress_ticker(self, tmp_path, capsys):
        status = main(["run", "--workers", "1", "--no-cache", "--quiet",
                       "--progress",
                       "--platforms", "mmap", "--workloads", "seqRd",
                       "--output-dir", str(tmp_path)] + TINY_FLAGS)
        assert status == 0
        err = capsys.readouterr().err
        assert "1/1 runs" in err and "elapsed" in err

    def test_run_shards_implies_sharded_executor(self, tmp_path, capsys):
        status = main(["run", "--workers", "1", "--quiet",
                       "--shards", "2", "--spool", str(tmp_path / "spool"),
                       "--platforms", "mmap", "oracle",
                       "--workloads", "seqRd",
                       "--output-dir", str(tmp_path)] + TINY_FLAGS)
        assert status == 0
        assert "(sharded executor" in capsys.readouterr().out
        assert len(list((tmp_path / "spool" / "results")
                        .glob("shard-*.json"))) == 2

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_sharding_flags_need_the_sharded_executor(self, tmp_path,
                                                      capsys, command):
        """--shards/--spool on another tier exit 2 instead of vanishing."""
        spool = tmp_path / "spool"
        matrix = (["--smoke", "smoke"] if command == "run" else
                  ["--platform", "hams-TE", "--workloads", "seqRd",
                   "--section", "hams", "--field", "mos_page_bytes",
                   "--values", "4096", "--smoke"])
        status = main([command, *matrix, "--executor", "pool",
                       "--shards", "3", "--spool", str(spool),
                       "--output-dir", str(tmp_path / "out"), "--quiet"])
        assert status == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "--executor sharded" in err and "'pool'" in err
        assert not spool.exists()
        assert main([command, *matrix, "--executor", "serial",
                     "--spool", str(spool),
                     "--output-dir", str(tmp_path / "out")]) == 2
        assert not spool.exists()

    def test_sweep_unknown_field_is_an_error(self, tmp_path, capsys):
        """An unknown --field exits 2 with one clean error line."""
        status = main(["sweep", "--platform", "hams-TE",
                       "--workloads", "seqRd", "--section", "hams",
                       "--field", "no_such", "--values", "1", "2",
                       "--smoke", "--executor", "serial", "--quiet",
                       "--output-dir", str(tmp_path)])
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'no_such'" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("field, value", [("line_size", "0"),
                                              ("line_size", "-64"),
                                              ("l1_latency_ns", "-1")])
    def test_sweep_invalid_cache_value_is_an_error(self, tmp_path, capsys,
                                                   field, value):
        """An out-of-range cache value exits 2 with one clean error line
        and writes nothing, as an invalid hams value does."""
        status = main(["sweep", "--platform", "oracle",
                       "--workloads", "update", "--section", "caches",
                       "--field", field, "--values", value,
                       "--smoke", "--executor", "serial", "--quiet",
                       "--output-dir", str(tmp_path / "out")])
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
        assert len(err.strip().splitlines()) == 1
        assert not any((tmp_path / "out").glob("*.json"))

    @pytest.mark.parametrize("platform, section, field, value", [
        ("hams-TE", "ssd", "max_outstanding", "0"),
        ("hams-TE", "ssd", "dram_buffer_bytes", "-4096"),
        ("hams-TE", "ssd", "firmware_latency_ns", "nan"),
        ("hams-TE", "ssd", "dram_buffer_hit_ns", "-1"),
        ("mmap", "cpu", "frequency_ghz", "0"),
        ("mmap", "cpu", "frequency_ghz", "inf"),
        ("mmap", "os_stack", "page_fault_ns", "-5"),
        ("mmap", "os_stack", "readahead_pages", "0")])
    def test_sweep_invalid_device_value_is_an_error(self, tmp_path, capsys,
                                                    platform, section,
                                                    field, value):
        """Out-of-range ssd, cpu and os_stack values exit 2 with one
        clean error line and write nothing, instead of a traceback from
        the walk or the clock (or a run on a negative buffer)."""
        status = main(["sweep", "--platform", platform,
                       "--workloads", "update", "--section", section,
                       "--field", field, f"--values={value}",
                       "--smoke", "--executor", "serial", "--quiet",
                       "--output-dir", str(tmp_path / "out")])
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
        assert len(err.strip().splitlines()) == 1
        assert not any((tmp_path / "out").glob("*.json"))

    def test_platforms_without_workloads_is_an_error(self, tmp_path,
                                                     capsys):
        status = main(["run", "--smoke", "--platforms", "mmap",
                       "--output-dir", str(tmp_path)])
        assert status == 2
        assert "must be given together" in capsys.readouterr().err

    def test_unknown_experiment_is_an_error(self, tmp_path, capsys):
        status = main(["run", "fig99", "--output-dir", str(tmp_path)])
        assert status == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestReportCommand:
    def test_report_round_trip(self, tmp_path, capsys):
        main(["run", "--smoke", "--workers", "1",
              "--output-dir", str(tmp_path), "--quiet"])
        capsys.readouterr()
        status = main(["report", "--output-dir", str(tmp_path), "smoke"])
        assert status == 0
        out = capsys.readouterr().out
        assert "throughput (ops/s)" in out
        assert "mean speedup" in out
        assert "hams-TE" in out

    def test_report_without_artifacts_fails(self, tmp_path, capsys):
        status = main(["report", "--output-dir", str(tmp_path)])
        assert status == 1
        assert "no experiment artifacts" in capsys.readouterr().err

    def test_report_glob_skips_foreign_json(self, tmp_path, capsys):
        """BENCH_<figure>.json records in the same directory are ignored."""
        main(["run", "--smoke", "--workers", "1",
              "--output-dir", str(tmp_path), "--quiet"])
        (tmp_path / "BENCH_fig16.json").write_text(
            json.dumps({"schema": "repro.bench-figure/1", "tables": {}}),
            encoding="utf-8")
        (tmp_path / "garbage.json").write_text("{not json",
                                               encoding="utf-8")
        capsys.readouterr()
        status = main(["report", "--output-dir", str(tmp_path)])
        out = capsys.readouterr()
        assert status == 0
        assert "smoke" in out.out
        assert out.err == ""

    def test_explicitly_named_bad_artifact_is_an_error(self, tmp_path,
                                                       capsys):
        (tmp_path / "broken.json").write_text(
            json.dumps({"schema": EXPERIMENT_SCHEMA}), encoding="utf-8")
        status = main(["report", "--output-dir", str(tmp_path), "broken"])
        assert status == 1
        assert "cannot read artifact" in capsys.readouterr().err


#: Shared tiny-scale knobs so every CLI shard run finishes in well under a
#: second: the smoke scale shrunk further via the plan/run scale flags.
TINY_FLAGS = ["--smoke", "--min-accesses", "100", "--max-accesses", "200"]


class TestShardCLI:
    def _plan(self, spool, shard_count=2):
        return main(["shard", "plan", "--shards", str(shard_count),
                     "--spool", str(spool),
                     "--platforms", "mmap", "hams-TE",
                     "--workloads", "seqRd"] + TINY_FLAGS)

    def test_plan_work_status_merge_round_trip(self, tmp_path, capsys):
        spool = tmp_path / "spool"
        assert self._plan(spool) == 0
        out = capsys.readouterr().out
        assert "planned 2 runs into 2 shard(s)" in out
        assert "experiment id: sha256:" in out
        assert len(list((spool / "pending").glob("shard-*.json"))) == 2

        # An incomplete spool reports non-zero so scripts can wait on it.
        assert main(["shard", "status", "--spool", str(spool)]) == 3
        capsys.readouterr()

        assert main(["shard", "work", "--spool", str(spool),
                     "--workers", "1", "--host", "worker-a"]) == 0
        out = capsys.readouterr().out
        assert out.count("shard result ->") == 2

        assert main(["shard", "status", "--spool", str(spool)]) == 0
        assert "2 done, 0 running, 0 pending" in capsys.readouterr().out

        assert main(["shard", "merge", "--spool", str(spool),
                     "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "merged 2 runs from 2 shard(s) (hosts worker-a)" in out
        payload = json.loads((spool / "custom.json")
                             .read_text(encoding="utf-8"))
        assert payload["schema"] == EXPERIMENT_SCHEMA
        assert payload["meta"]["sharded"]["shard_count"] == 2
        assert payload["meta"]["sharded"]["hosts"] == ["worker-a",
                                                       "worker-a"]

    def test_merged_artifact_matches_unsharded_run(self, tmp_path, capsys):
        spool = tmp_path / "spool"
        self._plan(spool)
        main(["shard", "work", "--spool", str(spool), "--workers", "1"])
        main(["shard", "merge", "--spool", str(spool), "--quiet"])
        main(["run", "--workers", "1", "--no-cache", "--quiet",
              "--output-dir", str(tmp_path / "direct"),
              "--platforms", "mmap", "hams-TE",
              "--workloads", "seqRd"] + TINY_FLAGS)
        capsys.readouterr()
        sharded = json.loads((spool / "custom.json")
                             .read_text(encoding="utf-8"))
        direct = json.loads((tmp_path / "direct" / "custom.json")
                            .read_text(encoding="utf-8"))
        assert json.dumps(sharded["runs"], sort_keys=True) == \
            json.dumps(direct["runs"], sort_keys=True)
        assert sharded["config_hash"] == direct["config_hash"]
        # ... and `repro report --diff` agrees at threshold zero.
        assert main(["report", "--diff",
                     str(tmp_path / "direct" / "custom.json"),
                     str(spool / "custom.json"),
                     "--threshold", "0"]) == 0

    def test_plan_balance_cost_and_status_watch(self, tmp_path, capsys):
        """Satellites: cost-balanced planning + the watch ticker."""
        spool = tmp_path / "spool"
        assert main(["shard", "plan", "--shards", "2",
                     "--spool", str(spool), "--balance", "cost",
                     "--platforms", "mmap", "hams-TE",
                     "--workloads", "seqRd"] + TINY_FLAGS) == 0
        out = capsys.readouterr().out
        assert "balanced by cost" in out
        assert "estimated per-shard cost" in out

        assert main(["shard", "work", "--spool", str(spool),
                     "--workers", "1", "--host", "worker-a"]) == 0
        capsys.readouterr()
        # Per-run progress records landed next to the shard artifacts.
        progress = sorted((spool / "progress").glob("*.jsonl"))
        assert progress
        records = [json.loads(line)
                   for path in progress
                   for line in path.read_text(encoding="utf-8").splitlines()]
        assert {record["index"] for record in records} == {0, 1}
        assert all(record["schema"] == "repro.events/1"
                   for record in records)

        # --watch on a completed spool prints the run tally and exits 0.
        assert main(["shard", "status", "--spool", str(spool),
                     "--watch", "--interval", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "runs 2/2" in out
        assert "2 done, 0 running, 0 pending" in out

        assert main(["shard", "merge", "--spool", str(spool),
                     "--quiet"]) == 0

    def test_status_watch_on_empty_spool_warns_instead_of_silence(
            self, tmp_path):
        """--watch on a missing/empty spool must say so, not spin mutely."""
        import os
        import subprocess
        import sys as _sys
        import time as _time

        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            __import__("pathlib").Path(repro.__file__).parent.parent)
        proc = subprocess.Popen(
            [_sys.executable, "-m", "repro", "shard", "status",
             "--spool", str(tmp_path / "typo"), "--watch",
             "--interval", "0.05"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            text=True)
        try:
            _time.sleep(1.0)
            assert proc.poll() is None  # still watching, not crashed
        finally:
            proc.kill()
        _, err = proc.communicate()
        assert "no shards found" in err
        assert err.count("no shards found") == 1  # warned once, not spammed

    def test_work_explicit_manifest_is_the_recovery_path(self, tmp_path,
                                                         capsys):
        spool = tmp_path / "spool"
        self._plan(spool)
        manifest = sorted((spool / "pending").glob("shard-*.json"))[0]
        assert main(["shard", "work", "--spool", str(spool),
                     "--workers", "1", str(manifest)]) == 0
        capsys.readouterr()
        assert not manifest.exists()
        assert (spool / "results" / manifest.name).is_file()

    def test_merge_experiment_selector_on_a_shared_spool(self, tmp_path,
                                                         capsys):
        spool = tmp_path / "spool"
        # Two plans share one spool: the named smoke preset and an ad-hoc
        # custom matrix.
        main(["shard", "plan", "--shards", "1", "--spool", str(spool),
              "--platforms", "mmap", "--workloads", "seqRd"] + TINY_FLAGS)
        main(["shard", "plan", "smoke", "--shards", "1",
              "--spool", str(spool)] + TINY_FLAGS)
        main(["shard", "work", "--spool", str(spool), "--workers", "1"])
        capsys.readouterr()
        # Unfiltered merge cannot pick a plan; the selector can.
        assert main(["shard", "merge", "--spool", str(spool)]) == 1
        assert "disagree" in capsys.readouterr().err
        assert main(["shard", "merge", "--spool", str(spool),
                     "--experiment", "custom", "--quiet"]) == 0
        capsys.readouterr()
        assert main(["shard", "merge", "--spool", str(spool),
                     "--experiment", "smoke", "--quiet"]) == 0
        capsys.readouterr()
        assert (spool / "custom.json").is_file()
        assert (spool / "smoke.json").is_file()
        assert main(["shard", "merge", "--spool", str(spool),
                     "--experiment", "nope"]) == 1
        assert "no shard results for experiment" in \
            capsys.readouterr().err
        # The selector also accepts the short experiment-id tag, the only
        # unambiguous handle when plans share a name.
        tag = sorted((spool / "results").glob("shard-*.json"))[0] \
            .name.split("-")[1]
        assert main(["shard", "merge", "--spool", str(spool),
                     "--experiment", tag, "--quiet",
                     "--output", str(tmp_path / "by-tag.json")]) == 0
        capsys.readouterr()
        assert (tmp_path / "by-tag.json").is_file()

    def test_merge_incomplete_spool_fails(self, tmp_path, capsys):
        spool = tmp_path / "spool"
        self._plan(spool)
        main(["shard", "work", "--spool", str(spool), "--workers", "1",
              "--max-shards", "1"])
        capsys.readouterr()
        assert main(["shard", "merge", "--spool", str(spool)]) == 1
        assert "missing shard(s)" in capsys.readouterr().err

    def test_plan_without_experiment_is_an_error(self, tmp_path, capsys):
        status = main(["shard", "plan", "--shards", "2",
                       "--spool", str(tmp_path / "spool")])
        assert status == 2
        assert "exactly one experiment" in capsys.readouterr().err

    def test_plan_rejects_preset_plus_adhoc_matrix(self, tmp_path, capsys):
        status = main(["shard", "plan", "smoke", "--shards", "2",
                       "--spool", str(tmp_path / "spool"),
                       "--platforms", "mmap", "--workloads", "seqRd"])
        assert status == 2
        assert "not both" in capsys.readouterr().err

    def test_work_on_empty_spool_says_so(self, tmp_path, capsys):
        spool = tmp_path / "spool"
        self._plan(spool)
        main(["shard", "work", "--spool", str(spool), "--workers", "1"])
        capsys.readouterr()
        assert main(["shard", "work", "--spool", str(spool),
                     "--workers", "1"]) == 0
        assert "no pending shards" in capsys.readouterr().out

    def test_status_on_missing_spool_fails(self, tmp_path, capsys):
        assert main(["shard", "status",
                     "--spool", str(tmp_path / "nowhere")]) == 1
        assert "no shards found" in capsys.readouterr().err


class TestReportDiffGlobs:
    def _two_artifacts(self, tmp_path):
        main(["run", "--workers", "1", "--no-cache", "--quiet",
              "--output-dir", str(tmp_path),
              "--platforms", "mmap", "--workloads", "seqRd"] + TINY_FLAGS)

    def test_diff_accepts_glob_patterns(self, tmp_path, capsys):
        self._two_artifacts(tmp_path)
        capsys.readouterr()
        status = main(["report", "--diff",
                       str(tmp_path / "cust*.json"),
                       str(tmp_path / "*.json"),
                       "--threshold", "0"])
        assert status == 0
        assert "verdict: PASS" in capsys.readouterr().out

    def test_unmatched_pattern_is_an_error(self, tmp_path, capsys):
        self._two_artifacts(tmp_path)
        capsys.readouterr()
        status = main(["report", "--diff",
                       str(tmp_path / "nope*.json"),
                       str(tmp_path / "custom.json")])
        assert status == 2
        assert "no artifact matches" in capsys.readouterr().err

    def test_ambiguous_pattern_is_an_error(self, tmp_path, capsys):
        self._two_artifacts(tmp_path)
        (tmp_path / "custom2.json").write_text(
            (tmp_path / "custom.json").read_text(encoding="utf-8"),
            encoding="utf-8")
        capsys.readouterr()
        status = main(["report", "--diff",
                       str(tmp_path / "custom*.json"),
                       str(tmp_path / "custom.json")])
        assert status == 2
        assert "ambiguous" in capsys.readouterr().err


class TestListArtifacts:
    def test_list_artifacts_prints_shard_provenance(self, tmp_path, capsys):
        spool = tmp_path / "spool"
        main(["shard", "plan", "--shards", "2", "--spool", str(spool),
              "--platforms", "mmap", "hams-TE",
              "--workloads", "seqRd"] + TINY_FLAGS)
        main(["shard", "work", "--spool", str(spool), "--workers", "1",
              "--host", "worker-a"])
        main(["shard", "merge", "--spool", str(spool), "--quiet"])
        capsys.readouterr()
        assert main(["list", "--artifacts", str(spool)]) == 0
        out = capsys.readouterr().out
        assert "repro.experiment/1" in out
        assert "[merged from 2 shard(s), hosts worker-a]" in out
        assert "repro.shard-result/1" in out
        assert "[shard 0/2, host worker-a]" in out

    def test_list_artifacts_empty_directory_fails(self, tmp_path, capsys):
        assert main(["list", "--artifacts", str(tmp_path)]) == 1
        assert "no artifacts" in capsys.readouterr().err


class TestWorkerEnv:
    def test_malformed_repro_workers_is_a_clean_cli_error(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "auto")
        status = main(["run", "--smoke", "--output-dir", str(tmp_path)])
        assert status == 2
        assert "REPRO_WORKERS must be an integer" in \
            capsys.readouterr().err

    def test_repro_workers_env_resolves(self, monkeypatch):
        from repro.runner import resolve_worker_count
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_worker_count() == 3
        monkeypatch.setenv("REPRO_WORKERS", "bad")
        with pytest.raises(ValueError, match="must be an integer"):
            resolve_worker_count()
