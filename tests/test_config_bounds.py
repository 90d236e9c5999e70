"""The config bounds table: one declared bound per field, and hostile values.

Every field of every config section carries one :class:`~repro.config.Bound`
in its metadata, so a new field cannot land unbounded.  The hostile-input
fuzz draws a (section, field, value) over the whole table from values that
have broken runs before (0, -1, NaN, +/-inf, 1e300, 2**63, a bool and a
string).  Through :func:`~repro.runner.specs.apply_config_overrides` (or the
constructor, for the nested sections no override reaches) each draw must be
either a ``ValueError`` naming the field or accepted.  A fixed handful of
draws also replay: ``Session.simulate`` at smoke scale, and ``repro sweep
--smoke`` in a subprocess, must each end in one clean error or in a run
whose metrics are all finite — never a traceback.
"""

import dataclasses
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import config as config_module
from repro.api import Session
from repro.config import (
    Bound,
    CacheConfig,
    CPUConfig,
    DDRConfig,
    EnergyConfig,
    FlashGeometry,
    FlashTiming,
    HAMSConfig,
    NVDIMMConfig,
    NVMeConfig,
    OptaneConfig,
    OSStackConfig,
    PCIeConfig,
    SATAConfig,
    SSDConfig,
    SystemConfig,
    default_config,
)
from repro.platforms.registry import create_platform
from repro.runner.artifacts import run_result_to_dict
from repro.runner.presets import SMOKE_SCALE, get_preset, preset_names
from repro.runner.specs import CONFIG_SECTIONS, apply_config_overrides
from repro.units import GB, KB
from repro.workloads.registry import ExperimentScale, scale_system_config
from test_batched_replay import make_stress_config, stress_case
from test_golden_digests import STRESS_CASES

SECTIONS = (FlashTiming, FlashGeometry, SSDConfig, PCIeConfig, SATAConfig,
            DDRConfig, NVDIMMConfig, OptaneConfig, CPUConfig, CacheConfig,
            OSStackConfig, NVMeConfig, HAMSConfig, EnergyConfig)
HOSTILE = (0, -1, float("nan"), float("inf"), float("-inf"), 1e300, 2 ** 63,
           True, "x")
#: A platform that reads each override section.
PLATFORM_OF = {"cpu": "mmap", "caches": "hams-TE", "os_stack": "mmap",
               "nvdimm": "hams-TE", "ssd": "flatflash-P", "pcie": "hams-LE",
               "sata": "mmap-sata", "nvme": "mmap", "hams": "hams-TE",
               "optane": "optane-P", "energy": "hams-TE"}

DEFAULT = default_config()
#: Override section name of each top-level section class (the nested
#: FlashTiming, FlashGeometry and DDRConfig have none).
SECTION_OF = {type(getattr(DEFAULT, name)): name for name in CONFIG_SECTIONS}
#: A valid instance of each nested section.
NESTED = {FlashTiming: DEFAULT.ssd.timing, FlashGeometry: DEFAULT.ssd.geometry,
          DDRConfig: DEFAULT.nvdimm.ddr}
FIELDS = [(cls, item.name) for cls in SECTIONS
          for item in dataclasses.fields(cls)]


def override(cls, name, value):
    """Apply one hostile value the way the services do, or by constructor
    for the nested sections no override reaches."""
    if cls in SECTION_OF:
        return apply_config_overrides(DEFAULT,
                                      {SECTION_OF[cls]: {name: value}})
    return dataclasses.replace(NESTED[cls], **{name: value})


def non_finite(node):
    """Paths of the non-finite floats anywhere in a JSON-like tree."""
    if isinstance(node, dict):
        return [f"{key}.{path}" for key, child in node.items()
                for path in non_finite(child)]
    if isinstance(node, (list, tuple)):
        return [f"{index}.{path}" for index, child in enumerate(node)
                for path in non_finite(child)]
    return [""] if isinstance(node, float) and not math.isfinite(node) else []


class TestTable:
    def test_every_field_declares_exactly_one_bound(self):
        declared = {cls for cls in vars(config_module).values()
                    if dataclasses.is_dataclass(cls)
                    and cls.__module__ == config_module.__name__}
        assert declared - {Bound, SystemConfig} == set(SECTIONS)
        assert set(SECTION_OF) <= set(SECTIONS)
        for cls in SECTIONS:
            for item in dataclasses.fields(cls):
                assert item.init, (cls, item.name)
                assert list(item.metadata) == ["bound"], (cls, item.name)
                assert isinstance(item.metadata["bound"], Bound)

    def test_shipped_configs_construct(self):
        smoke = scale_system_config(DEFAULT, SMOKE_SCALE)
        stress = make_stress_config(smoke)
        configs = [DEFAULT, smoke, stress,
                   scale_system_config(DEFAULT, ExperimentScale())]
        configs += [scale_system_config(DEFAULT, ExperimentScale(
            capacity_scale=scale)) for scale in (1.0, 1 / 16, 1 / 1024)]
        configs += [stress_case(case, stress)[1] for case in STRESS_CASES]
        configs += [dataclasses.replace(DEFAULT, ssd=factory()) for factory in (
            SSDConfig.ull_flash, SSDConfig.nvme_ssd, SSDConfig.sata_ssd)]
        for config in configs:
            for name in CONFIG_SECTIONS:
                section = getattr(config, name)
                assert dataclasses.replace(section) == section
        platforms = {platform for name in preset_names()
                     for platform in get_preset(name).platforms}
        for config in (smoke, scale_system_config(DEFAULT,
                                                  ExperimentScale())):
            for platform in sorted(platforms):
                create_platform(platform, config)

    @pytest.mark.parametrize("section, name, value", [
        ("optane", "internal_block_bytes", 0),
        ("energy", "cpu_active_w", float("nan")),
        ("caches", "l1_size_bytes", float("nan")),
        ("hams", "tag_check_ns", -1),
        ("cpu", "base_cpi", -1),
        ("ssd", "channel_bw_bytes_per_ns", 0),
        ("ssd", "mapping_table_fraction", 2.0),
        ("sata", "bandwidth_bytes_per_ns", 0),
    ])
    def test_values_that_used_to_run_or_crash_are_rejected(self, section,
                                                           name, value):
        with pytest.raises(ValueError, match=name):
            apply_config_overrides(DEFAULT, {section: {name: value}})


@settings(max_examples=400, deadline=None)
@given(case=st.sampled_from(FIELDS), value=st.sampled_from(HOSTILE))
def test_hostile_value_is_rejected_by_name_or_accepted(case, value):
    cls, name = case
    try:
        override(cls, name, value)
    except ValueError as error:
        assert name in str(error)
    else:
        assert cls.__dataclass_fields__[name].metadata["bound"].admits(value)


def _replay_cases():
    """A fixed draw of eight accepted and four rejected hostile overrides
    of the override sections."""
    accepted, rejected = [], []
    for cls, name in FIELDS:
        if cls not in SECTION_OF:
            continue
        for value in HOSTILE:
            try:
                override(cls, name, value)
            except ValueError:
                rejected.append((SECTION_OF[cls], name, value))
            else:
                accepted.append((SECTION_OF[cls], name, value))
    draw = random.Random(0)
    return draw.sample(accepted, 8) + draw.sample(rejected, 4)


REPLAY_CASES = _replay_cases()


@pytest.mark.parametrize("section, name, value", REPLAY_CASES)
def test_hostile_replay_is_a_clean_error_or_a_finite_run(section, name,
                                                        value, tmp_path):
    platform = PLATFORM_OF[section]
    session = Session(scale=SMOKE_SCALE, executor="serial")
    try:
        result = session.simulate(platform, "update",
                                  config_overrides={section: {name: value}})
    except ValueError:
        pass
    else:
        assert non_finite(run_result_to_dict(result)) == []

    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, "-m", "repro", "sweep", "--platform", platform,
         "--workloads", "update", "--section", section, "--field", name,
         f"--values={value}", "--smoke", "--workers", "1",
         "--executor", "serial", "--no-cache", "--output-dir", str(out),
         "--quiet"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300)
    assert "Traceback" not in done.stdout + done.stderr
    artifact = out / "sweep.json"
    if done.returncode == 2:
        errors = [line for line in done.stderr.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1
        assert not artifact.exists()
    else:
        assert done.returncode == 0, done.stderr
        assert non_finite(json.loads(artifact.read_text())) == []


def run_sweep(tmp_path, platform, section, name, *values):
    """``repro sweep --smoke`` of one field in a subprocess."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, "-m", "repro", "sweep", "--platform", platform,
         "--workloads", "update", "--section", section, "--field", name,
         "--values", *values, "--smoke", "--workers", "1",
         "--executor", "serial", "--no-cache", "--output-dir", str(out),
         "--quiet"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300)
    assert "Traceback" not in done.stdout + done.stderr
    return done, out / "sweep.json"


def test_bool_field_sweeps_false_and_true(tmp_path):
    """Sweep values parse as the field's declared kind, so a bool field
    takes ``False True`` and writes one cell per value."""
    done, artifact = run_sweep(tmp_path, "flatflash-P", "ssd",
                               "dram_buffer_enabled", "False", "True")
    assert done.returncode == 0, done.stderr
    runs = json.loads(artifact.read_text())["runs"]
    assert sorted(run["platform_key"] for run in runs) == ["False", "True"]
    rates = {run["platform_key"]: run["operations_per_second"]
             for run in runs}
    assert rates["False"] != rates["True"]


def test_tag_array_entries_are_bounded_across_sections(tmp_path):
    """Each field is legal, but a 2047 GB NVDIMM over 4 KB MoS pages asks
    for 536M tag-array entries (4.8 GB of columns): rejected before any
    run, naming both fields, on the library and on the sweep CLI."""
    session = Session(scale=SMOKE_SCALE, executor="serial")
    with pytest.raises(ValueError, match=r"nvdimm\.capacity_bytes .* "
                                         r"hams\.mos_page_bytes"):
        session.simulate("hams-TE", "update", config_overrides={
            "nvdimm": {"capacity_bytes": GB(2047)},
            "hams": {"mos_page_bytes": KB(4)}})
    done, artifact = run_sweep(tmp_path, "hams-TE", "nvdimm",
                               "capacity_bytes", str(GB(2047)))
    assert done.returncode == 2
    errors = [line for line in done.stderr.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1
    assert "nvdimm.capacity_bytes" in errors[0]
    assert "hams.mos_page_bytes" in errors[0]
    assert not artifact.exists()
