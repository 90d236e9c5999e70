"""Golden ``RunResult`` digests for every registered platform.

Each entry of ``golden_digests.json`` is the sha256 of the canonical JSON
form (:func:`repro.runner.artifacts.run_result_to_dict`, sorted keys,
compact separators) of one default (batched) replay at the smoke scale of
``tests/test_batched_replay.py``.  Unlike the scalar-vs-batched contract,
this oracle does not depend on a second implementation surviving: a
platform's service path can be rewritten or its scalar twin deleted, and
the replay must still reproduce the recorded result to the last ulp.

The ``stress:`` entries pin the HAMS variants on the 4-entry NVDIMM of the
stress config of ``tests/test_batched_replay.py``, where dirty-victim
evictions fire on every workload and the extend-mode variants stall on
busy entries 14-292 times per run (the smoke-scale runs above stall at
most 3 times, on rndWr).  Before these entries the stress runs were
checked only for batched == scalar parity, which a change to the miss
replay both paths share passes on both sides.

The digests were recorded before any platform adopted its own batched
service path.  When the model changes on purpose, re-record them with::

    PYTHONPATH=src python tests/test_golden_digests.py --record
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.config import default_config
from repro.platforms.registry import available_platforms, create_platform
from repro.runner.artifacts import run_result_to_dict
from repro.workloads.registry import (
    ExperimentScale,
    build_trace,
    scale_system_config,
)
from test_batched_replay import make_stress_config, stress_case

#: The smoke scale and workload set of ``tests/test_batched_replay.py``.
SCALE = ExperimentScale(capacity_scale=1 / 256, min_accesses=200,
                        max_accesses=600)
WORKLOADS = ("seqRd", "rndWr", "update")

#: The HAMS cases of ``STRESS_COUNTERS`` in ``tests/test_batched_replay.py``
#: (``/4KB`` runs 4 KB MoS pages).
STRESS_CASES = ("hams-LP", "hams-TP", "hams-LE", "hams-TE", "hams-TE/4KB")

GOLDEN = Path(__file__).with_name("golden_digests.json")


def result_digest(result) -> str:
    """sha256 of the canonical JSON form of *result*."""
    payload = json.dumps(run_result_to_dict(result), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def compute_digests() -> dict:
    config = scale_system_config(default_config(), SCALE)
    stress_config = make_stress_config(config)
    digests = {}
    for workload in WORKLOADS:
        trace = build_trace(workload, SCALE)
        for platform_name in available_platforms():
            result = create_platform(platform_name, config).run(trace)
            digests[f"{platform_name}/{workload}"] = result_digest(result)
        for case in STRESS_CASES:
            platform_name, case_config = stress_case(case, stress_config)
            result = create_platform(platform_name, case_config).run(trace)
            digests[f"stress:{case}/{workload}"] = result_digest(result)
    return digests


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def digests():
    return compute_digests()


def test_golden_covers_every_platform_and_workload(golden):
    expected = {f"{platform}/{workload}"
                for platform in available_platforms()
                for workload in WORKLOADS}
    expected |= {f"stress:{case}/{workload}"
                 for case in STRESS_CASES for workload in WORKLOADS}
    assert set(golden) == expected


@pytest.mark.parametrize("platform_name", available_platforms())
def test_replay_matches_golden_digest(platform_name, golden, digests):
    mismatched = [f"{platform_name}/{workload}" for workload in WORKLOADS
                  if digests[f"{platform_name}/{workload}"]
                  != golden[f"{platform_name}/{workload}"]]
    assert not mismatched


@pytest.mark.parametrize("case", STRESS_CASES)
def test_stress_replay_matches_golden_digest(case, golden, digests):
    mismatched = [f"stress:{case}/{workload}" for workload in WORKLOADS
                  if digests[f"stress:{case}/{workload}"]
                  != golden[f"stress:{case}/{workload}"]]
    assert not mismatched


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden_digests.py --record")
    GOLDEN.write_text(json.dumps(compute_digests(), indent=2, sort_keys=True)
                      + "\n")
    print(f"wrote {GOLDEN}")
