"""Golden ``RunResult`` digests for every registered platform.

Each entry of ``golden_digests.json`` is the sha256 of the canonical JSON
form (:func:`repro.runner.artifacts.run_result_to_dict`, sorted keys,
compact separators) of one default (batched) replay at the smoke scale of
``tests/test_batched_replay.py``.  Unlike the scalar-vs-batched contract,
this oracle does not depend on a second implementation surviving: a
platform's service path can be rewritten or its scalar twin deleted, and
the replay must still reproduce the recorded result to the last ulp.

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

#: The smoke scale and workload set of ``tests/test_batched_replay.py``.
SCALE = ExperimentScale(capacity_scale=1 / 256, min_accesses=200,
                        max_accesses=600)
WORKLOADS = ("seqRd", "rndWr", "update")

GOLDEN = Path(__file__).with_name("golden_digests.json")


def result_digest(result) -> str:
    """sha256 of the canonical JSON form of *result*."""
    payload = json.dumps(run_result_to_dict(result), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def compute_digests() -> dict:
    config = scale_system_config(default_config(), SCALE)
    digests = {}
    for workload in WORKLOADS:
        trace = build_trace(workload, SCALE)
        for platform_name in available_platforms():
            result = create_platform(platform_name, config).run(trace)
            digests[f"{platform_name}/{workload}"] = result_digest(result)
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
    assert set(golden) == expected


@pytest.mark.parametrize("platform_name", available_platforms())
def test_replay_matches_golden_digest(platform_name, golden, digests):
    mismatched = [f"{platform_name}/{workload}" for workload in WORKLOADS
                  if digests[f"{platform_name}/{workload}"]
                  != golden[f"{platform_name}/{workload}"]]
    assert not mismatched


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden_digests.py --record")
    GOLDEN.write_text(json.dumps(compute_digests(), indent=2, sort_keys=True)
                      + "\n")
    print(f"wrote {GOLDEN}")
