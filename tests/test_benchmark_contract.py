"""The benchmark's contract with the package: the first seeded batch of each
workload in BENCHMARK.json runs in-process through perfbench's own request
generator, executor and verdict re-check, and every request passes."""

import importlib.util
import json
from pathlib import Path

import pytest

from oklab.cli import CATALOG_ENV

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", WORKLOADS)
def test_first_batch_of_each_workload_passes(workloads, workload, tmp_path, monkeypatch):
    monkeypatch.delenv(CATALOG_ENV, raising=False)
    batch = next(workloads.batches(workload, 1))
    assert batch
    for req in batch:
        ok, line = workloads.check(req, workloads.run_request(req, tmp_path))
        assert ok, (req, line)
