"""Smoke test of the end-to-end benchmark.

Collected under the ``bench`` marker by ``benchmarks/conftest.py``, not
by tier-1 ``testpaths``: ``PYTHONPATH=src python -m pytest
benchmarks/e2e/test_bench_e2e.py``.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")

for path in (ROOT / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


def test_benchmark_json_is_within_the_contract():
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


def test_smoke_run_prints_every_metric(tmp_path):
    began = time.monotonic()
    run = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke",
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120)
    elapsed = time.monotonic() - began
    assert run.returncode == 0, run.stderr
    assert elapsed < 30, f"smoke run took {elapsed:.1f} s"
    printed = {}
    for line in run.stdout.splitlines():
        fields = line.split()
        if len(fields) == 4 and not line.startswith("{"):
            workload, metric, value, unit = fields
            printed[workload, metric] = (float(value), unit)
    result = json.loads((tmp_path / "result.json").read_text())
    for workload in (w["name"] for w in SPEC["workloads"]):
        for key in ("end_to_end", "per_layer"):
            recorded = result["workloads"][workload][key]["metrics"]
            assert set(recorded) == {m["name"] for m in SPEC[key]}
            for metric in SPEC[key]:
                value, unit = printed[workload, metric["name"]]
                assert unit == metric["unit"]
                assert math.isfinite(value)
                assert math.isfinite(recorded[metric["name"]]["value"])
        per_layer = result["workloads"][workload]["per_layer"]
        assert per_layer["extras"]["wrappers_uninstalled"] is True
        assert (tmp_path / f"{workload}.spans.jsonl").stat().st_size > 0
        assert json.loads((tmp_path / f"{workload}.chrome.json").read_text())
    ran = [line for line in run.stdout.splitlines()
           if "byte-identity check ran" in line]
    assert len(ran) == 2 * len(SPEC["workloads"])


def test_wrappers_leave_the_public_callables_as_they_were():
    from layers import LayerTracer

    tracer = LayerTracer()
    targets = [(owner, attr) for owner, attr, _, _ in tracer.targets()]
    originals = [vars(owner)[attr] for owner, attr in targets]
    with tracer:
        assert all(vars(owner)[attr] is not original
                   for (owner, attr), original in zip(targets, originals))
    assert all(vars(owner)[attr] is original
               for (owner, attr), original in zip(targets, originals))
