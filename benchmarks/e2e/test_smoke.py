"""Smoke test of the end-to-end benchmark (outside tier-1 ``testpaths``).

    python -m pytest benchmarks/e2e/test_smoke.py -q

Runs the runner at ``--smoke`` size, once untraced and once traced per
workload, and checks the contract a later PR relies on: every metric
``BENCHMARK.json`` names is emitted, by that name and unit, and nothing
failed.  The numbers themselves mean nothing at this size.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_declared_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_declared_metric(workload, trace, tmp_path):
    out = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--workload",
         workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = last["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    assert last["attempted"] >= 1
    assert last["failed"] == 0 and last["correct"] is True, proc.stdout
    (full,) = json.loads(out.read_text())["results"]
    assert full["failed_share"] == 0
    if not trace:
        assert all(got["value"] != 0 for got in last["metrics"].values())
