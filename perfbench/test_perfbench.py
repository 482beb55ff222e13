"""Benchmark self-test: the smoke mode runs every workload at a small size.

    python3 -m pytest perfbench
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def test_smoke_prints_every_metric_and_runs_every_gate():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last == {"smoke": "ok", "problems": []}
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for w in bench["workloads"]:
        assert f"gate {w['name']}." in proc.stdout


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ou2d_api",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
