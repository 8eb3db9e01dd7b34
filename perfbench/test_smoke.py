"""Tiny-size smoke test of the benchmark.

Every workload, traced and untraced, must print every metric BENCHMARK.json
names, with its unit, and pass its own output checks. Run from the
repository root:

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Metrics printed on their own lines but not carried in the JSON result.
PRINTED_ONLY = ("failed_ratio", "test_accuracy.COM_P", "test_accuracy.DIST",
                "test_accuracy.DSFT_P_linear", "test_accuracy.PADA", "test_accuracy.PADA_S",
                "test_accuracy.PADA_F")


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--scale", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 1

    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
    printed = {line.split()[1]: line.split()[4] for line in lines if line.startswith("metric ")}
    for name, unit in expected.items():
        assert printed[name] == unit, name
    if not trace:
        assert set(PRINTED_ONLY) <= set(printed)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, "trainer_loop", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
