"""Smoke test for the benchmark: each workload at a tiny size.

Run from the repository root: python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from speed import SpeedSampler  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_with_unit(workload, trace):
    record, _ = run.measure(workload, seed=3, seconds=0.1, trace=bool(trace),
                            tiny=True)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(record["metrics"]) == [m["name"] for m in spec]
    assert all(math.isfinite(m["value"]) and m["unit"]
               for m in record["metrics"].values())
    assert record["attempted"] > 0
    assert record["failed"] == 0 and record["correct"]
    assert record["details"]["failed_frac"] == 0
    if trace:
        m = {k: v["value"] for k, v in record["metrics"].items()}
        busy = sum(v for k, v in m.items() if k.endswith(".busy_s")
                   and not k.startswith("verify.section."))
        assert busy + m["verify.self_s"] == pytest.approx(m["trace.wall_s"],
                                                          rel=1e-9)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_is_mean_in_interval_else_nearest_sample():
    sampler = SpeedSampler()
    sampler.times = [1.0, 2.0, 3.0, 10.0]
    sampler.speeds = [1.0, 2.0, 4.0, 8.0]
    assert sampler.speed(1.5, 3.5) == 3.0
    assert sampler.speed(0.0, 0.5) == 1.0
    assert sampler.speed(11.0, 12.0) == 8.0
    assert sampler.speed(4.0, 5.0) == 4.0
    assert sampler.speed(8.0, 9.0) == 8.0


def test_sampler_samples_while_open():
    with SpeedSampler() as sampler:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(sampler.times) >= 3
    assert all(v > 0 for v in sampler.speeds)
