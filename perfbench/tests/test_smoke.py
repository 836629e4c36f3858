import json
import shutil
import subprocess
import sys

import fluxmod
import numpy as np
import pytest

import run
from conftest import BENCH, ROOT
from workloads import WIDE_TUNING_GHZ, WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_of_each_workload_passes_its_checks(name, tmp_path):
    wl = WORKLOADS[name](fluxmod, tmp_path / "work")
    try:
        wl.setup(warm_seed=5)
        records, _ = run._serve(wl, wl.requests(np.random.default_rng(3)), count=2)
        verdicts = run._verdicts(wl, records)
    finally:
        wl.close()
    assert verdicts == [("ok", ""), ("ok", "")]


def test_requests_depend_only_on_seed(tmp_path):
    wl = WORKLOADS["bringup"](fluxmod, tmp_path)
    a = wl.requests(np.random.default_rng(9))
    b = wl.requests(np.random.default_rng(9))
    assert [next(a) for _ in range(3)] == [next(b) for _ in range(3)]


def test_bringup_timed_draws_and_probes_split_the_tuning_range(tmp_path):
    wl = WORKLOADS["bringup"](fluxmod, tmp_path)

    def qubits(stream):
        return [next(stream)["device"]["qubits"]["qm"] for _ in range(200)]

    timed = qubits(wl.requests(np.random.default_rng(1)))
    probes = qubits(wl.probe_requests(np.random.default_rng(1)))
    assert all(0.17 <= q["f01_max_ghz"] - q["f01_min_ghz"] <= WIDE_TUNING_GHZ for q in timed)
    assert all(WIDE_TUNING_GHZ <= q["f01_max_ghz"] - q["f01_min_ghz"] for q in probes)
    assert all(q["f01_min_ghz"] >= q["f01_max_ghz"] / 3.0 for q in probes)


def test_tail_percentile_keeps_ten_requests_beyond():
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(12) == 50


def test_sliced_rate_is_the_median_slice():
    lat = [0.1] * 8 + [1.0] * 2  # one slow slice out of five
    assert run.sliced_rate(lat) == pytest.approx(10.0)
    assert run.sliced_rate([0.5]) == pytest.approx(2.0)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_declared_metric(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "atlas", "--seed", "4",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    out = _last_json(proc.stdout)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared
    if trace:
        assert out["metrics"]["trace.coverage_frac"]["value"] >= 0.95


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
