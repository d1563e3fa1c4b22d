"""The driver's printed metrics match BENCHMARK.json, and per-layer counts repeat exactly."""

import json
import shutil
import subprocess
import sys

import pytest

import run

ROOT = run.ROOT
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Per-layer metrics that count work rather than time it; they must repeat exactly.
COUNT_SUFFIXES = (".calls", ".entries", ".steps", ".iterations", "gp.factor.escalations")


def declared(kind):
    return [(m["name"], m["unit"]) for m in DECLARED[kind]]


def test_declared_metrics_are_the_driver_metrics():
    assert declared("end_to_end") == list(run.E2E)
    assert declared("per_layer") == list(run.PER_LAYER)
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOADS)


def run_driver(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_untraced_run_prints_every_end_to_end_metric():
    proc = run_driver("--workload", "map-fit", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(run.E2E)
    assert all(v["value"] > 0 for v in result["metrics"].values())
    table = "\n".join(proc.stdout.splitlines()[:-1])
    for name in [*dict(run.E2E), "failed_frac", "rel_l2_max"]:
        assert name in table


@pytest.fixture(scope="module")
def traced_pairs(tmp_path_factory):
    """Two traced passes of every workload, each in its own interpreter."""
    pairs = {}
    for workload in run.WORKLOADS:
        records = []
        for i in range(2):
            out = tmp_path_factory.mktemp(f"{workload}-{i}")
            record = run.spawn(["--workload", workload, "--seed", "0", "--trace", "1", "--out", str(out)], 150.0)
            record["traced"] = True
            records.append(record)
        pairs[workload] = records
    return pairs


def test_per_layer_counts_repeat_exactly(traced_pairs):
    for workload, (first, second) in traced_pairs.items():
        assert not first["failures"] and not second["failures"], workload
        counts = [name for name, _ in run.PER_LAYER if name.endswith(COUNT_SUFFIXES)]
        assert {n: first["layers"].get(n, 0) for n in counts} == {n: second["layers"].get(n, 0) for n in counts}, workload


def test_traced_run_reports_every_per_layer_metric(traced_pairs):
    first, second = traced_pairs["cgc-pde"]
    metrics = run.layer_metrics([{**first, "traced": False}, second])
    assert {k: v["unit"] for k, v in metrics.items()} == dict(run.PER_LAYER)
    assert metrics["kernels.k_deriv.calls"]["value"] > 0
    assert metrics["dynamics.rk4.calls"]["value"] == 0


def test_each_workload_loads_its_own_layers(traced_pairs):
    layers = {w: pair[0]["layers"] for w, pair in traced_pairs.items()}
    assert layers["cgc-pde"]["gp.factor.calls"] > 0
    assert "dynamics.rk4.calls" not in layers["cgc-pde"]
    assert "gp.assemble_gram.calls" not in layers["cgc-pde"]
    assert layers["normal-form"]["dynamics.rk4.steps"] == 199900
    assert "kernels.k_deriv.calls" not in layers["normal-form"]
    assert "gp.factor.calls" not in layers["normal-form"]
    assert layers["map-fit"]["kernel_learning.rho_loo.calls"] > 0
    assert "cgc.cgc_pde_loss.calls" not in layers["map-fit"]
    assert "dynamics.rk4.calls" not in layers["map-fit"]


def test_fails_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_driver("--workload", "cgc-pde", "--seed", "0", "--seconds", "10", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
