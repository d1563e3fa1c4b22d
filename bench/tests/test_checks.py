"""Every output check passes on real outputs and fails on a tampered copy."""

import copy
import importlib.resources
import json

import numpy as np
import pytest

from gpmaps import cgc, dynamics, transforms
from gpmaps.cli import run_experiment, run_table1
from gpmaps.gp import fit, interpolant_from_config, interpolant_to_config
from gpmaps.kernels import Matern52
from gpmaps.optim import DescentConfig

import checks


@pytest.fixture(scope="module")
def schema():
    return json.loads((importlib.resources.files("gpmaps") / "schemas" / "summary.schema.json").read_text())


def test_summary_schema(tmp_path, schema):
    doc = run_experiment({"experiment": "first-order", "N": 20, "output_dir": str(tmp_path)})
    assert checks.summary_schema(doc, schema) == []
    bad = copy.deepcopy(doc)
    del bad["metrics"]["wall_time_s"]
    assert checks.summary_schema(bad, schema)
    bad = copy.deepcopy(doc)
    bad["metrics"]["iterations"] = 1.5
    assert checks.summary_schema(bad, schema)


def test_loss_trace():
    assert checks.loss_trace([3.0, 2.0, 2.0, 1.0]) == []
    assert checks.loss_trace([3.0, 2.0, 2.5])
    assert checks.loss_trace([3.0, float("nan")])
    assert checks.loss_trace([])


def test_pde_loss_final():
    problem = cgc.CgcPdeProblem(u_data=transforms.first_order_problem(20).us)
    result = cgc.cgc_pde_solve(problem, config=DescentConfig(max_iters=30))
    terms = cgc.cgc_pde_loss_terms(problem, result.state, result.weights)
    loss_final = result.loss_trace[-1]
    assert checks.loss_trace(result.loss_trace) == []
    assert checks.pde_loss_final(terms, loss_final) == []
    assert checks.pde_loss_final(terms, loss_final * 1.01)
    assert checks.pde_loss_final(terms, loss_final * 0.99)


@pytest.fixture(scope="module")
def nf_solved():
    mu = dynamics.mu_from_AB(1.0, 2.1)
    problem = cgc.NfProblem(dynamics.brusselator_trajectory(1.0, 2.1, n_samples=60), mu)
    return problem, cgc.nf_solve(problem, config=DescentConfig(max_iters=30))


def test_nf_loss_final_and_origin(nf_solved):
    problem, result = nf_solved
    terms = cgc.nf_loss_terms(problem, result.state, result.weights)
    assert checks.nf_loss_final(terms, result.loss_trace[-1]) == []
    assert checks.nf_loss_final(terms, result.loss_trace[-1] * (1 + 1e-9))
    h0 = cgc.nf_h_values(problem, result.state.h_coeffs, np.array([[0.0, 0.0]]))[0]
    assert checks.h_at_origin(h0) == []
    assert checks.h_at_origin(1e-300)


def test_quartic_values(nf_solved):
    problem, result = nf_solved
    coeffs = result.state.h_coeffs
    pts = np.random.default_rng(0).uniform(-0.5, 0.5, (50, 2))
    values = cgc.nf_h_values(problem, coeffs, pts)
    assert checks.quartic_values(coeffs, pts, values) == []
    tampered = coeffs.copy()
    tampered[2] *= 1.001
    assert checks.quartic_values(tampered, pts, values)


def test_round_trip_detects_a_perturbed_coefficient():
    problem = transforms.cole_hopf_problem(15)
    interp = fit(problem.system, Matern52(1.0))
    pts = np.linspace(0.0, 1.0, 33)
    config = json.loads(json.dumps(interpolant_to_config(interp)))
    loaded = interpolant_from_config(config)
    for order in (0, 1, 2):
        assert checks.same_bits(interp.evaluate(pts, order), loaded.evaluate(pts, order), "x") == []
    config["alpha"][3] = float(np.nextafter(config["alpha"][3], np.inf))
    tampered = interpolant_from_config(config)
    assert checks.same_bits(interp.evaluate(pts), tampered.evaluate(pts), "x")


def test_map_fit_bands(tmp_path):
    n_list = [25, 50, 100, 200]
    metrics = run_table1({"N_list": n_list, "output_dir": str(tmp_path)})["metrics"]
    assert checks.table1(metrics, n_list) == []
    for key, factor in (("no_learning_N25", 20.0), ("learning_N50", 0.01), ("no_learning_N200", 100.0)):
        bad = dict(metrics)
        bad[key] *= factor
        assert checks.table1(bad, n_list), key
    bad = dict(metrics, learning_N100=metrics["no_learning_N100"] * 1.5)
    assert checks.table1(bad, n_list)
    assert checks.relative_l2_at_most(5e-3, 1e-2, "fit") == []
    assert checks.relative_l2_at_most(2e-2, 1e-2, "fit")
    assert checks.growth_ratio(1.01) == []
    assert checks.growth_ratio(4.0)
