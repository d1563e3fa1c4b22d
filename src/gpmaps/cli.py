"""Config-driven command-line driver for every built-in experiment.

Commands:

* ``gpmaps run <config.json>`` -- run one experiment, write plot-ready CSV
  artifacts plus a schema-validated JSON summary.
* ``gpmaps table1 <config.json>`` -- the learned-vs-fixed kernel error table
  over a list of data sizes.
* ``gpmaps evaluate <interpolant.json> --points <csv>`` -- evaluate a saved
  interpolant at points from a CSV file.

Exit codes: 0 success, 2 config/validation error, 3 numerical failure.
All numeric output is written with full round-trip precision so re-running a
config byte-reproduces the artifacts (the summary's wall time is the one
intentionally varying field).
"""

from __future__ import annotations

import argparse
import importlib.resources
import json
import os
import sys
import time
from pathlib import Path

import numpy as np
from jsonschema import ValidationError
from jsonschema import validate as _validate_schema

from . import cgc, dynamics, transforms
from .exceptions import (
    DivergedError,
    GpmapsError,
    InvalidInputError,
    NumericalOverflowError,
    SingularityError,
    SingularSystemError,
)
from .gp import fit, interpolant_from_config, interpolant_to_config
from .kernel_learning import ThetaSearchConfig, learn_theta
from .kernels import Matern52
from .optim import DescentConfig

_NUMERICAL_ERRORS = (SingularSystemError, DivergedError, NumericalOverflowError, SingularityError)


def _fmt(x):
    return "%.17g" % float(x)


def _write_csv(path, header, columns):
    rows = len(columns[0])
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(rows):
            fh.write(",".join(c[i] if isinstance(c[i], str) else _fmt(c[i]) for c in columns) + "\n")
    return str(path)


def _write_interpolant(path, interp):
    with open(path, "w") as fh:
        json.dump(interpolant_to_config(interp), fh)
        fh.write("\n")
    return str(path)


def _load_schema(name):
    ref = importlib.resources.files("gpmaps") / "schemas" / name
    return json.loads(ref.read_text())


def write_summary(path, experiment, parameters, metrics, artifacts):
    doc = {
        "experiment": experiment,
        "parameters": parameters,
        "metrics": metrics,
        "artifacts": {k: str(v) for k, v in artifacts.items()},
    }
    _validate_schema(instance=doc, schema=_load_schema("summary.schema.json"))
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return doc


def _out_dir(cfg):
    out = cfg.get("output_dir") or os.environ.get("GPMAPS_OUTPUT_DIR") or "gpmaps-out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _require_positive(cfg, *names):
    for name in names:
        v = cfg.get(name)
        if v is not None and not v > 0:
            raise InvalidInputError(f"parameter {name!r} must be positive, got {v}")


def _maybe_learn_theta(cfg, problem):
    if not cfg.get("learn_kernel", False):
        return float(cfg.get("theta", 1.0)), None
    return learn_theta(ThetaSearchConfig(), problem.system, problem.interior)


def _run_transform_problem(cfg, out, problem, csv_name, extra_params):
    theta, rho_star = _maybe_learn_theta(cfg, problem)
    kernel = Matern52(theta)
    interp = fit(problem.system, kernel)
    rel = transforms.relative_l2(interp, problem.truth, problem.eval_points)
    # Y^T (G + lam I)^{-1} Y from the fit's own solve, as gp.rkhs_norm_sq computes it
    norm = float(np.sqrt(max(problem.system.targets @ interp.coefficients, 0.0)))
    learned = interp.evaluate(problem.us)
    truth_vals = problem.truth(problem.us)
    columns = [problem.xs, problem.us, truth_vals, learned, np.abs(learned - truth_vals)]
    header = ["x", "u", "w_true", "w_learned", "abs_err"]
    if "labels" in problem.meta:
        header = ["ic"] + header
        columns = [list(problem.meta["labels"])] + columns
    csv_path = _write_csv(out / csv_name, header, columns)
    interp_path = _write_interpolant(out / "interpolant.json", interp)
    metrics = {"relative_l2": rel, "rkhs_norm": norm, "theta_learned": theta if rho_star is not None else None}
    if rho_star is not None:
        metrics["rho_star"] = rho_star
    params = {"theta": theta, "learn_kernel": bool(cfg.get("learn_kernel", False)),
              "lam": cfg.get("lam"), **extra_params}
    return params, metrics, {"csv": csv_path, "interpolant": interp_path}


def _experiment_cole_hopf(cfg, out):
    n = int(cfg.get("N", 25))
    if n < 1:
        raise InvalidInputError(f"N must be >= 1, got {n}")
    nu = float(cfg.get("nu", 0.5))
    _require_positive(cfg, "nu", "lam")
    problem = transforms.cole_hopf_problem(n, nu=nu, ic_name=cfg.get("ic", "burgers-paper"), nugget=cfg.get("lam"))
    return _run_transform_problem(cfg, out, problem, "cole_hopf.csv", {"N": n, "nu": nu, "ic": problem.meta["ic"]})


def _experiment_cole_hopf_discrete(cfg, out):
    nu = float(cfg.get("nu", 0.5))
    dx = float(cfg.get("dx", 0.01))
    h = float(cfg.get("h", 1e-4))
    _require_positive(cfg, "nu", "dx", "h", "lam")
    problem = transforms.cole_hopf_discrete_problem(
        dx=dx, h=h, nu=nu,
        ic_name=cfg.get("ic", "burgers-paper"),
        nugget=cfg.get("lam"),
    )
    return _run_transform_problem(cfg, out, problem, "cole_hopf_discrete.csv",
                                  {"nu": nu, "dx": dx, "h": h, "ic": problem.meta["ic"]})


def _experiment_cole_hopf_multi(cfg, out):
    nu = float(cfg.get("nu", 0.5))
    pts = int(cfg.get("points_per_ic", 101))
    _require_positive(cfg, "nu", "lam")
    if pts < 1:
        raise InvalidInputError(f"points_per_ic must be >= 1, got {pts}")
    ics = tuple(cfg.get("ics", transforms.MULTI_IC_NAMES))
    problem = transforms.cole_hopf_multi_problem(ics, pts, nu, nugget=cfg.get("lam"))
    cfg = dict(cfg)
    cfg.setdefault("learn_kernel", True)
    return _run_transform_problem(cfg, out, problem, "cole_hopf_multi.csv",
                                  {"nu": nu, "points_per_ic": pts, "ics": list(ics)})


def _experiment_first_order(cfg, out):
    n = int(cfg.get("N", 100))
    if n < 1:
        raise InvalidInputError(f"N must be >= 1, got {n}")
    problem = transforms.first_order_problem(n, ic_name=cfg.get("ic", "firstorder-paper"),
                                             nugget=cfg.get("lam"))
    return _run_transform_problem(cfg, out, problem, "first_order.csv", {"N": n, "ic": problem.meta["ic"]})


def _experiment_cgc_pde(cfg, out):
    n = int(cfg.get("N", 100))
    if n < 1:
        raise InvalidInputError(f"N must be >= 1, got {n}")
    _require_positive(cfg, "gamma", "lam")
    if "lambda1" in cfg:
        # no data-fit term to weight: the data's output column is the map itself
        raise InvalidInputError("lambda1 does not apply to cgc-pde")
    ic = dynamics.get_initial_condition(cfg.get("ic", "firstorder-paper"))
    _, u_data = ic.sample(n)
    problem = cgc.CgcPdeProblem(
        u_data=u_data,
        gamma=float(cfg.get("gamma", 1.0)),
        lambda2=cfg.get("lambda2"),
        lambda3=cfg.get("lambda3"),
        nugget=cfg.get("lam"),
    )
    config = DescentConfig(max_iters=int(cfg.get("max_iters", 40000)))
    result = cgc.cgc_pde_solve(problem, config=config)
    g_learned = result.interpolant(u_data)
    g_truth = transforms.first_order_truth(u_data)
    csv_path = _write_csv(out / "cgc_pde.csv", ["u", "G_learned", "G_truth"],
                          [u_data, g_learned, g_truth])
    interp_path = _write_interpolant(out / "interpolant.json", result.interpolant)
    params = {"N": n, "gamma": problem.gamma, "weights": list(result.weights)}
    final_terms = cgc.cgc_pde_loss_terms(problem, result.state, result.weights)
    metrics = {"a_learned": float(result.state.a), "loss_final": float(result.loss_trace[-1]),
               "iterations": int(result.iterations), "converged": bool(result.converged),
               "stop_reason": result.reason,
               "loss_norm_g": float(final_terms["norm_g"]), "loss_a_prior": float(final_terms["a_prior"]),
               "loss_l1": float(final_terms["l1_weighted"]), "loss_l2": float(final_terms["l2_weighted"]),
               "loss_anchor": float(final_terms["anchor_weighted"])}
    return params, metrics, {"csv": csv_path, "interpolant": interp_path}


def _experiment_brusselator_nf(cfg, out):
    a_param = float(cfg.get("A", 1.0))
    b_param = float(cfg.get("B", 2.1))
    n_samples = int(cfg.get("n_samples", 2000))
    sample_dt = float(cfg.get("dt", 0.1))
    gen_dt = float(cfg.get("gen_dt", 1e-3))
    _require_positive(cfg, "dt", "gen_dt")
    if n_samples < 10:
        raise InvalidInputError(f"n_samples must be >= 10, got {n_samples}")
    init_point = tuple(cfg.get("init_point", (0.1, -0.1)))
    mu = dynamics.mu_from_AB(a_param, b_param)
    traj = dynamics.brusselator_trajectory(a_param, b_param, init_point=init_point,
                                           n_samples=n_samples, sample_dt=sample_dt, gen_dt=gen_dt)
    problem = cgc.NfProblem(traj, mu, lambda1=cfg.get("lambda1"), lambda2=cfg.get("lambda2"),
                            lambda3=cfg.get("lambda3"), init_point=init_point)
    config = DescentConfig(max_iters=int(cfg.get("max_iters", 15000)))
    result = cgc.nf_solve(problem, config=config)
    r = result.state.r_values
    r0 = problem.r0_target
    r_ex = dynamics.r_exact(r0, mu, traj.times)
    csv_path = _write_csv(
        out / "brusselator_nf.csv",
        ["t", "u", "v", "r_learned", "r_exact", "x_rec", "y_rec"],
        [traj.times, traj.states[:, 0], traj.states[:, 1], r, r_ex, result.xy[:, 0], result.xy[:, 1]],
    )
    late = traj.times >= 0.5 * traj.times[-1]
    radius = float(np.mean(r[late]))
    rel_late = float(np.linalg.norm(r[late] - r_ex[late]) / np.linalg.norm(r_ex[late]))
    params = {"A": a_param, "B": b_param, "mu": mu, "n_samples": n_samples, "dt": sample_dt,
              "init_point": list(init_point), "weights": list(result.weights)}
    final_terms = cgc.nf_loss_terms(problem, result.state, result.weights)
    metrics = {"radius_learned": radius, "relative_l2": rel_late,
               "loss_final": float(result.loss_trace[-1]), "iterations": int(result.iterations),
               "converged": bool(result.converged), "stop_reason": result.reason,
               "loss_norm_h": float(final_terms["norm_h"]), "loss_l1": float(final_terms["l1_weighted"]),
               "loss_l2": float(final_terms["l2_weighted"]), "loss_anchor": float(final_terms["anchor_weighted"])}
    return params, metrics, {"csv": csv_path}


def _experiment_diagnose_norm(cfg, out):
    n_list = [int(n) for n in cfg.get("N_list", (100, 200, 400))]
    nu = float(cfg.get("nu", 0.5))
    theta = float(cfg.get("theta", 1.0))
    lam = float(cfg.get("lam", 1e-10))
    _require_positive(cfg, "nu", "theta", "lam")
    if len(n_list) == 0:
        raise InvalidInputError("N_list must be nonempty")
    inconsistent = bool(cfg.get("inconsistent", False))
    seed = int(cfg.get("seed", 0))

    def builder(n):
        problem = transforms.cole_hopf_problem(n, nu=nu, ic_name=cfg.get("ic", "burgers-paper"))
        system = problem.system
        if inconsistent:
            system = transforms.corrupt_targets(system, problem.interior, seed=seed)
        return system

    pairs = transforms.norm_growth_diagnostic(builder, n_list, Matern52(theta), nugget=lam)
    csv_path = _write_csv(out / "norm_growth.csv", ["N", "rkhs_norm"],
                          [[p[0] for p in pairs], [p[1] for p in pairs]])
    growth = pairs[-1][1] / pairs[0][1] if len(pairs) > 1 else 1.0
    params = {"N_list": n_list, "nu": nu, "theta": theta, "lam": lam,
              "inconsistent": inconsistent, "seed": seed}
    metrics = {"growth_ratio": float(growth)}
    return params, metrics, {"csv": csv_path}


_RUNNERS = {
    "cole-hopf": _experiment_cole_hopf,
    "cole-hopf-discrete": _experiment_cole_hopf_discrete,
    "cole-hopf-multi": _experiment_cole_hopf_multi,
    "first-order": _experiment_first_order,
    "cgc-pde": _experiment_cgc_pde,
    "brusselator-nf": _experiment_brusselator_nf,
    "diagnose-norm": _experiment_diagnose_norm,
}

EXPERIMENTS = tuple(_RUNNERS)


def run_experiment(cfg):
    """Run one experiment config; returns the summary document."""
    experiment = cfg.get("experiment")
    if experiment not in _RUNNERS:
        raise InvalidInputError(f"unknown experiment {experiment!r}; known: {EXPERIMENTS}")
    out = _out_dir(cfg)
    start = time.perf_counter()
    params, metrics, artifacts = _RUNNERS[experiment](cfg, out)
    metrics["wall_time_s"] = time.perf_counter() - start
    params.setdefault("seed", int(cfg.get("seed", 0)))
    return write_summary(out / "summary.json", experiment, params, metrics, artifacts)


def run_table1(cfg):
    """Learned-vs-fixed relative error over a list of data sizes."""
    n_list = [int(n) for n in cfg.get("N_list", (25, 50, 100))]
    allowed = {25, 50, 100, 200, 400, 800}
    if len(n_list) == 0:
        raise InvalidInputError("N_list must be nonempty")
    if not set(n_list) <= allowed:
        raise InvalidInputError(f"N_list must be a subset of {sorted(allowed)}")
    nu = float(cfg.get("nu", 0.5))
    out = _out_dir(cfg)
    start = time.perf_counter()
    errors = {"learning": [], "no_learning": []}
    thetas = []
    for n in n_list:
        problem = transforms.cole_hopf_problem(n, nu=nu, ic_name=cfg.get("ic", "burgers-paper"))
        theta, _ = learn_theta(ThetaSearchConfig(), problem.system, problem.interior)
        thetas.append(theta)
        for row, th in (("learning", theta), ("no_learning", float(cfg.get("theta", 1.0)))):
            interp = fit(problem.system, Matern52(th))
            errors[row].append(transforms.relative_l2(interp, problem.truth, problem.eval_points))
    csv_path = _write_csv(out / "table1.csv", ["row"] + [f"N={n}" for n in n_list],
                          [["learning", "no_learning"], *zip(errors["learning"], errors["no_learning"])])
    metrics = {"wall_time_s": time.perf_counter() - start}
    for n, e_a, e_b in zip(n_list, errors["learning"], errors["no_learning"]):
        metrics[f"learning_N{n}"] = e_a
        metrics[f"no_learning_N{n}"] = e_b
    params = {"N_list": n_list, "nu": nu, "thetas_learned": thetas, "seed": int(cfg.get("seed", 0))}
    return write_summary(out / "table1_summary.json", "table1", params, metrics, {"csv": csv_path})


def run_evaluate(interp_path, points_path, deriv, output):
    with open(interp_path) as fh:
        interp = interpolant_from_config(json.load(fh))
    pts = np.loadtxt(points_path, delimiter=",", skiprows=1, ndmin=2)[:, 0]
    vals = interp.evaluate(pts, deriv)
    _write_csv(output, ["u", "value"], [pts, np.atleast_1d(vals)])
    return 0


def _load_config(path, overrides):
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise InvalidInputError("config must be a JSON object")
    for key, value in overrides.items():
        if value is not None:
            cfg[key] = value
    try:
        _validate_schema(instance=cfg, schema=_load_schema("config.schema.json"))
    except ValidationError as exc:
        raise InvalidInputError(f"config does not match the schema: {exc.message}") from exc
    return cfg


def _build_parser():
    parser = argparse.ArgumentParser(prog="gpmaps", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run one experiment from a JSON config")
    runp.add_argument("config", help="path to the experiment config (JSON)")
    runp.add_argument("--output-dir", dest="output_dir")
    runp.add_argument("--experiment", choices=EXPERIMENTS)
    runp.add_argument("--N", dest="N", type=int)
    runp.add_argument("--nu", type=float)
    runp.add_argument("--theta", type=float)
    runp.add_argument("--learn-kernel", dest="learn_kernel", action="store_true", default=None)
    runp.add_argument("--no-learn-kernel", dest="learn_kernel", action="store_false", default=None)
    runp.add_argument("--lam", type=float)
    runp.add_argument("--h", type=float)
    runp.add_argument("--dx", type=float)
    runp.add_argument("--lambda1", type=float)
    runp.add_argument("--lambda2", type=float)
    runp.add_argument("--lambda3", type=float)
    runp.add_argument("--A", dest="A", type=float)
    runp.add_argument("--B", dest="B", type=float)
    runp.add_argument("--dt", type=float)
    runp.add_argument("--seed", type=int)
    runp.add_argument("--ic")
    runp.add_argument("--max-iters", dest="max_iters", type=int)

    tab = sub.add_parser("table1", help="learned vs fixed kernel error table")
    tab.add_argument("config")
    tab.add_argument("--output-dir", dest="output_dir")

    ev = sub.add_parser("evaluate", help="evaluate a saved interpolant at points from a CSV")
    ev.add_argument("interpolant")
    ev.add_argument("--points", required=True)
    ev.add_argument("--deriv", type=int, default=0)
    ev.add_argument("--output", default="evaluated.csv")
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            overrides = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
            summary = run_experiment(_load_config(args.config, overrides))
            json.dump(summary["metrics"], sys.stdout, indent=2, sort_keys=True)
            sys.stdout.write("\n")
        elif args.command == "table1":
            summary = run_table1(_load_config(args.config, {"output_dir": args.output_dir}))
            json.dump(summary["metrics"], sys.stdout, indent=2, sort_keys=True)
            sys.stdout.write("\n")
        elif args.command == "evaluate":
            return run_evaluate(args.interpolant, args.points, args.deriv, args.output)
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (InvalidInputError, GpmapsError, FileNotFoundError, KeyError, json.JSONDecodeError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
