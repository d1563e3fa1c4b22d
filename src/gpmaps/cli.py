"""Config-driven command-line driver for every built-in experiment.

Commands:

* ``gpmaps run <config.json> [--KEY VALUE ...]`` -- run one experiment, write
  plot-ready CSV artifacts plus a schema-validated JSON summary.
* ``gpmaps table1 <config.json>`` -- the learned-vs-fixed kernel error table
  over a list of data sizes.
* ``gpmaps evaluate <interpolant.json> --points <csv>`` -- evaluate a saved
  interpolant at points from a CSV file. ``interpolant.json`` holds one
  column per key (``kernel``, ``nodes``, ``node``, ``order``, ``weight``,
  ``sizes``, ``alpha``, ``nugget``; see :func:`gpmaps.gp.interpolant_to_config`);
  a file in the nested layout of earlier versions exits 2.

Config contract: a config is a JSON object that must match
``schemas/config.schema.json`` (types and bounds), hold finite numbers only
and may hold only keys its experiment reads; any other key is an error
(exit 2), never ignored.
``gpmaps run`` has one flag per schema key, typed from the schema
(``--max-iters 300``, ``--inconsistent``/``--no-inconsistent``; arrays and
the nullable ``theta`` and ``lam`` as JSON: ``--N-list '[50, 100]'``,
``--theta null``); a flag overrides the file. The Python API
(:func:`run_experiment`, :func:`run_table1`) validates the same way. A
summary's ``parameters`` is the resolved config (every key the experiment
reads, defaults filled in, less ``output_dir``) plus what the run derived:
the lengthscale used, the loss ``weights``, ``mu`` or ``thetas_learned``.

A map fit (``cole-hopf``, ``cole-hopf-discrete``, ``cole-hopf-multi``,
``first-order``) makes one choice of lengthscale: ``theta`` is a number, or
null to learn it by the leave-one-out loss. Its nugget is the automatic one;
``lam`` is the nugget of ``diagnose-norm`` only. ``first-order`` reads no
``ic``: it fits ``firstorder-paper``, the only registered condition it can.

Exit codes: 0 success, 2 config/validation error or an input or output path
that cannot be read or written, 3 numerical failure.
All numeric output is written with full round-trip precision so re-running a
config at the same BLAS thread count byte-reproduces the artifacts (the
summary's wall time is the one intentionally varying field); README states
how far results move across thread counts.

``brusselator-nf`` still reads ``gen_dt`` and has it validated, and the key
has no effect: the trajectory takes its steps from its Taylor coefficients.
``cgc-pde`` still reads ``ic``, where any condition but ``firstorder-paper``
exits 2. Both stay only while the benchmark's configs pass them.

Every experiment reads ``seed`` (0) and ``output_dir`` (default
``$GPMAPS_OUTPUT_DIR``, else ``gpmaps-out``). Its other keys, with their
defaults (a null ``theta`` is learned), as the runners declare them:
"""

from __future__ import annotations

import argparse
import functools
import importlib.resources
import json
import math
import os
import sys
import textwrap
import time
import warnings
from pathlib import Path

import numpy as np
from jsonschema import Draft7Validator, ValidationError

from . import cgc, dynamics, transforms
from .exceptions import DivergedError, GpmapsError, InvalidInputError, NumericalOverflowError, SingularSystemError
from .gp import fit, interpolant_from_config, interpolant_to_config
from .kernel_learning import learn_theta
from .kernels import Matern52
from .optim import DescentConfig

_NUMERICAL_ERRORS = (SingularSystemError, DivergedError, NumericalOverflowError)

#: Python type of each scalar schema type; arrays cast item by item.
_CASTS = {"integer": int, "number": float, "string": str, "boolean": bool}

#: {experiment: (runner, {key: default})}: each runner and the keys it reads, declared by :func:`_runner`.
_RUNNERS = {}

_TABLE1_SIZES = {25, 50, 100, 200, 400, 800}


def _write_csv(path, header, columns):
    """One line per row: a column of strings as they are, every other cell as ``%.17g``."""
    columns = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns]
    row = ",".join("%s" if c and isinstance(c[0], str) else "%.17g" for c in columns) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row % cells for cells in zip(*columns))
    return str(path)


def _write_interpolant(path, interp):
    with open(path, "w") as fh:
        # json.dumps without indent runs the C encoder; json.dump to a file runs the Python one
        fh.write(json.dumps(interpolant_to_config(interp)) + "\n")
    return str(path)


@functools.cache
def _validator(name):
    ref = importlib.resources.files("gpmaps") / "schemas" / name
    return Draft7Validator(json.loads(ref.read_text()))


def write_summary(path, experiment, parameters, metrics, artifacts):
    doc = {"experiment": experiment, "parameters": parameters, "metrics": metrics,
           "artifacts": {k: str(v) for k, v in artifacts.items()}}
    _validator("summary.schema.json").validate(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return doc


def _kind(prop):
    """The schema type of a property, ignoring its nullability."""
    return prop["type"] if isinstance(prop["type"], str) else prop["type"][0]


def _typed(value, prop, key):
    """``value`` as the Python type of its schema property ``key`` (JSON has one number type).

    A number that is not finite raises :class:`InvalidInputError`: ``json.load`` reads ``NaN`` and
    ``Infinity``, and the schema's bounds let them through.
    """
    if value is None:
        return None
    if _kind(prop) == "array":
        return [_typed(v, prop["items"], key) for v in value]
    value = _CASTS[_kind(prop)](value)
    if isinstance(value, float) and not math.isfinite(value):
        raise InvalidInputError(f"{key} must be finite, got {value}")
    return value


def _runner(experiment, **defaults):
    """Register a runner with the config keys it reads and their defaults, beside ``seed`` and ``output_dir``."""

    def register(runner):
        _RUNNERS[experiment] = runner, {"seed": 0, "output_dir": None, **defaults}
        return runner

    return register


def _resolve(cfg, experiments, default=None):
    """``(experiment, config)``: ``cfg`` validated and completed from the keys its experiment declares.

    The config must match the schema, name one of ``experiments`` (or leave
    the name out when there is a ``default``) and hold no key that
    experiment does not read. Every declared key is present in the result,
    cast to its schema type by :func:`_typed`, which rejects a non-finite
    number; ``experiment`` itself is not.
    """
    validator = _validator("config.schema.json")
    try:
        validator.validate(cfg)
    except ValidationError as exc:
        raise InvalidInputError(f"config does not match the schema: {exc.message}") from exc
    experiment = cfg.get("experiment", default)
    if experiment not in experiments:
        raise InvalidInputError(f"unknown experiment {experiment!r}; known: {experiments}")
    declared = _RUNNERS[experiment][1]
    unread = sorted(cfg.keys() - declared.keys() - {"experiment"})
    if unread:
        raise InvalidInputError(f"{experiment} does not read {', '.join(unread)}")
    props = validator.schema["properties"]
    return experiment, {key: _typed(cfg.get(key, d), props[key], key) for key, d in declared.items()}


def _run(cfg, experiments, default, summary_name):
    """Resolve ``cfg``, run its experiment and write the summary; returns the summary document."""
    experiment, cfg = _resolve(cfg, experiments, default)
    out = Path(cfg.pop("output_dir") or os.environ.get("GPMAPS_OUTPUT_DIR") or "gpmaps-out")
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    derived, metrics, artifacts = _RUNNERS[experiment][0](cfg, out)
    metrics["wall_time_s"] = time.perf_counter() - start
    return write_summary(out / summary_name, experiment, {**cfg, **derived}, metrics, artifacts)


def _run_transform_problem(cfg, out, problem, csv_name):
    """Fit the map with the given lengthscale, or with the one the leave-one-out loss picks when ``theta`` is null."""
    theta, rho_star = cfg["theta"], None
    if theta is None:
        theta, rho_star = learn_theta(problem.system, problem.interior)
    interp = fit(problem.system, Matern52(theta))
    rel = transforms.relative_l2(interp, problem.truth, problem.eval_points)
    # Y^T (G + lam I)^{-1} Y from the fit's own solve, as gp.rkhs_norm_sq computes it
    norm = float(np.sqrt(max(problem.system.targets @ interp.coefficients, 0.0)))
    learned = interp.evaluate(problem.us)
    truth_vals = problem.truth(problem.us)
    columns = [problem.xs, problem.us, truth_vals, learned, np.abs(learned - truth_vals)]
    header = ["x", "u", "w_true", "w_learned", "abs_err"]
    if problem.labels is not None:
        header = ["ic"] + header
        columns = [list(problem.labels)] + columns
    csv_path = _write_csv(out / csv_name, header, columns)
    interp_path = _write_interpolant(out / "interpolant.json", interp)
    metrics = {"relative_l2": rel, "rkhs_norm": norm, "theta_learned": theta if rho_star is not None else None,
               "nugget": interp.nugget}
    if rho_star is not None:
        metrics["rho_star"] = rho_star
    return {"theta": theta}, metrics, {"csv": csv_path, "interpolant": interp_path}


@_runner("cole-hopf", N=25, nu=0.5, ic="burgers-paper", theta=1.0)
def _experiment_cole_hopf(cfg, out):
    problem = transforms.cole_hopf_problem(cfg["N"], nu=cfg["nu"], ic_name=cfg["ic"])
    return _run_transform_problem(cfg, out, problem, "cole_hopf.csv")


@_runner("cole-hopf-discrete", nu=0.5, dx=0.01, h=1e-4, ic="burgers-paper", theta=1.0)
def _experiment_cole_hopf_discrete(cfg, out):
    problem = transforms.cole_hopf_discrete_problem(dx=cfg["dx"], h=cfg["h"], nu=cfg["nu"], ic_name=cfg["ic"])
    return _run_transform_problem(cfg, out, problem, "cole_hopf_discrete.csv")


@_runner("cole-hopf-multi", nu=0.5, points_per_ic=101, ics=transforms.MULTI_IC_NAMES, theta=None)
def _experiment_cole_hopf_multi(cfg, out):
    problem = transforms.cole_hopf_multi_problem(tuple(cfg["ics"]), cfg["points_per_ic"], cfg["nu"])
    return _run_transform_problem(cfg, out, problem, "cole_hopf_multi.csv")


@_runner("first-order", N=100, theta=1.0)
def _experiment_first_order(cfg, out):
    problem = transforms.first_order_problem(cfg["N"])
    return _run_transform_problem(cfg, out, problem, "first_order.csv")


def _joint_metrics(result):
    """How a joint solve ended, its final slope, and ``loss_<name>`` per weighted term ``<name>[_weighted]``."""
    return {"loss_final": float(result.loss_trace[-1]), "iterations": int(result.iterations),
            "final_slope": float(result.slope), "converged": bool(result.converged), "stop_reason": result.reason,
            **{f"loss_{name.removesuffix('_weighted')}": float(value) for name, value in result.terms.items()}}


@_runner("cgc-pde", N=100, ic="firstorder-paper", max_iters=40000)
def _experiment_cgc_pde(cfg, out):
    # ic stays declared only while the benchmark's cgc-pde config passes it: every other condition exits 2
    _, u_data = dynamics.get_initial_condition(cfg["ic"]).sample(cfg["N"])
    problem = cgc.CgcPdeProblem(u_data=u_data)
    result = cgc.cgc_pde_solve(problem, config=DescentConfig(max_iters=cfg["max_iters"]))
    csv_path = _write_csv(out / "cgc_pde.csv", ["u", "G_learned", "G_truth"],
                          [u_data, result.interpolant(u_data), transforms.first_order_truth(u_data)])
    interp_path = _write_interpolant(out / "interpolant.json", result.interpolant)
    metrics = {"a_learned": float(result.state.a), "nugget": result.interpolant.nugget, **_joint_metrics(result),
               # loss_anchor weights the square of G(1) - 1
               "anchor_residual": float(result.interpolant(1.0) - 1.0)}
    return {"weights": list(result.weights)}, metrics, {"csv": csv_path, "interpolant": interp_path}


@_runner("brusselator-nf", A=1.0, B=2.1, n_samples=2000, dt=0.1, gen_dt=1e-3, init_point=(0.1, -0.1),
         max_iters=15000)
def _experiment_brusselator_nf(cfg, out):
    mu = dynamics.mu_from_AB(cfg["A"], cfg["B"])
    # gen_dt stays declared, and has no effect, while the benchmark's normal-form config passes it
    traj = dynamics.brusselator_trajectory(cfg["A"], cfg["B"], init_point=tuple(cfg["init_point"]),
                                           n_samples=cfg["n_samples"], sample_dt=cfg["dt"])
    problem = cgc.NfProblem(traj, mu)
    result = cgc.nf_solve(problem, config=DescentConfig(max_iters=cfg["max_iters"]))
    r = result.state.r_values
    r_ex = dynamics.r_exact(problem.r0_target, mu, traj.times)
    csv_path = _write_csv(out / "brusselator_nf.csv", ["t", "u", "v", "r_learned", "r_exact", "x_rec", "y_rec"],
                          [traj.times, traj.states[:, 0], traj.states[:, 1], r, r_ex, result.xy[:, 0], result.xy[:, 1]])
    late = traj.times >= 0.5 * traj.times[-1]
    lead = np.arctan2(result.xy[:, 1], result.xy[:, 0]) - np.arctan2(traj.states[:, 1], traj.states[:, 0])
    metrics = {"radius_learned": float(np.mean(r[late])), **_joint_metrics(result),
               "relative_l2": float(np.linalg.norm(r[late] - r_ex[late]) / np.linalg.norm(r_ex[late])),
               "phase_rms_rad": float(np.sqrt(np.mean(((lead + np.pi) % (2.0 * np.pi) - np.pi) ** 2)))}
    return {"mu": mu, "weights": list(result.weights)}, metrics, {"csv": csv_path}


@_runner("diagnose-norm", N_list=(100, 200, 400), nu=0.5, ic="burgers-paper", theta=1.0, lam=1e-10,
         inconsistent=False)
def _experiment_diagnose_norm(cfg, out):
    def builder(n):
        problem = transforms.cole_hopf_problem(n, nu=cfg["nu"], ic_name=cfg["ic"])
        system = problem.system
        if cfg["inconsistent"]:
            system = transforms.corrupt_targets(system, problem.interior, seed=cfg["seed"])
        return system

    pairs = transforms.norm_growth_diagnostic(builder, cfg["N_list"], Matern52(cfg["theta"]), nugget=cfg["lam"])
    csv_path = _write_csv(out / "norm_growth.csv", ["N", "rkhs_norm"],
                          [[p[0] for p in pairs], [p[1] for p in pairs]])
    growth = pairs[-1][1] / pairs[0][1] if len(pairs) > 1 else 1.0
    return {}, {"growth_ratio": float(growth)}, {"csv": csv_path}


@_runner("table1", N_list=(25, 50, 100), nu=0.5, ic="burgers-paper", theta=1.0)
def _table1(cfg, out):
    if not set(cfg["N_list"]) <= _TABLE1_SIZES:
        raise InvalidInputError(f"N_list must be a subset of {sorted(_TABLE1_SIZES)}")
    fixed = Matern52(cfg["theta"])  # before any search: a theta that is no lengthscale exits 2 at once
    errors = {"learning": [], "no_learning": []}
    thetas = []
    for n in cfg["N_list"]:
        problem = transforms.cole_hopf_problem(n, nu=cfg["nu"], ic_name=cfg["ic"])
        theta, _ = learn_theta(problem.system, problem.interior)
        thetas.append(theta)
        for row, kernel in (("learning", Matern52(theta)), ("no_learning", fixed)):
            interp = fit(problem.system, kernel)
            errors[row].append(transforms.relative_l2(interp, problem.truth, problem.eval_points))
    csv_path = _write_csv(out / "table1.csv", ["row"] + [f"N={n}" for n in cfg["N_list"]],
                          [["learning", "no_learning"], *zip(errors["learning"], errors["no_learning"])])
    metrics = {f"{row}_N{n}": e for row, row_errors in errors.items() for n, e in zip(cfg["N_list"], row_errors)}
    return {"thetas_learned": thetas}, metrics, {"csv": csv_path}


EXPERIMENTS = tuple(name for name in _RUNNERS if name != "table1")


def run_experiment(cfg):
    """Run one experiment config; returns the summary document."""
    return _run(cfg, EXPERIMENTS, None, "summary.json")


def run_table1(cfg):
    """Learned-vs-fixed relative error over a list of data sizes (``experiment`` may be left out)."""
    return _run(cfg, ("table1",), "table1", "table1_summary.json")


# close the module docstring with each experiment's keys and defaults, from the declarations above
__doc__ += "".join(
    textwrap.fill(" ".join(f"{k}={json.dumps(v)}" for k, v in keys.items() if k not in ("seed", "output_dir")),
                  100, initial_indent=f"\n    {name:<20}", subsequent_indent=" " * 24)
    for name, (_, keys) in _RUNNERS.items()) + "\n"


def run_evaluate(interp_path, points_path, deriv, output):
    with open(interp_path) as fh:
        interp = interpolant_from_config(json.load(fh))
    try:
        with warnings.catch_warnings():
            # a header-only file: reported below as an error, not as numpy's warning
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            pts = np.loadtxt(points_path, delimiter=",", skiprows=1, ndmin=2)[:, 0]
    except ValueError as exc:
        raise InvalidInputError(f"points CSV {points_path} does not hold numbers: {exc}") from exc
    if pts.size == 0:
        raise InvalidInputError(f"points CSV {points_path} holds no points")
    if not np.all(np.isfinite(pts)):
        raise InvalidInputError(f"points CSV {points_path} holds a non-finite point")
    vals = interp.evaluate(pts, deriv)
    _write_csv(output, ["u", "value"], [pts, np.atleast_1d(vals)])
    return 0


def _load_config(path, overrides):
    """The config file with the given flags laid over it; validation is left to the runner."""
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise InvalidInputError("config must be a JSON object")
    return {**cfg, **overrides}


def _build_parser():
    parser = argparse.ArgumentParser(prog="gpmaps", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    # a flag left out sets nothing, so a flag given as null (--theta null) reaches the config
    runp = sub.add_parser("run", help="run one experiment from a JSON config", allow_abbrev=False,
                          argument_default=argparse.SUPPRESS)
    runp.add_argument("config", help="path to the experiment config (JSON)")
    for key, prop in _validator("config.schema.json").schema["properties"].items():
        flag, kind = "--" + key.replace("_", "-"), _kind(prop)
        if kind == "boolean":
            runp.add_argument(flag, dest=key, action=argparse.BooleanOptionalAction)
        else:
            json_typed = kind == "array" or isinstance(prop["type"], list)  # arrays and nullable keys
            runp.add_argument(flag, dest=key, choices=prop.get("enum"),
                              type=json.loads if json_typed else _CASTS[kind])

    tab = sub.add_parser("table1", help="learned vs fixed kernel error table", argument_default=argparse.SUPPRESS)
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
        if args.command == "evaluate":
            return run_evaluate(args.interpolant, args.points, args.deriv, args.output)
        cfg = _load_config(args.config, {k: v for k, v in vars(args).items() if k not in ("command", "config")})
        summary = run_experiment(cfg) if args.command == "run" else run_table1(cfg)
        json.dump(summary["metrics"], sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (GpmapsError, OSError, UnicodeDecodeError, KeyError, json.JSONDecodeError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
