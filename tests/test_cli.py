import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from gpmaps import cgc, cli, gp
from gpmaps.cli import EXPERIMENTS, main, run_experiment, run_table1
from gpmaps.exceptions import InvalidInputError
from gpmaps.kernels import Matern52


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_summary(out_dir, name="summary.json"):
    return json.loads((Path(out_dir) / name).read_text())


class TestRun:
    def test_cole_hopf_artifacts(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, "c.json", {"experiment": "cole-hopf", "N": 20, "output_dir": str(out)})
        assert main(["run", cfg]) == 0
        summary = read_summary(out)
        assert summary["experiment"] == "cole-hopf"
        assert summary["metrics"]["relative_l2"] < 0.1
        csv = Path(summary["artifacts"]["csv"]).read_text().splitlines()
        assert csv[0] == "x,u,w_true,w_learned,abs_err"
        assert len(csv) == 21

    def test_validation_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"experiment": "cole-hopf", "N": 0, "output_dir": str(tmp_path / "o")})
        assert main(["run", cfg]) == 2

    def test_unknown_experiment(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"experiment": "nope"})
        assert main(["run", cfg]) == 2

    @pytest.mark.parametrize("cfg", [
        {"experiment": "cole-hopf-multi", "ics": []},
        {"experiment": "brusselator-nf", "init_point": [0, 0], "n_samples": 20, "max_iters": 3},
        # a null theta means "learn it" to the map fits only; diagnose-norm's fixed kernel rejects it
        {"experiment": "diagnose-norm", "theta": None},
        # a u = 0 sample breaks the 1/u^2 precondition of the first-order equation
        {"experiment": "cgc-pde", "ic": "multi-2"},
        # json.load reads NaN and Infinity, and the schema's bounds let them through
        {"experiment": "cole-hopf-discrete", "dx": float("nan")},
        {"experiment": "brusselator-nf", "dt": float("nan"), "n_samples": 20, "max_iters": 3},
        {"experiment": "brusselator-nf", "A": float("nan"), "n_samples": 20, "max_iters": 3},
        {"experiment": "brusselator-nf", "init_point": [0.1, float("nan")], "n_samples": 20, "max_iters": 3},
        {"experiment": "cole-hopf", "theta": float("inf")},
        {"experiment": "diagnose-norm", "lam": float("inf")},
        # firstorder-paper has no field v0 to step
        {"experiment": "cole-hopf-discrete", "ic": "firstorder-paper"},
        # 4A^2 - (B - A^2 - 1)^2 overflows to -inf
        {"experiment": "brusselator-nf", "B": 1e200},
        # the grid's last node would sit at x = 1.005, outside the interval [0, 1]
        {"experiment": "cole-hopf-discrete", "dx": 0.015},
        # gen_dt has no effect, and the schema still bounds it
        {"experiment": "brusselator-nf", "gen_dt": 0.0},
        # 1 - exp(-1/(2 nu)) rounds to 0, so the Cole-Hopf truth is 0/0 at every evaluation point
        pytest.param({"experiment": "cole-hopf", "nu": 1e17},
                     marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
        pytest.param({"experiment": "cole-hopf-multi", "nu": 1e17, "theta": 1.0},
                     marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
        # no datum lies in the anchored interval [0, 1], where the error is measured
        {"experiment": "cole-hopf", "nu": 50},
        # the map fits take the automatic nugget, and first-order fits firstorder-paper, the one condition it can
        {"experiment": "first-order", "lam": 1e-7},
        {"experiment": "first-order", "ic": "firstorder-paper"},
    ])
    def test_degenerate_input_exits_2(self, tmp_path, cfg):
        out = tmp_path / "o"
        assert main(["run", write_config(tmp_path, "c.json", {**cfg, "output_dir": str(out)})]) == 2
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("case", ["config a directory", "config not UTF-8", "output dir a file",
                                      "interpolant a directory"])
    def test_unreadable_input_exits_2(self, tmp_path, capsys, case):
        config = write_config(tmp_path, "c.json", {"experiment": "cole-hopf", "output_dir": str(tmp_path / "o")})
        if case == "config a directory":
            argv = ["run", str(tmp_path)]
        elif case == "config not UTF-8":
            (tmp_path / "latin1.json").write_bytes('{"ic": "caf\u00e9"}'.encode("latin-1"))
            argv = ["run", str(tmp_path / "latin1.json")]
        elif case == "output dir a file":
            argv = ["run", config, "--output-dir", config]
        else:
            (tmp_path / "pts.csv").write_text("u\n0.5\n")
            argv = ["evaluate", str(tmp_path), "--points", str(tmp_path / "pts.csv"),
                    "--output", str(tmp_path / "vals.csv")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("invalid configuration: ")

    def test_config_schema_rejects_unknown_keys(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"experiment": "cole-hopf", "NN": 25})
        assert main(["run", cfg]) == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numerical_failure_exit_code(self, tmp_path):
        configs = [
            # a state whose square overflows makes the trajectory's Taylor coefficients non-finite
            {"experiment": "brusselator-nf", "init_point": [1e200, 1e200], "n_samples": 20},
            # s^4 = (sqrt(5) / theta)^4 overflows, so the Gram and its factor hold NaN
            {"experiment": "cole-hopf", "theta": 1e-100},
            {"experiment": "diagnose-norm", "theta": 1e-300},
        ]
        for i, cfg in enumerate(configs):
            out = tmp_path / f"o{i}"
            assert main(["run", write_config(tmp_path, "c.json", {**cfg, "output_dir": str(out)})]) == 3, cfg
            assert not (out / "summary.json").exists()
            assert not (out / "interpolant.json").exists()

    def test_gen_dt_has_no_effect(self, tmp_path):
        # the key is still declared and validated; the trajectory takes its steps from its Taylor coefficients
        csvs = []
        for gen_dt in (1e-3, 1e-2):
            out = tmp_path / f"o{gen_dt}"
            cfg = {"experiment": "brusselator-nf", "n_samples": 60, "gen_dt": gen_dt, "output_dir": str(out)}
            assert main(["run", write_config(tmp_path, "c.json", cfg)]) == 0
            csvs.append((out / "brusselator_nf.csv").read_bytes())
        assert csvs[0] == csvs[1]

    def test_flag_overrides_file(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, "c.json", {"experiment": "cole-hopf", "N": 10, "output_dir": str(out)})
        assert main(["run", cfg, "--N", "15"]) == 0
        assert read_summary(out)["parameters"]["N"] == 15

    def test_theta_null_flag_learns(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, "c.json", {"experiment": "cole-hopf", "N": 25, "output_dir": str(out)})
        assert main(["run", cfg, "--theta", "null"]) == 0
        summary = read_summary(out)
        assert summary["metrics"]["theta_learned"] == pytest.approx(23.07866596496041, rel=1e-9)
        assert summary["parameters"]["theta"] == summary["metrics"]["theta_learned"]
        assert summary["metrics"]["relative_l2"] < 3e-3

    @pytest.mark.parametrize("experiment", ["cole-hopf", "cole-hopf-discrete", "cole-hopf-multi", "first-order"])
    def test_a_given_theta_is_the_fit_lengthscale(self, tmp_path, experiment):
        # a number is used as it is, over a learning default too: no key is read and then ignored
        out = tmp_path / "out"
        cfg = {"experiment": experiment, "theta": 5.0, "output_dir": str(out)}
        if experiment == "cole-hopf-multi":
            cfg["points_per_ic"] = 11
        assert main(["run", write_config(tmp_path, "c.json", cfg), "--theta", "2.5"]) == 0
        summary = read_summary(out)
        assert summary["parameters"]["theta"] == 2.5
        assert summary["metrics"]["theta_learned"] is None and "rho_star" not in summary["metrics"]
        assert json.loads((out / "interpolant.json").read_text())["kernel"]["theta"] == 2.5

    def test_far_brusselator_start_exits_3_within_a_second(self, tmp_path, capsys):
        # from (1000, 0) q relaxes onto B / p at rate p^2, and the 11 samples would take 108,541 substeps
        # (about 3 s); the trajectory's budget of 64 substeps per sample interval stops it first
        out = tmp_path / "o"
        cfg = {"experiment": "brusselator-nf", "init_point": [1000.0, 0.0], "n_samples": 11, "output_dir": str(out)}
        start = time.perf_counter()
        assert main(["run", write_config(tmp_path, "c.json", cfg)]) == 3
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "budget of 640 substeps" in err and "init_point (1000.0, 0.0)" in err and "with substep" in err
        assert not (out / "summary.json").exists()

    def test_deterministic_artifacts(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            cfg = write_config(tmp_path, "c.json", {"experiment": "first-order", "N": 30, "output_dir": str(out)})
            assert main(["run", cfg]) == 0
        assert (out1 / "first_order.csv").read_bytes() == (out2 / "first_order.csv").read_bytes()
        assert (out1 / "interpolant.json").read_bytes() == (out2 / "interpolant.json").read_bytes()

    def test_gram_factored_once_per_run(self, tmp_path, monkeypatch):
        # the fit's solve also yields the reported RKHS norm
        calls = []
        factor = gp._factor_with_escalation

        def counting(gram, lam):
            calls.append(lam)
            return factor(gram, lam)

        monkeypatch.setattr(gp, "_factor_with_escalation", counting)
        run_experiment({"experiment": "first-order", "N": 30, "output_dir": str(tmp_path / "out")})
        assert len(calls) == 1

    @pytest.mark.parametrize("cfg", [
        {"experiment": "cole-hopf"},
        {"experiment": "cole-hopf-discrete", "dx": 0.05},
        {"experiment": "cole-hopf-multi", "points_per_ic": 11, "theta": 1.0},
        {"experiment": "first-order", "N": 30},
        {"experiment": "cgc-pde", "N": 25},
    ])
    def test_summary_reports_the_saved_nugget(self, tmp_path, cfg):
        # the nugget each saved map was solved with: the fits' automatic one, cgc-pde's unit ridge
        out = tmp_path / "out"
        nugget = run_experiment({**cfg, "output_dir": str(out)})["metrics"]["nugget"]
        assert nugget == json.loads((out / "interpolant.json").read_text())["nugget"]
        assert read_summary(out)["metrics"]["nugget"] == nugget
        assert (nugget == 1.0) == (cfg["experiment"] == "cgc-pde")

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GPMAPS_OUTPUT_DIR", str(tmp_path / "env-out"))
        cfg = write_config(tmp_path, "c.json", {"experiment": "first-order", "N": 10})
        assert main(["run", cfg]) == 0
        assert (tmp_path / "env-out" / "summary.json").exists()

    def test_diagnose_norm(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path, "c.json",
            {"experiment": "diagnose-norm", "N_list": [50, 100], "output_dir": str(out)},
        )
        assert main(["run", cfg]) == 0
        summary = read_summary(out)
        assert summary["metrics"]["growth_ratio"] < 1.5
        cfg2 = write_config(
            tmp_path, "c2.json",
            {"experiment": "diagnose-norm", "N_list": [50, 100], "inconsistent": True, "output_dir": str(out)},
        )
        assert main(["run", cfg2]) == 0
        assert read_summary(out)["metrics"]["growth_ratio"] > 1.5

    def test_summary_schema_validates(self, tmp_path):
        import importlib.resources

        from jsonschema import validate

        out = tmp_path / "out"
        cfg = write_config(tmp_path, "c.json", {"experiment": "cole-hopf-discrete", "dx": 0.05, "output_dir": str(out)})
        assert main(["run", cfg]) == 0
        schema = json.loads((importlib.resources.files("gpmaps") / "schemas" / "summary.schema.json").read_text())
        validate(instance=read_summary(out), schema=schema)


def run_in_subprocess(tmp_path, name, cfg, blas_threads):
    """Run ``cfg`` in a fresh interpreter with ``blas_threads`` OpenBLAS threads; returns its output dir."""
    src = str(Path(gp.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(blas_threads),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / name
    config = write_config(tmp_path, f"{name}.json", {**cfg, "output_dir": str(out)})
    subprocess.run([sys.executable, "-m", "gpmaps.cli", "run", config], env=env, capture_output=True, check=True)
    return out


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 CPUs to run OpenBLAS on 2 threads")
def test_blas_thread_count_moves_the_pooled_fit_within_its_bounds(tmp_path):
    # Bit-reproducible at a fixed thread count; across counts, BLAS sums in another order. With OpenBLAS
    # 0.3.31 the pooled fit at 1 and 2 threads had the same theta*, relative_l2 4.6e-7 apart (relative)
    # and fitted values 8.9e-11 of their largest apart; the bounds below are ten times that spread or more.
    cfg = {"experiment": "cole-hopf-multi"}
    one, two, again = (run_in_subprocess(tmp_path, name, cfg, n) for name, n in (("one", 1), ("two", 2), ("again", 2)))
    for name in ("cole_hopf_multi.csv", "interpolant.json"):
        assert (two / name).read_bytes() == (again / name).read_bytes()
    m1, m2, m2_again = ({**read_summary(out)["metrics"], "wall_time_s": 0.0} for out in (one, two, again))
    assert m2 == m2_again
    assert m1["theta_learned"] == m2["theta_learned"]
    assert m2["relative_l2"] == pytest.approx(m1["relative_l2"], rel=5e-6, abs=0)
    w1, w2 = (np.loadtxt(out / "cole_hopf_multi.csv", delimiter=",", skiprows=1, usecols=4) for out in (one, two))
    assert np.max(np.abs(w1 - w2)) <= 1e-9 * np.max(np.abs(w1))


#: A schema key, with a valid value, that each experiment does not read.
UNREAD_KEY = {
    "cole-hopf": ("A", 7.0),
    "cole-hopf-discrete": ("N", 20),
    "cole-hopf-multi": ("N", 20),
    "first-order": ("nu", 0.5),
    "cgc-pde": ("A", 7.0),
    "brusselator-nf": ("N", 20),
    "diagnose-norm": ("max_iters", 3),
    "table1": ("max_iters", 3),
}


class TestConfigContract:
    def test_every_experiment_has_an_unread_key(self):
        assert sorted(UNREAD_KEY) == sorted([*EXPERIMENTS, "table1"])

    @pytest.mark.parametrize("experiment", sorted(UNREAD_KEY))
    def test_unread_key_is_rejected(self, tmp_path, experiment):
        key, value = UNREAD_KEY[experiment]
        cfg = {"output_dir": str(tmp_path / "o"), key: value}
        command, runner = ("table1", run_table1) if experiment == "table1" else ("run", run_experiment)
        if experiment != "table1":
            cfg["experiment"] = experiment
        assert main([command, write_config(tmp_path, "c.json", cfg)]) == 2
        with pytest.raises(InvalidInputError, match=f"does not read {key}"):
            runner(cfg)

    def test_every_unread_key_is_named(self, tmp_path):
        cfg = {"experiment": "first-order", "B": 5, "max_iters": 3, "A": 7, "output_dir": str(tmp_path / "o")}
        assert main(["run", write_config(tmp_path, "c.json", cfg)]) == 2
        with pytest.raises(InvalidInputError, match="first-order does not read A, B, max_iters$"):
            run_experiment(cfg)

    @pytest.mark.parametrize("key, value", [("N", 0), ("N", "20x"), ("nu", -1)])
    def test_api_validates_against_the_schema(self, tmp_path, key, value):
        with pytest.raises(InvalidInputError):
            run_experiment({"experiment": "cole-hopf", key: value, "output_dir": str(tmp_path / "o")})

    @pytest.mark.parametrize("cfg, flag, value, expected", [
        ({"experiment": "cgc-pde", "N": 10, "max_iters": 5}, "--max-iters", "7", 7),
        ({"experiment": "brusselator-nf", "n_samples": 60, "gen_dt": 1e-3, "max_iters": 5}, "--gen-dt", "0.002", 0.002),
        ({"experiment": "diagnose-norm"}, "--N-list", "[50, 100]", [50, 100]),
        # nullable keys parse JSON, so a flag's null overrides the file's number
        ({"experiment": "diagnose-norm", "N_list": [50, 100], "lam": 1e-8}, "--lam", "null", None),
        ({"experiment": "diagnose-norm", "N_list": [50, 100], "lam": 1e-8}, "--lam", "1e-9", 1e-9),
    ])
    def test_generated_flag_overrides_file(self, tmp_path, cfg, flag, value, expected):
        out = tmp_path / "out"
        path = write_config(tmp_path, "c.json", {**cfg, "output_dir": str(out)})
        assert main(["run", path, flag, value]) == 0
        key = flag[2:].replace("-", "_")
        assert read_summary(out)["parameters"][key] == expected


class TestTable1:
    def test_layout_and_ordering(self, tmp_path):
        out = tmp_path / "out"
        summary = run_table1({"N_list": [25, 50], "output_dir": str(out)})
        lines = (out / "table1.csv").read_text().splitlines()
        assert lines[0] == "row,N=25,N=50"
        assert lines[1].startswith("learning,") and lines[2].startswith("no_learning,")
        m = summary["metrics"]
        assert m["learning_N25"] < m["no_learning_N25"]
        assert m["learning_N50"] < m["no_learning_N50"]
        assert m["no_learning_N50"] < m["no_learning_N25"]

    def test_rejects_other_sizes(self, tmp_path):
        cfg = write_config(tmp_path, "t.json", {"N_list": [30], "output_dir": str(tmp_path / "o")})
        assert main(["table1", cfg]) == 2

    def test_rejects_empty(self, tmp_path):
        cfg = write_config(tmp_path, "t.json", {"N_list": [], "output_dir": str(tmp_path / "o")})
        assert main(["table1", cfg]) == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_rejects_a_truth_that_is_not_finite(self, tmp_path):
        # at nu = 1e17 the Cole-Hopf truth is 0/0 at every evaluation point
        out = tmp_path / "o"
        cfg = write_config(tmp_path, "t.json", {"N_list": [25], "nu": 1e17, "output_dir": str(out)})
        assert main(["table1", cfg]) == 2
        assert not (out / "summary.json").exists()

    def test_rejects_a_null_theta_before_any_search(self, tmp_path, monkeypatch):
        # the fixed row needs a number; the config fails before the learned row's search
        def searching(*args, **kwargs):
            raise AssertionError("the lengthscale search ran")

        monkeypatch.setattr(cli, "learn_theta", searching)
        cfg = {"theta": None, "output_dir": str(tmp_path / "o")}
        with pytest.raises(InvalidInputError, match="lengthscale must be a positive finite real number"):
            run_table1(cfg)
        assert main(["table1", write_config(tmp_path, "t.json", cfg)]) == 2

    def test_rejects_repeated_sizes(self, tmp_path):
        # a repeated size would write two identical columns and one metric pair for both
        with pytest.raises(InvalidInputError, match="non-unique"):
            run_table1({"N_list": [25, 25], "output_dir": str(tmp_path / "o")})
        cfg = write_config(tmp_path, "t.json", {"N_list": [25, 25], "output_dir": str(tmp_path / "o")})
        assert main(["table1", cfg]) == 2


class TestEvaluate:
    def test_round_trip(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, "c.json", {"experiment": "first-order", "N": 20, "output_dir": str(out)})
        assert main(["run", cfg]) == 0
        pts = tmp_path / "pts.csv"
        pts.write_text("u\n1.0\n1.2\n1.5\n")
        dest = tmp_path / "vals.csv"
        assert main(["evaluate", str(out / "interpolant.json"), "--points", str(pts), "--output", str(dest)]) == 0
        rows = dest.read_text().splitlines()
        assert rows[0] == "u,value"
        val_at_1 = float(rows[1].split(",")[1])
        assert val_at_1 == pytest.approx(1.0, abs=1e-4)

    def test_derivative_evaluation(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, "c.json", {"experiment": "first-order", "N": 20, "output_dir": str(out)})
        assert main(["run", cfg]) == 0
        pts = tmp_path / "pts.csv"
        pts.write_text("u\n1.3\n")
        dest = tmp_path / "vals.csv"
        assert main(["evaluate", str(out / "interpolant.json"), "--points", str(pts),
                     "--deriv", "1", "--output", str(dest)]) == 0
        deriv = float(dest.read_text().splitlines()[1].split(",")[1])
        # G' = u^2 G for the underlying map
        from gpmaps.transforms import first_order_truth

        assert deriv == pytest.approx(1.3**2 * first_order_truth(1.3), rel=1e-2)

    def test_missing_interpolant(self, tmp_path):
        assert main(["evaluate", str(tmp_path / "missing.json"), "--points", str(tmp_path / "p.csv")]) == 2

    @pytest.mark.parametrize("deriv", ["3", "-1"])
    def test_unsupported_derivative_order(self, tmp_path, deriv):
        system = gp.ConstraintSystem((gp.LinearFunctional.dirac(0.0), gp.LinearFunctional.dirac(1.0)), [1.0, 0.0])
        interp = tmp_path / "interpolant.json"
        interp.write_text(json.dumps(gp.interpolant_to_config(gp.fit(system, Matern52(1.0)))))
        pts = tmp_path / "pts.csv"
        pts.write_text("u\n0.5\n")
        assert main(["evaluate", str(interp), "--points", str(pts), "--deriv", deriv,
                     "--output", str(tmp_path / "vals.csv")]) == 2

    @pytest.mark.parametrize("case", ["points abc", "interpolant a list", "order x", "order 1.5", "theta inf",
                                      "points nan", "nested layout", "points header only"])
    def test_malformed_input_exits_2(self, tmp_path, case):
        system = gp.ConstraintSystem((gp.LinearFunctional.dirac(0.0), gp.LinearFunctional.dirac(1.0)), [1.0, 0.0])
        cfg = gp.interpolant_to_config(gp.fit(system, Matern52(1.0)))
        points = {"points abc": "u\nabc\n", "points nan": "u\n0.5\nnan\n", "points header only": "u\n"}.get(
            case, "u\n0.5\n")
        if case == "interpolant a list":
            cfg = [cfg]
        elif case.startswith("order"):
            cfg["order"][0] = "x" if case == "order x" else 1.5
        elif case == "theta inf":
            cfg["kernel"]["theta"] = float("inf")
        elif case == "nested layout":  # the layout of earlier versions: [location, order, weight] per term
            cfg = {"kernel": cfg["kernel"], "functionals": [[[0.0, 0, 1.0]], [[1.0, 0, 1.0]]],
                   "alpha": cfg["alpha"], "nugget": cfg["nugget"]}
        interp = tmp_path / "interpolant.json"
        interp.write_text(json.dumps(cfg))
        pts = tmp_path / "pts.csv"
        pts.write_text(points)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # silent by default: a warning, such as numpy's on an empty file, raises
            assert main(["evaluate", str(interp), "--points", str(pts), "--output", str(tmp_path / "vals.csv")]) == 2
        assert not (tmp_path / "vals.csv").exists()


class TestCgcExperiments:
    def test_cgc_pde_runs_and_reports(self, tmp_path):
        out = tmp_path / "out"
        summary = run_experiment({
            "experiment": "cgc-pde", "N": 25, "max_iters": 400, "output_dir": str(out),
        })
        metrics = summary["metrics"]
        assert "a_learned" in metrics
        # the exact solve converges well inside the cap
        assert metrics["converged"] is True
        assert metrics["stop_reason"] != "max_iters"
        assert metrics["iterations"] < 400
        assert summary["parameters"]["weights"][0] == 0.0
        lines = (out / "cgc_pde.csv").read_text().splitlines()
        assert lines[0] == "u,G_learned,G_truth"
        assert len(lines) == 26

    @pytest.mark.parametrize("experiment", ["cgc-pde", "brusselator-nf"])
    def test_paper_config_reports_a_vanishing_final_slope(self, tmp_path, experiment):
        # the profile's slope where the search stopped: f'(a), or f'(ln r0) for the normal form
        metrics = run_experiment({"experiment": experiment, "output_dir": str(tmp_path)})["metrics"]
        assert metrics["stop_reason"] == "bracket_closed"
        assert math.isfinite(metrics["final_slope"]) and abs(metrics["final_slope"]) <= 1e-9

    def test_cgc_pde_run_factors_once_per_a(self, tmp_path, monkeypatch):
        # one factorization for the identity map's fit and one per evaluated a:
        # the summary's terms and the saved map are the solve's own, not re-solved
        factorizations = []
        cholesky = gp.cholesky

        def counting(matrix):
            factorizations.append(matrix.shape)
            return cholesky(matrix)

        monkeypatch.setattr(gp, "cholesky", counting)
        summary = run_experiment({"experiment": "cgc-pde", "N": 25, "output_dir": str(tmp_path / "out")})
        m = summary["metrics"]
        assert len(factorizations) == m["iterations"] + 1
        assert m["loss_final"] == m["loss_norm_g"] + m["loss_a_prior"] + m["loss_l1"] + m["loss_l2"] + m["loss_anchor"]

    @pytest.mark.parametrize("key, value", [
        ("free_z", True), ("l2_squared", False), ("method", "nelder-mead"),
        ("ode_form", "appendix"), ("eval_domain", "anchored"), ("theta_grid", [0.5, 1.0]),
        ("refine_iters", 20), ("rho_nugget", 1e-8), ("lambda1", 1.0), ("lam", 1e-6),
        # the prior and the weights: every run used a^2 and weights balanced at the identity map
        ("gamma", 1.0), ("lambda2", 1.0), ("lambda2", -1.0), ("lambda3", 1.0),
    ])
    def test_cgc_pde_rejects_removed_options(self, tmp_path, key, value):
        cfg = write_config(tmp_path, "c.json", {
            "experiment": "cgc-pde", "N": 10, "max_iters": 5, "output_dir": str(tmp_path / "o"), key: value,
        })
        assert main(["run", cfg]) == 2

    def test_brusselator_nf_rejects_removed_options(self, tmp_path):
        # the decay-law weight: with the radius on its law the term is negligible, so it is always balanced
        cfg = write_config(tmp_path, "c.json", {
            "experiment": "brusselator-nf", "n_samples": 20, "max_iters": 5, "output_dir": str(tmp_path / "o"),
            "lambda2": 1.0,
        })
        assert main(["run", cfg]) == 2

    @pytest.mark.parametrize("key,value", [("lambda1", 1.0), ("lambda1", -1.0), ("lambda3", 1.0)])
    def test_brusselator_nf_rejects_removed_weights(self, tmp_path, key, value):
        # the fit and anchor weights are always balanced too: no run set them
        cfg = write_config(tmp_path, "c.json", {
            "experiment": "brusselator-nf", "n_samples": 20, "max_iters": 5, "output_dir": str(tmp_path / "o"),
            key: value,
        })
        assert main(["run", cfg]) == 2

    def test_cgc_pde_singular_map_system_exits_3(self, tmp_path, monkeypatch):
        def failing(matrix):
            raise np.linalg.LinAlgError("Matrix is not positive definite")  # numpy's report of a failed Cholesky

        monkeypatch.setattr(gp, "cholesky", failing)
        cfg = write_config(tmp_path, "c.json", {"experiment": "cgc-pde", "N": 10, "output_dir": str(tmp_path / "o")})
        assert main(["run", cfg]) == 3

    def test_singular_leave_one_out_gram_exits_3(self, tmp_path, monkeypatch):
        def failing(matrix):
            raise np.linalg.LinAlgError("Matrix is not positive definite")  # numpy's report of a failed Cholesky

        monkeypatch.setattr(gp, "cholesky", failing)
        cfg = write_config(tmp_path, "c.json", {"experiment": "cole-hopf-multi", "output_dir": str(tmp_path / "o")})
        assert main(["run", cfg]) == 3

    @pytest.mark.parametrize("solver, cfg, keys", [
        ("cgc_pde_solve", {"experiment": "cgc-pde", "N": 25},
         {"loss_norm_g": "norm_g", "loss_a_prior": "a_prior", "loss_l1": "l1_weighted", "loss_l2": "l2_weighted",
          "loss_anchor": "anchor_weighted"}),
        ("nf_solve", {"experiment": "brusselator-nf", "n_samples": 60, "max_iters": 50},
         {"loss_norm_h": "norm_h", "loss_l1": "l1_weighted", "loss_l2": "l2_weighted",
          "loss_anchor": "anchor_weighted"}),
    ])
    def test_summary_reports_each_weighted_term(self, tmp_path, monkeypatch, solver, cfg, keys):
        results = []
        solve = getattr(cgc, solver)

        def recording(*args, **kwargs):
            # the benchmark unpacks the solver's positional arguments as (problem,)
            assert len(args) == 1
            results.append(solve(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cgc, solver, recording)
        metrics = run_experiment({**cfg, "output_dir": str(tmp_path / "out")})["metrics"]
        assert len(results) == 1
        assert {k for k in metrics if k.startswith("loss_")} == {"loss_final", *keys}
        assert set(results[0].terms) == set(keys.values())  # terms only: the weights are in result.weights
        assert {k: metrics[k] for k in keys} == {k: results[0].terms[name] for k, name in keys.items()}

    def test_brusselator_nf_csv_schema(self, tmp_path):
        out = tmp_path / "out"
        summary = run_experiment({
            "experiment": "brusselator-nf", "n_samples": 60, "max_iters": 300, "output_dir": str(out),
        })
        weights = summary["parameters"]["weights"]
        assert len(weights) == 3 and all(np.isfinite(w) and w > 0 for w in weights)
        lines = (out / "brusselator_nf.csv").read_text().splitlines()
        assert lines[0] == "t,u,v,r_learned,r_exact,x_rec,y_rec"
        assert len(lines) == 61
        assert np.isfinite(summary["metrics"]["radius_learned"])
        assert summary["metrics"]["stop_reason"] in ("zero_slope", "bracket_closed", "max_iters")
        assert summary["metrics"]["converged"] == (summary["metrics"]["stop_reason"] != "max_iters")

    def test_brusselator_nf_reconstruction_turns_with_the_orbit(self, tmp_path):
        # far above the threshold the orbit turns clockwise at about 1.9 rad per unit time
        out = tmp_path / "out"
        summary = run_experiment({"experiment": "brusselator-nf", "A": 2.0, "B": 5.2, "n_samples": 300,
                                  "output_dir": str(out)})
        data = np.loadtxt(out / "brusselator_nf.csv", delimiter=",", skiprows=1)
        turn = [np.unwrap(np.arctan2(data[:, i + 1], data[:, i]))[[0, -1]] @ [-1.0, 1.0] for i in (1, 5)]
        assert turn[1] == pytest.approx(turn[0], rel=1e-12)
        assert turn[0] / data[-1, 0] == pytest.approx(-1.966, rel=1e-3)
        assert 0.0 < summary["metrics"]["phase_rms_rad"] < 0.6

    def test_brusselator_nf_non_finite_loss_exits_3(self, tmp_path, monkeypatch):
        # the third residual pass is the slope search's first step
        passes = []
        residuals = cgc._nf_residuals

        def non_finite(*args):
            passes.append(1)
            fit, ode, anchor = residuals(*args)
            return fit, ode * (np.nan if len(passes) == 3 else 1.0), anchor

        monkeypatch.setattr(cgc, "_nf_residuals", non_finite)
        cfg = write_config(tmp_path, "c.json", {"experiment": "brusselator-nf", "n_samples": 60,
                                                "output_dir": str(tmp_path / "o")})
        assert main(["run", cfg]) == 3
        assert len(passes) == 3
