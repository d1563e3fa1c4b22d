import argparse
import ast
import importlib
import importlib.resources
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gpmaps
from gpmaps import cgc, cli, dynamics, gp
from gpmaps.kernel_learning import REFINE_WIDTH, THETA_GRID
from gpmaps.kernels import Matern52


def test_exports_and_schema_enums_match_the_code():
    # every exported name exists, so a deletion cannot leave a stale export
    for info in pkgutil.iter_modules(gpmaps.__path__):
        module = importlib.import_module(f"gpmaps.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], f"gpmaps.{info.name}.__all__ names missing attributes: {missing}"

    # the schemas list the experiments the CLI runs, plus the table1 command
    expected = [*cli.EXPERIMENTS, "table1"]
    for name in ("config.schema.json", "summary.schema.json"):
        schema = json.loads((importlib.resources.files("gpmaps") / "schemas" / name).read_text())
        assert schema["properties"]["experiment"]["enum"] == expected, name


def _unused_imports(path):
    """Names a module imports and never reads; names listed in ``__all__`` count as read."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in sorted(imported.items()) if name not in used]


def test_no_unused_imports():
    root = Path(__file__).resolve().parents[1]
    # a package __init__ imports in order to re-export
    files = [f for d in ("src/gpmaps", "tests", "demos") for f in sorted((root / d).glob("*.py"))
             if f.name != "__init__.py"]
    assert len(files) > 20
    unused = [entry for f in files for entry in _unused_imports(f)]
    assert unused == []


def _demo_trees():
    """``{demo file name: parsed module}`` for every demo script."""
    root = Path(__file__).resolve().parents[1]
    demos = sorted((root / "demos").glob("*.py"))
    assert demos
    return {path.name: ast.parse(path.read_text()) for path in demos}


def _gpmaps_imports(tree):
    """``(node, module, alias)`` for every name a module imports from gpmaps."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "gpmaps":
            module = importlib.import_module(node.module)
            yield from ((node, module, alias) for alias in node.names)


def test_demo_imports_from_gpmaps_exist():
    # no test runs the demos (together they take seconds), so a deleted or renamed
    # name would otherwise break a demo silently
    missing = [f"{name}:{node.lineno} {module.__name__}.{alias.name}" for name, tree in _demo_trees().items()
               for node, module, alias in _gpmaps_imports(tree) if not hasattr(module, alias.name)]
    assert missing == []


def test_demo_keywords_match_the_signatures():
    # likewise a removed or renamed parameter: every keyword a demo passes to a
    # name it imports from gpmaps must be a parameter of that name
    unknown = []
    for name, tree in _demo_trees().items():
        params = {}
        for _, module, alias in _gpmaps_imports(tree):
            obj = getattr(module, alias.name)
            sig = inspect.signature(obj) if callable(obj) else None
            if sig and not any(p.kind is p.VAR_KEYWORD for p in sig.parameters.values()):
                params[alias.asname or alias.name] = set(sig.parameters)
        unknown += [f"{name}:{node.lineno} {node.func.id}({kw.arg}=)" for node in ast.walk(tree)
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in params
                    for kw in node.keywords if kw.arg is not None and kw.arg not in params[node.func.id]]
    assert unknown == []


def test_cli_import_leaves_out_scipy():
    # gpmaps factors and solves through numpy alone: importing scipy.linalg would
    # add about 0.3 s and 26 MB of peak memory to every CLI start, and no module
    # of the library may import any part of scipy, at module level or in a function
    src = str(Path(gpmaps.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = "import sys, gpmaps.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
    imports = []
    for f in sorted(Path(src, "gpmaps").glob("*.py")):
        for node in ast.walk(ast.parse(f.read_text())):
            if isinstance(node, ast.Import):
                imports += [f"{f.name}:{node.lineno} {a.name}" for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                imports.append(f"{f.name}:{node.lineno} {node.module}")
    assert [i for i in imports if i.split()[1].split(".")[0] == "scipy"] == []
    assert any(i.endswith(" numpy") for i in imports)


def test_config_keys_schema_and_flags_agree():
    props = set(cli._validator("config.schema.json").schema["properties"])
    declared = {key for _, keys in cli._RUNNERS.values() for key in keys}
    # every declared key is a schema key, and every schema key is read by some experiment
    assert declared <= props
    assert props - declared == {"experiment"}
    # the run command has exactly one flag per schema key
    parser = cli._build_parser()
    run = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices["run"]
    flags = [a.dest for a in run._actions if a.option_strings and a.dest != "help"]
    assert sorted(flags) == sorted(props)


def test_library_has_no_scatter_adds_inverses_or_tril_copies():
    # Grams are built blockwise, not by np.add.at scatters; rho_loo works from
    # a Cholesky factor, with no explicit inverse and no np.tril copy of it
    root = Path(__file__).resolve().parents[1]
    banned = re.compile(r"\bnp\.(add\.at|linalg\.inv|tril)\b")
    found = [f"{f.name}:{i} {m.group(0)}" for f in sorted((root / "src/gpmaps").glob("*.py"))
             for i, line in enumerate(f.read_text().splitlines(), 1) for m in banned.finditer(line)]
    assert found == []


def test_factorizations_live_in_gp():
    # every Cholesky factorization is gp._cholesky, so the nugget shift and the
    # failure report exist once; other modules call it and solve with its factor
    root = Path(__file__).resolve().parents[1]
    banned = {"cho_factor", "dpotrf", "cholesky"}
    files = sorted((root / "src/gpmaps").glob("*.py"))
    assert len(files) > 5
    found = []
    for f in files:
        tree = ast.parse(f.read_text())
        core = {id(n) for d in tree.body if f.name == "gp.py" and getattr(d, "name", None) == "_cholesky"
                for n in ast.walk(d)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [] if f.name == "gp.py" else [a.name.split(".")[-1] for a in node.names]
            else:
                names = [] if id(node) in core else [getattr(node, "id", None) or getattr(node, "attr", None)]
            found += [f"{f.name}:{node.lineno} {name}" for name in names if name in banned]
    assert found == []


def _private_definitions(tree):
    """Module-level private functions, classes and constants that no decorator registers."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [] if node.decorator_list else [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            names = []
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


def test_no_unreferenced_private_helpers():
    # a private helper that nothing in the package reads is dead code
    root = Path(__file__).resolve().parents[1]
    trees = {f.name: ast.parse(f.read_text()) for f in sorted((root / "src/gpmaps").glob("*.py"))}
    assert len(trees) > 5
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = [f"{name}:{helper}" for name, tree in trees.items() for helper in _private_definitions(tree)
              if helper not in read]
    assert unread == []


def _reads(tree):
    """``(identifier, node)`` for every name a module reads and every attribute it names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node


def test_every_public_name_has_a_caller_outside_tests():
    # a public function or class that only the tests call is a test reference, and
    # lives beside them in tests/oracles.py. A name counts as called when another
    # library module reads it (a re-export by import does not count), its own module
    # reads it outside its own definition, or a demo or a benchmark script names it;
    # the benchmark's strings count too, since bench/spans.LAYERS names attributes as strings
    root = Path(__file__).resolve().parents[1]
    trees = {f.name: ast.parse(f.read_text()) for f in sorted((root / "src/gpmaps").glob("*.py"))}
    assert len(trees) > 5
    outside = set()
    for f in sorted((root / "demos").glob("*.py")) + sorted((root / "bench").glob("*.py")):
        tree = ast.parse(f.read_text())
        outside.update(ident for ident, _ in _reads(tree))
        if f.parent.name == "bench":
            outside.update(n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str))
    assert {"fit", "rk4", "nf_loss"} <= outside
    uncalled = []
    for name, tree in trees.items():
        public = {}  # name: the ids of its definition's nodes, none for an __all__ entry defined otherwise
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                public[node.name] = {id(n) for n in ast.walk(node)}
            elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                public.update((entry, public.get(entry, set())) for entry in ast.literal_eval(node.value))
        elsewhere = {ident for other, t in trees.items() if other != name for ident, _ in _reads(t)}
        here = [(ident, id(node)) for ident, node in _reads(tree)]
        uncalled += [f"{name}:{entry}" for entry, nodes in public.items() if entry not in outside | elsewhere
                     and not any(ident == entry and i not in nodes for ident, i in here)]
    assert uncalled == []


def test_readme_states_the_theta_search_budget():
    # the README's count of the lengthscale search follows the module constants
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    for phrase in (f"{len(THETA_GRID)} log-spaced lengthscales", f"bracket is {REFINE_WIDTH:g} wide",
                   f"lattice of step {REFINE_WIDTH / 2:g}"):
        assert phrase in readme


def test_readme_cli_examples_match_the_cli():
    # the config example resolves with every key read, and each flag of the `gpmaps run` line exists
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command-line interface", 1)[1].split("\n## ", 1)[0]
    cfg = json.loads(re.search(r"```json\n(.*?)\n```", section, re.S)[1])
    experiment, resolved = cli._resolve(cfg, cli.EXPERIMENTS)
    assert experiment == cfg["experiment"] and cfg.keys() - {"experiment"} <= resolved.keys()
    run_line = next(line for line in section.splitlines() if line.startswith("gpmaps run "))
    flags = set(re.findall(r"--[\w-]+", run_line))
    parser = cli._build_parser()
    run = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices["run"]
    assert flags and flags <= {option for action in run._actions for option in action.option_strings}


def test_readme_states_the_interpolant_layout():
    # the README lists the keys of interpolant.json in the order the writer writes them
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    quoted = re.search(r"saves its map as `interpolant\.json`, one column per key: ((?:`\w+`, )+`\w+`)\.", readme)
    assert quoted is not None
    system = gp.ConstraintSystem((gp.LinearFunctional.dirac(0.0),), [1.0])
    written = gp.interpolant_to_config(gp.fit(system, Matern52(1.0)))
    assert re.findall(r"`(\w+)`", quoted[1]) == list(written)


def test_readme_states_the_cgc_pde_result():
    # the README quotes the default cgc-pde solve; its stop reason and slope
    # count are left out, since the rounding of the Gram can flip them
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    quoted = re.search(r"a = (-?\d+\.\d+) with loss (\d+\.\d+)", readme)
    assert quoted is not None
    _, u_data = dynamics.get_initial_condition("firstorder-paper").sample(100)
    result = cgc.cgc_pde_solve(cgc.CgcPdeProblem(u_data=u_data))
    assert float(quoted[1]) == pytest.approx(result.state.a, rel=1e-12)
    assert quoted[2] == f"{result.loss_trace[-1]:.4f}"


def test_readme_states_the_cgc_pde_profile():
    # the README's other numbers of the default cgc-pde profile: its global
    # minimum (where the slope changes sign within the quoted digits) and f(-1)
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    quoted = re.search(r"its global minimum lies near a = \+([\d.]+) \(loss ([\d.]+)\), on the wrong-sign branch, "
                       r"while the best map at a = -1 costs ([\d.]+)\.", readme)
    assert quoted is not None
    a_other, loss_other, loss_truth = quoted.groups()

    def as_quoted(value, text):
        return f"{value:.{len(text.split('.')[1])}f}" == text

    _, u_data = dynamics.get_initial_condition("firstorder-paper").sample(100)
    problem = cgc.CgcPdeProblem(u_data=u_data)
    scaled = cgc._scaled(problem, cgc.cgc_pde_solve(problem).weights)

    def at(a):
        return cgc._evaluate(problem, scaled, a)

    half_digit = 0.5 * 10.0 ** -len(a_other.split(".")[1])
    assert as_quoted(at(float(a_other)).loss, loss_other)
    assert at(float(a_other) - half_digit).slope < 0.0 < at(float(a_other) + half_digit).slope
    assert as_quoted(at(-1.0).loss, loss_truth)
    # f(a) >= a^2 exceeds the quoted loss beyond the grid's ends, and on the grid nothing costs less
    grid = np.linspace(-1.5, 1.5, 301)
    least = float(loss_other) - 0.5 * 10.0 ** -len(loss_other.split(".")[1])
    assert grid[-1] ** 2 > float(loss_other) and min(at(a).loss for a in grid) >= least


def test_readme_states_the_normal_form_result():
    # the README quotes the paper-configuration normal-form solve; its slope
    # count is left out, since the rounding of the loss can move it
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    quoted = re.search(r"at r0 = ([\d.]+), with loss ([\d.]+) \(([\d.]+) at the start\)\. .* `relative_l2` "
                       r"\(([\d.]+),.* misses its own radius by about (\d+)% .* anchor term carries (\d+) of the loss",
                       readme)
    assert quoted is not None
    problem = cgc.NfProblem(dynamics.brusselator_trajectory(1.0, 2.1), dynamics.mu_from_AB(1.0, 2.1))
    result = cgc.nf_solve(problem)
    r, times = result.state.r_values, problem.trajectory.times
    late = times >= 0.5 * times[-1]
    r_ex = dynamics.r_exact(problem.r0_target, problem.mu, times)[late]
    miss = cgc.nf_h_values(problem, result.state.h_coeffs, problem.trajectory.states) - r
    assert quoted.groups() == (
        f"{result.r0:.6f}", f"{result.loss_trace[-1]:.2f}", f"{result.loss_trace[0]:.2f}",
        f"{np.linalg.norm(r[late] - r_ex) / np.linalg.norm(r_ex):.4f}",
        f"{100 * np.linalg.norm(miss) / np.linalg.norm(r):.0f}", f"{result.terms['anchor_weighted']:.0f}")


def test_package_logs_nothing_by_default():
    # a library leaves logging to its application: the gpmaps logger has a null
    # handler, so an unconfigured run does not print the edge warning of learn_theta
    src = str(Path(gpmaps.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = ("from gpmaps.kernel_learning import learn_theta; from gpmaps.transforms import first_order_problem; "
             "p = first_order_problem(100); learn_theta(p.system, p.interior)")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stderr == ""


def test_benchmark_names_resolve_in_gpmaps():
    # the benchmark wraps each (module, attribute) of bench/spans.LAYERS and its
    # worker calls gpmaps modules by name; a refactor that unbinds one of them
    # makes the benchmark fail to install or to run, so both lists are read here
    bench = Path(__file__).resolve().parents[1] / "bench"
    spans = ast.parse((bench / "spans.py").read_text())
    layers = next(node.value for node in spans.body if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "LAYERS" for t in node.targets))
    wrapped = {(entry.elts[1].value, entry.elts[2].value) for entry in layers.elts}
    worker = ast.parse((bench / "worker.py").read_text())
    modules = {alias.asname or alias.name: f"gpmaps.{alias.name}" for node in ast.walk(worker)
               if isinstance(node, ast.ImportFrom) and node.module == "gpmaps" for alias in node.names}
    called = {(modules[node.value.id], node.attr) for node in ast.walk(worker)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules}
    assert len(wrapped) > 15 and ("gpmaps.gp", "fit") in called
    unbound = sorted(f"{module}.{attr}" for module, attr in wrapped | called
                     if not hasattr(importlib.import_module(module), attr))
    assert unbound == []


def test_benchmark_configs_resolve_with_every_key_read():
    # the benchmark runs each experiment through the CLI with dict literals of
    # its own; a key the experiment no longer reads would fail every pass, so
    # each is resolved here, with the module constants it names and each key
    # of a dict it loops over (the map fits' names) filled in
    worker = ast.parse((Path(__file__).resolve().parents[1] / "bench" / "worker.py").read_text())
    constants = {target.id: node.value.value for node in worker.body if isinstance(node, ast.Assign)
                 and isinstance(node.value, ast.Constant) for target in node.targets}
    configs = []
    for function in (node for node in worker.body if isinstance(node, ast.FunctionDef)):
        literals = {target.id: node.value for node in ast.walk(function) if isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Dict) for target in node.targets if isinstance(target, ast.Name)}
        loops = []  # a loop variable's values: the keys of the dict literal it loops over
        for node in ast.walk(function):
            looped = getattr(getattr(getattr(node, "iter", None), "func", None), "value", None)
            if isinstance(node, ast.For) and getattr(looped, "id", None) in literals:  # for name, _ in a.items()
                loops = [{node.target.elts[0].id: ast.literal_eval(key)} for key in literals[looped.id].keys]
        for call in ast.walk(function):
            if isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "experiment":
                arg = call.args[0]
                code = compile(ast.Expression(literals[arg.id] if isinstance(arg, ast.Name) else arg), "worker", "eval")
                table1 = any(k.arg == "table1" and k.value.value for k in call.keywords)
                uses = [loop for loop in loops if loop.keys() & set(code.co_names)] or [{}]
                configs += [(eval(code, {"__builtins__": {}}, {**constants, **loop}), table1) for loop in uses]
    # table1, cgc-pde, brusselator-nf, the three map fits and diagnose-norm
    assert len(configs) == 7 and {"CGC_PDE_MAX_ITERS", "NF_MAX_ITERS"} <= constants.keys()
    for cfg, table1 in configs:
        cfg = {**cfg, "seed": 1, "output_dir": "out"}  # as the worker's Pass.experiment adds them
        experiments, default = (("table1",), "table1") if table1 else (cli.EXPERIMENTS, None)
        experiment, resolved = cli._resolve(cfg, experiments, default)
        assert cfg.keys() - {"experiment"} <= resolved.keys(), experiment
