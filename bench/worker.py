"""One benchmark pass of one workload, in a fresh interpreter.

Run by ``bench/run.py``; prints one JSON line with the pass's timings,
output-check results and, for a traced pass, its per-layer statistics.
A fresh interpreter per pass makes each pass pay the set-up a CLI user
pays, gives each pass its own peak memory, and keeps any cache the library
builds from carrying over into the next pass.

    python3 bench/worker.py --workload cgc-pde --seed 0 --trace 0 --out .bench_out/x
    python3 bench/worker.py --setup-only

An untraced pass also runs the speed probe (``speed.py``) and reports its
times in reference units as well as in seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import importlib.metadata  # noqa: E402
import importlib.resources  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from gpmaps import cgc, cli, gp  # noqa: E402

#: Fixed descent budgets. The acceptance defaults (40000 and 15000 steps)
#: take minutes; these keep one pass near ten seconds and stay the same on
#: every commit so that passes compare.
CGC_PDE_MAX_ITERS = 1000
NF_MAX_ITERS = 1000

#: Read phase: calls per pass and points per call (each call evaluates the
#: value and the first and second derivatives at every point).
READ_CALLS = 120
READ_POINTS = 200


class Capture:
    """Keeps the in-memory results the output checks compare the saved files with."""

    def __init__(self):
        self.pde = None
        self.nf = None
        self.fit = None

    def install(self):
        def keep(attr, fn):
            def captured(*args, **kwargs):
                result = fn(*args, **kwargs)
                setattr(self, attr, (args, result))
                return result

            return captured

        spans.rebind(cgc.cgc_pde_solve, keep("pde", cgc.cgc_pde_solve))
        spans.rebind(cgc.nf_solve, keep("nf", cgc.nf_solve))
        spans.rebind(gp.fit, keep("fit", gp.fit))


class Pass:
    """Runs the operations of one pass: times them, checks them, counts failures."""

    def __init__(self, out, seed, tracer, probe):
        self.out = out
        self.seed = seed
        self.tracer = tracer
        self.probe = probe
        self.rng = np.random.default_rng(seed)
        self.capture = Capture()
        self.capture.install()
        self.schema = json.loads(
            (importlib.resources.files("gpmaps") / "schemas" / "summary.schema.json").read_text())
        self.attempted = 0
        self.failures = {}
        self.busy_s = 0.0
        self.calls = []  # (start, end, seconds) of every timed call
        self.read_ms = []
        self.read_ref = []
        self.named = {}

    def run(self, name, fn):
        """Time one library call; an exception marks the operation failed."""
        self.attempted += 1
        probed = self.probe.spent_s if self.probe else 0.0
        start = perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a raising experiment is a failed operation, not a crash
            self.check(name, [f"{type(exc).__name__}: {exc}"])
            result = None
        end = perf_counter()
        elapsed = end - start - ((self.probe.spent_s - probed) if self.probe else 0.0)
        self.busy_s += elapsed
        self.calls.append((start, end, elapsed))
        return result, elapsed

    def check(self, name, problems):
        """Mark the latest operation failed with the problems a check found (once per operation)."""
        for problem in problems:
            self.failures.setdefault(self.attempted, []).append(f"{name}: {problem}")

    def experiment(self, cfg, table1=False):
        """Run one experiment through the CLI entry points and validate its summary file."""
        name = "table1" if table1 else cfg["experiment"]
        out = self.out / name
        cfg = {**cfg, "seed": self.seed, "output_dir": str(out)}
        summary, _ = self.run(name, lambda: cli.run_table1(cfg) if table1 else cli.run_experiment(cfg))
        if summary is None:
            return None
        path = out / ("table1_summary.json" if table1 else "summary.json")
        with spans.paused(self.tracer):
            self.check(name, checks.summary_schema(json.loads(path.read_text()), self.schema))
        return summary

    def reference_s(self, reference, pts):
        """Time of one run of a read's reference work now, less any timer tick inside it."""
        probed = self.probe.spent_s
        start = perf_counter()
        reference(pts)
        return perf_counter() - start - (self.probe.spent_s - probed)

    def read_phase(self, sources):
        """READ_CALLS timed calls, cycling over ``sources`` of (name, draw, read, check, reference).

        The host's speed flips between two levels up to 1.6x apart from one
        10 ms to the next, faster than the timer samples it, and how much a
        flip slows a call depends on the kind of work. So an untraced pass
        runs the source's reference work, at the same points, right before
        and right after each read call, and converts the call at their mean
        speed.
        """
        for i in range(READ_CALLS):
            name, draw, read, check, reference = sources[i % len(sources)]
            pts = draw()
            before = self.reference_s(reference, pts) if self.probe else None
            values, elapsed = self.run(f"read {name}", lambda: read(pts))
            if self.probe:
                self.read_ref.append(elapsed * 0.5 * (1.0 / before + 1.0 / self.reference_s(reference, pts)))
            self.read_ms.append(1e3 * elapsed)
            if values is not None:
                with spans.paused(self.tracer):
                    self.check(f"read {name}", check(pts, values))

    def interpolant_source(self, name, path, in_memory):
        """Load a saved interpolant and evaluate it as ``gpmaps evaluate`` does, at seeded points."""
        locs = [t.location for f in in_memory.functionals for t in f.terms]
        lo, hi = min(locs), max(locs)

        def read(pts):
            with open(path) as fh:
                interp = gp.interpolant_from_config(json.load(fh))
            return [interp.evaluate(pts, order) for order in (0, 1, 2)]

        def check(pts, values):
            return [p for order, got in enumerate(values)
                    for p in checks.same_bits(in_memory.evaluate(pts, order), got,
                                              f"{name} round trip, derivative {order}")]

        return name, lambda: self.rng.uniform(lo, hi, READ_POINTS), read, check, lambda pts: speed.chunk()


def workload_cgc_pde(p):
    cfg = {"experiment": "cgc-pde", "N": 100, "ic": "firstorder-paper", "max_iters": CGC_PDE_MAX_ITERS}
    summary = p.experiment(cfg)
    if summary is None:
        return None
    (problem,), result = p.capture.pde
    m = summary["metrics"]
    with spans.paused(p.tracer):
        terms = cgc.cgc_pde_loss_terms(problem, result.state, result.weights)
        p.check("cgc-pde", checks.loss_trace(result.loss_trace) + checks.pde_loss_final(terms, m["loss_final"]))
    a_err = abs(m["a_learned"] + 1.0)
    p.named = {"a_err": a_err, "a_learned": m["a_learned"]}
    p.read_phase([p.interpolant_source("cgc-pde", summary["artifacts"]["interpolant"], result.interpolant)])
    return a_err


def workload_normal_form(p):
    cfg = {"experiment": "brusselator-nf", "A": 1.0, "B": 2.1, "n_samples": 2000, "dt": 0.1,
           "gen_dt": 1e-3, "max_iters": NF_MAX_ITERS}
    summary = p.experiment(cfg)
    if summary is None:
        return None
    (problem,), result = p.capture.nf
    m = summary["metrics"]
    coeffs = result.state.h_coeffs
    with spans.paused(p.tracer):
        terms = cgc.nf_loss_terms(problem, result.state, result.weights)
        h0 = cgc.nf_h_values(problem, coeffs, np.array([[0.0, 0.0]]))[0]
        p.check("brusselator-nf", checks.loss_trace(result.loss_trace) + checks.nf_loss_final(terms, m["loss_final"])
                + checks.h_at_origin(h0))
    p.named = {"radius_rel_l2": m["relative_l2"], "radius_learned": m["radius_learned"]}
    # The CLI saves no interpolant for this experiment; a read call
    # evaluates the learned quartic at seeded points inside the orbit's box.
    states = problem.trajectory.states
    lo, hi = states.min(axis=0), states.max(axis=0)

    def read(pts):
        return cgc.nf_h_values(problem, coeffs, pts)

    def check(pts, values):
        return checks.quartic_values(coeffs, pts, values)

    p.read_phase([("brusselator-nf", lambda: p.rng.uniform(lo, hi, (READ_POINTS, 2)), read, check, speed.quartic)])
    return m["relative_l2"]


def workload_map_fit(p):
    table = p.experiment({"N_list": [25, 50, 100, 200]}, table1=True)
    errors = {}
    sources = []
    if table is not None:
        m = table["metrics"]
        with spans.paused(p.tracer):
            p.check("table1", checks.table1(m, table["parameters"]["N_list"]))
        errors.update({k: v for k, v in m.items() if k.startswith(("learning_N", "no_learning_N"))})
    bounds = {"cole-hopf-multi": 1e-2, "cole-hopf-discrete": None, "first-order": 1e-2}
    for name, bound in bounds.items():
        summary = p.experiment({"experiment": name})
        if summary is None:
            continue
        rel = summary["metrics"]["relative_l2"]
        errors[name] = rel
        if bound is not None:
            with spans.paused(p.tracer):
                p.check(name, checks.relative_l2_at_most(rel, bound, name))
        _, interp = p.capture.fit
        sources.append(p.interpolant_source(name, summary["artifacts"]["interpolant"], interp))
    diag = p.experiment({"experiment": "diagnose-norm"})
    if diag is not None:
        p.check("diagnose-norm", checks.growth_ratio(diag["metrics"]["growth_ratio"]))
    if not sources or not errors:
        return None
    worst = max(errors, key=errors.get)
    p.named = {"rel_l2_max": errors[worst], "rel_l2_max_fit": worst}
    p.read_phase(sources)
    return errors[worst]


WORKLOADS = {"cgc-pde": workload_cgc_pde, "normal-form": workload_normal_form, "map-fit": workload_map_fit}


def environment():
    def blas(show_config):
        info = show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "jsonschema": importlib.metadata.version("jsonschema"),
        "blas_numpy": blas(np.show_config),
        "blas_scipy": blas(scipy.show_config),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def solver_stats(prefix, captured, loss_calls):
    """iterations, converged, loss_final and accept_ratio of a captured solve (zeros if none ran)."""
    if captured is None:
        return {f"{prefix}.{k}": 0 for k in ("iterations", "converged", "loss_final", "accept_ratio")}
    result = captured[1]
    return {
        f"{prefix}.iterations": result.iterations,
        f"{prefix}.converged": int(result.converged),
        f"{prefix}.loss_final": float(result.loss_trace[-1]),
        f"{prefix}.accept_ratio": (len(result.loss_trace) - 1) / max(loss_calls, 1),
    }


def layer_record(tracer, p):
    stats = tracer.layer_stats()
    record = {}
    for name, s in stats.items():
        record[f"{name}.calls"] = s["calls"]
        record[f"{name}.self_s"] = s["self_s"]
        record[f"{name}.total_s"] = s["total_s"]
    record.update(tracer.counters)
    record.update(solver_stats("cgc.pde", p.capture.pde, stats.get("cgc.cgc_pde_loss", {}).get("calls", 0)))
    record.update(solver_stats("cgc.nf", p.capture.nf, stats.get("cgc.nf_loss", {}).get("calls", 0)))
    record["cli.write.bytes"] = sum(f.stat().st_size for f in p.out.rglob("*") if f.is_file())
    record["trace.spans"] = len(tracer.spans)
    return record


def main(argv=None):
    t_ready = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if not args.setup_only and (args.workload is None or args.out is None):
        parser.error("--workload and --out are required unless --setup-only")
    record = {"t_ready": t_ready, "chunks_per_s": speed.calibrate()}
    if not args.setup_only:
        nproc = len(os.sched_getaffinity(0))
        # one core for the whole pass, so it never migrates; the last one,
        # because the first usually takes the most interrupts
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        args.out.mkdir(parents=True, exist_ok=True)
        tracer = probe = None
        if args.trace:
            tracer = spans.Tracer(f"{args.workload}/seed{args.seed}/{args.out.name}")
        else:  # the probe's ticks would land inside the spans
            probe = speed.Probe()
        p = Pass(args.out, args.seed, tracer, probe)
        if tracer is not None:
            spans.install(tracer)
        before = resource.getrusage(resource.RUSAGE_SELF)
        if probe is not None:
            probe.start()
        try:
            result_err = WORKLOADS[args.workload](p)
        finally:
            if probe is not None:
                probe.stop()
        after = resource.getrusage(resource.RUSAGE_SELF)
        record.update(
            wall_s=p.busy_s,
            peak_rss_mb=after.ru_maxrss / 1024.0,
            result_err=result_err,
            read_ms=p.read_ms,
            attempted=p.attempted,
            failures=["; ".join(msgs) for msgs in p.failures.values()],
            named=p.named,
            minor_faults=after.ru_minflt - before.ru_minflt,
            sys_s=after.ru_stime - before.ru_stime,
            env={**environment(), "nproc": nproc, "cpu": max(os.sched_getaffinity(0))},
        )
        if probe is not None:
            record.update(wall_ref=sum(probe.to_ref(*call) for call in p.calls), read_ref=p.read_ref,
                          probe_ticks=len(probe.ticks),
                          chunk_ms_median=1e3 * sorted(t for _, t in probe.ticks)[len(probe.ticks) // 2])
        if tracer is not None:
            record["layers"] = layer_record(tracer, p)
            # first-touch page faults and system time: small under the fixed
            # malloc thresholds (run.MALLOC_ENV) unless a change allocates more
            record["layers"]["process.minor_faults"] = record["minor_faults"]
            record["layers"]["process.sys_s"] = record["sys_s"]
            tracer.write(args.out / "spans.jsonl")
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
