"""gpmaps benchmark driver.

    python3 bench/run.py --workload cgc-pde --seed 0 --seconds 40 --trace 0

Closed loop with one client: passes of the workload run one after another,
each in a fresh interpreter (``bench/worker.py``), until the next pass would
end after ``--seconds``. Each pass checks its outputs. With ``--trace 0``
the driver reports the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics, including the tracing overhead. Times are declared in
reference units: each untraced pass samples the host's speed while it runs
(``speed.py``) and converts its seconds with it.
The JSON result is the last line of stdout; the lines above it restate
every metric by name and unit and give the raw seconds too. The whole
record, spans included, is kept under ``.bench_out/``.

Exits 2 without a result when the gpmaps sources are missing, and 3 when no
pass completes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("cgc-pde", "normal-form", "map-fit")

#: BLAS/OpenMP threads of every pass: pinned, because on a shared two-core
#: machine a second thread adds run-to-run noise and gains little on
#: matrices this small.
BLAS_THREADS = 1
#: glibc malloc thresholds of every pass, fixed. Left dynamic, glibc moves
#: them with the heap's history, and a cgc-pde pass at the seed took about
#: 147k first-touch page faults in one pass and 706k in the next: pass times
#: split into two modes 50% apart. Fixed this high, freed memory is reused
#: rather than handed back and faulted in again.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(1 << 30)}
#: Set-up (interpreter start plus imports) is sampled from every pass and
#: topped up with import-only interpreters to at least this many samples.
MIN_SAMPLES = 5
#: setup_s is declared in seconds on a host that runs one probe chunk in
#: exactly this time: each interpreter times chunks right after its set-up
#: (speed.calibrate), and its set-up time is converted at that speed.
NOMINAL_CHUNK_S = 1e-3
#: Every run ends within this many seconds, whatever ``--seconds`` says.
RUN_LIMIT_S = 170.0

#: End-to-end metrics (trace 0): name, unit. A time in unit "ref" counts
#: how many runs of the speed probe's fixed chunk of work (speed.py) the
#: host could have made in that time, sampled on the pass's own core while
#: it ran: the host's speed drifts by tens of percent within seconds, and
#: the conversion cancels much of the drift that raw seconds carry.
E2E = (
    ("setup_s", "s"),
    ("wall_ref", "ref"),
    ("peak_rss_mb", "MB"),
    ("result_err", "1"),
    ("eval_p50_ref", "ref"),
    ("eval_p90_ref", "ref"),
)

#: Per-layer metrics (trace 1): name, unit. A layer a workload never calls reads 0.
PER_LAYER = (
    ("kernels.k_deriv.calls", "count"),
    ("kernels.k_deriv.self_s", "s"),
    ("kernels.k_deriv.entries", "count"),
    ("kernels.homogeneous_features.calls", "count"),
    ("kernels.homogeneous_features.self_s", "s"),
    ("gp.factor.calls", "count"),
    ("gp.factor.self_s", "s"),
    ("gp.factor.escalations", "count"),
    ("gp.factor.flops", "flop"),
    ("gp.assemble_gram.calls", "count"),
    ("gp.assemble_gram.self_s", "s"),
    ("gp.evaluate.calls", "count"),
    ("gp.evaluate.self_s", "s"),
    ("kernel_learning.rho_loo.calls", "count"),
    ("kernel_learning.rho_loo.self_s", "s"),
    ("kernel_learning.learn_theta.calls", "count"),
    ("kernel_learning.learn_theta.total_s", "s"),
    ("optim.golden_section.calls", "count"),
    ("dynamics.rk4.calls", "count"),
    ("dynamics.rk4.self_s", "s"),
    ("dynamics.rk4.steps", "count"),
    ("cgc.cgc_pde_loss.calls", "count"),
    ("cgc.cgc_pde_loss.self_s", "s"),
    ("cgc.cgc_pde_grad.calls", "count"),
    ("cgc.cgc_pde_grad.self_s", "s"),
    ("cgc.pde.iterations", "count"),
    ("cgc.pde.converged", "flag"),
    ("cgc.pde.loss_final", "1"),
    ("cgc.pde.accept_ratio", "1"),
    ("cgc.nf_loss.calls", "count"),
    ("cgc.nf_loss.self_s", "s"),
    ("cgc.nf_grad.calls", "count"),
    ("cgc.nf_grad.self_s", "s"),
    ("cgc.nf.iterations", "count"),
    ("cgc.nf.converged", "flag"),
    ("cgc.nf.loss_final", "1"),
    ("cgc.nf.accept_ratio", "1"),
    ("transforms.build.self_s", "s"),
    ("transforms.relative_l2.self_s", "s"),
    ("cli.write.self_s", "s"),
    ("cli.write.bytes", "B"),
    ("process.minor_faults", "count"),
    ("process.sys_s", "s"),
    ("trace.spans", "count"),
    ("trace.traced_wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_frac", "1"),
)


class WorkerFailed(Exception):
    pass


def spawn(args, timeout):
    """Run one interpreter to completion; returns its record with ready_s and cost_s added."""
    threads = str(BLAS_THREADS)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads, PYTHONHASHSEED="0", **MALLOC_ENV)
    start = perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise WorkerFailed(f"worker timed out after {exc.timeout:.0f}s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    record = json.loads(lines[-1])
    # perf_counter is CLOCK_MONOTONIC, shared by every process on the machine
    record["ready_s"] = record["t_ready"] - start
    record["cost_s"] = perf_counter() - start
    return record


def run_passes(workload, seed, seconds, trace, run_dir):
    """Closed loop: the next pass starts when the last one ends, while it fits in ``seconds``."""
    start = perf_counter()

    def remaining():
        return RUN_LIMIT_S - (perf_counter() - start)

    passes, crashes = [], []
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        out = run_dir / f"pass{len(passes) + len(crashes)}"
        try:
            record = spawn(["--workload", workload, "--seed", str(seed), "--trace", str(int(traced)),
                            "--out", str(out)], remaining())
        except WorkerFailed as exc:
            if not passes:
                raise
            crashes.append(str(exc))
        else:
            record["traced"] = traced
            passes.append(record)
        elapsed = perf_counter() - start
        per_pass = statistics.median(p["cost_s"] for p in passes)
        need_pair = bool(trace) and len({p["traced"] for p in passes}) < 2
        if elapsed + per_pass > RUN_LIMIT_S - 10.0:
            break
        if elapsed + per_pass > seconds and not need_pair:
            break
    setup = list(passes)
    while len(setup) < MIN_SAMPLES and remaining() > 10.0:
        setup.append(spawn(["--setup-only"], remaining()))
    return passes, crashes, [{k: r[k] for k in ("ready_s", "chunks_per_s")} for r in setup]


def raw_timings(passes, setup):
    """The declared times in seconds or ms as measured, and the probe's chunk time."""
    plain = [p for p in passes if not p["traced"]]
    reads = [ms for p in plain for ms in p["read_ms"]]
    return {
        "setup_raw_s": statistics.median(r["ready_s"] for r in setup),
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "eval_p50_ms": statistics.median(reads),
        "eval_p90_ms": statistics.quantiles(reads, n=10)[-1],
        "chunk_ms": statistics.median(p["chunk_ms_median"] for p in plain),
    }


def e2e_metrics(passes, setup):
    """End-to-end metrics from the untraced passes; times in the reference units each pass measured."""
    plain = [p for p in passes if not p["traced"]]
    reads = [ref for p in plain for ref in p["read_ref"]]
    values = {
        "setup_s": statistics.median(r["ready_s"] * r["chunks_per_s"] * NOMINAL_CHUNK_S for r in setup),
        "wall_ref": statistics.median(p["wall_ref"] for p in plain),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "result_err": statistics.median(p["result_err"] for p in plain if p["result_err"] is not None),
        "eval_p50_ref": statistics.median(reads),
        "eval_p90_ref": statistics.quantiles(reads, n=10)[-1],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in E2E}


def layer_metrics(passes):
    """Per-layer metrics: the traced passes' (lower) medians, plus the tracing overhead."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    untraced_wall = statistics.median(p["wall_s"] for p in plain)
    values = {
        "trace.traced_wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
    }
    for name, _ in PER_LAYER:
        if name not in values:
            values[name] = statistics.median_low(p["layers"].get(name, 0) for p in traced)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def report(args, passes, crashes, setup, metrics, attempted, failed):
    """Human-readable lines printed above the JSON result."""
    plain = [p for p in passes if not p["traced"]]
    reads = sum(len(p["read_ms"]) for p in plain)
    named = plain[0]["named"] if plain else {}
    lines = [
        f"gpmaps benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
        f"passes={len(passes)} (traced {len(passes) - len(plain)}) crashed={len(crashes)}",
        "env: " + " ".join(f"{k}={v}" for k, v in passes[0]["env"].items()),
    ]
    about = {"setup_s": f"median of {len(setup)} interpreters, at {NOMINAL_CHUNK_S * 1e3:g} ms per probe chunk",
             "wall_ref": "median of pass wall_s in probe chunks", "peak_rss_mb": f"median of {len(plain)} passes",
             "result_err": "= " + next(iter(named), "?"),
             "eval_p50_ref": f"{reads} read calls in probe chunks",
             "eval_p90_ref": f"{reads} read calls in probe chunks"}
    for name, m in metrics.items():
        lines.append(f"  {name:40s} {m['value']:<22.10g} {m['unit']:6s} {about.get(name, '')}")
    if plain:
        raw = raw_timings(passes, setup)
        about = {"setup_raw_s": f"s   median of {len(setup)} interpreters",
                 "wall_s": f"s   median of {len(plain)} passes", "eval_p50_ms": f"ms  {reads} read calls",
                 "eval_p90_ms": f"ms  {reads} read calls", "chunk_ms": f"ms  median probe chunk of {len(plain)} passes"}
        lines.extend(f"  {name:40s} {value:<22.10g} {about[name]}" for name, value in raw.items())
    lines.extend(f"  {name:40s} {value}" for name, value in named.items())
    lines.append(f"  {'failed_frac':40s} {failed}/{attempted} = {failed / attempted:.6g}")
    for p in passes:
        lines.extend(f"  FAILED {msg}" for msg in p["failures"])
    lines.extend(f"  CRASHED {msg}" for msg in crashes)
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SystemExit on SIGTERM, so that subprocess.run kills and reaps the running pass
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "gpmaps" / "__init__.py").is_file():
        print(f"gpmaps sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run_dir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        passes, crashes, setup = run_passes(args.workload, args.seed, args.seconds, args.trace, run_dir)
    except WorkerFailed as exc:
        print(f"no pass completed: {exc}", file=sys.stderr)
        return 3
    if all(p["result_err"] is None for p in passes):
        print("no pass produced its result", file=sys.stderr)
        return 3
    metrics = layer_metrics(passes) if args.trace else e2e_metrics(passes, setup)
    attempted = sum(p["attempted"] for p in passes) + len(crashes)
    failed = sum(len(p["failures"]) for p in passes) + len(crashes)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    (run_dir / "result.json").write_text(json.dumps(
        {"result": result, "setup_s": setup, "passes": passes, "crashes": crashes}, indent=1) + "\n")
    for line in report(args, passes, crashes, setup, metrics, attempted, failed):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
