"""Span recording for the traced benchmark pass.

The benchmark times gpmaps from outside: it replaces the library's public
functions with wrappers that open a span on entry and close it on return.
A span is ``[name, start, end, parent]``, where ``parent`` is the index of
the enclosing span (-1 at the top). Spans stay in memory until the pass
ends; then the worker writes them out and reduces them to per-layer calls,
self time and counts.

A wrapper must be installed wherever the library bound the function by
name (``from .kernels import k_deriv`` copies the reference into
``gpmaps.gp``, ``gpmaps.cgc`` and the package root), so :func:`rebind`
replaces every module-level binding of the original object.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import types
from time import perf_counter

import numpy as np


def rebind(original, replacement, package="gpmaps"):
    """Replace every module-level binding of ``original`` in ``package``; returns how many."""
    count = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                count += 1
    return count


def self_times(spans):
    """Each span's duration minus the part of it that its child spans cover."""
    children = [[] for _ in spans]
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for (_, start, end, _), kids in zip(spans, children):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted((spans[k][1], spans[k][2]) for k in kids):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


class Tracer:
    """In-memory span recorder for one pass; all its spans share ``pass_id``."""

    def __init__(self, pass_id):
        self.pass_id = pass_id
        self.spans = []
        self.counters = {}
        self._stack = []
        self._active = True

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name, fn, counter=None):
        """``fn`` inside a span called ``name``; ``counter(self, args, result)`` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if counter is not None:
                counter(self, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (the benchmark's own output checks)."""
        self._active = False
        try:
            yield
        finally:
            self._active = True

    def layer_stats(self):
        """{layer: {"calls", "self_s", "total_s"}} plus the counters."""
        stats = {}
        for (name, start, end, _), own in zip(self.spans, self_times(self.spans)):
            s = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            s["calls"] += 1
            s["self_s"] += own
            s["total_s"] += end - start
        return stats

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([self.pass_id, name, start, end, parent]) + "\n")


@contextlib.contextmanager
def paused(tracer):
    """:meth:`Tracer.paused` that also accepts ``None`` (an untraced pass)."""
    if tracer is None:
        yield
    else:
        with tracer.paused():
            yield


def _count_entries(tracer, args, result):
    tracer.count("kernels.k_deriv.entries", int(np.size(result)))


def _count_factor(tracer, args, result):
    gram, lam_requested = args[0], args[1]
    _, lam_used = result
    # the nugget grows tenfold per escalation
    tracer.count("gp.factor.escalations", int(round(np.log10(lam_used / lam_requested))))
    tracer.count("gp.factor.flops", gram.shape[0] ** 3 / 3.0)


def _count_steps(tracer, args, result):
    tracer.count("dynamics.rk4.steps", len(result.times) - 1)


#: (layer, module, attribute, counter): the library functions the traced pass wraps.
LAYERS = (
    ("kernels.k_deriv", "gpmaps.kernels", "k_deriv", _count_entries),
    ("kernels.homogeneous_features", "gpmaps.kernels", "homogeneous_features", None),
    ("gp.factor", "gpmaps.gp", "_factor_with_escalation", _count_factor),
    ("gp.assemble_gram", "gpmaps.gp", "assemble_gram", None),
    ("kernel_learning.rho_loo", "gpmaps.kernel_learning", "rho_loo", None),
    ("kernel_learning.learn_theta", "gpmaps.kernel_learning", "learn_theta", None),
    ("optim.golden_section", "gpmaps.optim", "golden_section", None),
    ("dynamics.rk4", "gpmaps.dynamics", "rk4", _count_steps),
    ("cgc.cgc_pde_loss", "gpmaps.cgc", "cgc_pde_loss", None),
    ("cgc.cgc_pde_grad", "gpmaps.cgc", "cgc_pde_grad", None),
    ("cgc.nf_loss", "gpmaps.cgc", "nf_loss", None),
    ("cgc.nf_grad", "gpmaps.cgc", "nf_grad", None),
    ("transforms.build", "gpmaps.transforms", "cole_hopf_problem", None),
    ("transforms.build", "gpmaps.transforms", "cole_hopf_discrete_problem", None),
    ("transforms.build", "gpmaps.transforms", "cole_hopf_multi_problem", None),
    ("transforms.build", "gpmaps.transforms", "first_order_problem", None),
    ("transforms.relative_l2", "gpmaps.transforms", "relative_l2", None),
    ("cli.write", "gpmaps.cli", "_write_csv", None),
    ("cli.write", "gpmaps.cli", "write_summary", None),
    ("cli.run", "gpmaps.cli", "run_experiment", None),
    ("cli.run", "gpmaps.cli", "run_table1", None),
)


def install(tracer):
    """Wrap every layer function, ``Interpolant.evaluate`` and the CLI's JSON file writes."""
    for layer, module, attr, counter in LAYERS:
        original = getattr(importlib.import_module(module), attr)
        if rebind(original, tracer.wrap(layer, original, counter)) == 0:
            raise RuntimeError(f"{module}.{attr} is bound nowhere in gpmaps")
    gp = importlib.import_module("gpmaps.gp")
    gp.Interpolant.evaluate = tracer.wrap("gp.evaluate", gp.Interpolant.evaluate)
    # The CLI writes interpolant.json and summary.json through json.dump;
    # give its module a json namespace whose dump is traced, leaving the
    # real json module alone.
    cli = importlib.import_module("gpmaps.cli")
    traced_json = types.ModuleType("json")
    traced_json.__dict__.update(vars(json))
    traced_json.dump = tracer.wrap("cli.write", json.dump)
    cli.json = traced_json
