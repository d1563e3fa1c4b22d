"""Output checks run on every benchmark pass.

Each check takes outputs the pass produced and returns a list of problems;
an empty list means the output is correct. A problem marks the operation
that produced the output as failed. Criterion 4 of the acceptance suite
(|a_learned + 1| <= 0.05) is deliberately not checked: it is known to fail,
and the benchmark reports ``a_err`` as measured instead.
"""

from __future__ import annotations

import math

import numpy as np
from jsonschema import ValidationError, validate

# Reference errors of the acceptance suite (tests/test_acceptance.py):
# Table 1 of the paper without (B) and with (A) kernel learning.
PAPER_B = {25: 1.9232e-2, 50: 5.2601e-3, 100: 1.3532e-3, 200: 3.4103e-4}
PAPER_A = {25: 2.9675e-4, 50: 7.6794e-5, 100: 1.9450e-5}
BAND_FACTOR = 10.0

#: cgc-pde re-minimizes the coefficient a after its last accepted step, so
#: the loss at the returned state may sit below the traced loss_final. At
#: the paper configuration the gap is a few 1e-6 of the loss.
PDE_FINAL_A_SLACK = 1e-4


def summary_schema(doc, schema):
    try:
        validate(instance=doc, schema=schema)
    except ValidationError as exc:
        return [f"summary does not match the schema: {exc.message}"]
    return []


def loss_trace(trace):
    """The accepted-step loss trace must be finite and must not increase."""
    values = np.asarray(trace, dtype=float)
    if values.size == 0 or not np.all(np.isfinite(values)):
        return ["loss trace is empty or not finite"]
    rises = np.nonzero(np.diff(values) > 0.0)[0]
    if rises.size:
        i = int(rises[0])
        return [f"loss trace increases at step {i + 1}: {values[i]!r} -> {values[i + 1]!r}"]
    return []


def pde_loss_final(terms, loss_final):
    """cgc_pde_loss_terms at the returned state sum to the reported loss_final."""
    total = terms["norm_g"] + terms["a_prior"] + terms["l1_weighted"] + terms["l2_weighted"] \
        + terms["anchor_weighted"]
    if not (loss_final * (1.0 - PDE_FINAL_A_SLACK) <= total <= loss_final * (1.0 + 1e-12)):
        return [f"loss terms at the returned state sum to {total!r}, reported loss_final {loss_final!r}"]
    return []


def nf_loss_final(terms, loss_final):
    """nf_loss_terms at the returned state sum to the reported loss_final."""
    total = terms["norm_h"] + terms["l1_weighted"] + terms["l2_weighted"] + terms["anchor_weighted"]
    if not math.isclose(total, loss_final, rel_tol=1e-12):
        return [f"loss terms at the returned state sum to {total!r}, reported loss_final {loss_final!r}"]
    return []


def h_at_origin(value):
    """A homogeneous quartic vanishes at the origin exactly."""
    return [] if value == 0.0 else [f"H(0, 0) = {value!r}, expected exactly 0"]


def same_bits(expected, got, what):
    """Two evaluations agree bit for bit."""
    a, b = np.asarray(expected), np.asarray(got)
    if a.shape != b.shape or a.dtype != b.dtype or a.tobytes() != b.tobytes():
        diff = np.max(np.abs(a - b)) if a.shape == b.shape else "shape"
        return [f"{what}: evaluations differ (max |diff| {diff})"]
    return []


def quartic_values(coeffs, points, values):
    """Values of H(u, v) = sum_k c_k u^(4-k) v^k, recomputed independently."""
    u, v = points[:, 0], points[:, 1]
    ref = sum(c * u ** (len(coeffs) - 1 - k) * v ** k for k, c in enumerate(coeffs))
    scale = max(float(np.max(np.abs(ref))), 1e-300)
    if not np.allclose(values, ref, rtol=1e-12, atol=1e-14 * scale):
        return [f"quartic map values differ from the closed form by {np.max(np.abs(values - ref))!r}"]
    return []


def _in_band(value, reference):
    return reference / BAND_FACTOR <= value <= reference * BAND_FACTOR


def table1(metrics, n_list):
    """Criteria 1 and 2: Table 1 errors in the paper's bands, and learning helps."""
    problems = []
    for n in (25, 100):
        e = metrics[f"no_learning_N{n}"]
        if not _in_band(e, PAPER_B[n]):
            problems.append(f"criterion 1: no-learning error at N={n} is {e:.4e}, band around {PAPER_B[n]}")
    errors = [metrics[f"no_learning_N{n}"] for n in n_list]
    if not all(b < a for a, b in zip(errors, errors[1:])):
        problems.append(f"criterion 1: no-learning errors do not decrease with N: {errors}")
    for n in (25, 50, 100):
        learned, fixed = metrics[f"learning_N{n}"], metrics[f"no_learning_N{n}"]
        if not _in_band(learned, PAPER_A[n]):
            problems.append(f"criterion 2: learned error at N={n} is {learned:.4e}, band around {PAPER_A[n]}")
        if not learned < fixed:
            problems.append(f"criterion 2: learning does not beat the fixed kernel at N={n}")
    return problems


def relative_l2_at_most(value, bound, what):
    """Criteria 3 (first-order map) and 6 (pooled fit): relative L2 within its bound."""
    return [] if value <= bound else [f"{what}: relative L2 {value:.4e} > {bound}"]


def growth_ratio(value, bound=1.5):
    """A consistent system's diagnostic norm stays bounded (criterion 7's 1.5)."""
    return [] if value <= bound else [f"norm growth ratio {value:.3f} > {bound} on a consistent system"]
