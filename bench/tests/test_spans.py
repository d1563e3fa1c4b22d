"""Span bookkeeping: self time, nesting, pausing, and wrapper installation."""

import pytest

import gpmaps
from gpmaps import cgc, gp, kernels

import spans


def test_self_time_of_a_nested_tree():
    tree = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.inner", 2.0, 3.0, 1],
        ["b", 5.0, 6.0, 0],
    ]
    assert spans.self_times(tree) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    tree = [
        ["root", 0.0, 10.0, -1],
        ["x", 1.0, 5.0, 0],
        ["y", 3.0, 7.0, 0],
        ["z", 8.0, 12.0, 0],
    ]
    # children cover [1, 7] and [8, 10]: 8 of the root's 10 seconds
    assert spans.self_times(tree)[0] == pytest.approx(2.0)


def test_tracer_links_parents_and_sums_per_layer():
    tracer = spans.Tracer("p0")
    leaf = tracer.wrap("leaf", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: leaf(leaf(x)))
    assert outer(1) == 3
    with tracer.paused():
        assert outer(1) == 3
    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "leaf", "leaf"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    stats = tracer.layer_stats()
    assert stats["leaf"]["calls"] == 2 and stats["outer"]["calls"] == 1
    own = spans.self_times(tracer.spans)
    assert stats["outer"]["self_s"] == pytest.approx(stats["outer"]["total_s"] - own[1] - own[2])


def test_rebind_reaches_every_module_that_imported_the_name():
    original = kernels.k_deriv
    marker = object()
    try:
        assert spans.rebind(original, marker) >= 4
        assert kernels.k_deriv is gp.k_deriv is cgc.k_deriv is gpmaps.k_deriv is marker
    finally:
        spans.rebind(marker, original)
    assert cgc.k_deriv is original
