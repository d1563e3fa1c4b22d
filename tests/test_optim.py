import math
from typing import NamedTuple

import numpy as np
import pytest

from gpmaps import cgc, dynamics
from gpmaps.exceptions import InvalidInputError
from gpmaps.optim import golden_section, slope_search
from oracles import bisection_slope_search

WIDTH = 1e-3
H = WIDTH / 2.0


def search(fn, lo, hi, seed_x):
    """golden_section's result on [lo, hi] from seed_x, and every point it passed to fn."""
    points = []

    def recording(x):
        points.append(x)
        return fn(x)

    return golden_section(recording, lo, hi, WIDTH, (seed_x, fn(seed_x))), points


CASES = {
    # name: (fn, lo, hi, seed_x)
    "inside": (lambda x: (x - 0.3137) ** 2, -1.0, 1.0, 0.0),
    "lower end": (lambda x: x, -1.0, 1.0, 0.2003),
    "upper end": (lambda x: -x, -1.0, 1.0, 0.2003),
    "seed at the upper end": (lambda x: -x, -1.0, 1.0, 1.0),
    "constant": (lambda x: 2.5, -1.0, 1.0, 0.0),
    "two minima": (lambda x: math.cos(7.0 * x) + 0.1 * x, -1.2, 1.3, 0.1),
}


@pytest.fixture(params=list(CASES))
def case(request):
    fn, lo, hi, seed_x = CASES[request.param]
    (x, fx), points = search(fn, lo, hi, seed_x)
    return fn, lo, hi, seed_x, x, fx, points


class TestInvariants:
    def test_every_trial_point_on_the_lattice_inside_the_bracket(self, case):
        _, lo, hi, seed_x, _, _, points = case
        for p in points:
            assert p == seed_x + round((p - seed_x) / H) * H
            assert lo < p < hi

    def test_no_point_evaluated_twice(self, case):
        points = case[-1]
        assert len(set(points)) == len(points)

    def test_returned_bracket_no_wider_than_the_width(self, case):
        # the nearest points seen on either side of x, or the ends, close the bracket
        _, lo, hi, _, x, _, points = case
        left = max([p for p in points if p < x], default=lo)
        right = min([p for p in points if p > x], default=hi)
        assert right - left <= WIDTH * (1.0 + 1e-9)

    def test_never_worse_than_the_seed(self, case):
        fn, _, _, seed_x, x, fx, _ = case
        assert fx <= fn(seed_x)
        assert fx == fn(x)


class TestMinimum:
    def test_inside_the_bracket_at_the_nearest_lattice_point(self):
        (x, _), points = search(*CASES["inside"])
        assert abs(x - 0.3137) <= H / 2.0 + 1e-12
        # golden-section steps alone need about 16 to shrink [-1, 1] to WIDTH
        assert len(points) < 10

    @pytest.mark.parametrize("name, end", [("lower end", -1.0), ("upper end", 1.0)])
    def test_at_an_end_the_lattice_point_next_to_it(self, name, end):
        fn, lo, hi, seed_x = CASES[name]
        (x, _), _ = search(fn, lo, hi, seed_x)
        assert abs(x - end) <= H

    def test_seed_at_the_falling_end_is_returned(self):
        # the best grid point is an end of the grid and the loss still falls past it
        (x, fx), points = search(*CASES["seed at the upper end"])
        assert (x, fx) == (1.0, -1.0)
        assert all(p < 1.0 for p in points)

    def test_constant_returns_the_seed(self):
        (x, fx), points = search(*CASES["constant"])
        assert (x, fx) == (0.0, 2.5)
        assert 0 < len(points) < 40

    def test_seed_lower_than_every_trial_point_wins(self):
        (x, fx) = golden_section(lambda x: x * x, -1.0, 1.0, WIDTH, (0.5, -1.0))
        assert (x, fx) == (0.5, -1.0)

    def test_two_minima_ends_at_a_local_one(self):
        fn, lo, hi, seed_x = CASES["two minima"]
        (x, _), _ = search(fn, lo, hi, seed_x)
        # cos(7x) + 0.1x has minima near +-pi/7; the returned point is one of them to the lattice
        slope = lambda t: -7.0 * math.sin(7.0 * t) + 0.1
        assert np.sign(slope(x - H)) != np.sign(slope(x + H))


class TestInput:
    @pytest.mark.parametrize("lo, hi, width", [(1.0, 1.0, WIDTH), (1.0, 0.0, WIDTH), (0.0, 1.0, 0.0)])
    def test_rejects_an_empty_bracket_or_width(self, lo, hi, width):
        with pytest.raises(InvalidInputError):
            golden_section(lambda x: x, lo, hi, width, (lo, lo))

    def test_bracket_already_narrower_than_the_width_evaluates_nothing(self):
        (x, fx), points = search(lambda x: x, 0.0, WIDTH, WIDTH / 2.0)
        assert (x, fx, points) == (WIDTH / 2.0, WIDTH / 2.0, [])


class Slope(NamedTuple):
    slope: float


def slopes(fn, x, max_evals, search=slope_search):
    """``search``'s result from x on the slope ``fn``, and every point it evaluated."""
    points = [x]

    def evaluate(t):
        points.append(t)
        return Slope(fn(t))

    return search(evaluate, x, Slope(fn(x)), max_evals), points


def brackets(fn, points):
    """The bracket each trial after the first sign change was drawn in, as (trial, lo, hi)."""
    direction = -1.0 if fn(points[0]) > 0.0 else 1.0
    start_side, other_side, drawn = points[0], None, []
    for trial in points[1:]:
        if other_side is not None:
            drawn.append((trial, min(start_side, other_side), max(start_side, other_side)))
        if direction * fn(trial) <= 0.0:
            start_side = trial
        else:
            other_side = trial
    return drawn


def step_slope(t):
    return -1.0 if t < 0.3 else 1.0


def paper_searches(monkeypatch, name):
    """The paper solve's slope search and the bisection oracle's, both from the solve's start on its profile."""
    runs = []

    def both(evaluate, x, best, max_evals):
        result = slope_search(evaluate, x, best, max_evals)
        runs.append((result, bisection_slope_search(evaluate, x, best, max_evals)))
        return result

    monkeypatch.setattr(cgc, "slope_search", both)
    if name == "cgc-pde":
        cgc.cgc_pde_solve(cgc.CgcPdeProblem(u_data=dynamics.get_initial_condition("firstorder-paper").sample(100)[1]))
    else:
        cgc.nf_solve(cgc.NfProblem(dynamics.brusselator_trajectory(1.0, 2.1), dynamics.mu_from_AB(1.0, 2.1)))
    (result,) = runs
    return result


class TestSlopeSearch:
    @pytest.mark.parametrize("start", [0.25, 1.0, 7.5])
    def test_closes_a_bracket_at_the_root(self, start):
        # the slope of t^3 / 3 - 2t: t^2 - 2 is 0 at no float
        root = math.sqrt(2.0)
        (x, best, evals, reason), points = slopes(lambda t: t * t - 2.0, start, 1000)
        assert reason == "bracket_closed"
        assert x == pytest.approx(root, abs=1e-15) and best.slope == x * x - 2.0
        assert best.slope * (start - root) >= 0.0  # on the start's side of the sign change
        assert evals == len(points) == len(set(points)) < 100

    @pytest.mark.parametrize("scale", [1.0, 1e300])
    def test_closes_a_bracket_at_zero_on_the_walk_scale(self, scale):
        # near a root at 0 adjacent floats are subnormally close: the bracket closes at machine
        # epsilon times the last walk step, one slope per halving, not after one slope per binade
        (x, best, evals, reason), points = slopes(lambda t: scale * t, 0.5, 5000)
        assert reason == "bracket_closed" and evals == len(points) < 70
        assert abs(x) <= 1e-15 and best.slope == scale * x

    def test_returns_the_last_point_on_the_downhill_side(self):
        (x, best, _, _), points = slopes(lambda t: math.tanh(t - 0.3), -2.0, 1000)
        assert best.slope <= 0.0 and x < 0.3
        assert min(p for p in points if p > x) == pytest.approx(x, abs=1e-15)

    def test_zero_slope_at_the_start_evaluates_once(self):
        (x, best, evals, reason), points = slopes(lambda t: 0.0, 3.0, 1000)
        assert (x, evals, reason, points) == (3.0, 1, "zero_slope", [3.0])

    @pytest.mark.parametrize("max_evals", [1, 2, 10])
    def test_stops_at_the_evaluation_cap(self, max_evals):
        (_, _, evals, reason), points = slopes(lambda t: t - 1e6, 0.0, max_evals)
        assert (evals, reason, len(points)) == (max_evals, "max_iters", max_evals)

    def test_a_trial_on_a_zero_slope_stops_there(self):
        # the slope vanishes on [0.2, 0.4]: the first trial that lands there is returned
        (x, best, evals, reason), points = slopes(lambda t: math.copysign(max(abs(t - 0.3) - 0.1, 0.0), t - 0.3),
                                                  -2.0, 1000)
        assert reason == "zero_slope" and best.slope == 0.0
        assert 0.2 <= x <= 0.4 and x == points[-1] and evals == len(points)

    def test_returns_the_last_point_below_a_root_with_no_float_zero(self):
        (x, best, _, reason), points = slopes(lambda t: t * t - 2.0, 0.25, 1000)
        assert reason == "bracket_closed"
        assert best.slope <= 0.0 and x < math.sqrt(2.0)
        assert min(p for p in points if p > x) == pytest.approx(x, abs=1e-15)


class TestSlopeSearchClosure:
    @pytest.mark.parametrize("fn, start", [(lambda t: t * t - 2.0, 0.25), (lambda t: t * t - 2.0, 7.5),
                                           (lambda t: t**3, 0.5), (step_slope, -2.0), (lambda t: t, 0.5)])
    def test_every_trial_strictly_inside_its_bracket(self, fn, start):
        _, points = slopes(fn, start, 1000)
        drawn = brackets(fn, points)
        assert drawn and all(lo < trial < hi for trial, lo, hi in drawn)

    @pytest.mark.parametrize("start", [0.25, 7.5])
    def test_interpolation_closes_a_simple_root_in_few_evaluations(self, start):
        # t^2 - 2 has no float zero; bisection spends 64 and 66 evaluations here
        (x, _, evals, reason), _ = slopes(lambda t: t * t - 2.0, start, 1000)
        (_, _, bisection_evals, _), _ = slopes(lambda t: t * t - 2.0, start, 1000, bisection_slope_search)
        assert reason == "bracket_closed" and x == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert evals <= 30 < bisection_evals

    @pytest.mark.parametrize("fn, start", [(lambda t: t**3, 0.5), (step_slope, -2.0)])
    def test_worst_case_is_bisections_plus_two(self, fn, start):
        # a triple root and a jump defeat the interpolation; the projection onto
        # bisection's schedule still closes the bracket
        (x, _, evals, reason), _ = slopes(fn, start, 1000)
        (x_ref, _, bisection_evals, reason_ref), _ = slopes(fn, start, 1000, bisection_slope_search)
        assert reason == reason_ref == "bracket_closed"
        assert evals <= bisection_evals + 2
        assert abs(x - x_ref) <= 1e-15

    @pytest.mark.parametrize("name, most", [("cgc-pde", 20), ("brusselator-nf", 30)])
    def test_paper_solves_close_near_the_bisection_result(self, monkeypatch, name, most):
        # bisection takes 56 and 64 slope evaluations on these profiles
        (x, _, evals, reason), (x_ref, _, bisection_evals, reason_ref) = paper_searches(monkeypatch, name)
        assert reason == reason_ref == "bracket_closed"
        assert abs(x - x_ref) <= 4 * math.ulp(x_ref)
        assert evals <= most < bisection_evals
