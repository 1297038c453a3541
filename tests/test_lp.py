"""Dense simplex solver: known optima, degeneracy, unboundedness, and
random feasibility/optimality spot checks."""

import numpy as np
import pytest

from pacesim.errors import ConfigurationError, IterationLimitError
from pacesim.lp import LPSolution, UnboundedError, solve_lp_max


def test_textbook_instance():
    # max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18 -> (2, 6), value 36
    sol = solve_lp_max(
        [3, 5],
        [[1, 0], [0, 2], [3, 2]],
        [4, 12, 18],
    )
    assert sol.value == pytest.approx(36.0)
    assert sol.x == pytest.approx([2.0, 6.0])


def test_binding_box():
    sol = solve_lp_max([1.0, 1.0], [[1, 0], [0, 1], [1, 1]], [1, 1, 1.5])
    assert sol.value == pytest.approx(1.5)


def test_degenerate_zero_rhs():
    # The zero right-hand side makes the first pivot degenerate; Bland's
    # fallback must still reach the optimum y = 2x = 6 at x = 3.
    sol = solve_lp_max([0.0, 1.0], [[-2.0, 1.0], [1.0, 0.0]], [0.0, 3.0])
    assert sol.value == pytest.approx(6.0)
    assert sol.x == pytest.approx([3.0, 6.0])


def test_zero_objective():
    sol = solve_lp_max([0.0], [[1.0]], [5.0])
    assert sol.value == 0.0


def test_unbounded_detected():
    with pytest.raises(UnboundedError):
        solve_lp_max([1.0, 0.0], [[0.0, 1.0]], [1.0])


def test_iteration_limit_raises_named_error():
    # The optimum needs two pivots.
    with pytest.raises(IterationLimitError):
        solve_lp_max([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0], max_iterations=1)


def test_negative_rhs_rejected():
    with pytest.raises(ConfigurationError):
        solve_lp_max([1.0], [[1.0]], [-1.0])


def test_random_instances_feasible_and_dominant():
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 8))
        A = rng.uniform(0, 2, (m, n))
        b = rng.uniform(0.5, 3, m)
        c = rng.uniform(0, 1, n)
        sol = solve_lp_max(c, A, b)
        assert isinstance(sol, LPSolution)
        assert np.all(sol.x >= -1e-9)
        assert np.all(A @ sol.x <= b + 1e-7)
        assert sol.value == pytest.approx(float(c @ sol.x), abs=1e-7)
        # no random feasible point beats the reported optimum
        for _ in range(40):
            y = rng.uniform(0, 1, n)
            scale = np.min(b / np.maximum(A @ y, 1e-12))
            y = y * min(scale, 1.0)
            assert c @ y <= sol.value + 1e-6
