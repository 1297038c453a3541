"""Small dense exact simplex solver.

Solves  max c.x  subject to  A x <= b,  x >= 0  with b >= 0, which is the
only form the ex-ante welfare program needs: every right-hand side there is
a budget, a zero, or a feasibility cap, so the slack basis is feasible and
no phase-one is required.  Dantzig pricing with a switch to Bland's rule
guards against cycling on degenerate instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, IterationLimitError, UnboundedError

_TOL = 1e-9


@dataclass(frozen=True)
class LPSolution:
    x: np.ndarray
    value: float
    iterations: int


def solve_lp_max(c, A, b, max_iterations: int = 50_000) -> LPSolution:
    c = np.asarray(c, dtype=np.float64)
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    b = np.asarray(b, dtype=np.float64)
    m, n = A.shape
    if c.shape != (n,) or b.shape != (m,):
        raise ConfigurationError("inconsistent LP dimensions")
    if np.any(b < -_TOL):
        raise ConfigurationError("this solver requires b >= 0 (slack basis start)")

    # Tableau: [A | I | b] with the reduced-cost row [-c | 0 | 0] at the bottom.
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = A
    tab[:m, n : n + m] = np.eye(m)
    tab[:m, -1] = np.maximum(b, 0.0)
    tab[m, :n] = -c
    basis = list(range(n, n + m))

    bland_after = 4 * (n + m)
    for it in range(max_iterations):
        costs = tab[m, :-1]
        if it < bland_after:
            enter = int(np.argmin(costs))
            if costs[enter] >= -_TOL:
                break
        else:
            candidates = np.flatnonzero(costs < -_TOL)
            if len(candidates) == 0:
                break
            enter = int(candidates[0])

        col = tab[:m, enter]
        rows = np.flatnonzero(col > _TOL)
        if len(rows) == 0:
            raise UnboundedError("objective unbounded along entering variable")
        ratios = tab[rows, -1] / col[rows]
        best = ratios.min()
        # Lowest basis index among the tied rows (Bland-compatible tie-break).
        tied = rows[ratios <= best + _TOL * (1 + abs(best))]
        leave = int(min(tied, key=lambda r: basis[r]))

        pivot = tab[leave, enter]
        tab[leave] /= pivot
        for r in range(m + 1):
            if r != leave and tab[r, enter] != 0.0:
                tab[r] -= tab[r, enter] * tab[leave]
        basis[leave] = enter
    else:
        raise IterationLimitError(f"simplex iteration limit of {max_iterations} pivots exceeded")

    x = np.zeros(n + m)
    for r, j in enumerate(basis):
        x[j] = tab[r, -1]
    return LPSolution(x[:n].copy(), float(tab[m, -1]), it + 1)
