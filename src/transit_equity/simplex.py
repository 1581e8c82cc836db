"""Dense primal simplex for the small linear programs of this package.

Solves   maximize c.x   subject to  A x <= b,  0 <= x <= ub,  with b >= 0
where individual upper bounds may be absent (None). Finite upper bounds are
appended as explicit rows, so the tableau stays a plain dense array.

Both callers state their LP in this form: the benchmark LP has only <= rows
with right-hand sides B and 0, and the oracles' distribution LP substitutes
its one equality away. With b >= 0 the slack basis (x = 0) is feasible, so
the solve starts there and needs no phase 1; a negative right-hand side is
rejected.

Pivot selection uses Dantzig's rule with a deterministic lowest-index
tie-break, switching permanently to Bland's anti-cycling rule once a run of
degenerate pivots is detected. Both modes are deterministic, which keeps
solves reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

PIVOT_EPS = 1e-10
_DEGENERATE_RUN_BEFORE_BLAND = 50


class SimplexError(RuntimeError):
    """Internal solver failure (iteration cap, malformed input)."""


@dataclass(frozen=True, eq=False)
class SimplexResult:
    status: str  # "optimal" | "unbounded"
    x: np.ndarray | None
    objective: float | None


def _pivot(tableau: np.ndarray, basis: list[int], row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])
    # restore the exact unit column that the rank-1 update approximated
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0
    basis[row] = col


def _entering(obj_row: np.ndarray, bland: bool) -> int:
    negative = np.flatnonzero(obj_row < -PIVOT_EPS)
    if negative.size == 0:
        return -1
    if bland:
        return int(negative[0])
    return int(negative[np.argmin(obj_row[negative])])


def _leaving(tableau: np.ndarray, basis: list[int], col: int, bland: bool) -> int:
    column = tableau[:-1, col]
    rhs = tableau[:-1, -1]
    rows = np.flatnonzero(column > PIVOT_EPS)
    if rows.size == 0:
        return -1
    ratios = rhs[rows] / column[rows]
    best = ratios.min()
    ties = rows[ratios <= best + PIVOT_EPS]
    if bland:
        # among tied rows, leave the basic variable with the smallest index
        return int(min(ties, key=lambda r: basis[r]))
    return int(ties[0])


def _run_simplex(tableau: np.ndarray, basis: list[int], max_iterations: int) -> str:
    bland = False
    degenerate_run = 0
    for _ in range(max_iterations):
        col = _entering(tableau[-1, :-1], bland)
        if col < 0:
            return "optimal"
        row = _leaving(tableau, basis, col, bland)
        if row < 0:
            return "unbounded"
        if tableau[row, -1] <= PIVOT_EPS:
            degenerate_run += 1
            if degenerate_run >= _DEGENERATE_RUN_BEFORE_BLAND:
                bland = True
        else:
            degenerate_run = 0
        _pivot(tableau, basis, row, col)
    raise SimplexError(f"simplex did not converge within {max_iterations} iterations")


def solve(
    c: Sequence[float],
    a: Sequence[Sequence[float]] | np.ndarray,
    b: Sequence[float],
    upper_bounds: Sequence[float | None] | None = None,
) -> SimplexResult:
    c = np.asarray(c, dtype=float)
    n = c.size
    b = np.asarray(b, dtype=float)
    a = np.asarray(a, dtype=float).reshape(b.size, n)
    if (b < 0).any():
        raise SimplexError(f"right-hand sides must be >= 0, got {b.min()}")

    # one x_k <= ub row per finite bound, set by index: the distribution LP
    # has up to 100k columns, too many for an n x n identity
    bounded = np.array([k for k, ub in enumerate(upper_bounds or ()) if ub is not None], dtype=int)
    m = b.size + bounded.size

    # columns: [x, one slack per row | rhs]; the last row holds -c
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[: b.size, :n] = a
    tableau[np.arange(b.size, m), bounded] = 1.0
    tableau[np.arange(m), n + np.arange(m)] = 1.0
    tableau[: b.size, -1] = b
    tableau[b.size : m, -1] = [upper_bounds[k] for k in bounded]
    tableau[-1, :n] = -c
    basis = list(range(n, n + m))

    status = _run_simplex(tableau, basis, 200 * (2 * m + n + 10))
    if status != "optimal":
        return SimplexResult(status=status, x=None, objective=None)

    x_full = np.zeros(n + m)
    x_full[basis] = tableau[:-1, -1]
    x = np.maximum(x_full[:n], 0.0)
    return SimplexResult(status="optimal", x=x, objective=float(c @ x))
