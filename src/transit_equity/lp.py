"""Fractional benchmark LP: the upper bound on any randomized strategy.

Maximizes the worst-group expected coverage ratio t over fractional program
openings x_j and coverage levels y_i:

    max  t
    s.t. sum_j c_j x_j <= B                       (budget)
         y_i - sum_{j covering i} x_j <= 0        (coverage cap, one per household)
         t - sum_{i in g} y_i / |g| <= 0          (equity, one per group)
         0 <= t, x_j, y_i <= 1                    (box bounds; y_i <= 1 lives here)

The embedded dense simplex is the default solver; scipy's HiGHS backend can
be swapped in for large instances via solver="highs" or any callable with
the same signature.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import simplex
from .model import Instance

CONSTRAINT_TOL = 1e-9
OBJECTIVE_TOL = 1e-7
SNAP_EPS = 1e-9


class LpSolveError(RuntimeError):
    """The benchmark LP failed to solve; cannot happen on a well-formed
    instance (all-zeros is always feasible and t is capped at 1)."""


@dataclass(frozen=True)
class LpRow:
    label: str
    indices: tuple[int, ...]
    coefficients: tuple[float, ...]
    rhs: float
    # all rows are "<="


@dataclass(frozen=True, eq=False)
class LpModel:
    """Sparse row-form model. Variable layout: [t, x_0..x_{J-1}, y_0..y_{I-1}]."""

    instance: Instance
    n_programs: int
    n_households: int
    rows: tuple[LpRow, ...]
    upper_bounds: tuple[float, ...]

    @property
    def n_vars(self) -> int:
        return 1 + self.n_programs + self.n_households

    def x_index(self, j: int) -> int:
        return 1 + j

    def y_index(self, i: int) -> int:
        return 1 + self.n_programs + i

    def objective(self) -> np.ndarray:
        c = np.zeros(self.n_vars)
        c[0] = 1.0
        return c

    def dense_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        a = np.zeros((len(self.rows), self.n_vars))
        b = np.zeros(len(self.rows))
        for r, row in enumerate(self.rows):
            a[r, list(row.indices)] = row.coefficients
            b[r] = row.rhs
        return a, b

    def scipy_matrix(self):
        from scipy.sparse import csr_matrix

        data, cols, indptr = [], [], [0]
        for row in self.rows:
            data.extend(row.coefficients)
            cols.extend(row.indices)
            indptr.append(len(data))
        a = csr_matrix(
            (np.array(data), np.array(cols), np.array(indptr)),
            shape=(len(self.rows), self.n_vars),
        )
        b = np.array([row.rhs for row in self.rows])
        return a, b


@dataclass(frozen=True, eq=False)
class FractionalSolution:
    """An optimal fractional benchmark solution (cleaned: entries clamped to
    [0,1] and values within 1e-9 of a bound snapped onto it)."""

    x_star: np.ndarray
    y_star: np.ndarray
    objective: float


def build_lp(instance: Instance) -> LpModel:
    n_j = len(instance.programs)
    n_i = len(instance.households)
    rows: list[LpRow] = []

    budget_idx = tuple(range(1, 1 + n_j))
    rows.append(
        LpRow(
            label="budget",
            indices=budget_idx,
            coefficients=tuple(float(p.cost) for p in instance.programs),
            rhs=float(instance.budget),
        )
    )

    indptr, coverers = instance.household_programs
    for i, h in enumerate(instance.households):
        row = (1 + coverers[indptr[i] : indptr[i + 1]]).tolist()
        indices = (1 + n_j + i,) + tuple(row)
        coefficients = (1.0,) + (-1.0,) * len(row)
        rows.append(
            LpRow(label=f"cover:{h.id}", indices=indices, coefficients=coefficients, rhs=0.0)
        )

    for g, members in zip(instance.groups, instance.group_indices):
        weight = -1.0 / len(members)
        indices = (0,) + tuple(1 + n_j + int(i) for i in members)
        coefficients = (1.0,) + (weight,) * len(members)
        rows.append(
            LpRow(label=f"equity:{g.id}", indices=indices, coefficients=coefficients, rhs=0.0)
        )

    return LpModel(
        instance=instance,
        n_programs=n_j,
        n_households=n_i,
        rows=tuple(rows),
        upper_bounds=tuple([1.0] * (1 + n_j + n_i)),
    )


def _solve_embedded(model: LpModel) -> tuple[np.ndarray, float]:
    a, b = model.dense_matrix()
    result = simplex.solve(
        model.objective(),
        a,
        b,
        senses=[simplex.LESS_EQUAL] * len(model.rows),
        upper_bounds=list(model.upper_bounds),
    )
    if result.status != "optimal":
        raise LpSolveError(f"embedded simplex returned {result.status}")
    return result.x, result.objective


def _solve_highs(model: LpModel) -> tuple[np.ndarray, float]:
    from scipy.optimize import linprog

    a, b = model.scipy_matrix()
    res = linprog(
        -model.objective(),
        A_ub=a,
        b_ub=b,
        bounds=[(0.0, ub) for ub in model.upper_bounds],
        method="highs",
    )
    if not res.success:
        raise LpSolveError(f"HiGHS failed: {res.message}")
    return np.asarray(res.x), float(-res.fun)


_SOLVERS: dict[str, Callable[[LpModel], tuple[np.ndarray, float]]] = {
    "simplex": _solve_embedded,
    "highs": _solve_highs,
}


def _snap(values: np.ndarray, eps: float = SNAP_EPS) -> np.ndarray:
    out = np.clip(values, 0.0, 1.0)
    out[out <= eps] = 0.0
    out[out >= 1.0 - eps] = 1.0
    return out


def solve_lp(
    model: LpModel,
    solver: str | Callable[[LpModel], tuple[np.ndarray, float]] = "simplex",
) -> FractionalSolution:
    """Solve the benchmark LP to optimality (1e-9 feasibility, 1e-7 objective)."""
    fn = _SOLVERS[solver] if isinstance(solver, str) else solver
    x_full, objective = fn(model)
    x = _snap(x_full[1 : 1 + model.n_programs])
    y = _snap(x_full[1 + model.n_programs :])
    x.setflags(write=False)
    y.setflags(write=False)
    return FractionalSolution(x_star=x, y_star=y, objective=float(min(1.0, max(0.0, objective))))


@dataclass(frozen=True)
class Violation:
    row: str
    amount: float


def verify_solution(
    instance: Instance, solution: FractionalSolution, tol: float = OBJECTIVE_TOL
) -> list[Violation]:
    """Independently re-check every constraint; empty list means clean."""
    x, y, t = solution.x_star, solution.y_star, solution.objective
    violations: list[Violation] = []

    budget_used = float(np.dot(instance.costs, x))
    if budget_used > instance.budget + tol:
        violations.append(Violation("budget", budget_used - instance.budget))

    indptr, households = instance.program_households
    cover_sum = np.bincount(
        households, weights=np.repeat(x, np.diff(indptr)), minlength=len(instance.households)
    )
    for i, h in enumerate(instance.households):
        excess = y[i] - cover_sum[i]
        if excess > tol:
            violations.append(Violation(f"cover:{h.id}", float(excess)))

    for g, members in zip(instance.groups, instance.group_indices):
        ratio = float(y[members].mean())
        if t - ratio > tol:
            violations.append(Violation(f"equity:{g.id}", float(t - ratio)))

    for name, vec in (("x", x), ("y", y)):
        low = float((-vec).max(initial=0.0))
        high = float((vec - 1.0).max(initial=0.0))
        if low > tol:
            violations.append(Violation(f"box:{name}>=0", low))
        if high > tol:
            violations.append(Violation(f"box:{name}<=1", high))
    return violations


def dump_lp(model: LpModel, path: str | Path) -> None:
    """Write the model in CPLEX LP text format for external cross-checking."""
    inst = model.instance
    names = ["t"]
    names += [f"x{j}" for j in range(model.n_programs)]
    names += [f"y{i}" for i in range(model.n_households)]

    def term(coef: float, var: int) -> str:
        sign = "+" if coef >= 0 else "-"
        return f"{sign} {abs(coef):.12g} {names[var]}"

    lines = ["\\ benchmark LP"]
    lines += [f"\\ x{j} = program {p.id}" for j, p in enumerate(inst.programs)]
    lines += [f"\\ y{i} = household {h.id}" for i, h in enumerate(inst.households)]
    lines.append("Maximize")
    lines.append(" obj: t")
    lines.append("Subject To")
    for row in model.rows:
        label = row.label.replace(":", "_").replace(" ", "_")
        body = " ".join(term(c, v) for v, c in zip(row.indices, row.coefficients))
        body = body.removeprefix("+ ")
        lines.append(f" {label}: {body} <= {row.rhs:.12g}")
    lines.append("Bounds")
    for k, ub in enumerate(model.upper_bounds):
        lines.append(f" 0 <= {names[k]} <= {ub:.12g}")
    lines.append("End")
    Path(path).write_text("\n".join(lines) + "\n")
