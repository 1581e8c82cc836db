"""Fractional benchmark LP: the upper bound on any randomized strategy.

Maximizes the worst-group expected coverage ratio t over fractional program
openings x_j and coverage levels y_i:

    max  t
    s.t. sum_j c_j x_j <= B                       (budget)
         y_i - sum_{j covering i} x_j <= 0        (coverage cap, one per household)
         t - sum_{i in g} y_i / |g| <= 0          (equity, one per group)
         0 <= t, x_j, y_i <= 1                    (box bounds; y_i <= 1 lives here)

`solve_lp` picks the backend from the model's size: the embedded dense
simplex up to SIMPLEX_MAX_CELLS, scipy's HiGHS dual simplex above it. HiGHS
gets the model with interchangeable households merged into classes (same
shared coverers, same private-program cost, same groups), each class's
private programs merged with them; the solution is spread back over the
members by water-filling (`_solve_highs`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from . import simplex
from .model import Instance

OBJECTIVE_TOL = 1e-7
SNAP_EPS = 1e-9
# Largest rows x (vars + rows) sent to the embedded dense simplex. Timed against
# HiGHS on 2 CPUs, their medians cross near 3,500 (README, "Design notes").
SIMPLEX_MAX_CELLS = 3000
BACKENDS = ("simplex", "highs")


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
    """Sparse row-form model. Variable layout: [t, x_0..x_{J-1}, y_0..y_{I-1}].

    The constraint matrix is CSR `(data, indices, indptr)` over the rows
    budget, cover:<household> in household order, equity:<group> in group
    order, each row's entries in the order `rows` lists them; `rhs` holds the
    right-hand sides. Every variable is boxed in [0, 1].
    """

    instance: Instance
    n_programs: int
    n_households: int
    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    rhs: np.ndarray

    @property
    def n_vars(self) -> int:
        return 1 + self.n_programs + self.n_households

    @property
    def n_rows(self) -> int:
        return self.rhs.size

    @property
    def upper_bounds(self) -> tuple[float, ...]:
        return (1.0,) * self.n_vars

    def objective(self) -> np.ndarray:
        c = np.zeros(self.n_vars)
        c[0] = 1.0
        return c

    @cached_property
    def rows(self) -> tuple[LpRow, ...]:
        inst = self.instance
        labels = ["budget"]
        labels += [f"cover:{h.id}" for h in inst.households]
        labels += [f"equity:{g}" for g in inst.groups]
        bounds = self.indptr.tolist()
        indices, data, rhs = self.indices.tolist(), self.data.tolist(), self.rhs.tolist()
        return tuple(
            LpRow(
                label=label,
                indices=tuple(indices[start:end]),
                coefficients=tuple(data[start:end]),
                rhs=rhs[r],
            )
            for r, (label, start, end) in enumerate(zip(labels, bounds, bounds[1:]))
        )

    def dense_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        a = np.zeros((self.n_rows, self.n_vars))
        a[np.repeat(np.arange(self.n_rows), np.diff(self.indptr)), self.indices] = self.data
        return a, self.rhs.copy()

    def scipy_matrix(self):
        from scipy.sparse import csr_matrix

        a = csr_matrix(
            (self.data.copy(), self.indices.copy(), self.indptr.copy()),
            shape=(self.n_rows, self.n_vars),
        )
        return a, self.rhs.copy()


@dataclass(frozen=True, eq=False)
class FractionalSolution:
    """An optimal fractional benchmark solution: x and y cleaned by `snap`
    (clamped to [0, 1], values within 1e-9 of a bound set onto it), and the
    objective t the minimum group mean of that y."""

    x_star: np.ndarray
    y_star: np.ndarray
    objective: float


def _headed_rows(heads: np.ndarray, indptr: np.ndarray, body: np.ndarray) -> np.ndarray:
    """Concatenate the rows [heads[r], *body[indptr[r]:indptr[r + 1]]]."""
    head_at = indptr[:-1] + np.arange(heads.size)
    is_head = np.zeros(heads.size + body.size, dtype=bool)
    is_head[head_at] = True
    out = np.empty(is_head.size, dtype=np.result_type(heads, body))
    out[is_head] = heads
    out[~is_head] = body
    return out


def build_lp(instance: Instance) -> LpModel:
    n_j = len(instance.programs)
    n_i = len(instance.households)
    y0 = 1 + n_j

    # cover:<household i>: y_i, then each x_j of a program covering i, ascending
    cover_ptr, coverers = instance.coverers.indptr, instance.coverers.indices
    cover_indices = _headed_rows(y0 + np.arange(n_i), cover_ptr, 1 + coverers)
    cover_data = _headed_rows(np.ones(n_i), cover_ptr, np.full(coverers.size, -1.0))

    # equity:<group g>: t, then each member's y_i with weight -1/|g|, ascending
    members = instance.group_members
    sizes = instance.group_sizes
    equity_indices = _headed_rows(np.zeros(sizes.size, np.intp), members.indptr, y0 + members.indices)
    equity_data = _headed_rows(np.ones(sizes.size), members.indptr, np.repeat(-1.0 / sizes, sizes))

    indices = np.concatenate([np.arange(1, y0), cover_indices, equity_indices])
    data = np.concatenate([instance.costs, cover_data, equity_data])
    row_lengths = np.concatenate([[n_j], 1 + np.diff(cover_ptr), 1 + sizes])
    indptr = np.zeros(row_lengths.size + 1, dtype=np.intp)
    np.cumsum(row_lengths, out=indptr[1:])
    rhs = np.zeros(row_lengths.size)
    rhs[0] = instance.budget
    for arr in (data, indices, indptr, rhs):
        arr.setflags(write=False)
    return LpModel(
        instance=instance,
        n_programs=n_j,
        n_households=n_i,
        data=data,
        indices=indices,
        indptr=indptr,
        rhs=rhs,
    )


def _solve_embedded(model: LpModel) -> np.ndarray:
    a, b = model.dense_matrix()
    result = simplex.solve(model.objective(), a, b, upper_bounds=model.upper_bounds)
    if result.status != "optimal":
        raise LpSolveError(f"embedded simplex returned {result.status}")
    return result.x


def _household_classes(instance: Instance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Interchangeable households: `(first, inverse, private)` gives each
    class's first member, each household's class, and each household's
    private program (the first program covering it alone; -1 when none).

    Members of a class have the same shared coverers (every coverer but the
    private program), the same private-program cost (or none) and the same
    groups, so they and their private programs can be merged. The
    partition does not depend on the budget: `_solve_highs` computes it
    once per instance and its `with_budget` copies, through `Instance.derive`."""
    ptr, coverers = instance.coverers.indptr, instance.coverers.indices
    n_i = ptr.size - 1
    owner = np.repeat(np.arange(n_i), np.diff(ptr))
    cover_sizes = np.bincount(coverers, minlength=len(instance.programs))
    alone = np.flatnonzero(cover_sizes[coverers] == 1)
    # each household's first single-household coverer (coverers ascend)
    holders, at = np.unique(owner[alone], return_index=True)
    private = np.full(n_i, -1, dtype=np.intp)
    private[holders] = coverers[alone[at]]
    tier = np.full(n_i, -1, dtype=np.intp)
    tier[holders] = np.unique(instance.costs[private[holders]], return_inverse=True)[1]

    shared = np.ones(coverers.size, dtype=bool)
    shared[alone[at]] = False
    degree = np.bincount(owner[shared], minlength=n_i)
    slot = np.arange(degree.sum()) - np.repeat(np.cumsum(degree) - degree, degree)
    padded = np.full((n_i, int(degree.max(initial=0))), -1, dtype=np.intp)
    padded[owner[shared], slot] = coverers[shared]
    flags = instance.group_members.T.toarray().astype(np.intp)
    key = np.hstack([padded, tier[:, None], flags])
    _, first, inverse = np.unique(key, axis=0, return_index=True, return_inverse=True)
    return first, inverse.reshape(-1), private


def _solve_highs(model: LpModel) -> np.ndarray:
    """HiGHS dual simplex on the model with each household class merged.

    A class's members are interchangeable, so one y column per class enters
    each equity row weighted by its member count, and one x column per class
    stands for its members' private programs (budget coefficient count x
    cost). Any optimum averaged over a class stays optimal, so this is exact
    (duplicate-column aggregation). Back on the full model, each class's
    private coverage is water-filled over its members in household order, up
    to what their shared cover leaves below 1, and y_i is set to
    min(1, cover of i): t, the budget and every cover row still hold, and a
    class with no or full shared cover gets at most one fractional entry."""
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    inst = model.instance
    first, inverse, private = inst.derive("household_classes", _household_classes)
    n_j, y0 = model.n_programs, 1 + model.n_programs
    holders = np.flatnonzero(private >= 0)
    kept = np.setdiff1d(np.arange(n_j), private[holders])
    has_x = private[first] >= 0
    x_column = kept.size + np.cumsum(has_x)
    y_base = 1 + kept.size + int(has_x.sum())
    # the reduced column of every full variable: t, kept x, class x, class y
    columns = np.zeros(model.n_vars, dtype=np.intp)
    columns[1 + kept] = 1 + np.arange(kept.size)
    columns[1 + private[holders]] = x_column[inverse[holders]]
    columns[y0:] = y_base + inverse
    merge = csr_matrix(
        (np.ones(model.n_vars), (np.arange(model.n_vars), columns)),
        shape=(model.n_vars, y_base + first.size),
    )
    # the budget row, each class's first cover row, every equity row
    rows = np.concatenate([[0], 1 + first, np.arange(1 + model.n_households, model.n_rows)])
    a, b = model.scipy_matrix()
    res = linprog(
        -model.objective()[: y_base + first.size],
        A_ub=a[rows] @ merge,
        b_ub=b[rows],
        bounds=(0.0, 1.0),
    )
    if not res.success:
        raise LpSolveError(f"HiGHS failed: {res.message}")
    reduced = np.asarray(res.x)

    x = np.zeros(n_j)
    x[kept] = reduced[1 : 1 + kept.size]
    # shared cover per household, then water-fill each class's private x
    cover = inst.coverers @ x
    cap = np.clip(1.0 - cover[holders], 0.0, 1.0)
    size = np.bincount(inverse)
    order = np.argsort(inverse, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size) - np.repeat(np.cumsum(size) - size, size)
    n = size[inverse[holders]]
    placed = np.minimum(n * reduced[x_column[inverse[holders]]], n * cap)
    fill = np.clip(placed - rank[holders] * cap, 0.0, cap)
    x[private[holders]] = fill
    cover[holders] += fill
    return np.concatenate([reduced[:1], x, np.minimum(1.0, cover)])


def check_backend(solver: str | None) -> None:
    """Reject a backend name other than None (automatic) or one of BACKENDS."""
    if solver is not None and solver not in BACKENDS:
        raise ValueError(f"unknown LP solver {solver!r}; valid: {', '.join(BACKENDS)}")


def snap(values: np.ndarray) -> np.ndarray:
    """A copy of `values` clipped to [0, 1], with every entry within SNAP_EPS
    of 0 or 1 set to exactly 0 or 1: the LP solution's x and y and the
    rounding's start vector all go through it."""
    out = np.clip(values, 0.0, 1.0)
    out[out <= SNAP_EPS] = 0.0
    out[out >= 1.0 - SNAP_EPS] = 1.0
    return out


def solve_lp(
    model: LpModel, solver: str | Callable[[LpModel], np.ndarray] | None = None
) -> FractionalSolution:
    """Solve the benchmark LP to optimality (1e-9 feasibility, 1e-7 objective).
    The backend follows from the model's size (SIMPLEX_MAX_CELLS) unless
    `solver` names one of BACKENDS or is a callable returning the variable
    vector. Naming "simplex" for a model above SIMPLEX_MAX_CELLS raises
    ValueError before any dense array is allocated. The objective reported
    is the minimum group mean of the snapped y (1.0 without groups), as
    `verify_solution` checks it, not the backend's t."""
    if not callable(solver):
        check_backend(solver)
        cells = model.n_rows * (model.n_vars + model.n_rows)
        if solver is None:
            solver = "simplex" if cells <= SIMPLEX_MAX_CELLS else "highs"
        if solver == "simplex" and cells > SIMPLEX_MAX_CELLS:
            raise ValueError(
                f"the embedded simplex takes models of at most SIMPLEX_MAX_CELLS ="
                f" {SIMPLEX_MAX_CELLS} cells (rows x (vars + rows)); this one has {cells}"
            )
        solver = _solve_embedded if solver == "simplex" else _solve_highs
    x_full = solver(model)
    x = snap(x_full[1 : 1 + model.n_programs])
    y = snap(x_full[1 + model.n_programs :])
    x.setflags(write=False)
    y.setflags(write=False)
    t = min((float(y[members].mean()) for members in model.instance.group_indices), default=1.0)
    return FractionalSolution(x_star=x, y_star=y, objective=t)


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

    excess = y - instance.coverers @ x
    for i in np.flatnonzero(excess > tol).tolist():
        violations.append(Violation(f"cover:{instance.households[i].id}", float(excess[i])))

    for g, members in zip(instance.groups, instance.group_indices):
        ratio = float(y[members].mean())
        if t - ratio > tol:
            violations.append(Violation(f"equity:{g}", float(t - ratio)))

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
