"""Fractional benchmark LP: the upper bound on any randomized strategy.

Maximizes the worst-group expected coverage ratio t over fractional program
openings x_j and coverage levels y_i:

    max  t
    s.t. sum_j c_j x_j <= B                       (budget)
         y_i - sum_{j covering i} x_j <= 0        (coverage cap, one per household)
         t - sum_{i in g} y_i / |g| <= 0          (equity, one per group)
         0 <= t, x_j, y_i <= 1                    (box bounds; y_i <= 1 lives here)

`solve_lp` picks the backend from the model's size: the embedded dense
simplex up to SIMPLEX_MAX_CELLS, HiGHS's dual simplex above it. Each side
has a workload. The 200 LPs of the small-instance suite (at most 663 cells)
take 0.12-0.15 s on the simplex and 0.37-0.69 s on HiGHS (2 CPUs); every
sweep is far above the cut. HiGHS keeps one reduced model per instance and
its `with_budget` copies (`_ScenarioLp`): households merged into classes,
with only the budget row's bound changing per budget. A budget's dual
simplex restart runs on a worker thread of one module-level pool, on an
idle copy of that model; a new copy replays the first one's history, so
the solution is the same on every copy. `start_solves` sends a sweep's
budgets to the pool ahead of its cells, and `solve_lp` waits for them.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from . import simplex
from .model import Instance

OBJECTIVE_TOL = 1e-7
SNAP_EPS = 1e-9
# Largest rows x (vars + rows) sent to the embedded dense simplex. Timed against
# HiGHS on 2 CPUs, their medians cross near 3,500 (README, "Design notes").
SIMPLEX_MAX_CELLS = 3000
# The HiGHS restarts of every `_ScenarioLp`: one worker per CPU this process
# may run on (every CPU where the OS cannot say).
_POOL = ThreadPoolExecutor(
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    thread_name_prefix="highs",
)


class LpSolveError(RuntimeError):
    """The benchmark LP failed to solve; cannot happen on a well-formed
    instance (all-zeros is always feasible and t is capped at 1)."""


@dataclass(frozen=True, eq=False)
class LpModel:
    """Sparse row-form model: maximize t, every row "<=", every variable
    boxed in [0, 1]. Variable layout: [t, x_0..x_{J-1}, y_0..y_{I-1}].

    The constraint matrix is CSR `(data, indices, indptr)` over the rows
    budget, cover:<household> in household order, equity:<group> in group
    order; `rhs` holds the right-hand sides.
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


def _lp_matrix(instance: Instance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The benchmark LP's CSR `(data, indices, indptr)`. No row's
    coefficients depend on the budget, so `build_lp` builds it once per
    instance and its `with_budget` copies, through `Instance.derive`."""
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
    for arr in (data, indices, indptr):
        arr.setflags(write=False)
    return data, indices, indptr


def build_lp(instance: Instance) -> LpModel:
    """The benchmark LP at the instance's budget: the shared `_lp_matrix`
    and a right-hand side of its own."""
    data, indices, indptr = instance.derive("lp_matrix", _lp_matrix)
    rhs = np.zeros(indptr.size - 1)
    rhs[0] = instance.budget
    rhs.setflags(write=False)
    return LpModel(
        instance=instance,
        n_programs=len(instance.programs),
        n_households=len(instance.households),
        data=data,
        indices=indices,
        indptr=indptr,
        rhs=rhs,
    )


def _solve_embedded(model: LpModel) -> np.ndarray:
    """The embedded dense simplex on the full model: c = e_0, u = 1."""
    a = np.zeros((model.n_rows, model.n_vars))
    a[np.repeat(np.arange(model.n_rows), np.diff(model.indptr)), model.indices] = model.data
    c = np.zeros(model.n_vars)
    c[0] = 1.0
    result = simplex.solve(c, a, model.rhs, upper_bounds=(1.0,) * model.n_vars)
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
    partition does not depend on the budget: `_ScenarioLp` computes it
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
    order = np.lexsort(key.T[::-1])  # stable row sort: classes ascend, first = lowest index
    new = np.ones(n_i, dtype=bool)
    new[1:] = (key[order[1:]] != key[order[:-1]]).any(axis=1)
    inverse = np.empty(n_i, dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse, private


class _ScenarioLp:
    """The benchmark LP of one instance over household classes, held in
    HiGHS models for the instance and its `with_budget` copies
    (`_solve_highs`).

    A class's members are interchangeable, so one y column per class enters
    each equity row weighted by its member count, and one x column per class
    stands for its members' private programs (budget coefficient count x
    cost). Any optimum averaged over a class stays optimal, so this is exact
    (duplicate-column aggregation). The model is passed column-wise; only
    the budget row's right-hand side changes per budget.

    Three budget-free quantities fix every budget's solution:
    - `t_max`, the optimum with every program open: y_i = min(1, cover_i);
    - `x_sat`, a cheapest solution reaching t_max (a min-cost solve with t
      bounded below by t_max), and its cost `c_min`;
    - `reference`, the optimal basis of max t at budget c_min, warm from the
      min-cost solve.
    A budget B >= c_min gets x_sat. Below c_min, t* < t_max, so every optimum
    spends exactly B (mixing one with x_sat would raise t), and dual simplex
    restarts from `reference`, which the new right-hand side leaves dual
    feasible. `clearSolver` first drops what the last solve left in HiGHS, so
    the vertex depends on the instance and B alone, not on the budgets solved
    before.

    The restarts run on `_POOL`'s worker threads (HiGHS's `run` releases the
    GIL), each on an idle model copy, or on a new one when none is idle. A
    copy replays the first model's history, because HiGHS keeps state from a
    model's first run: passed the min-cost model, it runs from that model's
    optimal basis, then switches to max t at c_min and runs from
    `reference`, both without an iteration. Passed the max-t model directly,
    a copy ends at other vertices. `start` sends a budget's restart to the
    pool; `solve` waits for it, sending it first if nothing started it."""

    def __init__(self, inst: Instance):
        from scipy.optimize._highspy import _core
        from scipy.sparse import csr_matrix

        first, inverse, private = inst.derive("household_classes", _household_classes)
        n_j, n_i = len(inst.programs), len(inst.households)
        y0, n_vars = 1 + n_j, 1 + n_j + n_i
        holders = np.flatnonzero(private >= 0)
        kept = np.setdiff1d(np.arange(n_j), private[holders])
        has_x = private[first] >= 0
        x_column = kept.size + np.cumsum(has_x)
        y_base = 1 + kept.size + int(has_x.sum())
        # the reduced column of every full variable: t, kept x, class x, class y
        columns = np.zeros(n_vars, dtype=np.intp)
        columns[1 + kept] = 1 + np.arange(kept.size)
        columns[1 + private[holders]] = x_column[inverse[holders]]
        columns[y0:] = y_base + inverse
        merge = csr_matrix(
            (np.ones(n_vars), (np.arange(n_vars), columns)), shape=(n_vars, y_base + first.size)
        )
        # the budget row, each class's first cover row, every equity row
        data, indices, indptr = inst.derive("lp_matrix", _lp_matrix)
        full = csr_matrix((data, indices, indptr), shape=(indptr.size - 1, n_vars))
        rows = np.concatenate([[0], 1 + first, np.arange(1 + n_i, indptr.size - 1)])
        a = (full[rows] @ merge).tocsc()
        a.sort_indices()
        n_rows, n_cols = a.shape

        # water-filling: each holder's class column, class size and rank in it
        size = np.bincount(inverse)
        order = np.argsort(inverse, kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size) - np.repeat(np.cumsum(size) - size, size)
        self._fill = (holders, private[holders], x_column[inverse[holders]],
                      size[inverse[holders]], rank[holders])
        self._kept, self._coverers = kept, inst.coverers
        self._core = _core
        self._inf = _core.kHighsInf

        # every program open: y_i = min(1, cover_i)
        covered = (np.diff(inst.coverers.indptr) > 0).astype(float)
        self.t_max = min((float(covered[m].mean()) for m in inst.group_indices), default=1.0)

        # min cost (the budget row as objective) at t >= t_max, the budget row free
        lp = self._lp = _core.HighsLp()
        lp.num_col_ = lp.a_matrix_.num_col_ = n_cols
        lp.num_row_ = lp.a_matrix_.num_row_ = n_rows
        lp.a_matrix_.format_ = _core.MatrixFormat.kColwise
        lp.a_matrix_.start_ = a.indptr.astype(np.int32)
        lp.a_matrix_.index_ = a.indices.astype(np.int32)
        lp.a_matrix_.value_ = a.data
        lp.col_cost_ = a[[0]].toarray().ravel()
        col_lower, row_upper = np.zeros(n_cols), np.zeros(n_rows)
        col_lower[0], row_upper[0] = self.t_max, self._inf
        lp.col_lower_, lp.col_upper_ = col_lower, np.ones(n_cols)
        lp.row_lower_, lp.row_upper_ = np.full(n_rows, -self._inf), row_upper
        highs = self._passed()
        self.x_sat = self._expand(self._run(highs))
        self.x_sat.setflags(write=False)
        self.c_min = float(inst.costs @ snap(self.x_sat[1:y0]))
        self._min_cost = highs.getBasis()

        # max t at budget c_min, warm from the min-cost basis
        self._to_max_t(highs)
        self._run(highs)
        self.reference = highs.getBasis()
        # list.pop and list.append are atomic, so the workers share the idle
        # models without a lock; the lock guards the tasks by budget
        self._idle = [highs]
        self._tasks: dict[float, Future] = {}
        self._lock = threading.Lock()

    def _passed(self):
        """A new HiGHS object (dual simplex, no output) holding the min-cost model."""
        core = self._core
        highs = core._Highs()
        highs.setOptionValue("output_flag", False)
        highs.setOptionValue("solver", "simplex")
        highs.setOptionValue(
            "simplex_strategy", int(core.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
        )
        if highs.passModel(self._lp) == core.HighsStatus.kError:
            raise LpSolveError("HiGHS rejected the reduced model")
        return highs

    def _to_max_t(self, highs) -> None:
        """Switch a model from min cost to max t at budget c_min."""
        n_cols = self._lp.num_col_
        objective = np.zeros(n_cols)
        objective[0] = -1.0
        highs.changeColsCost(n_cols, np.arange(n_cols, dtype=np.int32), objective)
        highs.changeColBounds(0, 0.0, 1.0)
        highs.changeRowBounds(0, -self._inf, self.c_min)

    def _copy(self):
        """A model in the state the first one is in after `__init__`."""
        highs = self._passed()
        highs.setBasis(self._min_cost)
        self._run(highs)
        self._to_max_t(highs)
        highs.setBasis(self.reference)
        self._run(highs)
        return highs

    def _run(self, highs) -> np.ndarray:
        """Run HiGHS; its reduced solution."""
        highs.run()
        status = highs.getModelStatus()
        if status != self._core.HighsModelStatus.kOptimal:
            raise LpSolveError(f"HiGHS failed: {highs.modelStatusToString(status)}")
        return np.asarray(highs.getSolution().col_value)

    def _expand(self, reduced: np.ndarray) -> np.ndarray:
        """The full variable vector of a reduced solution. Each class's private
        coverage is water-filled over its members in household order, up to
        what their shared cover leaves below 1, and y_i is set to
        min(1, cover of i): t, the budget and every cover row still hold, and
        a class with no or full shared cover gets at most one fractional
        entry."""
        holders, own, column, n, rank = self._fill
        x = np.zeros(self._coverers.shape[1])
        x[self._kept] = reduced[1 : 1 + self._kept.size]
        cover = self._coverers @ x
        cap = np.clip(1.0 - cover[holders], 0.0, 1.0)
        placed = np.minimum(n * reduced[column], n * cap)
        fill = np.clip(placed - rank * cap, 0.0, cap)
        x[own] = fill
        cover[holders] += fill
        return np.concatenate([reduced[:1], x, np.minimum(1.0, cover)])

    def _restart(self, budget: float) -> np.ndarray:
        """Dual simplex at `budget` from `reference`, on a worker thread. A
        model whose run failed is dropped, not reused."""
        try:
            highs = self._idle.pop()
        except IndexError:
            highs = self._copy()
        highs.clearSolver()
        highs.changeRowBounds(0, -self._inf, budget)
        highs.setBasis(self.reference)
        reduced = self._run(highs)
        self._idle.append(highs)
        return self._expand(reduced)

    def start(self, budget: float) -> None:
        """Send the restart at `budget` to the pool, unless `budget` is at
        least c_min (no restart) or its restart is already waiting."""
        with self._lock:
            if budget < self.c_min and budget not in self._tasks:
                self._tasks[budget] = _POOL.submit(self._restart, budget)

    def solve(self, budget: float) -> np.ndarray:
        """The full variable vector of the optimum at `budget`: x_sat from
        c_min up, below it the restart `start` sent, or one sent now."""
        if budget >= self.c_min:
            return self.x_sat
        with self._lock:
            task = self._tasks.pop(budget, None) or _POOL.submit(self._restart, budget)
        return task.result()


def _scenario(instance: Instance) -> _ScenarioLp:
    """The instance's `_ScenarioLp`, built once per instance and its
    `with_budget` copies through `Instance.derive`."""
    return instance.derive("highs_model", _ScenarioLp)


def _solve_highs(model: LpModel) -> np.ndarray:
    """HiGHS dual simplex on the instance's `_ScenarioLp`."""
    return _scenario(model.instance).solve(float(model.rhs[0]))


def _backend(
    instance: Instance, solver: str | Callable[[LpModel], np.ndarray] | None
) -> Callable[[LpModel], np.ndarray]:
    """The backend `solve_lp` runs on the instance's LP: `solver` if it is
    callable, HiGHS if it is "highs", and otherwise the embedded simplex up
    to SIMPLEX_MAX_CELLS rows x (vars + rows), HiGHS above."""
    if callable(solver):
        return solver
    if solver is None:
        n_rows = 1 + len(instance.households) + len(instance.groups)
        n_vars = 1 + len(instance.programs) + len(instance.households)
        return _solve_embedded if n_rows * (n_vars + n_rows) <= SIMPLEX_MAX_CELLS else _solve_highs
    check_backend(solver)
    return _solve_highs


def start_solves(
    instance: Instance,
    budgets: Iterable[float],
    solver: str | Callable[[LpModel], np.ndarray] | None = None,
) -> None:
    """Start the LP at each budget on worker threads: `solve_lp` on the
    instance's `with_budget` copy at that budget then waits for the result
    instead of solving. Only budgets below c_min on HiGHS start anything;
    where `solve_lp` would not run HiGHS this does nothing."""
    if _backend(instance, solver) is _solve_highs:
        scenario = _scenario(instance)
        for budget in budgets:
            scenario.start(float(budget))


def check_backend(solver: str | None) -> None:
    """Reject a backend name other than None (automatic) or "highs"."""
    if solver is not None and solver != "highs":
        raise ValueError(f"unknown LP solver {solver!r}; valid: 'highs' (None chooses by size)")


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
    The backend follows from the model's size (SIMPLEX_MAX_CELLS); "highs"
    forces HiGHS, and a callable returning the variable vector replaces the
    backend.

    On HiGHS the solution depends on the instance and budget alone, not on
    which budgets its `with_budget` copies solved before: at a budget of at
    least c_min, the cost of the cheapest solution reaching the budget-free
    optimum t_max, it is that solution; below c_min it spends the whole
    budget. The objective reported is the minimum group mean of the snapped
    y (1.0 without groups), as `verify_solution` checks it, not the
    backend's t."""
    x_full = _backend(model.instance, solver)(model)
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
    labels = ["budget"]
    labels += [f"cover:{h.id}" for h in inst.households]
    labels += [f"equity:{g}" for g in inst.groups]
    bounds = model.indptr.tolist()
    indices, data = model.indices.tolist(), model.data.tolist()
    for label, start, end, rhs in zip(labels, bounds, bounds[1:], model.rhs.tolist()):
        body = " ".join(term(c, v) for v, c in zip(indices[start:end], data[start:end]))
        body = body.removeprefix("+ ")
        label = label.replace(":", "_").replace(" ", "_")
        lines.append(f" {label}: {body} <= {rhs:.12g}")
    lines.append("Bounds")
    lines += [f" 0 <= {name} <= 1" for name in names]
    lines.append("End")
    Path(path).write_text("\n".join(lines) + "\n")
