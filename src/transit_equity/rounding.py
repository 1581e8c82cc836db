"""Weighted dependent rounding of a fractional program-opening vector.

The randomized allocation strategy starts from the benchmark LP optimum and
repeatedly "twists" two fractional entries: one is pushed up and the other
down, in cost-weighted proportion, so that the selected direction is random
but the cost-weighted sum of the pair is conserved exactly. Each twist makes
at least one entry integral; when a single fractional entry remains it is
rounded on its own (the only step that can raise the total cost, by at most
the max program cost, i.e. at most 1 after normalization).

Per-step closed forms, derived from the feasible step sizes
alpha = max{e > 0 : X_p + e <= 1, X_q - c_p e / c_q >= 0} and
beta  = max{e > 0 : X_p - e >= 0, X_q + c_p e / c_q <= 1}:

    alpha = min(1 - X_p, X_q * c_q / c_p)
    beta  = min(X_p, (1 - X_q) * c_q / c_p)

and the pair moves up with probability beta / (alpha + beta).

The pair is always the two lowest-index fractional entries. One step
function, `_step`, does both the sampling (`ras`) and the exact enumeration
of the binary trajectory tree (`trajectory_leaves`), which yields exact
per-program marginals, per-household coverage probabilities, expected cost,
and the worst-group expected coverage ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .lp import SNAP_EPS, FractionalSolution, snap
from .model import DeterministicStrategy, Instance, StrategyOutcome, evaluate

MAX_EXACT_PROGRAMS = 24


def _values_of(x_star, costs: np.ndarray) -> np.ndarray:
    """The rounding's start vector: a snapped copy of x*, every free program
    opened. A raw vector must match the costs and lie in [0, 1] (to within
    SNAP_EPS); a NaN entry is rejected."""
    if isinstance(x_star, FractionalSolution):
        values = x_star.x_star
    else:
        values = np.asarray(x_star, dtype=float)
        if not ((values >= -SNAP_EPS) & (values <= 1.0 + SNAP_EPS)).all():
            raise ValueError("allocation values must lie in [0, 1]")
    if values.shape != costs.shape:
        raise ValueError(
            "fractional vector and program costs must be 1-d arrays of equal length, "
            f"got shapes {values.shape} and {costs.shape}"
        )
    values = snap(values)
    values[costs <= 0.0] = 1.0  # a free program is always opened
    return values


def _step(
    v: np.ndarray, costs: np.ndarray, up: Callable[[float], bool]
) -> tuple[float, float] | None:
    """Advance `v` in place by one rounding step; None once `v` is integral.

    With two or more fractional entries it twists the lowest-index pair p < q,
    otherwise it rounds the lone fractional entry on its own. It returns the
    branch weights (up, down), whose ratio to their sum is each branch's
    probability, and takes the up branch iff `up(probability of up)`.
    """
    frac = np.flatnonzero((v > 0.0) & (v < 1.0))
    if frac.size == 0:
        return None
    p = int(frac[0])
    if frac.size == 1:
        weights = (v[p], 1.0 - v[p])
        v[p] = 1.0 if up(v[p]) else 0.0
        return weights
    q = int(frac[1])
    ratio = costs[q] / costs[p]
    alpha = min(1.0 - v[p], v[q] * ratio)
    beta = min(v[p], (1.0 - v[q]) * ratio)
    if up(beta / (alpha + beta)):
        v[p] += alpha
        v[q] -= costs[p] / costs[q] * alpha
    else:
        v[p] -= beta
        v[q] += costs[p] / costs[q] * beta
    for k in (p, q):  # `snap`, on the two entries the twist moved
        if v[k] <= SNAP_EPS:
            v[k] = 0.0
        elif v[k] >= 1.0 - SNAP_EPS:
            v[k] = 1.0
    return beta, alpha


def ras_selection(
    instance: Instance,
    x_star: FractionalSolution | Sequence[float] | np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """One realization of the randomized allocation strategy as a bool
    selection over the programs: the rounding `ras` evaluates. One coin
    `rng.random()` per step."""
    costs = np.asarray(instance.costs, dtype=float)
    values = _values_of(x_star, costs)
    while _step(values, costs, lambda prob_up: rng.random() < prob_up) is not None:
        pass
    return values > 0.5


def ras(
    instance: Instance,
    x_star: FractionalSolution | Sequence[float] | np.ndarray,
    rng: int | np.random.Generator,
) -> StrategyOutcome:
    """Run one realization of the randomized allocation strategy.

    Starts from the fractional optimum, twists pairs of fractional entries
    until at most one remains, rounds that one on its own, and evaluates the
    realized binary strategy. Reproducible given an integer seed.
    """
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    selected = ras_selection(instance, x_star, rng)
    return evaluate(instance, DeterministicStrategy(tuple(selected.tolist())))


def trajectory_leaves(
    values: FractionalSolution | Sequence[float] | np.ndarray,
    costs: Sequence[float] | np.ndarray,
) -> Iterator[tuple[float, np.ndarray]]:
    """Enumerate (probability, integral vector) over every rounding
    trajectory. Probabilities sum to 1."""
    costs = np.asarray(costs, dtype=float)

    def recurse(v: np.ndarray, prob: float) -> Iterator[tuple[float, np.ndarray]]:
        down = v.copy()
        weights = _step(v, costs, lambda _: True)
        if weights is None:
            yield prob, v
            return
        _step(down, costs, lambda _: False)
        total = weights[0] + weights[1]
        yield from recurse(v, prob * weights[0] / total)
        yield from recurse(down, prob * weights[1] / total)

    yield from recurse(_values_of(values, costs), 1.0)


@dataclass(frozen=True, eq=False)
class ExactRoundingStats:
    """Exact distributional summary of the rounding procedure."""

    x_mean: np.ndarray
    y_mean: np.ndarray
    equity: float  # worst-group expected coverage ratio
    expected_cost: float
    prob_over_budget: float
    max_leaf_cost: float


def exact_expectation(
    instance: Instance,
    x_star: FractionalSolution | Sequence[float] | np.ndarray,
) -> ExactRoundingStats:
    """Exact expectations over the full trajectory tree (needs |J| <= 24)."""
    n_j = len(instance.programs)
    if n_j > MAX_EXACT_PROGRAMS:
        raise ValueError(
            f"exact enumeration supports at most {MAX_EXACT_PROGRAMS} programs, got {n_j}"
        )
    costs = np.asarray(instance.costs, dtype=float)

    x_mean = np.zeros(n_j)
    y_mean = np.zeros(len(instance.households))
    expected_cost = 0.0
    prob_over = 0.0
    max_cost = 0.0
    total_prob = 0.0
    for prob, leaf in trajectory_leaves(x_star, costs):
        sel = leaf > 0.5
        cost = float(costs[sel].sum())
        x_mean += prob * leaf
        y_mean += prob * (instance.coverers @ sel > 0)
        expected_cost += prob * cost
        max_cost = max(max_cost, cost)
        if cost > instance.budget + 1e-9:
            prob_over += prob
        total_prob += prob
    if abs(total_prob - 1.0) > 1e-9:
        raise RuntimeError(f"trajectory probabilities sum to {total_prob}, not 1")

    equity = 1.0
    for members in instance.group_indices:
        equity = min(equity, float(y_mean[members].mean()))
    return ExactRoundingStats(
        x_mean=x_mean,
        y_mean=y_mean,
        equity=equity,
        expected_cost=expected_cost,
        prob_over_budget=prob_over,
        max_leaf_cost=max_cost,
    )
