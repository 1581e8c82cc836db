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
function, `_step`, advances a matrix of trajectories, one row each, over the
start vector's fractional support. Sampling (`ras_selections`) gives each
trial a row and a coin from its own generator per step. Enumeration
(`trajectory_leaves`) splits each unfinished row into an up and a down row
with coins that force the branch, so its leaves come depth-first, in blocks
of at most LEAF_BLOCK_ROWS rows. `exact_expectation` scores each block at
once: exact per-program marginals, per-household coverage probabilities,
expected cost, and the worst-group expected coverage ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .lp import SNAP_EPS, FractionalSolution, snap
from .model import (
    LEAF_OVER_BUDGET_TOL, PROBABILITY_SUM_TOL, DeterministicStrategy, Instance, StrategyOutcome,
    evaluate,
)

# The vector rounded: an LP solution, or its x* as a raw vector.
Allocation = FractionalSolution | Sequence[float] | np.ndarray

MAX_EXACT_PROGRAMS = 24
# Rows of a block of trajectories. Enumeration keeps at most one expanded
# block (2 x LEAF_BLOCK_ROWS rows) pending per level of the tree.
LEAF_BLOCK_ROWS = 2**9
# Leaf x household cells `exact_expectation` scores at once.
LEAF_SCORE_CELLS = 2**18


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


def _support(values: np.ndarray) -> np.ndarray:
    """The indices of the fractional entries."""
    return np.flatnonzero((values > 0.0) & (values < 1.0))


def _start(values: np.ndarray, costs: np.ndarray, n_rows: int):
    """`n_rows` trajectories at the fractional support's `values` plus the
    sentinel column (see `_step`), their pairs, and the columns' costs."""
    pair = np.empty((2, n_rows), dtype=np.intp)
    pair[0], pair[1] = 0, 1
    return np.tile(np.append(values, 0.5), (n_rows, 1)), pair, np.append(costs, np.inf)


def _step(v: np.ndarray, pair: np.ndarray, rows: np.ndarray, costs: np.ndarray, coins: np.ndarray):
    """Advance rows `rows` of `v` by one step each, in place; return their
    branch weights (up, down), whose ratio to their sum is each branch's
    probability.

    Row r of `v` is a trajectory over the columns `costs` prices, and
    `pair[:, r]` its two lowest-index fractional entries p < q. A row
    twists its pair, going up iff its coin is below the up probability, and
    moves its pair on; p passes the support once the row is integral. A lone
    p pairs with the last, sentinel column (value 1/2, infinite cost): then
    alpha = 1 - X_p and beta = X_p, so p is rounded on its own, up with
    probability X_p exactly ((1 - x) + x rounds to 1 for each double x in
    (0, 1)), and the sentinel does not move.
    """
    pq = pair.take(rows, axis=1)
    vals, c = v[rows, pq], costs[pq]
    rest = 1.0 - vals
    vp, vq, cp, cq, dp, dq = vals[0], vals[1], c[0], c[1], rest[0], rest[1]
    ratio = cq / cp
    alpha, beta = np.minimum(dp, vq * ratio), np.minimum(vp, dq * ratio)
    up = coins < beta / (alpha + beta)
    scale = cp / c  # p moves by the shift, q by -c_p / c_q times it
    scale[1] = -scale[1]
    moved = vals + scale * np.where(up, alpha, -beta)
    low, high = moved <= SNAP_EPS, moved >= 1.0 - SNAP_EPS  # `snap`
    moved[low], moved[high] = 0.0, 1.0
    v[rows, pq] = moved
    # entries between p and q are integral and those past q untouched, so
    # each of the pair that became integral moves the pair on by one
    integral = low | high
    pair[1, rows] = nxt = pq[1] + integral[0] + integral[1]
    pair[0, rows] = np.where(integral[0], nxt - 1, pq[0])
    return beta, alpha


def ras_selections(
    instance: Instance, x_star: Allocation, rngs: Sequence[np.random.Generator]
) -> np.ndarray:
    """The (trials, programs) bool selections of the randomized allocation
    strategy: trial t draws one coin `rngs[t].random()` per step of its own
    trajectory, so row t is what a call with `rngs[t]` alone returns."""
    costs = np.asarray(instance.costs, dtype=float)
    values = _values_of(x_star, costs)
    selections = np.repeat((values > 0.5)[np.newaxis], len(rngs), axis=0)
    support = _support(values)
    # kept for speed: 18 of criterion 7's 20 instances start integral, and such
    # a call takes 23 us here and 45 us through `_start` and the loop (2 CPUs)
    if support.size:
        v, pair, costs = _start(values[support], costs[support], len(rngs))
        rows = np.arange(len(rngs))
        while rows.size:
            _step(v, pair, rows, costs, np.array([rngs[t].random() for t in rows.tolist()]))
            rows = rows[pair[0, rows] < support.size]
        selections[:, support] = v[:, :-1] > 0.5
    return selections


def ras(instance: Instance, x_star: Allocation, rng: int | np.random.Generator) -> StrategyOutcome:
    """Run one realization of the randomized allocation strategy.

    Starts from the fractional optimum, twists pairs of fractional entries
    until at most one remains, rounds that one on its own, and evaluates the
    realized binary strategy. Reproducible given an integer seed.
    """
    rng = np.random.default_rng(rng)
    return evaluate(instance, DeterministicStrategy(ras_selections(instance, x_star, [rng])[0]))


def _leaf_blocks(
    values: Allocation, costs: np.ndarray, block_rows: int = LEAF_BLOCK_ROWS
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every trajectory's probability and integral vector, depth-first with
    up before down, in blocks (probabilities, (rows, programs) leaves) of at
    most `block_rows` rows. A block steps its unfinished rows together, each
    splitting into an up row and a down row in its place; one that outgrows
    `block_rows` leaves its tail on the stack."""
    start = _values_of(values, costs)
    support = _support(start)
    # kept for speed, though the loop yields the same leaf: 162 of the
    # small-instance suite's 200 LPs are integral, and their exact_expectation
    # and trajectory_leaves calls take 13-22 ms per pass here, 32 ms without
    if not support.size:  # an integral start is the one leaf
        yield np.ones(1), start[np.newaxis]
        return
    v, pair, costs = _start(start[support], costs[support], 1)
    stack = [(np.ones(1), v, pair)]
    while stack:
        prob, v, pair = stack.pop()
        live = pair[0] < support.size
        if not live.any():
            leaves = np.tile(start, (prob.size, 1))
            leaves[:, support] = v[:, :-1]
            yield prob, leaves
            continue
        reps = 1 + live
        prob, v, pair = np.repeat(prob, reps), np.repeat(v, reps, 0), np.repeat(pair, reps, 1)
        rows = np.flatnonzero(np.repeat(live, reps))
        coins = np.resize([-np.inf, np.inf], rows.size)  # force up, then down
        w_up, w_down = _step(v, pair, rows, costs, coins)
        prob[rows] = prob[rows] * np.where(coins < 0.0, w_up, w_down) / (w_up + w_down)
        for cut in range((prob.size - 1) // block_rows * block_rows, -1, -block_rows):
            stack.append((prob[cut : cut + block_rows], v[cut : cut + block_rows],
                          pair[:, cut : cut + block_rows]))


def trajectory_leaves(
    values: Allocation, costs: Sequence[float] | np.ndarray
) -> Iterator[tuple[float, np.ndarray]]:
    """Enumerate (probability, integral vector) over every rounding
    trajectory, depth-first with the up branch first. Probabilities sum to 1."""
    for prob, leaves in _leaf_blocks(values, np.asarray(costs, dtype=float)):
        yield from zip(prob.tolist(), leaves)


@dataclass(frozen=True, eq=False)
class ExactRoundingStats:
    """Exact distributional summary of the rounding procedure."""

    x_mean: np.ndarray
    y_mean: np.ndarray
    equity: float  # worst-group expected coverage ratio
    expected_cost: float
    prob_over_budget: float
    max_leaf_cost: float


def exact_expectation(instance: Instance, x_star: Allocation) -> ExactRoundingStats:
    """Exact expectations over the full trajectory tree (needs |J| <= 24).
    Each block of leaves is scored at once: covered households by
    `Instance.coverage`, costs by `Instance.selection_costs`."""
    n_j, n_i = len(instance.programs), len(instance.households)
    if n_j > MAX_EXACT_PROGRAMS:
        raise ValueError(
            f"exact enumeration supports at most {MAX_EXACT_PROGRAMS} programs, got {n_j}"
        )
    block_rows = min(LEAF_BLOCK_ROWS, max(1, LEAF_SCORE_CELLS // max(n_i, 1)))
    # x_mean, y_mean, the expected cost, P(over budget) and the total probability
    sums, max_cost, n_leaves = np.zeros(n_j + n_i + 3), 0.0, 0
    for prob, leaves in _leaf_blocks(x_star, instance.costs, block_rows):
        n_leaves += prob.size
        selected = leaves > 0.5
        cost = instance.selection_costs(selected)
        over = cost > instance.budget + LEAF_OVER_BUDGET_TOL
        covered, _ = instance.coverage(selected)
        terms = np.hstack([leaves, covered, np.array([cost, over, np.ones_like(cost)]).T])
        terms *= prob[:, np.newaxis]
        terms[0] += sums
        # a left fold, adding the leaves in order: np.add.reduce may pair them up
        sums = np.add.accumulate(terms, axis=0)[-1]
        max_cost = np.maximum.reduce(cost, initial=max_cost)
    # numpy scalars on a tree that branches, Python floats for the one leaf of
    # an integral start: the types (and reprs) the per-leaf sums gave them
    expected_cost, prob_over, total_prob = sums[-3:] if n_leaves > 1 else sums[-3:].tolist()
    if abs(total_prob - 1.0) > PROBABILITY_SUM_TOL:
        raise RuntimeError(f"trajectory probabilities sum to {total_prob}, not 1")
    y_mean = sums[n_j:-3]
    equity = min([1.0, *(float(y_mean[members].mean()) for members in instance.group_indices)])
    return ExactRoundingStats(sums[:n_j], y_mean, equity, expected_cost, prob_over, float(max_cost))
