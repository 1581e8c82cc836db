"""Exact small-instance oracles: optimal deterministic and randomized strategies.

Both enumerate every feasible selection into one bool selection matrix and
score all of its rows at once with `Instance.coverage`, refusing more than
MAX_COVERAGE_CELLS selection x household cells. The deterministic optimum is
the best row; only that row is realized with `evaluate`. The randomized
optimum maximizes the worst-group expected coverage ratio over probability
distributions on the rows, which is itself a small linear program; its one
equality (the weights sum to 1) is substituted away so that the embedded
simplex, which takes <= rows with nonnegative right-hand sides, solves it
directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import simplex
from .model import (
    AFFORDABILITY_TOL,
    ATOM_PROBABILITY_CUT,
    COST_TIE_MARGIN,
    DeterministicStrategy,
    Instance,
    StrategyOutcome,
    evaluate,
)

MAX_ENUMERABLE_PROGRAMS = 20
MAX_DISTRIBUTION_ATOMS = 100_000
# Largest selections x households matrix the oracles score. At the cap (2**20
# selections of 20 programs, 8 households) opt_deterministic peaks near 123 MB
# RSS, about 88 MB above the interpreter with the package loaded; 8 MB of it
# is the covered matrix `Instance.coverage` returns, one byte per cell.
MAX_COVERAGE_CELLS = 2**23


class InstanceTooLargeError(ValueError):
    """The instance exceeds the exact-oracle size caps."""


@dataclass(frozen=True, eq=False)
class StrategySpace:
    """Every budget-feasible deterministic selection: row k of the read-only
    `(K, J)` bool matrix `selections` is the k-th selection over the program
    list, rows in lexicographic order."""

    selections: np.ndarray

    @property
    def count(self) -> int:
        return self.selections.shape[0]


@dataclass(frozen=True, eq=False)
class RandomizedStrategy:
    """A distribution over feasible deterministic strategies; atoms with
    probability at most ATOM_PROBABILITY_CUT are dropped."""

    atoms: tuple[tuple[DeterministicStrategy, float], ...]


def enumerate_feasible(instance: Instance) -> StrategySpace:
    """All binary selections with total cost <= budget, grown one program at
    a time: each feasible prefix is followed by 0, then by 1 where it still
    fits (costs are nonnegative, so an over-budget prefix only gets worse).
    Prefix costs accumulate in program order, so the cut-off is the same
    float comparison a depth-first search makes."""
    n_j = len(instance.programs)
    if n_j > MAX_ENUMERABLE_PROGRAMS:
        raise InstanceTooLargeError(
            f"enumeration supports at most {MAX_ENUMERABLE_PROGRAMS} programs, got {n_j}"
        )
    budget = instance.budget + AFFORDABILITY_TOL
    selections = np.zeros((1, n_j), dtype=bool)
    spent = np.zeros(1)
    for j, cost in enumerate(instance.costs):
        fits = spent + cost <= budget
        repeats = 1 + fits
        # the 1-extension of prefix k sits right after its 0-extension
        ones = np.cumsum(repeats)[fits] - 1
        selections = np.repeat(selections, repeats, axis=0)
        spent = np.repeat(spent, repeats)
        selections[ones, j] = True
        spent[ones] += cost
    selections.setflags(write=False)
    return StrategySpace(selections=selections)


def _feasible(instance: Instance) -> np.ndarray:
    """The feasible selections, refused past MAX_COVERAGE_CELLS before scoring."""
    sel = enumerate_feasible(instance).selections
    if sel.shape[0] * len(instance.households) > MAX_COVERAGE_CELLS:
        raise InstanceTooLargeError(
            f"the exact oracles score at most {MAX_COVERAGE_CELLS} selection x household"
            f" cells, got {sel.shape[0]} x {len(instance.households)}"
        )
    return sel


def opt_deterministic(instance: Instance) -> tuple[StrategyOutcome, float]:
    """Best feasible deterministic strategy; ties broken by lower cost, then
    lexicographically smallest selection."""
    sel = _feasible(instance)
    # evaluate's equity: the minimum group ratio, 1.0 without groups
    equity = (instance.coverage(sel)[1] / instance.group_sizes).min(axis=1, initial=1.0)
    tied = np.flatnonzero(equity == equity.max())
    # Two summation orders of one row's (at most 20) costs differ by under
    # 20 * eps * sum(costs), so a tied row whose cost, summed in any order,
    # exceeds the smallest by COST_TIE_MARGIN * sum(costs) cannot be the
    # cheapest. Only the rows within that margin are summed as `evaluate`
    # sums them; argmin keeps the first minimum. einsum casts the bools to
    # float in buffered chunks, where a matrix product would copy them whole.
    approx = np.einsum("kj,j->k", sel[tied], instance.costs)
    near = tied[approx <= approx.min() + COST_TIE_MARGIN * instance.costs.sum()]
    costs = instance.selection_costs(sel[near])
    best = evaluate(instance, DeterministicStrategy(sel[near[int(np.argmin(costs))]]))
    return best, best.equity


def opt_randomized(instance: Instance) -> tuple[RandomizedStrategy, float]:
    """Optimal distribution over feasible strategies, maximizing the
    worst-group expected coverage ratio:

        max t  s.t.  t <= sum_k q_k ratio[k, g]  for every group g,
                     sum_k q_k = 1,  q >= 0.

    The simplex takes <= rows with nonnegative right-hand sides only, so the
    equality is substituted away: q_0 = 1 - sum_{k>=1} q_k leaves

        max t  s.t.  t - sum_{k>=1} q_k (ratio[k, g] - ratio[0, g]) <= ratio[0, g],
                     sum_{k>=1} q_k <= 1,  q >= 0,

    a linear change of coordinates of the same LP, with the same optimum.
    Selection 0 is the empty one, so every right-hand side is 0 or 1 and the
    slack basis (the point mass on selection 0) is feasible.
    """
    sel = _feasible(instance)
    k = sel.shape[0]
    if k > MAX_DISTRIBUTION_ATOMS:
        raise InstanceTooLargeError(
            f"distribution LP supports at most {MAX_DISTRIBUTION_ATOMS} atoms, got {k}"
        )
    ratios = instance.coverage(sel)[1] / instance.group_sizes
    n_groups = len(instance.groups)

    # variables: [t, q_1..q_{k-1}]
    c = np.zeros(k)
    c[0] = 1.0
    rows = np.zeros((n_groups + 1, k))
    rows[:n_groups, 0] = 1.0
    rows[:n_groups, 1:] = ratios[0, :, np.newaxis] - ratios[1:].T
    rows[n_groups, 1:] = 1.0
    rhs = np.append(ratios[0], 1.0)

    result = simplex.solve(c, rows, rhs, upper_bounds=[1.0] + [None] * (k - 1))
    if result.status != "optimal":
        raise RuntimeError(f"distribution LP ended {result.status}")
    q = result.x[1:]
    weights = np.concatenate([[1.0 - q.sum()], q])
    atoms = tuple(
        (DeterministicStrategy(sel[i]), float(w))
        for i, w in enumerate(weights)
        if w > ATOM_PROBABILITY_CUT
    )
    return RandomizedStrategy(atoms=atoms), float(result.x[0])
