"""Exact small-instance oracles: optimal deterministic and randomized strategies.

The deterministic optimum is found by exhaustive (pruned) enumeration of all
feasible selections. The randomized optimum maximizes the worst-group
expected coverage ratio over probability distributions on those selections,
which is itself a small linear program solved with the embedded simplex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import simplex
from .model import AFFORDABILITY_TOL, DeterministicStrategy, Instance, StrategyOutcome, evaluate

MAX_ENUMERABLE_PROGRAMS = 20
MAX_DISTRIBUTION_ATOMS = 100_000


class InstanceTooLargeError(ValueError):
    """The instance exceeds the exact-oracle size caps."""


@dataclass(frozen=True, eq=False)
class StrategySpace:
    """Every budget-feasible deterministic selection, in lexicographic order
    (a selection is the tuple of 0/1 entries over the program list)."""

    feasible: tuple[DeterministicStrategy, ...]

    @property
    def count(self) -> int:
        return len(self.feasible)


@dataclass(frozen=True, eq=False)
class RandomizedStrategy:
    """A distribution over feasible deterministic strategies; atoms with
    probability below 1e-12 are dropped."""

    atoms: tuple[tuple[DeterministicStrategy, float], ...]

    def total_probability(self) -> float:
        return sum(w for _, w in self.atoms)


def enumerate_feasible(instance: Instance) -> StrategySpace:
    """All binary selections with total cost <= budget, found by depth-first
    search pruned on remaining budget (costs are nonnegative, so any
    over-budget prefix only gets worse)."""
    n_j = len(instance.programs)
    if n_j > MAX_ENUMERABLE_PROGRAMS:
        raise InstanceTooLargeError(
            f"enumeration supports at most {MAX_ENUMERABLE_PROGRAMS} programs, got {n_j}"
        )
    costs = instance.costs
    budget = instance.budget + AFFORDABILITY_TOL
    out: list[DeterministicStrategy] = []
    prefix = [0] * n_j

    def descend(j: int, cost: float) -> None:
        if j == n_j:
            out.append(DeterministicStrategy(tuple(prefix)))
            return
        descend(j + 1, cost)
        if cost + costs[j] <= budget:
            prefix[j] = 1
            descend(j + 1, cost + costs[j])
            prefix[j] = 0

    descend(0, 0.0)
    out.sort(key=lambda s: s.selected)
    return StrategySpace(feasible=tuple(out))


def _selection_matrix(space: StrategySpace) -> np.ndarray:
    return np.array([s.selected for s in space.feasible], dtype=bool)


def _coverage(instance: Instance, sel: np.ndarray) -> np.ndarray:
    """coverage[k, i]: whether the k-th selection covers household i."""
    indptr, indices = instance.program_households
    coverage = np.zeros((sel.shape[0], len(instance.households)), dtype=bool)
    for j in range(sel.shape[1]):
        coverage[:, indices[indptr[j] : indptr[j + 1]]] |= sel[:, j, np.newaxis]
    return coverage


def _group_ratio_matrix(instance: Instance, space: StrategySpace) -> np.ndarray:
    """ratios[k, g]: coverage ratio of group g under the k-th strategy."""
    coverage = _coverage(instance, _selection_matrix(space))
    ratios = np.empty((space.count, len(instance.groups)))
    for g, members in enumerate(instance.group_indices):
        ratios[:, g] = coverage[:, members].mean(axis=1)
    return ratios


def opt_deterministic(instance: Instance) -> tuple[StrategyOutcome, float]:
    """Best feasible deterministic strategy; ties broken by lower cost, then
    lexicographically smallest selection."""
    space = enumerate_feasible(instance)
    best: StrategyOutcome | None = None
    for strategy in space.feasible:
        outcome = evaluate(instance, strategy)
        if best is None or (outcome.equity, -outcome.total_cost) > (best.equity, -best.total_cost):
            best = outcome
    assert best is not None  # the empty selection is always feasible
    return best, best.equity


def opt_randomized(
    instance: Instance, *, prune_dominated: bool = False
) -> tuple[RandomizedStrategy, float]:
    """Optimal distribution over feasible strategies, maximizing the
    worst-group expected coverage ratio:

        max t  s.t.  t <= sum_k q_k ratio[k, g]  for every group g,
                     sum_k q_k = 1,  q >= 0.
    """
    space = enumerate_feasible(instance)
    keep = np.arange(space.count)
    ratios = _group_ratio_matrix(instance, space)
    if prune_dominated:
        keep = _undominated(instance, space)
        ratios = ratios[keep]
    k = keep.size
    if k > MAX_DISTRIBUTION_ATOMS:
        raise InstanceTooLargeError(
            f"distribution LP supports at most {MAX_DISTRIBUTION_ATOMS} atoms, got {k}"
        )
    n_groups = len(instance.groups)

    # variables: [t, q_1..q_k]
    c = np.zeros(1 + k)
    c[0] = 1.0
    rows = np.zeros((n_groups + 1, 1 + k))
    rhs = np.zeros(n_groups + 1)
    senses = [simplex.LESS_EQUAL] * n_groups + [simplex.EQUAL]
    for g in range(n_groups):
        rows[g, 0] = 1.0
        rows[g, 1:] = -ratios[:, g]
    rows[n_groups, 1:] = 1.0
    rhs[n_groups] = 1.0
    bounds: list[float | None] = [1.0] + [None] * k

    result = simplex.solve(c, rows, rhs, senses, upper_bounds=bounds)
    if result.status != "optimal":
        raise RuntimeError(f"distribution LP ended {result.status}")
    weights = result.x[1:]
    atoms = tuple(
        (space.feasible[int(keep[i])], float(w))
        for i, w in enumerate(weights)
        if w > 1e-12
    )
    value = float(result.x[0]) if n_groups else 1.0
    return RandomizedStrategy(atoms=atoms), value


def _undominated(instance: Instance, space: StrategySpace) -> np.ndarray:
    """Indices of strategies not dominated by another (superset coverage at
    equal or lower cost; exact duplicates keep their first occurrence)."""
    sel = _selection_matrix(space)
    coverage = _coverage(instance, sel).astype(np.uint8)
    costs = sel.astype(float) @ instance.costs
    # missing[k, l] == 0 iff coverage of k is a subset of coverage of l
    missing = coverage @ (1 - coverage).T
    subset = missing == 0
    cheaper_equal = costs[np.newaxis, :] <= costs[:, np.newaxis]
    proper = subset & cheaper_equal
    np.fill_diagonal(proper, False)
    same_cover = (missing == 0) & (missing.T == 0)
    same_cost = np.abs(costs[np.newaxis, :] - costs[:, np.newaxis]) < 1e-15
    duplicate = same_cover & same_cost
    earlier = np.tril(np.ones_like(proper, dtype=bool), k=-1)  # earlier[k, l]: l < k
    dominated = (proper & (~duplicate | earlier)).any(axis=1)
    return np.flatnonzero(~dominated)
