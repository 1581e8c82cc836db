"""Experimental baselines: equity-greedy selection and uniform random selection.

Both stop when every household is covered or no remaining program fits the
leftover budget, and both always stay within budget (unlike the randomized
rounding strategy, which may overflow by at most one normalized cost unit).
"""

from __future__ import annotations

import numpy as np

from .model import AFFORDABILITY_TOL, DeterministicStrategy, Instance, StrategyOutcome, evaluate


def greedy(instance: Instance) -> StrategyOutcome:
    """Repeatedly select the affordable program with the largest equity gain.

    Ties are broken by larger newly-covered household count, then lower cost,
    then lexicographically smallest program id, making the result fully
    deterministic. Programs too expensive for the remaining budget are
    skipped, not terminal. Every pick rescans all affordable programs: the
    max-min gain is not submodular, so a lazy (stale-bound) greedy would not
    pick the same programs.
    """
    n_j = len(instance.programs)
    n_i = len(instance.households)
    costs = instance.costs
    cover_ptr, cover_idx = instance.program_households
    coverer_ptr, coverer_idx = instance.household_programs
    n_groups = len(instance.groups)
    membership = np.zeros((n_groups, n_i))
    for g, members in enumerate(instance.group_indices):
        membership[g, members] = 1.0
    group_sizes = membership.sum(axis=1, keepdims=True)
    id_rank = np.empty(n_j, dtype=int)
    id_rank[np.argsort([p.id for p in instance.programs], kind="stable")] = np.arange(n_j)

    # uncovered[g, j]: members of g that j would newly cover; fresh[j]: newly
    # covered households overall. Both are maintained incrementally as
    # coverage grows; every count is an integer, so the float arithmetic on
    # them is exact.
    fresh = np.diff(cover_ptr)
    uncovered = np.zeros((n_groups, n_j))
    np.add.at(uncovered, (slice(None), np.repeat(np.arange(n_j), fresh)), membership[:, cover_idx])
    covered_count = np.zeros((n_groups, 1))
    ratios = np.empty((n_groups, n_j))
    new_equity = np.ones(n_j)

    selected = np.zeros(n_j, dtype=bool)
    covered = np.zeros(n_i, dtype=bool)
    n_covered = 0
    remaining = float(instance.budget)

    while n_covered < n_i:
        candidates = np.flatnonzero(~selected & (costs <= remaining + AFFORDABILITY_TOL))
        if candidates.size == 0:
            break
        if n_groups:
            np.add(uncovered, covered_count, out=ratios)
            np.divide(ratios, group_sizes, out=ratios)
            np.minimum.reduce(ratios, axis=0, out=new_equity)
        # the tie-break order as successive exact filters: the pick a lexsort on
        # (-equity, -fresh, cost, id rank) would put first
        values = new_equity[candidates]
        candidates = candidates[values == values.max()]
        values = fresh[candidates]
        candidates = candidates[values == values.max()]
        values = costs[candidates]
        candidates = candidates[values == values.min()]
        pick = int(candidates[id_rank[candidates].argmin()])

        selected[pick] = True
        remaining -= float(costs[pick])
        households = cover_idx[cover_ptr[pick] : cover_ptr[pick + 1]]
        new = households[~covered[households]]
        covered[new] = True
        n_covered += new.size
        # the programs covering each newly covered household, concatenated
        starts = coverer_ptr[new]
        lengths = coverer_ptr[new + 1] - starts
        offsets = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
        programs = coverer_idx[np.arange(offsets.size) + offsets]
        np.subtract.at(fresh, programs, 1)
        np.subtract.at(uncovered, (slice(None), programs), membership[:, np.repeat(new, lengths)])
        covered_count += membership[:, new].sum(axis=1, keepdims=True)

    return evaluate(instance, DeterministicStrategy(tuple(selected.tolist())))


def uniform_selection(instance: Instance, rng: np.random.Generator) -> np.ndarray:
    """The bool program selection `uniform` evaluates.

    Once a program becomes unaffordable it stays so (the remaining budget only
    shrinks), so the candidate pool is filtered lazily: a full pass happens
    only when the budget drops below the costliest survivor. The loop runs on
    Python ints and floats; each pick is one `rng.integers(len(alive))` call.
    """
    n_i = len(instance.households)
    costs = instance.costs.tolist()
    indptr, indices = instance.program_households
    bounds, households = indptr.tolist(), indices.tolist()

    alive = list(range(len(costs)))
    max_alive = max(costs, default=0.0)
    picks = []
    covered = bytearray(n_i)
    n_covered = 0
    remaining = float(instance.budget)

    while alive and n_covered < n_i:
        if max_alive > remaining + AFFORDABILITY_TOL:
            limit = remaining + AFFORDABILITY_TOL
            alive = [j for j in alive if costs[j] <= limit]
            if not alive:
                break
            max_alive = max(costs[j] for j in alive)
        r = int(rng.integers(len(alive)))
        pick = alive[r]
        alive[r] = alive[-1]
        alive.pop()
        picks.append(pick)
        remaining -= costs[pick]
        for i in households[bounds[pick] : bounds[pick + 1]]:
            if not covered[i]:
                covered[i] = 1
                n_covered += 1

    selected = np.zeros(len(costs), dtype=bool)
    selected[picks] = True
    return selected


def uniform(instance: Instance, rng: int | np.random.Generator) -> StrategyOutcome:
    """Repeatedly pick uniformly at random among the not-yet-selected programs
    that still fit the remaining budget. Reproducible given an integer seed."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    selected = uniform_selection(instance, rng)
    return evaluate(instance, DeterministicStrategy(tuple(selected.tolist())))
