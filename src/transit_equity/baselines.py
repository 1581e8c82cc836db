"""Experimental baselines: equity-greedy selection and uniform random selection.

Both stop when every household is covered or no remaining program fits the
leftover budget, and both always stay within budget (unlike the randomized
rounding strategy, which may overflow by at most one normalized cost unit).

Uniform selection picks uniformly among the unselected programs that still
fit the remaining budget. It is sampled as a scan of one uniform random
permutation (Fisher-Yates; Knuth, TAOCP Vol. 2, 3.4.2): take each program, in
permutation order, that fits, until every household is covered. The two have
the same distribution. Given the picks so far, the unscanned rest of a
uniform permutation is in uniform order, so the first of it that fits is
uniform among the unscanned programs that fit. A skipped program never fits
again, because the budget only shrinks, so those are exactly the unselected
programs that fit. The budget is subtracted in pick order either way.
"""

from __future__ import annotations

from typing import Sequence

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
    # float64 like the counts below: mixed-dtype in-place updates are slower
    membership = instance.group_members.toarray().astype(float)
    group_sizes = membership.sum(axis=1, keepdims=True)
    id_rank = np.empty(n_j, dtype=int)
    id_rank[np.argsort([p.id for p in instance.programs], kind="stable")] = np.arange(n_j)

    # uncovered[g, j]: members of g that j would newly cover; fresh[j]: newly
    # covered households overall. Both are maintained incrementally as
    # coverage grows; every count is an integer, so the float arithmetic on
    # them is exact.
    fresh = np.diff(cover_ptr)
    uncovered = (instance.group_members @ instance.coverers).toarray().astype(float)
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


def uniform_selections(instance: Instance, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """The (trials, programs) bool selections `uniform` evaluates. Trial t
    takes each program of `rngs[t].permutation(J)` that fits its remaining
    budget, up to the one that covers its last household. The trials are
    scanned together, one position per step, until none can afford the
    cheapest program; they share no state, so row t is what a call with
    `rngs[t]` alone returns."""
    n_trials, n_j = len(rngs), len(instance.programs)
    costs = instance.costs
    # order[k, t]: the program trial t reaches k-th
    order = np.empty((n_j, n_trials), dtype=np.int32)
    for t, rng in enumerate(rngs):
        order[:, t] = rng.permutation(n_j)
    # taken[j, t]: the k at which trial t takes program j, n_j if it does not
    taken = np.full((n_j, n_trials), n_j, dtype=np.int32)
    trials = np.arange(n_trials)
    remaining = np.full(n_trials, float(instance.budget))
    cheapest = costs.min(initial=np.inf)
    for k in range(n_j):
        if remaining.max() + AFFORDABILITY_TOL < cheapest:
            break
        step_costs = costs[order[k]]
        take = step_costs <= remaining + AFFORDABILITY_TOL
        taken[order[k], trials] = np.where(take, k, n_j)
        remaining -= np.where(take, step_costs, 0.0)

    # a trial ends at the latest over households of each one's first covering
    # pick (n_j if some household stays uncovered); a household no program
    # covers means no trial ends on coverage
    cut = np.full(n_trials, n_j - 1)
    indptr, indices = instance.household_programs
    if not (np.diff(indptr) == 0).any():
        first = np.minimum.reduceat(taken[indices], indptr[:-1], axis=0)
        np.minimum(cut, first.max(axis=0, initial=-1), out=cut)
    return (taken <= cut).T


def uniform(instance: Instance, rng: int | np.random.Generator) -> StrategyOutcome:
    """Repeatedly pick uniformly at random among the not-yet-selected programs
    that still fit the remaining budget, until none fits or every household
    is covered: one trial of `uniform_selections`. Reproducible given an
    integer seed."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    selected = uniform_selections(instance, [rng])[0]
    return evaluate(instance, DeterministicStrategy(tuple(selected.tolist())))
