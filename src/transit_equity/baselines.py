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

The trials of a batch are scanned together. The leading permutation
positions that every trial affords are taken in a few array operations
(`uniform_selections`), and only the rest is scanned one position at a time.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import (
    AFFORDABILITY_TOL, DeterministicStrategy, Instance, StrategyOutcome, _check_budget, evaluate,
)


@dataclass(frozen=True)
class _GreedyTables:
    """What `greedy` starts from at any budget. Programs covering two or more
    households are the multi programs, numbered m = 0..M-1 in program order;
    each other program covers one household and waits in the queue of that
    household's group signature."""

    rank: np.ndarray  # per program, its position in id order
    household_groups: tuple[tuple[int, ...], ...]  # per household, its group indices
    covers: tuple[np.ndarray, np.ndarray]  # CSR: per program, the households it covers
    multi: np.ndarray  # the program index of each multi program
    membership: np.ndarray  # (groups, households) float64 0/1
    multi_members: np.ndarray  # (groups, M) float64: the members of g that m covers
    multi_coverers: tuple[np.ndarray, np.ndarray]  # CSR: per household, the m covering it
    # per signature: the positions of its equity's terms in greedy's `ratios`
    # and its programs as (cost, rank, program, household), ascending
    queues: tuple[tuple[tuple[int, ...], tuple[tuple[float, int, int, int], ...]], ...]
    singles: tuple[tuple[tuple[float, int, int], ...], ...]  # per household, (cost, rank, program)


def _greedy_tables(instance: Instance) -> _GreedyTables:
    """The instance's `_GreedyTables`; `greedy_selections` builds them once
    per instance and its `with_budget` copies, through `Instance.derive`."""
    n_j, n_groups = len(instance.programs), len(instance.groups)
    rank = np.empty(n_j, dtype=int)
    rank[np.argsort([p.id for p in instance.programs], kind="stable")] = np.arange(n_j)
    by_program = instance.coverers.tocsc()
    cover_ptr, cover_idx = by_program.indptr.astype(np.intp), by_program.indices.astype(np.intp)
    cover_sizes = np.diff(cover_ptr)
    multi = np.flatnonzero(cover_sizes > 1)
    members = instance.group_members
    coverers = instance.coverers[:, multi].tocsr()
    group_of = {gid: g for g, gid in enumerate(instance.groups)}
    household_groups = [sorted(map(group_of.get, h.group_ids)) for h in instance.households]
    by_signature: dict[tuple[int, ...], list] = {}
    singles: list[list] = [[] for _ in instance.households]
    costs, ranks = instance.costs.tolist(), rank.tolist()
    for j in np.flatnonzero(cover_sizes == 1).tolist():
        i = int(cover_idx[cover_ptr[j]])
        by_signature.setdefault(tuple(household_groups[i]), []).append(
            (costs[j], ranks[j], j, i)
        )
        singles[i].append((costs[j], ranks[j], j))
    queues = tuple(
        (
            tuple(g for g in range(n_groups) if g not in signature)
            + tuple(n_groups + g for g in signature),
            tuple(sorted(entries)),
        )
        for signature, entries in by_signature.items()
    )
    return _GreedyTables(
        rank=rank,
        household_groups=tuple(map(tuple, household_groups)),
        covers=(cover_ptr, cover_idx),
        multi=multi,
        membership=members.toarray().astype(float),
        multi_members=(members @ coverers).toarray().astype(float),
        multi_coverers=(coverers.indptr.astype(np.intp), coverers.indices.astype(np.intp)),
        queues=queues,
        singles=tuple(map(tuple, singles)),
    )


def greedy(instance: Instance) -> StrategyOutcome:
    """Repeatedly select the affordable program with the largest equity gain.

    Ties are broken by larger newly-covered household count, then lower cost,
    then lexicographically smallest program id, making the result fully
    deterministic. Programs too expensive for the remaining budget are
    skipped, not terminal. One row of `greedy_selections`."""
    selected = greedy_selections(instance, [instance.budget])[0]
    return evaluate(instance, DeterministicStrategy(selected))


def greedy_selections(instance: Instance, budgets: Sequence[float]) -> np.ndarray:
    """The (budgets, programs) bool selections of `greedy` on the instance at
    each of `budgets` (in its unit; its own budget is not read).

    Every pick is the best of all unselected affordable programs, an exact
    full rescan: the max-min gain is not submodular, so a lazy greedy with
    stale bounds would not pick the same programs. The rescan scores a few
    representatives, which three exact facts allow:

    - While its household is uncovered, a single-household program newly
      covers one household, and its new equity depends only on that
      household's set of groups, its signature. All such programs of one
      signature tie on both, so only the first of them in (cost, id) order
      can win: the head of the signature's queue.
    - A program that covers no uncovered household, single or not, newly
      covers none and leaves the equity as it is. Only the first of these
      spent programs in (cost, id) order can win: the top of one heap.
    - The remaining budget only shrinks, so a program that no longer fits
      never fits again and is dropped.

    The multi-household programs that still cover an uncovered household are
    scored one by one, with the gains kept in numpy. Every equity is the
    same division of the same integer counts as in a full rescan, so it
    compares the same floats.

    A fourth exact fact runs all budgets as one: budgets that have made the
    same picks share them. Subtracting the same costs in the same order
    keeps a smaller budget's remainder at most a larger one's (float
    subtraction is monotone), so it affords a subset, and the larger
    budget's pick, if it fits the smaller, is the smaller's pick too. A
    group of budgets advances on its largest one's picks; the members a
    pick does not fit leave with a copy of the state and go on as a group
    of their own. Each budget subtracts the costs from its own remainder.
    """
    for budget in budgets:
        _check_budget(budget)
    tables = instance.derive("greedy", _greedy_tables)
    n_i = len(instance.households)
    sizes = instance.group_sizes.tolist()
    cover_ptr, cover_idx = tables.covers
    coverer_ptr, coverer_idx = tables.multi_coverers
    membership = tables.membership
    household_groups = tables.household_groups
    singles = tables.singles

    # gain[g, m]: members of g covered once m is picked; fresh[m]: households m
    # newly covers. Both are integers, so the float arithmetic on them is
    # exact. live[m]: m is unselected, affordable and fresh; n_live counts
    # them as of the last scoring, and once it reads 0 no multi program can
    # be picked again.
    multi = tables.multi
    multi_costs = instance.costs[multi]
    multi_ranks = tables.rank[multi]
    gain = tables.multi_members.copy()
    fresh = np.diff(cover_ptr)[multi]
    live = np.ones(multi.size, dtype=bool)
    n_live = multi.size
    size_column = np.array(sizes, dtype=float)[:, np.newaxis]

    # [terms, entries, head]: entries before the head are picked or covered
    queues = [[terms, entries, 0] for terms, entries in tables.queues]
    spent: list[tuple[float, int, int]] = []  # heap of (cost, rank, program)

    picked: list[int] = []
    covered = bytearray(n_i)
    n_groups = len(sizes)
    counts = [0] * n_groups  # covered members per group
    # per group, its ratio now, then (from n_groups on) with one more member covered
    ratios = [0 / n for n in sizes] + [1 / n for n in sizes]
    n_covered = 0

    # a group's members as [remaining, row], largest first: the first leads
    members = sorted(([float(b), row] for row, b in enumerate(budgets)), reverse=True)
    state = (gain, fresh, live, n_live, queues, spent, picked, covered, counts, ratios, n_covered)
    groups = [(members, state)] if members else []
    selections = np.zeros((len(budgets), len(instance.programs)), dtype=bool)
    while groups:
        members, state = groups.pop()
        gain, fresh, live, n_live, queues, spent, picked, covered, counts, ratios, n_covered = state
        while n_covered < n_i:
            limit = members[0][0] + AFFORDABILITY_TOL
            # (-equity, -fresh, cost, id rank, program, source, queue)
            keys = []
            if n_live:
                live &= multi_costs <= limit
                candidates = np.flatnonzero(live)
                n_live = candidates.size
                if n_live:
                    ratios_now = gain[:, candidates] / size_column
                    equity = np.minimum.reduce(ratios_now, axis=0, initial=1.0)
                    keys.append(min(zip(
                        (-equity).tolist(), (-fresh[candidates]).tolist(),
                        multi_costs[candidates].tolist(), multi_ranks[candidates].tolist(),
                        multi[candidates].tolist(), [0] * n_live, candidates.tolist(),
                    )))
            open_queues = []
            for queue in queues:
                terms, entries, head = queue
                while head < len(entries) and covered[entries[head][3]]:
                    head += 1
                if head < len(entries) and entries[head][0] <= limit:
                    queue[2] = head
                    open_queues.append(queue)
                    cost, r, j, _ = entries[head]
                    equity = min(map(ratios.__getitem__, terms), default=1.0)
                    keys.append((-equity, -1, cost, r, j, 1, queue))
            queues = open_queues
            if spent and spent[0][0] <= limit:
                cost, r, j = spent[0]
                keys.append((-min(ratios[:n_groups], default=1.0), 0, cost, r, j, 2, None))
            if not keys:
                break
            _, _, cost, _, j, source, where = min(keys)
            if cost > members[-1][0] + AFFORDABILITY_TOL:
                # the members the pick does not fit, a suffix, go on from here
                fit = sum(cost <= remaining + AFFORDABILITY_TOL for remaining, _ in members)
                groups.append((members[fit:], (
                    gain.copy(), fresh.copy(), live.copy(), n_live, [q.copy() for q in queues],
                    spent.copy(), picked.copy(), bytearray(covered), counts.copy(),
                    ratios.copy(), n_covered,
                )))
                members = members[:fit]
            picked.append(j)
            for member in members:
                member[0] -= cost

            if source == 2:
                heapq.heappop(spent)
                continue
            if source == 1:
                new = [where[1][where[2]][3]]
                where[2] += 1
            else:
                live[where] = False
                new = [
                    i for i in cover_idx[cover_ptr[j] : cover_ptr[j + 1]].tolist() if not covered[i]
                ]
            n_covered += len(new)
            for i in new:
                covered[i] = 1
                for g in household_groups[i]:
                    counts[g] += 1
                    ratios[g] = counts[g] / sizes[g]
                    ratios[n_groups + g] = (counts[g] + 1) / sizes[g]
                for entry in singles[i]:
                    if entry[2] != j:
                        heapq.heappush(spent, entry)
            if n_live and new:
                new = np.array(new, dtype=np.intp)
                # the multi programs covering each newly covered household, concatenated
                starts = coverer_ptr[new]
                lengths = coverer_ptr[new + 1] - starts
                offsets = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
                programs = coverer_idx[np.arange(offsets.size) + offsets]
                np.subtract.at(fresh, programs, 1)
                gain += membership[:, new].sum(axis=1, keepdims=True)
                np.subtract.at(
                    gain, (slice(None), programs), membership[:, np.repeat(new, lengths)]
                )
                for m in np.flatnonzero(live & (fresh == 0)).tolist():
                    live[m] = False
                    heapq.heappush(
                        spent, (float(multi_costs[m]), int(multi_ranks[m]), int(multi[m]))
                    )
        for _, row in members:
            selections[row, picked] = True
    return selections


def uniform_selections(instance: Instance, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """The (trials, programs) bool selections `uniform` evaluates. Trial t
    takes each program of `rngs[t].permutation(J)` that fits its remaining
    budget, up to the one that covers its last household. Row t is what a
    call with `rngs[t]` alone returns.

    Every trial takes every position before the first at which some trial
    cannot afford its program. That shared prefix is found in blocks of 16,
    32, 64, ... positions: one `np.subtract.accumulate` per block gives each
    trial's remaining budget after each position, as if it took them all.
    `accumulate` is a left fold, so these are the very floats that
    subtracting one cost per step gives, and the prefix takes the same steps
    as the scan. From the first skip on, the trials are scanned together,
    one position per step, until none can afford the cheapest program. The
    picks are kept by permutation position and put in program order in one
    scatter at the end."""
    n_trials, n_j = len(rngs), len(instance.programs)
    costs = instance.costs
    # order[t, k]: the program trial t reaches k-th
    order = np.empty((n_trials, n_j), dtype=np.intp)
    for t, rng in enumerate(rngs):
        order[t] = rng.permutation(n_j)
    # took[t, k]: trial t takes the program it reaches k-th
    took = np.zeros((n_trials, n_j), dtype=bool)
    remaining = np.full(n_trials, float(instance.budget))
    # the shared prefix, block by block: left[:, k] is what each trial has
    # left after taking the block's first k positions
    start, size = 0, 16
    while start < n_j:
        step_costs = costs[order[:, start : start + size]]
        left = np.subtract.accumulate(np.hstack([remaining[:, np.newaxis], step_costs]), axis=1)
        misfit = (step_costs > left[:, :-1] + AFFORDABILITY_TOL).any(axis=0)
        fit = int(misfit.argmax()) if misfit.any() else misfit.size
        remaining = left[:, fit]
        start += fit
        if fit < size:
            break
        size *= 2
    took[:, :start] = True
    cheapest = costs.min(initial=np.inf)
    for k in range(start, n_j):
        if remaining.max() + AFFORDABILITY_TOL < cheapest:
            break
        step_costs = costs[order[:, k]]
        take = step_costs <= remaining + AFFORDABILITY_TOL
        took[:, k] = take
        remaining -= np.where(take, step_costs, 0.0)

    # taken[t, j]: the k at which trial t takes program j, n_j if it does not
    taken = np.empty((n_trials, n_j), dtype=np.int32)
    np.put_along_axis(taken, order, np.where(took, np.arange(n_j, dtype=np.int32), n_j), axis=1)
    # a trial whose picks cover every household ends at the latest over
    # households of each one's first covering pick; any other trial keeps
    # every pick, as all do when a household has no covering program
    cut = np.full(n_trials, n_j - 1)
    indptr, indices = instance.coverers.indptr, instance.coverers.indices
    if not (np.diff(indptr) == 0).any():
        full = np.flatnonzero(instance.coverage(taken < n_j)[0].all(axis=1))
        first = np.minimum.reduceat(taken[full].take(indices, axis=1), indptr[:-1], axis=1)
        cut[full] = first.max(axis=1, initial=-1)
    return taken <= cut[:, np.newaxis]


def uniform(instance: Instance, rng: int | np.random.Generator) -> StrategyOutcome:
    """Repeatedly pick uniformly at random among the not-yet-selected programs
    that still fit the remaining budget, until none fits or every household
    is covered: one trial of `uniform_selections`. Reproducible given an
    integer seed."""
    selected = uniform_selections(instance, [np.random.default_rng(rng)])[0]
    return evaluate(instance, DeterministicStrategy(selected))
