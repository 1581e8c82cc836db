import dataclasses
import itertools
from collections import Counter
from fractions import Fraction

import numpy as np

from transit_equity.baselines import greedy, uniform, uniform_selections
from transit_equity.generators import random_instance
from transit_equity.lp import build_lp, solve_lp
from transit_equity.model import (
    AFFORDABILITY_TOL,
    DeterministicStrategy,
    Household,
    Instance,
    Program,
    evaluate,
)


def naive_greedy(instance):
    """Reference greedy: recompute every candidate's equity from scratch."""
    n_j = len(instance.programs)
    selected = [0] * n_j
    remaining = instance.budget
    ids = [p.id for p in instance.programs]
    while True:
        covered = evaluate(instance, DeterministicStrategy(tuple(selected))).covered
        if all(h.id in covered for h in instance.households):
            break
        best = None
        for j, p in enumerate(instance.programs):
            if selected[j] or p.cost > remaining + 1e-12:
                continue
            trial = selected.copy()
            trial[j] = 1
            outcome = evaluate(instance, DeterministicStrategy(tuple(trial)))
            fresh = len(p.covers - covered)
            key = (-outcome.equity, -fresh, p.cost, ids[j])
            if best is None or key < best[0]:
                best = (key, j)
        if best is None:
            break
        selected[best[1]] = 1
        remaining -= instance.programs[best[1]].cost
    return evaluate(instance, DeterministicStrategy(tuple(selected)))


class TestGreedy:
    def test_singletons_picks_lowest_id_and_stalls_at_zero(self, singletons):
        outcome = greedy(singletons)
        # both gains are zero; the tie rule lands on the lexicographically
        # first program, which covers household a
        assert outcome.strategy.selected == (1, 0)
        assert outcome.equity == 0.0

    def test_full_cover_program_selected_first(self):
        inst = Instance(
            households=(
                Household(id="a", group_ids=frozenset({"g"})),
                Household(id="b", group_ids=frozenset({"g"})),
            ),
            programs=(
                Program(id="all", cost=1.0, covers=frozenset({"a", "b"})),
                Program(id="one", cost=0.5, covers=frozenset({"a"})),
            ),
            budget=1.0,
        )
        outcome = greedy(inst)
        assert outcome.strategy.selected == (1, 0)
        assert outcome.equity == 1.0

    def test_targets_worst_group_first(self):
        # p_min lifts the unique worst group; p_big covers more households but
        # leaves that group at zero
        inst = Instance(
            households=(
                Household(id="a", group_ids=frozenset({"g1"})),
                Household(id="b", group_ids=frozenset({"g2"})),
                Household(id="c", group_ids=frozenset({"g2"})),
                Household(id="d", group_ids=frozenset({"g2"})),
            ),
            programs=(
                Program(id="p_big", cost=1.0, covers=frozenset({"b", "c", "d"})),
                Program(id="p_min", cost=1.0, covers=frozenset({"a", "b"})),
            ),
            budget=1.0,
        )
        outcome = greedy(inst)
        assert outcome.strategy.selected == (0, 1)

    def test_skips_unaffordable_but_continues(self):
        inst = Instance(
            households=(
                Household(id="a", group_ids=frozenset({"g"})),
                Household(id="b", group_ids=frozenset({"g"})),
            ),
            programs=(
                Program(id="pricey", cost=5.0, covers=frozenset({"a", "b"})),
                Program(id="cheap", cost=1.0, covers=frozenset({"a"})),
            ),
            budget=1.0,
        )
        outcome = greedy(inst)
        assert outcome.strategy.selected == (0, 1)

    def test_deterministic(self, rng):
        inst = random_instance(rng)
        assert greedy(inst).strategy == greedy(inst).strategy

    def test_never_exceeds_budget_and_below_lp(self, rng):
        for _ in range(15):
            inst = random_instance(rng)
            outcome = greedy(inst)
            assert outcome.total_cost <= inst.budget + 1e-9
            lp_value = solve_lp(build_lp(inst)).objective
            assert outcome.equity <= lp_value + 1e-7

    def test_matches_naive_recomputation(self, rng):
        # the incremental gain bookkeeping must agree with the from-scratch
        # reference, tie rules included
        for _ in range(12):
            inst = random_instance(rng, max_households=8, max_programs=7)
            assert greedy(inst).strategy == naive_greedy(inst).strategy

    def test_matches_naive_on_tie_heavy_instances(self):
        # two cost levels, 1-2 household covers and ids whose lexical order is
        # not program order: the fresh-count, cost and id tie-breaks all decide
        rng = np.random.default_rng(2024)
        for _ in range(300):
            n_i = int(rng.integers(2, 7))
            n_j = int(rng.integers(2, 9))
            names = [f"p{k}" for k in rng.permutation(n_j)]
            programs = tuple(
                Program(
                    id=names[j],
                    cost=float(rng.choice([0.5, 1.0])),
                    covers=frozenset(
                        f"h{i}" for i in rng.choice(n_i, size=int(rng.integers(1, 3)), replace=False)
                    ),
                )
                for j in range(n_j)
            )
            households = tuple(
                Household(id=f"h{i}", group_ids=frozenset({f"g{i % 2}"})) for i in range(n_i)
            )
            budget = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
            inst = Instance(households=households, programs=programs, budget=budget)
            assert greedy(inst).strategy == naive_greedy(inst).strategy

    def test_without_groups_maximizes_fresh_coverage(self):
        households = tuple(Household(id=f"h{k}") for k in range(4))
        programs = (
            Program(id="b", cost=1.0, covers=frozenset({"h0"})),
            Program(id="a", cost=1.0, covers=frozenset({"h1", "h2"})),
            Program(id="c", cost=0.5, covers=frozenset({"h1", "h2"})),
            Program(id="d", cost=0.5, covers=frozenset({"h3"})),
        )
        inst = Instance(households=households, programs=programs, budget=1.5)
        outcome = greedy(inst)
        # "c" ties "a" on fresh count and wins on cost; then "d" (0.5) beats
        # "b" (1.0) on cost, leaving too little for "a" or "b"
        assert outcome.strategy.selected == (0, 0, 1, 1)
        assert outcome.strategy == naive_greedy(inst).strategy
        assert outcome.equity == 1.0


class TestUniform:
    def test_even_split_on_singletons(self, singletons):
        picks = {uniform(singletons, seed).strategy.selected for seed in range(60)}
        assert picks == {(1, 0), (0, 1)}
        counts = sum(uniform(singletons, seed).strategy.selected[0] for seed in range(400))
        assert 140 <= counts <= 260  # ~Binomial(400, 1/2), 4-sigma band

    def test_single_affordable_program_always_selected(self):
        inst = Instance(
            households=(Household(id="a", group_ids=frozenset({"g"})),),
            programs=(Program(id="p", cost=1.0, covers=frozenset({"a"})),),
            budget=1.0,
        )
        for seed in range(5):
            assert uniform(inst, seed).strategy.selected == (1,)

    def test_zero_budget_selects_nothing(self, small_instance):
        inst = dataclasses.replace(small_instance, budget=0.0)
        outcome = uniform(inst, 3)
        assert outcome.strategy.selected == (0, 0, 0)
        assert outcome.equity == 0.0

    def test_reproducible_and_within_budget(self, rng):
        for _ in range(15):
            inst = random_instance(rng)
            seed = int(rng.integers(2**31))
            a = uniform(inst, seed)
            b = uniform(inst, seed)
            assert a.strategy == b.strategy
            assert a.total_cost <= inst.budget + 1e-9

    def test_selection_frequencies_match_naive_sampler(self):
        # the lazy affordability filter must not skew the distribution; compare
        # per-program selection frequencies against a rebuild-the-pool-every-
        # draw reference on a tight-budget instance
        households = tuple(Household(id=f"h{k}", group_ids=frozenset()) for k in range(4))
        programs = tuple(
            Program(id=f"p{k}", cost=c, covers=frozenset({f"h{k % 4}"}))
            for k, c in enumerate((1.0, 0.8, 0.6, 0.4, 0.2))
        )
        inst = Instance(households=households, programs=programs, budget=1.5)

        def naive(seed):
            rng = np.random.default_rng(seed)
            selected = [0] * len(programs)
            remaining = inst.budget
            while True:
                pool = [
                    j
                    for j, p in enumerate(programs)
                    if not selected[j] and p.cost <= remaining + 1e-12
                ]
                if not pool:
                    break
                pick = pool[rng.integers(len(pool))]
                selected[pick] = 1
                remaining -= programs[pick].cost
            return selected

        n = 4000
        fast = np.zeros(len(programs))
        slow = np.zeros(len(programs))
        for seed in range(n):
            fast += uniform(inst, seed).strategy.selected
            slow += naive(seed)
        # both estimate the same per-program selection probability; allow a
        # 4-sigma band on the difference of two Bernoulli means
        band = 4.0 * np.sqrt(2 * 0.25 / n)
        assert (np.abs(fast - slow) / n <= band).all()

    def test_stops_at_full_coverage(self):
        # with everything affordable, selection halts once all covered
        households = tuple(Household(id=f"h{k}", group_ids=frozenset()) for k in range(3))
        programs = tuple(
            Program(id=f"p{k}", cost=0.01, covers=frozenset({f"h{k % 3}"})) for k in range(30)
        )
        inst = Instance(households=households, programs=programs, budget=100.0)
        outcome = uniform(inst, 11)
        assert len(outcome.covered) == 3
        assert sum(outcome.strategy.selected) < 30


def pool_sampler_distribution(instance):
    """The exact selection distribution of the pool sampler, the reference
    definition of uniform: pick uniformly among the unselected programs that
    fit the remaining budget, until none fits or every household is covered.
    Probabilities are Fractions; budgets are subtracted as floats in pick
    order, as the scan does."""
    costs = instance.costs.tolist()
    covers = [p.covers for p in instance.programs]
    n_i = len(instance.households)
    out = Counter()

    def recurse(selected, remaining, covered, prob):
        pool = [
            j for j in range(len(costs))
            if j not in selected and costs[j] <= remaining + AFFORDABILITY_TOL
        ]
        if not pool or len(covered) == n_i:
            out[tuple(j in selected for j in range(len(costs)))] += prob
            return
        for j in pool:
            recurse(selected | {j}, remaining - costs[j], covered | covers[j], prob / len(pool))

    recurse(frozenset(), float(instance.budget), frozenset(), Fraction(1))
    return out


class FixedPermutation:
    """Stands in for a generator whose `permutation` returns a given order."""

    def __init__(self, order):
        self.order = order

    def permutation(self, n):
        assert n == len(self.order)
        return np.array(self.order)


def scan_distribution(instance):
    """The exact selection distribution of `uniform_selections`: one batched
    call with a trial per permutation, each of probability 1/J!."""
    orders = list(itertools.permutations(range(len(instance.programs))))
    rows = uniform_selections(instance, [FixedPermutation(o) for o in orders])
    counts = Counter(tuple(row.tolist()) for row in rows)
    return Counter({sel: Fraction(n, len(orders)) for sel, n in counts.items()})


def test_permutation_scan_has_the_pool_sampler_distribution():
    rng = np.random.default_rng(606)
    branching = 0
    for k in range(48):
        instance = random_instance(rng, max_households=6, max_programs=6)
        if k % 3 == 0:
            # tie-heavy costs, so budgets run out exactly on a boundary
            programs = tuple(
                dataclasses.replace(p, cost=float(rng.choice([0.25, 0.5, 1.0])))
                for p in instance.programs
            )
            instance = dataclasses.replace(instance, programs=programs)
        total = float(instance.costs.sum())
        for budget in (0.0, instance.budget, 2 * instance.budget, total + 1.0):
            case = instance.with_budget(budget)
            expected = pool_sampler_distribution(case)
            assert scan_distribution(case) == expected
            branching += len(expected) > 1
    assert branching >= 100
