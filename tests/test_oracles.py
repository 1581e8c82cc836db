import dataclasses

import numpy as np
import pytest
from scipy.optimize import linprog

from transit_equity import oracles, simplex
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
from transit_equity.oracles import (
    InstanceTooLargeError,
    enumerate_feasible,
    opt_deterministic,
    opt_randomized,
)


class TestEnumerateFeasible:
    def test_singletons_space(self, singletons):
        space = enumerate_feasible(singletons)
        assert space.count == 3
        assert {tuple(row) for row in space.selections.tolist()} == {(0, 0), (1, 0), (0, 1)}
        assert not space.selections.flags.writeable

    def test_everything_affordable(self, small_instance):
        rich = dataclasses.replace(small_instance, budget=100.0)
        assert enumerate_feasible(rich).count == 2 ** 3

    def test_zero_budget(self, small_instance):
        poor = dataclasses.replace(small_instance, budget=0.0)
        space = enumerate_feasible(poor)
        assert space.count == 1
        assert tuple(space.selections[0].tolist()) == (0, 0, 0)

    def test_matches_brute_force(self, rng):
        for _ in range(10):
            inst = random_instance(rng, max_programs=8)
            space = enumerate_feasible(inst)
            brute = set()
            for mask in range(2 ** len(inst.programs)):
                sel = tuple((mask >> k) & 1 for k in range(len(inst.programs)))
                if float(np.dot(sel, inst.costs)) <= inst.budget + 1e-12:
                    brute.add(sel)
            assert {tuple(row) for row in space.selections.tolist()} == brute

    def test_size_cap(self):
        households = (Household(id="a"),)
        programs = tuple(
            Program(id=f"p{k}", cost=1.0, covers=frozenset({"a"})) for k in range(21)
        )
        inst = Instance(households=households, programs=programs, budget=1.0)
        with pytest.raises(InstanceTooLargeError):
            enumerate_feasible(inst)

    def test_coverage_cell_cap(self, small_instance, monkeypatch):
        rich = dataclasses.replace(small_instance, budget=100.0)  # 8 selections x 4 households
        monkeypatch.setattr(oracles, "MAX_COVERAGE_CELLS", 31)
        for oracle in (opt_deterministic, opt_randomized):
            with pytest.raises(InstanceTooLargeError, match="got 8 x 4$"):
                oracle(rich)
        monkeypatch.setattr(oracles, "MAX_COVERAGE_CELLS", 32)
        for oracle in (opt_deterministic, opt_randomized):
            oracle(rich)


class TestOptDeterministic:
    def test_singletons_is_zero(self, singletons):
        _, value = opt_deterministic(singletons)
        assert value == 0.0

    def test_full_cover_program(self):
        inst = Instance(
            households=(Household(id="a", group_ids=frozenset({"g"})),),
            programs=(Program(id="p", cost=1.0, covers=frozenset({"a"})),),
            budget=1.0,
        )
        outcome, value = opt_deterministic(inst)
        assert value == 1.0
        assert outcome.strategy.selected == (1,)

    def test_matches_definitional_maximum(self, rng):
        for _ in range(10):
            inst = random_instance(rng, max_programs=8)
            _, value = opt_deterministic(inst)
            best = max(
                evaluate(inst, DeterministicStrategy(row)).equity
                for row in enumerate_feasible(inst).selections
            )
            assert value == pytest.approx(best, abs=0)

    def test_tie_broken_by_cost(self, singletons):
        outcome, value = opt_deterministic(singletons)
        # every strategy scores 0; the cheapest (empty) wins
        assert value == 0.0
        assert outcome.total_cost == 0.0


class TestOptRandomized:
    def test_singletons_fair_coin(self, singletons):
        strategy, value = opt_randomized(singletons)
        assert value == pytest.approx(0.5, abs=1e-9)
        weights = {s.selected: w for s, w in strategy.atoms}
        assert weights[(1, 0)] == pytest.approx(0.5, abs=1e-9)
        assert weights[(0, 1)] == pytest.approx(0.5, abs=1e-9)
        assert sum(w for _, w in strategy.atoms) == pytest.approx(1.0, abs=1e-9)

    def test_single_group_equals_deterministic(self, rng):
        for _ in range(12):
            inst = random_instance(rng, max_groups=1)
            _, det = opt_deterministic(inst)
            _, ran = opt_randomized(inst)
            assert abs(det - ran) <= 1e-7

    def test_sandwiched_between_det_and_lp(self, rng):
        for _ in range(12):
            inst = random_instance(rng)
            _, det = opt_deterministic(inst)
            _, ran = opt_randomized(inst)
            lp_value = solve_lp(build_lp(inst)).objective
            assert det <= ran + 1e-9
            assert ran <= lp_value + 1e-7

    def test_pruning_counts_past_255_households(self):
        # "a" covers 256 households "b" does not: counts past a uint8's range
        ids = [f"h{k}" for k in range(257)]
        inst = Instance(
            households=tuple(Household(id=h, group_ids=frozenset({"g"})) for h in ids),
            programs=(
                Program(id="a", cost=1.0, covers=frozenset(ids[:256])),
                Program(id="b", cost=1.0, covers=frozenset(ids[256:])),
            ),
            budget=1.0,
        )
        strategy, value = opt_randomized(inst)
        assert value == pytest.approx(256 / 257, abs=1e-12)
        assert [s.selected for s, _ in strategy.atoms] == [(1, 0)]

    def test_beats_any_explicit_distribution(self, rng):
        # the optimum must weakly dominate hand-built distributions: uniform
        # over the feasible space and a point mass on the deterministic best
        for _ in range(8):
            inst = random_instance(rng, max_programs=7)
            space = enumerate_feasible(inst)
            outcomes = [evaluate(inst, DeterministicStrategy(row)) for row in space.selections]
            ratios = np.array([[o.group_ratios[g] for g in inst.groups] for o in outcomes])
            _, value = opt_randomized(inst)
            uniform_value = float(ratios.mean(axis=0).min())
            assert value >= uniform_value - 1e-9
            _, det = opt_deterministic(inst)
            assert value >= det - 1e-9

    def test_optimum_attained_by_returned_atoms(self, rng):
        # re-evaluate the returned distribution: its worst-group expected
        # ratio must reproduce the reported optimum
        for _ in range(8):
            inst = random_instance(rng, max_programs=7)
            strategy, value = opt_randomized(inst)
            mix = {g: 0.0 for g in inst.groups}
            for atom, weight in strategy.atoms:
                outcome = evaluate(inst, atom)
                for gid, r in outcome.group_ratios.items():
                    mix[gid] += weight * r
            attained = min(mix.values())
            assert attained == pytest.approx(value, abs=1e-7)


def naive_feasible(instance):
    """Reference enumeration: depth-first search, 0 before 1, pruned on budget."""
    n_j = len(instance.programs)
    costs = instance.costs
    budget = instance.budget + AFFORDABILITY_TOL
    out = []
    prefix = [0] * n_j

    def descend(j, cost):
        if j == n_j:
            out.append(tuple(prefix))
            return
        descend(j + 1, cost)
        if cost + costs[j] <= budget:
            prefix[j] = 1
            descend(j + 1, cost + costs[j])
            prefix[j] = 0

    descend(0, 0.0)
    return out


def naive_ratios(instance, selected):
    """Each group's coverage ratio under a selection, in group id order, from
    the programs' cover sets and the households' group ids."""
    covered = frozenset().union(*(p.covers for p, s in zip(instance.programs, selected) if s))
    members = {}
    for h in instance.households:
        for gid in h.group_ids:
            members.setdefault(gid, set()).add(h.id)
    return [len(covered & members[gid]) / len(members[gid]) for gid in sorted(members)]


def naive_opt_deterministic(instance):
    """Reference: score every feasible selection from the cover sets, keep
    strictly better (equity, -cost) pairs in enumeration order; returns
    (selection, cost, equity)."""
    best = None
    for selected in naive_feasible(instance):
        cost = float(instance.costs[np.array(selected, dtype=bool)].sum())
        equity = min(naive_ratios(instance, selected), default=1.0)
        if best is None or (equity, -cost) > (best[2], -best[1]):
            best = (selected, cost, equity)
    return best


def naive_opt_randomized(instance):
    """Reference: the distribution LP over per-selection ratios from the cover
    sets, with q_0 = 1 - sum_{k>=1} q_k substituted as `opt_randomized` does."""
    selections = naive_feasible(instance)
    ratios = [naive_ratios(instance, s) for s in selections]
    n_groups, n_atoms = len(ratios[0]), len(selections)
    c = np.zeros(n_atoms)
    c[0] = 1.0
    rows = np.zeros((n_groups + 1, n_atoms))
    rhs = np.zeros(n_groups + 1)
    for g in range(n_groups):
        first = ratios[0][g]
        rows[g, 0] = 1.0
        rows[g, 1:] = [first - r[g] for r in ratios[1:]]
        rhs[g] = first
    rows[n_groups, 1:] = 1.0
    rhs[n_groups] = 1.0
    result = simplex.solve(c, rows, rhs, upper_bounds=[1.0] + [None] * (n_atoms - 1))
    q = result.x[1:]
    weights = [1.0 - q.sum(), *q]
    atoms = [(s, float(w)) for s, w in zip(selections, weights) if w > 1e-12]
    return atoms, float(result.x[0]) if n_groups else 1.0


def equality_form_value(instance):
    """scipy's optimum of the distribution LP as stated, with sum_k q_k = 1
    kept as an equality row."""
    ratios = np.array([naive_ratios(instance, s) for s in naive_feasible(instance)])
    n_atoms, n_groups = ratios.shape
    if not n_groups:
        return 1.0
    result = linprog(
        np.r_[-1.0, np.zeros(n_atoms)],
        A_ub=np.column_stack([np.ones(n_groups), -ratios.T]),
        b_ub=np.zeros(n_groups),
        A_eq=np.r_[0.0, np.ones(n_atoms)][np.newaxis],
        b_eq=[1.0],
        bounds=[(0, 1)] + [(0, None)] * n_atoms,
        method="highs",
    )
    assert result.status == 0
    return -result.fun


def tie_heavy_instance(rng):
    """Costs in {0.5, 1}, 1-2 household covers and 0-3 groups: many
    selections share the best equity and the cheapest cost."""
    n_i = int(rng.integers(2, 7))
    n_j = int(rng.integers(2, 9))
    n_g = int(rng.integers(0, 4))
    households = tuple(
        Household(
            id=f"h{i}",
            group_ids=frozenset(f"g{g}" for g in range(n_g) if (i + g) % n_g == 0 or i % 3 == g),
        )
        for i in range(n_i)
    )
    programs = tuple(
        Program(
            id=f"p{j}",
            cost=float(rng.choice([0.5, 1.0])),
            covers=frozenset(
                f"h{i}" for i in rng.choice(n_i, size=int(rng.integers(1, 3)), replace=False)
            ),
        )
        for j in range(n_j)
    )
    budget = float(rng.choice([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]))
    return Instance(households=households, programs=programs, budget=budget)


def tie_heavy_suite():
    rng = np.random.default_rng(2718)
    return [tie_heavy_instance(rng) for _ in range(300)]


class TestMatchesNaiveReference:
    def test_tie_heavy_instances(self):
        group_counts = set()
        for inst in tie_heavy_suite():
            group_counts.add(len(inst.groups))
            space = enumerate_feasible(inst)
            assert [tuple(row) for row in space.selections.tolist()] == naive_feasible(inst)

            outcome, value = opt_deterministic(inst)
            selected, cost, equity = naive_opt_deterministic(inst)
            assert outcome.strategy.selected == selected
            assert outcome.total_cost == cost
            assert value == outcome.equity == equity

            strategy, value = opt_randomized(inst)
            atoms, reference_value = naive_opt_randomized(inst)
            assert [(s.selected, w) for s, w in strategy.atoms] == atoms
            assert value == reference_value
        assert {0, 1} <= group_counts and max(group_counts) >= 2

    def test_substitution_keeps_the_equality_form_optimum(self):
        # guards the q_0 substitution independently of the simplex: the value
        # is scipy's on the LP with its equality row, and the atoms are a
        # distribution whose worst-group expected ratio is that value
        for inst in tie_heavy_suite():
            strategy, value = opt_randomized(inst)
            assert value == pytest.approx(equality_form_value(inst), abs=1e-9)
            weights = np.array([w for _, w in strategy.atoms])
            assert (weights >= 0).all()
            assert abs(weights.sum() - 1.0) <= 1e-12
            expected = {g: 0.0 for g in inst.groups}
            for atom, weight in strategy.atoms:
                for gid, r in evaluate(inst, atom).group_ratios.items():
                    expected[gid] += weight * r
            assert min(expected.values(), default=1.0) == pytest.approx(value, abs=1e-9)
