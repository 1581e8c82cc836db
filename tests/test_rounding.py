import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st, target

from transit_equity.generators import random_instance
from transit_equity.lp import build_lp, solve_lp
from transit_equity.model import Household, Instance, Program
from transit_equity.rounding import (
    _start,
    _step,
    _support,
    _values_of,
    exact_expectation,
    ras,
    trajectory_leaves,
)


def step(values, costs, coin=0.0):
    """One rounding step from the snapped start vector of (values, costs),
    as a batch of one row over its fractional support.

    Returns (weights, prob_up, vector after); the step goes up iff
    coin < prob_up, the up weight over the weights' sum. weights and prob_up
    are None when no step was left."""
    c = np.array(costs, float)
    v = _values_of(np.array(values, float), c)
    support = _support(v)
    if support.size == 0:
        return None, None, v
    rows, pair, row_costs = _start(v[support], c[support], 1)
    w_up, w_down = _step(rows, pair, np.arange(1), row_costs, np.array([coin]))
    v[support] = rows[0, :-1]
    weights = (float(w_up[0]), float(w_down[0]))
    return weights, weights[0] / (weights[0] + weights[1]), v


def weighted_sum(values, costs):
    return float(np.dot(costs, values))


class TestPlanTwist:
    # weights are (beta, alpha): the up branch has weight beta
    def test_symmetric_unit_costs(self):
        (beta, alpha), prob_up, _ = step([0.5, 0.5], [1, 1])
        assert alpha == 0.5 and beta == 0.5
        assert prob_up == 0.5

    def test_unequal_costs(self):
        (beta, alpha), _, _ = step([0.5, 0.5], [1, 2])
        assert alpha == 0.5 and beta == 0.5

    def test_asymmetric_values(self):
        (beta, alpha), prob_up, _ = step([0.9, 0.2], [1, 1])
        assert alpha == pytest.approx(0.1)
        assert beta == pytest.approx(0.8)
        assert prob_up == pytest.approx(0.8 / 0.9)


class TestTwist:
    def test_unit_cost_outcomes(self):
        _, _, up = step([0.5, 0.5], [1, 1], coin=0.49)
        assert up.tolist() == [1.0, 0.0]
        _, _, down = step([0.5, 0.5], [1, 1], coin=0.51)
        assert down.tolist() == [0.0, 1.0]

    def test_weighted_branches_conserve_cost(self):
        start, costs = [0.5, 0.5], [1, 2]
        _, _, up = step(start, costs, coin=0.0)
        _, _, down = step(start, costs, coin=0.999)
        assert up.tolist() == [1.0, 0.25]
        assert down.tolist() == [0.0, 0.75]
        for after in (up, down):
            assert weighted_sum(after, costs) == pytest.approx(
                weighted_sum(start, costs), abs=1e-12
            )

    @given(
        st.floats(0.01, 0.99),
        st.floats(0.01, 0.99),
        st.floats(0.05, 1.0),
        st.floats(0.05, 1.0),
        st.floats(0.0, 0.999),
    )
    @settings(max_examples=150, deadline=None)
    def test_properties_hold_for_any_pair(self, vp, vq, cp, cq, coin):
        costs = [cp, cq]
        _, _, after = step([vp, vq], costs, coin)
        # P1: at least one entry becomes integral
        assert (after == 0.0).any() or (after == 1.0).any()
        # P3 case 1: cost-weighted sum conserved
        assert weighted_sum(after, costs) == pytest.approx(weighted_sum([vp, vq], costs), abs=1e-9)
        # entries stay in the box
        assert ((after >= 0) & (after <= 1)).all()

    @given(st.floats(0.01, 0.99), st.floats(0.01, 0.99), st.floats(0.05, 1.0), st.floats(0.05, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_expectation_invariant(self, vp, vq, cp, cq):
        # P2 over the two branches, and the exact pairwise product decrease
        _, p_up, up = step([vp, vq], [cp, cq], coin=0.0)
        _, _, down = step([vp, vq], [cp, cq], coin=0.999999)
        mean = p_up * up + (1 - p_up) * down
        assert mean == pytest.approx([vp, vq], abs=1e-9)
        prod_after = p_up * (1 - up[0]) * (1 - up[1]) + (1 - p_up) * (1 - down[0]) * (1 - down[1])
        assert prod_after <= (1 - vp) * (1 - vq) + 1e-12  # P4, pairwise


class TestRoundSingle:
    def test_branches(self):
        assert step([1.0, 0.3], [1, 1], coin=0.29)[2].tolist() == [1.0, 1.0]
        assert step([1.0, 0.3], [1, 1], coin=0.31)[2].tolist() == [1.0, 0.0]

    def test_within_tolerance_is_already_integral(self):
        weights, prob_up, out = step([1.0, 1.0 - 1e-12], [1, 1], coin=0.9999)
        assert out.tolist() == [1.0, 1.0]
        assert weights is None and prob_up is None  # no coin consumed

    def test_expected_cost_unchanged_worst_case_bounded(self):
        v, costs = [0.5], [1.0]
        up, down = step(v, costs, 0.4)[2], step(v, costs, 0.6)[2]
        expected = 0.5 * weighted_sum(up, costs) + 0.5 * weighted_sum(down, costs)
        assert expected == pytest.approx(weighted_sum(v, costs), abs=1e-12)
        assert weighted_sum(up, costs) - weighted_sum(v, costs) == pytest.approx(0.5)


class TestRas:
    def test_singletons_covers_exactly_one(self, singletons):
        sol = solve_lp(build_lp(singletons))
        seen = set()
        for seed in range(40):
            outcome = ras(singletons, sol, seed)
            assert sum(outcome.strategy.selected) == 1
            assert outcome.equity == 0.0
            seen.add(outcome.strategy.selected)
        assert seen == {(1, 0), (0, 1)}

    def test_integral_input_returned_unchanged(self, small_instance):
        x = np.array([1.0, 0.0, 1.0])
        outcome = ras(small_instance, x, 0)
        assert outcome.strategy.selected == (1, 0, 1)

    def test_hand_traced_three_programs(self):
        # x = (1.0, 0.4, 0.6) with unit costs: one twist on the last two
        # entries, both branches integral, never a single-round
        households = tuple(
            Household(id=h, group_ids=frozenset({"g"})) for h in ("a", "b", "c")
        )
        inst = Instance(
            households=households,
            programs=tuple(
                Program(id=f"p{k}", cost=1.0, covers=frozenset({h.id}))
                for k, h in enumerate(households)
            ),
            budget=2.0,
        )
        x = np.array([1.0, 0.4, 0.6])
        outcomes = {ras(inst, x, seed).strategy.selected for seed in range(60)}
        assert outcomes == {(1, 1, 0), (1, 0, 1)}
        stats = exact_expectation(inst, x)
        assert stats.x_mean == pytest.approx([1.0, 0.4, 0.6], abs=1e-12)
        assert stats.expected_cost == pytest.approx(2.0, abs=1e-12)
        assert stats.max_leaf_cost == 2.0

    def test_reproducible_given_seed(self, rng):
        inst = random_instance(rng)
        sol = solve_lp(build_lp(inst))
        a = ras(inst, sol, 7)
        b = ras(inst, sol, 7)
        assert a.strategy == b.strategy

    def test_zero_cost_program_always_opened(self):
        inst = Instance(
            households=(Household(id="a", group_ids=frozenset({"g"})),),
            programs=(
                Program(id="free", cost=0.0, covers=frozenset({"a"})),
                Program(id="paid", cost=1.0, covers=frozenset({"a"})),
            ),
            budget=1.0,
        )
        for seed in range(5):
            assert ras(inst, np.array([0.3, 0.5]), seed).strategy.selected[0] == 1


class TestExactExpectation:
    def test_singletons_values(self, singletons):
        sol = solve_lp(build_lp(singletons))
        stats = exact_expectation(singletons, sol)
        assert stats.x_mean == pytest.approx([0.5, 0.5], abs=1e-12)
        assert stats.equity == pytest.approx(0.5, abs=1e-12)
        assert stats.expected_cost == pytest.approx(1.0, abs=1e-12)
        assert stats.prob_over_budget == 0.0

    def test_integral_input_is_point_mass(self, small_instance):
        stats = exact_expectation(small_instance, np.array([1.0, 0.0, 1.0]))
        assert stats.x_mean == pytest.approx([1.0, 0.0, 1.0], abs=0)
        leaves = list(trajectory_leaves([1.0, 0.0, 1.0], small_instance.costs))
        assert len(leaves) == 1 and leaves[0][0] == 1.0

    def test_disjoint_half_probabilities(self):
        households = tuple(
            Household(id=h, group_ids=frozenset({h})) for h in ("a", "b", "c")
        )
        inst = Instance(
            households=households,
            programs=tuple(
                Program(id=f"p{k}", cost=1.0, covers=frozenset({h.id}))
                for k, h in enumerate(households)
            ),
            budget=2.0,
        )
        stats = exact_expectation(inst, np.array([0.5, 0.5, 0.5]))
        assert stats.y_mean == pytest.approx([0.5, 0.5, 0.5], abs=1e-12)

    def test_too_many_programs_rejected(self):
        households = (Household(id="a", group_ids=frozenset()),)
        programs = tuple(
            Program(id=f"p{k}", cost=1.0, covers=frozenset({"a"})) for k in range(25)
        )
        inst = Instance(households=households, programs=programs, budget=30.0)
        with pytest.raises(ValueError, match="at most 24"):
            exact_expectation(inst, np.full(25, 0.5))

    def test_leaf_probabilities_sum_to_one(self, rng):
        inst = random_instance(rng)
        sol = solve_lp(build_lp(inst))
        total = sum(p for p, _ in trajectory_leaves(sol.x_star, inst.costs))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_custom_pair_policy(self, rng):
        # expectations are pair-order-invariant even though trajectories
        # differ: with the programs reversed, the lowest-index pair is the
        # original's highest pair
        inst = random_instance(rng)
        sol = solve_lp(build_lp(inst))
        reversed_inst = dataclasses.replace(inst, programs=inst.programs[::-1])

        a = exact_expectation(inst, sol)
        b = exact_expectation(reversed_inst, sol.x_star[::-1])
        assert a.x_mean == pytest.approx(b.x_mean[::-1], abs=1e-9)
        assert a.expected_cost == pytest.approx(b.expected_cost, abs=1e-9)


def _count_events(values, costs, eps=1e-9):
    """(twists, singles) along every rounding trajectory, taking the same
    steps but tracking step counts instead of probabilities."""
    out = []

    def rec(v, twists, singles):
        frac = np.flatnonzero((v > eps) & (v < 1 - eps))
        if frac.size >= 2:
            for coin in (-np.inf, np.inf):  # forces the up, then the down branch
                rec(step(v, costs, coin)[2], twists + 1, singles)
        elif frac.size == 1:
            out.append((twists, singles + 1))
        else:
            out.append((twists, singles))

    rec(values.copy(), 0, 0)
    return out


@pytest.fixture(scope="module")
def solved():
    rng = np.random.default_rng(424242)
    out = []
    for _ in range(30):
        inst = random_instance(rng)
        sol = solve_lp(build_lp(inst))
        out.append((inst, sol, exact_expectation(inst, sol)))
    return out


class TestTheoryProperties:
    """Distributional guarantees checked exactly on seeded random instances."""

    def test_marginals_preserved(self, solved):
        for _, sol, stats in solved:
            assert np.abs(stats.x_mean - sol.x_star).max() <= 1e-12

    def test_cost_bounds(self, solved):
        for inst, _, stats in solved:
            assert stats.expected_cost <= inst.budget + 1e-9
            assert stats.max_leaf_cost <= inst.budget + 1.0 + 1e-9

    def test_coverage_and_ratio_bound(self, solved):
        bound = 1.0 - 1.0 / np.e
        for inst, sol, stats in solved:
            assert (stats.y_mean >= bound * sol.y_star - 1e-9).all()
            assert stats.equity >= bound * sol.objective - 1e-9

    def test_negative_correlation_on_pairs(self, solved):
        for inst, sol, _ in solved[:8]:
            leaves = list(trajectory_leaves(sol.x_star, inst.costs))
            probs = np.array([p for p, _ in leaves])
            mat = np.array([v for _, v in leaves])
            for s in itertools.combinations(range(len(inst.programs)), 2):
                lhs = float(probs @ np.prod(1.0 - mat[:, s], axis=1))
                rhs = float(np.prod(1.0 - sol.x_star[list(s)]))
                assert lhs <= rhs + 1e-12

    def test_step_counts_bounded(self, solved):
        # every trajectory performs at most |J| rounding events and at most
        # one lone single-entry round; twists can number up to |J| - 1 when
        # each one integralizes only a single entry of the pair
        for inst, sol, _ in solved[:10]:
            n_j = len(inst.programs)
            paths = _count_events(np.array(sol.x_star), np.asarray(inst.costs))
            for twists, singles in paths:
                assert singles <= 1
                assert twists + singles <= n_j

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_guarantees_on_fractional_optima(self, data):
        # small instances whose LP optimum really needs rounding: costs
        # normalized to max 1, program j covering household j mod |I| and up
        # to two others, a budget in [1, max(1, total cost / 2)], and at least
        # two fractional entries of x*; the search minimizes exact / LP
        n_i = data.draw(st.integers(2, 5))
        n_j = data.draw(st.integers(n_i, 8))
        costs = np.array(data.draw(st.lists(st.floats(0.05, 1.0), min_size=n_j, max_size=n_j)))
        costs /= costs.max()
        extras = st.lists(st.integers(0, n_i - 1), max_size=2)
        covers = data.draw(st.lists(extras, min_size=n_j, max_size=n_j))
        groups = data.draw(st.lists(st.integers(1, 7), min_size=n_i, max_size=n_i))
        budget = 1.0 + data.draw(st.floats(0.0, 1.0)) * max(0.0, costs.sum() / 2 - 1.0)
        households = tuple(
            Household(id=f"h{i}", group_ids=frozenset(f"g{g}" for g in range(3) if m >> g & 1))
            for i, m in enumerate(groups)
        )
        programs = tuple(
            Program(id=f"p{j}", cost=float(costs[j]),
                    covers=frozenset(f"h{i}" for i in [j % n_i, *covers[j]]))
            for j in range(n_j)
        )
        inst = Instance(households=households, programs=programs, budget=float(budget))
        sol = solve_lp(build_lp(inst))
        assume(np.count_nonzero((sol.x_star > 0.0) & (sol.x_star < 1.0)) >= 2)
        stats = exact_expectation(inst, sol)
        if sol.objective > 0.0:
            target(-stats.equity / sol.objective)
        assert stats.equity >= (1.0 - 1.0 / np.e) * sol.objective - 1e-9
        assert stats.expected_cost <= inst.budget + 1e-9
        assert stats.max_leaf_cost <= inst.budget + 1.0 + 1e-9
        assert np.abs(stats.x_mean - sol.x_star).max() <= 1e-12

    def test_monte_carlo_marginals_match(self):
        rng = np.random.default_rng(7)
        inst = random_instance(rng)
        sol = solve_lp(build_lp(inst))
        n = 4000
        mean = np.zeros(len(inst.programs))
        for seed in range(n):
            mean += ras(inst, sol, seed).strategy.selected
        mean /= n
        # 4-sigma band for a Bernoulli mean
        assert np.abs(mean - sol.x_star).max() <= 4.0 * np.sqrt(0.25 / n)


def test_allocation_vector_validation(small_instance):
    # a raw vector is checked where it enters ras and exact_expectation
    for run in (
        lambda x: ras(small_instance, x, 0),
        lambda x: exact_expectation(small_instance, x),
    ):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            run(np.array([1.5, 0.0, 0.0]))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            run(np.array([0.5, np.nan, 0.0]))
        with pytest.raises(ValueError, match="equal length"):
            run(np.array([0.5]))
