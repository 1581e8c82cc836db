import dataclasses
import re
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from transit_equity import lp, simplex
from transit_equity.generators import random_instance
from transit_equity.geo import (
    CostParams,
    SyntheticCityParams,
    build_instance,
    cluster_stops,
    eligibility_filter,
    generate_routes,
    synthetic_city,
)
from transit_equity.lp import (
    SIMPLEX_MAX_CELLS,
    FractionalSolution,
    _household_classes,
    build_lp,
    dump_lp,
    solve_lp,
    verify_solution,
)
from transit_equity.model import (
    DeterministicStrategy,
    Household,
    Instance,
    Program,
    evaluate,
    inject_ride_hailing,
    normalize,
)
from transit_equity.oracles import enumerate_feasible


class TestBuildLp:
    def test_variable_and_row_counts(self, singletons):
        model = build_lp(singletons)
        assert model.n_vars == 1 + 2 + 2
        # budget + one cover row per household + one equity row per group;
        # the y <= 1 and x <= 1 caps live in the box bounds
        assert model.n_rows == 1 + 2 + 2 and model.indptr.size == model.n_rows + 1
        # the budget row: x_0 and x_1 at cost 1, right-hand side B
        assert model.indices[: model.indptr[1]].tolist() == [1, 2]
        assert model.data[: model.indptr[1]].tolist() == [1.0, 1.0]
        assert model.rhs[0] == 1.0

    def test_uncovered_household_forced_to_zero(self):
        inst = Instance(
            households=(Household(id="a"), Household(id="b")),
            programs=(Program(id="p", cost=1.0, covers=frozenset({"a"})),),
            budget=1.0,
        )
        model = build_lp(inst)
        # rows [budget, cover:a, cover:b]; variables [t, x_p, y_a, y_b]
        start, end = model.indptr[2], model.indptr[3]
        assert model.indices[start:end].tolist() == [1 + model.n_programs + 1]
        assert model.data[start:end].tolist() == [1.0]
        assert model.rhs[2] == 0.0
        sol = solve_lp(model)
        assert sol.y_star[1] == 0.0

    def test_single_group_single_equity_row(self, small_instance):
        model = build_lp(small_instance)
        # the rows after budget and the cover rows are the equity rows
        assert model.n_rows - 1 - model.n_households == 2

    def test_with_budget_copy_equals_fresh_instance(self, rng, tmp_path):
        # the copies share one matrix; only the right-hand side is their own
        for _ in range(20):
            base = inject_ride_hailing(random_instance(rng))
            shared = build_lp(base)
            for budget in (0.0, 0.5, base.budget, 3.0 * base.budget):
                copy = build_lp(base.with_budget(budget))
                fresh = build_lp(Instance(base.households, base.programs, budget))
                assert copy.data is shared.data and copy.indptr is shared.indptr
                for name in ("data", "indices", "indptr", "rhs"):
                    a, b = getattr(copy, name), getattr(fresh, name)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
                    assert not a.flags.writeable
                assert copy.rhs[0] == budget and not copy.rhs[1:].any()
                dump_lp(copy, tmp_path / "copy.lp")
                dump_lp(fresh, tmp_path / "fresh.lp")
                assert (tmp_path / "copy.lp").read_text() == (tmp_path / "fresh.lp").read_text()


class TestSolveLp:
    def test_even_split_on_singletons(self, singletons):
        sol = solve_lp(build_lp(singletons))
        assert sol.objective == pytest.approx(0.5, abs=1e-7)
        assert sol.x_star == pytest.approx([0.5, 0.5], abs=1e-7)

    def test_full_coverage_affordable(self):
        inst = Instance(
            households=(Household(id="a", group_ids=frozenset({"g"})),),
            programs=(Program(id="p", cost=1.0, covers=frozenset({"a"})),),
            budget=1.0,
        )
        sol = solve_lp(build_lp(inst))
        assert sol.objective == pytest.approx(1.0, abs=1e-7)
        assert sol.x_star[0] == pytest.approx(1.0, abs=1e-7)

    def test_saturation_when_everything_affordable(self, rng):
        inst = random_instance(rng)
        rich = dataclasses.replace(inst, budget=float(inst.costs.sum()))
        sol = solve_lp(build_lp(rich))
        covering = np.diff(inst.coverers.indptr) > 0
        if all(covering[i] for idx in inst.group_indices for i in idx):
            assert sol.objective == pytest.approx(1.0, abs=1e-7)

    @pytest.mark.parametrize(
        "solver",
        [pytest.param(lp._solve_embedded, id="simplex"), pytest.param("highs", id="highs")],
    )
    def test_solvers_agree(self, rng, solver):
        # every size up to the cut, where solve_lp's default is the simplex
        largest = 0
        for _ in range(60):
            while True:
                inst = random_instance(
                    rng,
                    max_households=int(rng.integers(2, 45)),
                    max_programs=int(rng.integers(2, 45)),
                )
                model = build_lp(inst)
                cells = model.n_rows * (model.n_vars + model.n_rows)
                if cells <= SIMPLEX_MAX_CELLS:
                    break
            largest = max(largest, cells)
            ours = solve_lp(model, solver=lp._solve_embedded)
            other = solve_lp(model, solver=solver)
            assert ours.objective == pytest.approx(other.objective, abs=1e-7)
            assert not verify_solution(inst, other)
        assert largest > 0.8 * SIMPLEX_MAX_CELLS

    @pytest.fixture
    def simplex_calls(self, monkeypatch):
        calls = []
        solve = simplex.solve
        monkeypatch.setattr(simplex, "solve", lambda *a, **kw: calls.append(1) or solve(*a, **kw))
        return calls

    def test_small_model_goes_to_simplex(self, singletons, simplex_calls):
        assert solve_lp(build_lp(singletons)).objective == pytest.approx(0.5, abs=1e-7)
        assert simplex_calls == [1]

    @staticmethod
    def simplex_stall_instance():
        # 153 rows: the dense simplex pivots ~197k times on this model and then
        # gives up
        rng = np.random.default_rng(7)
        for _ in range(10):
            inst = random_instance(rng, max_households=200, max_programs=100)
        assert (len(inst.households), len(inst.programs)) == (149, 73)
        return inst

    def test_default_solves_simplex_stall(self, simplex_calls):
        # above the size cut solve_lp sends it to HiGHS
        inst = self.simplex_stall_instance()
        sol = solve_lp(build_lp(inst))
        assert sol.objective == pytest.approx(1.0, abs=1e-7)
        assert verify_solution(inst, sol) == []
        assert simplex_calls == []

    def test_unknown_solver_rejected(self, singletons):
        # the simplex is chosen by size only, not by name
        for name in ("higs", "simplex"):
            message = f"^unknown LP solver '{name}'; valid: 'highs' \\(None chooses by size\\)$"
            with pytest.raises(ValueError, match=message):
                solve_lp(build_lp(singletons), solver=name)

    def test_upper_bounds_everywhere(self, rng):
        inst = random_instance(rng)
        sol = solve_lp(build_lp(inst))
        assert (sol.x_star >= 0).all() and (sol.x_star <= 1).all()
        assert (sol.y_star >= 0).all() and (sol.y_star <= 1).all()
        assert 0.0 <= sol.objective <= 1.0


def cloned_instance(rng):
    """A random instance with each household cloned 1-4 times, plus a household
    in no group and one that no program covers."""
    base = random_instance(rng, max_households=6, max_programs=6)
    clones = {
        h.id: [f"{h.id}.{k}" for k in range(int(rng.integers(1, 5)))] for h in base.households
    }
    households = [
        Household(id=c, group_ids=h.group_ids) for h in base.households for c in clones[h.id]
    ]
    households += [
        Household(id="loner"),
        Household(id="stranded", group_ids=frozenset({base.groups[0]})),
    ]
    programs = [
        dataclasses.replace(
            p,
            covers=frozenset(c for hid in p.covers for c in clones[hid])
            | (frozenset({"loner"}) if j == 0 else frozenset()),
        )
        for j, p in enumerate(base.programs)
    ]
    return Instance(
        households=tuple(households),
        programs=tuple(programs),
        budget=base.budget,
    )


RIDE_HAIL_TIERS = (0.2, 0.45, 0.7)


def ride_hail_instance(rng, *, equal_tiers):
    """`cloned_instance` in the combined scenario: every household gets a
    ride-hail program at one of RIDE_HAIL_TIERS. A second household is
    covered only by its own ride-hail program, and a bus line covers the
    first household alone, so that household has two single-household
    programs (the bus line first). With `equal_tiers` clones share their
    original's tier, otherwise each draws its own."""
    inst = cloned_instance(rng)
    tiers = {}

    def tier(hid):
        key = hid.split(".")[0] if equal_tiers else hid
        return tiers.setdefault(key, float(rng.choice(RIDE_HAIL_TIERS)))

    households = list(inst.households)
    stranded = next(h for h in households if h.id == "stranded")
    households.append(dataclasses.replace(stranded, id="stranded.1"))
    households = [dataclasses.replace(h, ride_hail_cost=tier(h.id)) for h in households]
    solo = Program(id="solo", cost=0.5, covers=frozenset({households[0].id}))
    return inject_ride_hailing(
        Instance(
            households=tuple(households),
            programs=(solo,) + inst.programs,
            budget=inst.budget,
        )
    )


def check_classes(inst):
    """Solve `inst` over household classes, check it against the embedded
    simplex on the full model and against a naive partition, and return the
    number of households merged away."""
    model = build_lp(inst)
    full = solve_lp(model, solver=lp._solve_embedded)
    classed = solve_lp(model, solver="highs")
    assert classed.objective == pytest.approx(full.objective, abs=1e-9)
    assert verify_solution(inst, classed) == []

    # naive key: shared coverers, private-program cost, groups
    first, inverse, private = _household_classes(inst)
    keys, own = [], []
    for h in inst.households:
        coverers = [j for j, p in enumerate(inst.programs) if h.id in p.covers]
        alone = [j for j in coverers if len(inst.programs[j].covers) == 1] + [-1]
        own.append(alone[0])
        cost = inst.programs[alone[0]].cost if alone[0] >= 0 else None
        keys.append((frozenset(coverers) - {alone[0]}, cost, h.group_ids))
    assert private.tolist() == own
    assert len(set(keys)) == first.size
    assert keys == [keys[i] for i in first[inverse]]

    # water-filling: private x within what the shared cover leaves, and a
    # class with no or full shared cover has at most one fractional entry
    x = classed.x_star
    for c, head in enumerate(first):
        if private[head] < 0:
            continue
        shared = sum(x[j] for j in keys[head][0])
        mine = x[private[inverse == c]]
        assert (mine <= max(0.0, 1.0 - shared) + 1e-12).all()
        if shared == 0.0 or shared >= 1.0:
            assert ((mine > 0.0) & (mine < 1.0)).sum() <= 1
    return len(inst.households) - first.size


class TestHouseholdClasses:
    def test_aggregated_highs_equals_simplex_on_full_model(self, rng):
        merged = sum(check_classes(cloned_instance(rng)) for _ in range(40))
        assert merged >= 100

    def test_ride_hail_programs_merge_with_their_households(self, rng):
        merged = {}
        for equal_tiers in (True, False) * 30:
            inst = ride_hail_instance(rng, equal_tiers=equal_tiers)
            merged[equal_tiers] = merged.get(equal_tiers, 0) + check_classes(inst)
            first, inverse, private = _household_classes(inst)
            index = inst.household_index
            # the first household's bus line is its private program; its
            # ride-hail program stays a column of its own
            assert inst.programs[private[0]].id == "solo"
            assert (inverse == inverse[0]).sum() == 1
            # a household only its ride-hail program covers
            stranded = index["stranded"]
            assert inst.programs[private[stranded]].id == "ride-hail:stranded"
            if equal_tiers:
                assert inverse[stranded] == inverse[index["stranded.1"]]
        assert min(merged.values()) > 0 and sum(merged.values()) >= 100

    def test_with_budget_copies_share_one_partition(self, rng):
        inst = ride_hail_instance(rng, equal_tiers=True)
        low, high = inst.with_budget(1.0), inst.with_budget(2.0)
        for copy in (low, high):
            assert verify_solution(copy, solve_lp(build_lp(copy), solver="highs")) == []
        assert low._store["household_classes"] is high._store["household_classes"]

    @staticmethod
    def assert_classes_match_row_unique(inst, monkeypatch):
        """`_household_classes` against `np.unique(key, axis=0)` as the
        reference, on the key it builds (its one `np.hstack`), and `private`
        against a scan of the programs; returns the number of households
        merged away."""
        inst.coverers, inst.group_members, inst.costs  # built before the spy
        keys, hstack = [], np.hstack
        monkeypatch.setattr(np, "hstack", lambda arrays: keys.append(hstack(arrays)) or keys[-1])
        first, inverse, private = _household_classes(inst)
        monkeypatch.undo()
        (key,) = keys
        _, want_first, want_inverse = np.unique(
            key, axis=0, return_index=True, return_inverse=True
        )
        assert np.array_equal(first, want_first)
        assert np.array_equal(inverse, want_inverse.reshape(-1))
        alone = [
            next((j for j, p in enumerate(inst.programs) if p.covers == {h.id}), -1)
            for h in inst.households
        ]
        assert np.array_equal(private, alone)
        return len(inst.households) - first.size

    def test_matches_row_unique_on_random_instances(self, rng, monkeypatch):
        merged = 0
        for _ in range(60):
            inst = random_instance(rng, max_households=12, max_programs=6)
            priced = tuple(
                dataclasses.replace(h, ride_hail_cost=float(rng.choice(RIDE_HAIL_TIERS)))
                for h in inst.households
            )
            combined = inject_ride_hailing(dataclasses.replace(inst, households=priced))
            for case in (inst, combined):
                merged += self.assert_classes_match_row_unique(case, monkeypatch)
        assert merged >= 100

    def test_matches_row_unique_on_default_city(self, monkeypatch):
        households, stops, guideline = synthetic_city(SyntheticCityParams(), 2)
        eligible = eligibility_filter(households, stops)
        routes = generate_routes(cluster_stops(eligible), stops, 20, 0, CostParams())
        bus_only = build_instance(eligible, routes, budget=0.0, guideline=guideline)
        for scenario in (bus_only, inject_ride_hailing(bus_only)):
            norm, _ = normalize(scenario, allow_small_budget=True)
            assert self.assert_classes_match_row_unique(norm, monkeypatch) > 0

    def test_default_city_combined_merges_ride_hail_households(self):
        # each household's own ride-hail program must not keep it apart
        households, stops, guideline = synthetic_city(SyntheticCityParams(), 0)
        eligible = eligibility_filter(households, stops)
        routes = generate_routes(cluster_stops(eligible), stops, 20, 0, CostParams())
        bus_only = build_instance(eligible, routes, budget=0.0, guideline=guideline)
        combined = inject_ride_hailing(bus_only)
        first, _, _ = _household_classes(combined)
        assert first.size < len(combined.households) / 2


class TestLpInvariants:
    def test_upper_bounds_every_feasible_strategy(self, rng):
        for _ in range(8):
            inst = random_instance(rng, max_households=8, max_programs=8)
            sol = solve_lp(build_lp(inst))
            for row in enumerate_feasible(inst).selections:
                assert evaluate(inst, DeterministicStrategy(row)).equity <= sol.objective + 1e-7

    def test_monotone_in_budget(self, rng):
        inst = random_instance(rng)
        values = []
        for budget in (1.0, 1.5, 2.5, 4.0):
            capped = dataclasses.replace(inst, budget=budget)
            values.append(solve_lp(build_lp(capped)).objective)
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_scale_invariance(self, rng):
        inst = random_instance(rng)
        base = solve_lp(build_lp(inst)).objective
        scaled = dataclasses.replace(
            inst,
            programs=tuple(dataclasses.replace(p, cost=3.0 * p.cost) for p in inst.programs),
            budget=3.0 * inst.budget,
        )
        assert solve_lp(build_lp(scaled)).objective == pytest.approx(base, abs=1e-7)


class TestVerifySolution:
    def test_optimal_solution_is_clean(self, small_instance):
        sol = solve_lp(build_lp(small_instance))
        assert verify_solution(small_instance, sol) == []

    def test_budget_violation_flagged(self, singletons):
        sol = solve_lp(build_lp(singletons))
        bad = FractionalSolution(
            x_star=np.minimum(1.0, sol.x_star + 0.1),
            y_star=sol.y_star,
            objective=sol.objective,
        )
        rows = [v.row for v in verify_solution(singletons, bad)]
        assert "budget" in rows

    def test_cover_cap_violation_flagged(self, singletons):
        sol = solve_lp(build_lp(singletons))
        bad = FractionalSolution(
            x_star=sol.x_star,
            y_star=np.minimum(1.0, sol.y_star + 0.2),
            objective=sol.objective,
        )
        rows = [v.row for v in verify_solution(singletons, bad)]
        assert any(r.startswith("cover:") for r in rows)


def test_custom_solver_callable(singletons):
    calls = []

    def recording_solver(model):
        calls.append(model.n_vars)
        from transit_equity.lp import _solve_embedded

        return _solve_embedded(model)

    sol = solve_lp(build_lp(singletons), solver=recording_solver)
    assert sol.objective == pytest.approx(0.5, abs=1e-7)
    assert calls == [5]


def test_objective_snapped_like_the_solution(singletons):
    model = build_lp(singletons)

    def almost_one(model):
        # t itself is ignored; the objective is read off the snapped y
        x = np.zeros(model.n_vars)
        x[1 + model.n_programs :] = 1.0 - 4e-15
        return x

    assert solve_lp(model, solver=almost_one).objective == 1.0


def test_dump_lp_format(tmp_path, singletons):
    model = build_lp(singletons)
    out = tmp_path / "model.lp"
    dump_lp(model, out)
    text = out.read_text()
    assert text.startswith("\\ benchmark LP")
    assert "Maximize" in text and "Subject To" in text and "Bounds" in text
    assert text.rstrip().endswith("End")
    assert "budget:" in text
    # scipy's HiGHS wrapper has no LP-file reader; the format is checked
    # structurally and the same model is cross-solved through both backends
    body = text.split("Subject To")[1].split("Bounds")[0]
    assert body.count("<=") == model.n_rows


TINY_CITY = SyntheticCityParams(n_households=400, grid_rows=6, grid_cols=6)
FRACTIONS_OF_C_MIN = (0.05, 0.1, 0.2, 0.35, 0.5, 0.7, 0.9, 0.99, 1.0, 1.5)


@pytest.fixture(scope="module")
def fractional_city():
    """A small synthetic city grouped by household size, both scenarios,
    normalized: its LP is fractional below the saturation budget c_min."""
    params = CostParams(rides_per_quarter=364)
    households, stops, guideline = synthetic_city(TINY_CITY, 1)
    eligible = eligibility_filter(households, stops)
    routes = generate_routes(cluster_stops(eligible), stops, 4, 1, params)
    bus_only = build_instance(
        eligible, routes, budget=0.0, guideline=guideline, group_by="household_size",
        params=params,
    )
    return [normalize(s, allow_small_budget=True)[0] for s in (bus_only, inject_ride_hailing(bus_only))]


def highs_at(instance, budget):
    return solve_lp(build_lp(instance.with_budget(budget)), solver="highs")


def cost_of(instance, solution):
    return float(instance.costs @ solution.x_star)


def saturation(instance):
    """(x_sat's solution, c_min), read off a budget that opens every program."""
    sat = highs_at(instance, float(instance.costs.sum()))
    return sat, cost_of(instance, sat)


class TestScenarioModel:
    def test_cell_depends_only_on_instance_and_budget(self, fractional_city):
        fractional = 0
        for inst in fractional_city:
            budgets = [f * saturation(inst)[1] for f in FRACTIONS_OF_C_MIN]
            # one store, budgets ascending and then descending
            shared = inst.with_budget(0.0)
            ascending = {b: highs_at(shared, b) for b in budgets}
            descending = {b: highs_at(shared, b) for b in reversed(budgets)}
            for b in budgets:
                alone = highs_at(dataclasses.replace(inst, budget=b), b)
                for other in (descending[b], alone):
                    assert np.array_equal(ascending[b].x_star, other.x_star)
                    assert np.array_equal(ascending[b].y_star, other.y_star)
                    assert ascending[b].objective == other.objective
                fractional += int(((alone.x_star > 0) & (alone.x_star < 1)).sum())
        assert fractional >= 50

    def test_saturated_budgets_return_the_cheapest_budget_free_optimum(self, fractional_city):
        for inst in fractional_city:
            sat, c_min = saturation(inst)
            # t_max: every program open, y_i = min(1, cover_i)
            covered = np.diff(inst.coverers.indptr) > 0
            t_max = min(float(covered[m].mean()) for m in inst.group_indices)
            assert sat.objective == t_max
            assert c_min < float(inst.costs.sum())
            for budget in (c_min, 1.5 * c_min, 2.0 * float(inst.costs.sum())):
                cell = highs_at(inst, budget)
                assert np.array_equal(cell.x_star, sat.x_star)
                assert cost_of(inst, cell) == c_min
                assert cell.objective == t_max

    def test_budgets_below_saturation_are_spent(self, fractional_city):
        for inst in fractional_city:
            sat, c_min = saturation(inst)
            for f in FRACTIONS_OF_C_MIN[:-2]:
                budget = f * c_min
                cell = highs_at(inst, budget)
                assert abs(cost_of(inst, cell) - budget) <= 1e-9 * budget
                assert cell.objective < sat.objective
                assert verify_solution(inst.with_budget(budget), cell) == []

    def test_threads_sharing_one_model_get_the_sequential_cells(self, fractional_city):
        inst = fractional_city[1]
        budgets = [f * saturation(inst)[1] for f in FRACTIONS_OF_C_MIN[:-2]]
        expected = {b: highs_at(dataclasses.replace(inst, budget=b), b).x_star for b in budgets}
        shared = inst.with_budget(0.0)
        results, errors = [], []

        def worker(k):
            try:
                for b in budgets[k:] + budgets[:k]:
                    results.append((b, highs_at(shared, b).x_star))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and errors == []
        assert len(results) == 4 * len(budgets)
        assert all(np.array_equal(x, expected[b]) for b, x in results)


def restart_on(scenario, highs, budget):
    """The scenario's restart at `budget`, run on the given HiGHS object."""
    scenario._idle[:] = [highs]
    return scenario._restart(budget)


class TestModelCopies:
    def test_a_fresh_copy_gives_the_original_bits(self, fractional_city):
        for inst in fractional_city:
            scenario = lp._ScenarioLp(inst)
            (original,) = scenario._idle
            for f in FRACTIONS_OF_C_MIN:
                budget = f * scenario.c_min
                expected = restart_on(scenario, original, budget)
                assert np.array_equal(restart_on(scenario, scenario._copy(), budget), expected)
                if budget < scenario.c_min:
                    assert np.array_equal(scenario.solve(budget), expected)

    def test_started_budgets_solved_from_threads_give_the_sequential_cells(self, fractional_city):
        for inst in fractional_city:
            budgets = [f * saturation(inst)[1] for f in FRACTIONS_OF_C_MIN]
            expected = {b: highs_at(dataclasses.replace(inst, budget=b), b) for b in budgets}
            shared = inst.with_budget(0.0)
            lp.start_solves(shared, budgets, "highs")
            results, errors = [], []

            def worker(seed):
                try:
                    for b in np.random.default_rng(seed).permutation(budgets).tolist():
                        results.append((b, highs_at(shared, b)))
                except Exception as exc:  # reported by the assertion below
                    errors.append(exc)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads) and errors == []
            assert len(results) == 4 * len(budgets)
            for b, cell in results:
                assert np.array_equal(cell.x_star, expected[b].x_star)
                assert np.array_equal(cell.y_star, expected[b].y_star)
                assert cell.objective == expected[b].objective

    def test_a_started_budget_solved_later_gives_its_cell(self, fractional_city):
        inst = fractional_city[1]
        budgets = [f * saturation(inst)[1] for f in FRACTIONS_OF_C_MIN[:-2]]
        expected = {b: highs_at(dataclasses.replace(inst, budget=b), b) for b in budgets}
        shared = inst.with_budget(0.0)
        lp.start_solves(shared, budgets[:1])
        scenario = lp._scenario(shared)
        scenario._tasks[budgets[0]].result()
        # other budgets run on the model first, one of them twice
        for b in budgets[1:] + budgets[1:2]:
            assert np.array_equal(highs_at(shared, b).x_star, expected[b].x_star)
        assert list(scenario._tasks) == budgets[:1]
        for _ in range(2):
            assert np.array_equal(highs_at(shared, budgets[0]).x_star, expected[budgets[0]].x_star)
        assert scenario._tasks == {}

    def test_saturated_and_simplex_sized_budgets_start_nothing(self, fractional_city, singletons):
        inst = fractional_city[0]
        shared = inst.with_budget(0.0)
        c_min = saturation(shared)[1]
        lp.start_solves(shared, [c_min, 2 * c_min])
        assert lp._scenario(shared)._tasks == {}
        lp.start_solves(singletons, [0.5])
        assert "highs_model" not in singletons._store

    def test_a_failed_run_on_a_worker_raises_from_solve_lp(self, fractional_city, monkeypatch):
        inst = fractional_city[1]
        shared = inst.with_budget(0.0)
        c_min = saturation(shared)[1]
        expected = highs_at(dataclasses.replace(inst, budget=0.5 * c_min), 0.5 * c_min)
        threads = []

        def failing(self, highs):
            threads.append(threading.current_thread())
            raise lp.LpSolveError("HiGHS failed: Infeasible")

        monkeypatch.setattr(lp._ScenarioLp, "_run", failing)
        lp.start_solves(shared, [0.5 * c_min])
        for _ in range(2):  # the started restart, then one sent by the cell
            with pytest.raises(lp.LpSolveError, match="^HiGHS failed: Infeasible$"):
                highs_at(shared, 0.5 * c_min)
        assert len(threads) == 2 and threading.main_thread() not in threads
        monkeypatch.undo()
        # the failed model was dropped: a new copy solves the cell
        assert lp._scenario(shared)._idle == []
        assert np.array_equal(highs_at(shared, 0.5 * c_min).x_star, expected.x_star)


def test_scipy_has_the_highs_api_lp_calls():
    # private scipy API (scipy >= 1.15): `_ScenarioLp` drives one `_Highs` object
    from scipy.optimize._highspy import _core

    source = Path(lp.__file__).read_text()
    called = set(re.findall(r"highs\.(\w+)\(", source))
    assert called == {
        "setOptionValue", "passModel", "run", "getModelStatus", "modelStatusToString",
        "getSolution", "changeColsCost", "changeColBounds", "changeRowBounds", "getBasis",
        "clearSolver", "setBasis",
    }
    for name in called:
        assert callable(getattr(_core._Highs, name))
    model = _core.HighsLp()
    for name in ("num_col_", "num_row_", "col_cost_", "col_lower_", "col_upper_",
                 "row_lower_", "row_upper_"):
        assert hasattr(model, name)
    for name in ("format_", "num_col_", "num_row_", "start_", "index_", "value_"):
        assert hasattr(model.a_matrix_, name)
    assert _core.MatrixFormat.kColwise is not None and _core.kHighsInf == np.inf
    assert _core.HighsModelStatus.kOptimal is not None and _core.HighsStatus.kError is not None
    assert _core.simplex_constants.SimplexStrategy.kSimplexStrategyDual is not None
