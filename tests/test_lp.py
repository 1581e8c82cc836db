import dataclasses
import time

import numpy as np
import pytest

from transit_equity import simplex
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
)
from transit_equity.oracles import enumerate_feasible


class TestBuildLp:
    def test_variable_and_row_counts(self, singletons):
        model = build_lp(singletons)
        assert model.n_vars == 1 + 2 + 2
        # budget + one cover row per household + one equity row per group;
        # the y <= 1 and x <= 1 caps live in the box bounds
        assert len(model.rows) == 1 + 2 + 2
        assert model.upper_bounds == tuple([1.0] * 5)
        budget = model.rows[0]
        assert budget.label == "budget"
        assert budget.coefficients == (1.0, 1.0)
        assert budget.rhs == 1.0

    def test_uncovered_household_forced_to_zero(self):
        inst = Instance(
            households=(Household(id="a"), Household(id="b")),
            programs=(Program(id="p", cost=1.0, covers=frozenset({"a"})),),
            budget=1.0,
        )
        model = build_lp(inst)
        cover_b = [r for r in model.rows if r.label == "cover:b"][0]
        # variables [t, x_p, y_a, y_b]
        assert cover_b.indices == (1 + model.n_programs + 1,)
        assert cover_b.coefficients == (1.0,)
        assert cover_b.rhs == 0.0
        sol = solve_lp(model)
        assert sol.y_star[1] == 0.0

    def test_single_group_single_equity_row(self, small_instance):
        model = build_lp(small_instance)
        equity_rows = [r for r in model.rows if r.label.startswith("equity:")]
        assert len(equity_rows) == 2


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

    @pytest.mark.parametrize("solver", ["simplex", "highs"])
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
            ours = solve_lp(model, solver="simplex")
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

    def test_simplex_override_honours_the_cut(self, simplex_calls):
        model = build_lp(self.simplex_stall_instance())
        started = time.perf_counter()
        with pytest.raises(ValueError, match=r"SIMPLEX_MAX_CELLS = 3000 cells .* has 57528$"):
            solve_lp(model, solver="simplex")
        assert time.perf_counter() - started < 1.0
        assert simplex_calls == []

    def test_unknown_solver_rejected(self, singletons):
        with pytest.raises(ValueError, match="'higs'; valid: simplex, highs"):
            solve_lp(build_lp(singletons), solver="higs")

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
    full = solve_lp(model, solver="simplex")
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
    assert body.count("<=") == len(model.rows)
