"""Naive references for the budget sweep and the kernels it runs on.

The references rebuild everything per cell and per trial, the plain way: a
fresh validated instance per budget, `normalize` by replacing every program
and household, the LP assembled row by row from the coverage sets and
solved whole by HiGHS dual simplex, each trial's covered households and
group ratios taken from the programs' cover sets (as is every selection the
coverage scorer counts), and each scenario built by its own
instance-assembly call. Greedy rescans every program densely per pick.
Stop clustering and instance assembly run the
haversine over every centroid or household, and route chaining spends every
attempt. The rounding's reference plans each twist, then applies it to a
copy per branch. CLI `ras` and `uniform` are checked against a loop over
each trial's selection. The sweep and its kernels must give exactly the
same floats. The one exception is the LP's optimal vertex: production solves
over household classes and may return another optimum, so per cell its
objective must match the row-built model's to 1e-9 and pass
`verify_solution`, and the naive trials then round production's solution.
"""

import copy
import csv
import dataclasses
import statistics
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

from transit_equity import experiment
from transit_equity.baselines import greedy, uniform, uniform_selections
from transit_equity.cli import main
from transit_equity.experiment import ExperimentConfig, emit, run_experiment
from transit_equity.generators import random_instance
from transit_equity.geo import (
    CLUSTER_LAT_BAND_DEGREES,
    CLUSTER_RADIUS_MILES,
    EARTH_RADIUS_MILES,
    MAX_STOP_GAP_MILES,
    ROUTE_STOPS,
    STOP_ISOLATION_MILES,
    CandidateRoute,
    CostParams,
    GeoHousehold,
    PovertyGuideline,
    Schedule,
    StopSite,
    SyntheticCityParams,
    assign_subsidy,
    build_instance,
    cluster_stops,
    eligibility_filter,
    generate_routes,
    RouteGenerationError,
    great_circle_miles,
    ride_hail_quarterly_cost,
    route_quarterly_cost,
    synthetic_city,
)
from transit_equity.instance_io import read_instance, write_instance
from transit_equity.lp import FractionalSolution, LpRow, build_lp, solve_lp, verify_solution
from transit_equity.model import (
    AFFORDABILITY_TOL,
    COVERAGE_BLOCK_ROWS,
    BudgetTooSmallError,
    DeterministicStrategy,
    Household,
    Instance,
    Program,
    ProgramKind,
    StrategyOutcome,
    evaluate,
    inject_ride_hailing,
    normalize,
)
from transit_equity.rounding import ras, ras_selection, trajectory_leaves

TINY_CITY = SyntheticCityParams(n_households=400, grid_rows=6, grid_cols=6)
COST_PARAMS = CostParams(rides_per_quarter=364)


def naive_normalize(instance, allow_small_budget):
    scale = max(p.cost for p in instance.programs)
    budget = instance.budget / scale
    if budget < 1 and not allow_small_budget:
        raise BudgetTooSmallError(f"normalized budget {budget:.6g} < 1")
    households = tuple(
        h if h.ride_hail_cost is None
        else dataclasses.replace(h, ride_hail_cost=h.ride_hail_cost / scale)
        for h in instance.households
    )
    programs = tuple(dataclasses.replace(p, cost=p.cost / scale) for p in instance.programs)
    return (
        dataclasses.replace(instance, households=households, programs=programs, budget=budget),
        scale,
    )


def naive_members(instance):
    """Each group's member ids, keyed by group id in sorted order, read off
    the households' group ids."""
    members = {}
    for h in instance.households:
        for gid in h.group_ids:
            members.setdefault(gid, set()).add(h.id)
    return {gid: frozenset(members[gid]) for gid in sorted(members)}


def naive_lp_rows(instance):
    """The benchmark LP's rows from the coverage and membership sets."""
    n_j = len(instance.programs)
    position = {h.id: i for i, h in enumerate(instance.households)}
    rows = [
        LpRow(
            label="budget",
            indices=tuple(range(1, 1 + n_j)),
            coefficients=tuple(float(p.cost) for p in instance.programs),
            rhs=float(instance.budget),
        )
    ]
    for i, h in enumerate(instance.households):
        coverers = [1 + j for j, p in enumerate(instance.programs) if h.id in p.covers]
        rows.append(
            LpRow(
                label=f"cover:{h.id}",
                indices=(1 + n_j + i, *coverers),
                coefficients=(1.0,) + (-1.0,) * len(coverers),
                rhs=0.0,
            )
        )
    for gid, group in naive_members(instance).items():
        members = sorted(position[m] for m in group)
        rows.append(
            LpRow(
                label=f"equity:{gid}",
                indices=(0, *(1 + n_j + i for i in members)),
                coefficients=(1.0,) + (-1.0 / len(members),) * len(members),
                rhs=0.0,
            )
        )
    return rows


def row_built_csr(rows):
    data, indices, indptr = [], [], [0]
    for row in rows:
        data.extend(row.coefficients)
        indices.extend(row.indices)
        indptr.append(len(data))
    b = np.array([row.rhs for row in rows])
    return np.array(data, dtype=float), np.array(indices), np.array(indptr), b


def row_built_highs(model):
    """HiGHS dual simplex on the row-built full matrix, one (0, 1) bound per
    variable."""
    rows = naive_lp_rows(model.instance)
    data, indices, indptr, b = row_built_csr(rows)
    a = csr_matrix((data, indices, indptr), shape=(len(rows), model.n_vars))
    res = linprog(
        -model.objective(),
        A_ub=a,
        b_ub=b,
        bounds=[(0.0, 1.0)] * model.n_vars,
        method="highs",
    )
    assert res.success
    return np.asarray(res.x)


@dataclasses.dataclass(frozen=True)
class NaiveOutcome:
    """A selection's cost, summed as `costs[selected].sum()`, and its covered
    households, group ratios and equity, taken from the programs' cover sets."""

    selected: tuple[int, ...]
    total_cost: float
    covered: frozenset
    group_ratios: dict
    equity: float


def naive_outcome(instance, selected):
    sel = np.asarray(selected, dtype=bool)
    covered = frozenset().union(*(p.covers for p, s in zip(instance.programs, sel) if s))
    ratios = {gid: len(covered & m) / len(m) for gid, m in naive_members(instance).items()}
    return NaiveOutcome(
        selected=tuple(int(v) for v in sel),
        total_cost=float(instance.costs[sel].sum()),
        covered=covered,
        group_ratios=ratios,
        equity=min(ratios.values(), default=1.0),
    )


def naive_uniform(instance, rng):
    """Uniform's selection as a plain scan of one permutation: take each
    program that fits, until every household is covered."""
    selected = np.zeros(len(instance.programs), dtype=bool)
    covered = set()
    remaining = float(instance.budget)
    for j in rng.permutation(len(instance.programs)).tolist():
        if len(covered) == len(instance.households):
            break
        program = instance.programs[j]
        if program.cost <= remaining + AFFORDABILITY_TOL:
            selected[j] = True
            remaining -= program.cost
            covered |= program.covers
    return selected


def reference_greedy(instance: Instance) -> StrategyOutcome:
    """Greedy as a dense rescan of every program per pick.

    Repeatedly select the affordable program with the largest equity gain.

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
    # the incidence straight from each program's covers, program-major
    # (rows ascending) and household-major
    position = {h.id: i for i, h in enumerate(instance.households)}
    rows = [sorted(position[hid] for hid in p.covers) for p in instance.programs]
    cover_ptr = np.cumsum([0, *map(len, rows)])
    cover_idx = np.array([i for row in rows for i in row], dtype=np.intp)
    incidence = csr_matrix((np.ones(cover_idx.size), cover_idx, cover_ptr), shape=(n_j, n_i))
    by_household = incidence.T.tocsr()
    coverer_ptr, coverer_idx = by_household.indptr, by_household.indices
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
    uncovered = np.ascontiguousarray((incidence @ membership.T).T)
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

def naive_group_means(instance, outcomes):
    """Each group's covered members summed over the trials, divided once by
    trials x group size; 1.0 without groups."""
    return np.array(
        [
            sum(len(o.covered & m) for o in outcomes) / (len(outcomes) * len(m))
            for m in naive_members(instance).values()
        ]
        or [1.0]
    )


def naive_group_stds(instance, outcomes):
    """Per group, the sample standard deviation of its exact ratios (Fractions)
    over the trials; 0 for one trial."""
    columns = [
        [Fraction(len(o.covered & m), len(m)) for o in outcomes]
        for m in naive_members(instance).values()
    ] or [[Fraction(1)] * len(outcomes)]
    return np.sqrt(
        [float(statistics.variance(c)) if len(c) > 1 else 0.0 for c in columns]
    )


def naive_run_experiment(config):
    """The sweep with every cell and every trial built from scratch."""
    if config.instance_dir is not None:
        bus_only = read_instance(config.instance_dir)
        variants = {"bus_only": bus_only, "combined": inject_ride_hailing(bus_only)}
    else:
        households, stops, guideline = synthetic_city(config.synthetic, config.synthetic_seed)
        eligible = eligibility_filter(households, stops)
        routes = generate_routes(
            naive_cluster_stops(eligible), stops, config.route_count, config.route_seed,
            config.cost_params,
        )
        variants = {}
        for name in experiment.SCENARIOS:
            instance = naive_build_instance(
                eligible, routes, budget=0.0, guideline=guideline, params=config.cost_params
            )
            variants[name] = inject_ride_hailing(instance) if name == "combined" else instance
    rows = []
    for s, scenario in enumerate(config.scenarios):
        for b, budget in enumerate(config.budgets):
            instance = dataclasses.replace(variants[scenario], budget=float(budget))
            norm, scale = naive_normalize(instance, config.allow_small_budget)
            # the row-built full model fixes the optimum; production's solver may
            # return another optimal vertex, which the naive trials then round
            reference = solve_lp(build_lp(norm), solver=row_built_highs)
            solution = solve_lp(build_lp(norm))
            assert abs(solution.objective - reference.objective) <= 1e-9
            assert verify_solution(norm, solution) == []
            for a, algorithm in enumerate(config.algorithms):
                if algorithm == "greedy":
                    selections = [reference_greedy(norm).strategy.selected]
                else:
                    selections = []
                    for t in range(config.trials):
                        rng = experiment._trial_rng(config, s, b, a, t)
                        if algorithm == "ras":
                            selections.append(ras(norm, solution, rng).strategy.selected)
                        else:
                            selections.append(naive_uniform(norm, rng))
                outcomes = [naive_outcome(norm, selected) for selected in selections]
                stats = experiment._CellStats(
                    group_means=naive_group_means(norm, outcomes),
                    group_stds=naive_group_stds(norm, outcomes),
                    costs=np.array([o.total_cost for o in outcomes]),
                    trials=len(outcomes),
                )
                rows.append(
                    experiment._row_from_stats(
                        budget, scenario, algorithm, stats, solution.objective, scale,
                        norm.budget,
                    )
                )
    return experiment.ExperimentReport(rows=tuple(rows))


def assert_same_report(config, tmp_path):
    fast, slow = run_experiment(config), naive_run_experiment(config)
    assert fast.rows == slow.rows
    for name, report in (("fast", fast), ("slow", slow)):
        emit(report, tmp_path / name)
    for name in ("results.csv", "plot_data.json"):
        assert (tmp_path / "fast" / name).read_bytes() == (tmp_path / "slow" / name).read_bytes()
    return fast


class TestSweepReference:
    def test_synthetic_city_both_scenarios(self, tmp_path):
        config = ExperimentConfig(
            budgets=(0.5e6, 1e6, 3e6),
            trials=25,
            seed=3,
            synthetic=TINY_CITY,
            route_count=4,
            cost_params=COST_PARAMS,
        )
        report = assert_same_report(config, tmp_path)
        assert {r.scenario for r in report.rows} == {"bus_only", "combined"}

    def test_instance_dir_by_household_size_at_fractional_budgets(self, tmp_path):
        households, stops, guideline = synthetic_city(TINY_CITY, 1)
        eligible = eligibility_filter(households, stops)
        routes = generate_routes(cluster_stops(eligible), stops, 4, 1, COST_PARAMS)
        instance = build_instance(
            eligible, routes, budget=0.0, guideline=guideline,
            group_by="household_size", params=COST_PARAMS,
        )
        write_instance(instance, tmp_path / "instance")
        config = ExperimentConfig(
            budgets=(0.25e6, 0.5e6, 1e6, 1.5e6),
            trials=25,
            seed=4,
            instance_dir=str(tmp_path / "instance"),
        )
        assert_same_report(config, tmp_path)
        # the LP optimum is fractional in these cells, so ras really twists
        base = read_instance(tmp_path / "instance")
        fractional = 0
        for variant in (base, inject_ride_hailing(base)):
            for budget in config.budgets:
                norm, _ = naive_normalize(dataclasses.replace(variant, budget=budget), False)
                x = solve_lp(build_lp(norm), solver="highs").x_star
                fractional += int(((x > 0.0) & (x < 1.0)).any())
        assert fractional >= 6


def tie_heavy_greedy_instances(count, seed):
    """Small instances where greedy's tie-breaks decide: ride-hail for about 70%
    of households, program and ride-hail costs from {0.25, 0.5, 1.0} and some
    free programs, single-household bus lines beside ride-hail (so some
    households have two single-household coverers), households in no group,
    ids whose lexical order is not program order, and budgets from none to
    above what every program costs together."""
    rng = np.random.default_rng(seed)
    levels = [0.25, 0.5, 1.0]
    for _ in range(count):
        n_i, n_j = int(rng.integers(2, 9)), int(rng.integers(1, 8))
        households = tuple(
            Household(
                id=f"h{i}",
                ride_hail_cost=float(rng.choice(levels)) if rng.random() < 0.7 else None,
                group_ids=frozenset()
                if rng.random() < 0.2
                else frozenset(f"g{g}" for g in rng.choice(3, int(rng.integers(1, 3)), False)),
            )
            for i in range(n_i)
        )
        names = [f"p{k}" for k in rng.permutation(n_j)]
        programs = tuple(
            Program(
                id=names[j],
                cost=float(rng.choice(levels + [0.0])),
                covers=frozenset(
                    f"h{i}" for i in rng.choice(n_i, int(rng.integers(1, min(n_i, 3) + 1)), False)
                ),
            )
            for j in range(n_j)
        )
        instance = inject_ride_hailing(Instance(households, programs, 0.0))
        yield instance.with_budget(float(rng.uniform(0.0, 1.2 * instance.costs.sum())))


class TestGreedyReference:
    def test_tie_heavy_instances_match_the_dense_rescan(self):
        full = 0
        for instance in tie_heavy_greedy_instances(300, 2025):
            fast, slow = greedy(instance), reference_greedy(instance)
            assert fast.strategy == slow.strategy
            full += len(fast.covered) == len(instance.households)
        assert 30 <= full <= 270  # budgets below and above full coverage

    def test_budget_copies_share_tables_and_match_fresh_instances(self):
        # the tables greedy caches on an instance are budget-free: a copy at
        # budget B, made after a greedy run at budget A, picks as a fresh
        # instance at B does
        for instance in tie_heavy_greedy_instances(60, 7):
            total = float(instance.costs.sum())
            # 0.3 affords only the cheapest cost level
            for a, b in ((total, 0.3), (0.3, total)):
                first = Instance(instance.households, instance.programs, a)
                greedy(first)
                second = first.with_budget(b)
                assert second._store is first._store and "greedy" in second._store
                fresh = Instance(instance.households, instance.programs, b)
                assert greedy(second).strategy == greedy(fresh).strategy
                assert greedy(fresh).strategy == reference_greedy(fresh).strategy


def uncovered_household():
    return Instance(
        households=tuple(Household(id=h, group_ids=frozenset({"g"})) for h in "abc"),
        programs=(
            Program(id="p", cost=1.0, covers=frozenset({"a", "b"})),
            Program(id="q", cost=0.5, covers=frozenset({"b"})),
        ),
        budget=1.0,
    )


def no_groups():
    return Instance(
        households=tuple(Household(id=h) for h in "ab"),
        programs=(Program(id="p", cost=1.0, covers=frozenset({"b", "a"})),),
        budget=1.0,
    )


def overlapping_groups():
    households = (
        Household(id="z", group_ids=frozenset({"g1", "g2"})),
        Household(id="y", group_ids=frozenset({"g2"})),
        Household(id="x", group_ids=frozenset({"g1", "g2"})),
    )
    return Instance(
        households=households,
        programs=(
            Program(id="p", cost=0.25, covers=frozenset({"x"})),
            Program(id="q", cost=1.0, covers=frozenset({"y", "z"})),
        ),
        budget=1.0,
    )


class TestCoverageScorer:
    @pytest.mark.parametrize("k", [1, 7, 1024])
    def test_matches_cover_sets(self, k):
        rng = np.random.default_rng(k)
        instances = [uncovered_household(), no_groups(), overlapping_groups()]
        instances += [random_instance(rng, max_households=12, max_programs=10) for _ in range(12)]
        for instance in instances:
            selections = rng.random((k, len(instance.programs))) < rng.random()
            counts = instance.coverage(selections)
            members = naive_members(instance)
            assert counts.dtype.kind == "i" and counts.shape == (k, len(members))
            for row, count in zip(selections, counts):
                covered = naive_outcome(instance, row).covered
                assert [len(covered & m) for m in members.values()] == count.tolist()

    def test_more_rows_than_one_block(self):
        # every selection of 10 programs, repeated past one block of rows
        instance = random_instance(np.random.default_rng(5), max_households=12, max_programs=10)
        n_j = len(instance.programs)
        distinct = (np.arange(2**n_j)[:, np.newaxis] >> np.arange(n_j)) & 1 == 1
        k = COVERAGE_BLOCK_ROWS + 3
        counts = instance.coverage(distinct[np.arange(k) % len(distinct)])
        assert counts.shape == (k, len(instance.groups))
        members = naive_members(instance)
        for d, row in enumerate(distinct):
            covered = naive_outcome(instance, row).covered
            expected = [len(covered & m) for m in members.values()]
            assert (counts[d :: len(distinct)] == expected).all()



class TestGroupMembership:
    def test_matches_household_group_ids(self):
        rng = np.random.default_rng(11)
        instances = [uncovered_household(), no_groups(), overlapping_groups()]
        instances += [random_instance(rng, max_households=12, max_groups=6) for _ in range(40)]
        for instance in instances:
            members = naive_members(instance)
            position = {h.id: i for i, h in enumerate(instance.households)}
            rows = [sorted(position[m] for m in group) for group in members.values()]
            assert instance.groups == tuple(members)
            matrix = instance.group_members
            assert matrix.shape == (len(rows), len(instance.households))
            bounds = matrix.indptr.tolist()
            assert [matrix.indices[a:b].tolist() for a, b in zip(bounds, bounds[1:])] == rows
            assert matrix.data.tolist() == [1] * sum(map(len, rows))
            assert [m.tolist() for m in instance.group_indices] == rows
            assert instance.group_sizes.tolist() == list(map(len, rows))


def naive_violations(instance, solution, tol):
    """`verify_solution`'s checks one row at a time: each household's cover
    summed over the programs covering it, in program order, and each group's
    members from the households' group ids."""
    x, y, t = solution.x_star, solution.y_star, solution.objective
    out = []
    used = float(np.dot(instance.costs, x))
    if used > instance.budget + tol:
        out.append(("budget", used - instance.budget))
    for i, h in enumerate(instance.households):
        excess = y[i] - sum(x[j] for j, p in enumerate(instance.programs) if h.id in p.covers)
        if excess > tol:
            out.append((f"cover:{h.id}", float(excess)))
    position = {h.id: i for i, h in enumerate(instance.households)}
    for gid, group in naive_members(instance).items():
        ratio = float(np.mean([y[i] for i in sorted(position[m] for m in group)]))
        if t - ratio > tol:
            out.append((f"equity:{gid}", float(t - ratio)))
    for name, vec in (("x", x), ("y", y)):
        if -min(vec, default=0.0) > tol:
            out.append((f"box:{name}>=0", float(-min(vec))))
        if max(vec, default=1.0) - 1.0 > tol:
            out.append((f"box:{name}<=1", float(max(vec) - 1.0)))
    return out


class TestVerifySolution:
    def test_matches_row_by_row_checks(self):
        rng = np.random.default_rng(5)
        kinds = set()
        for _ in range(60):
            instance = random_instance(rng, max_households=12, max_programs=10, max_groups=5)
            solution = solve_lp(build_lp(instance))
            for scale in (0.0, 0.05, 0.3):
                bad = FractionalSolution(
                    x_star=solution.x_star + scale * rng.uniform(-1, 1, solution.x_star.size),
                    y_star=solution.y_star + scale * rng.uniform(-1, 1, solution.y_star.size),
                    objective=solution.objective + scale * rng.uniform(-1, 1),
                )
                found = [(v.row, v.amount) for v in verify_solution(instance, bad, tol=1e-9)]
                assert found == naive_violations(instance, bad, 1e-9)
                assert scale or not found
                kinds |= {row.split(":")[0] for row, _ in found}
        assert kinds == {"budget", "cover", "equity", "box"}


def assert_lp_equals_row_built(instance):
    model = build_lp(instance)
    rows = naive_lp_rows(instance)
    data, indices, indptr, b = row_built_csr(rows)
    assert model.data.dtype == np.float64 and model.rhs.dtype == np.float64
    assert model.data.tobytes() == data.tobytes()
    assert model.indices.astype(np.int64).tobytes() == indices.astype(np.int64).tobytes()
    assert model.indptr.astype(np.int64).tobytes() == indptr.astype(np.int64).tobytes()
    assert model.rhs.tobytes() == b.tobytes()
    assert model.rows == tuple(rows)

    dense = np.zeros((len(rows), model.n_vars))
    for r, row in enumerate(rows):
        dense[r, list(row.indices)] = row.coefficients
    a, rhs = model.dense_matrix()
    assert a.tobytes() == dense.tobytes() and rhs.tobytes() == b.tobytes()

    scipy_a, scipy_b = model.scipy_matrix()
    assert scipy_a.toarray().tobytes() == dense.tobytes()
    assert scipy_b.tobytes() == b.tobytes()


class TestBuildLpKernel:
    @pytest.mark.parametrize("make", [uncovered_household, no_groups, overlapping_groups])
    def test_edge_cases_equal_row_built(self, make):
        assert_lp_equals_row_built(make())

    def test_random_suite_equals_row_built(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            assert_lp_equals_row_built(random_instance(rng))


def uniform_suite():
    rng = np.random.default_rng(77)
    for k in range(300):
        instance = random_instance(rng, max_households=10, max_programs=12)
        if k % 3 == 0:
            # tie-heavy costs and small covers
            programs = tuple(
                dataclasses.replace(p, cost=float(rng.choice([0.5, 1.0])))
                for p in instance.programs
            )
            instance = dataclasses.replace(instance, programs=programs)
        budget = float(rng.choice([0.0, 0.5, instance.budget, 2 * instance.budget, 100.0]))
        yield instance.with_budget(budget)


class TestUniformKernel:
    def test_matches_permutation_scan_selection_and_rng_state(self):
        for seed, instance in enumerate(uniform_suite()):
            fast_rng, slow_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            fast = uniform_selections(instance, [fast_rng])
            slow = naive_uniform(instance, slow_rng)
            assert fast.dtype == bool and fast.shape == (1, len(instance.programs))
            assert np.array_equal(fast[0], slow)
            assert fast_rng.bit_generator.state == slow_rng.bit_generator.state

    def test_batched_rows_equal_single_trial_calls(self):
        # the scan stops for all trials at once; a trial must not depend on
        # the others it is batched with
        for seed, instance in enumerate(uniform_suite()):
            if seed >= 60:
                break
            rngs = [np.random.default_rng((seed, t)) for t in range(7)]
            copies = copy.deepcopy(rngs)
            batched = uniform_selections(instance, rngs)
            assert batched.shape == (7, len(instance.programs))
            for row, rng, fresh in zip(batched, rngs, copies):
                assert np.array_equal(row, uniform_selections(instance, [fresh])[0])
                assert rng.bit_generator.state == fresh.bit_generator.state

    def test_wrapper_evaluates_the_kernel_selection(self):
        for seed, instance in enumerate(uniform_suite()):
            if seed >= 30:
                break
            outcome = uniform(instance, seed)
            selected = uniform_selections(instance, [np.random.default_rng(seed)])[0]
            assert outcome.strategy.selected == tuple(int(v) for v in selected)


def naive_start(values, costs):
    start = np.array(values, dtype=float)
    np.clip(start, 0.0, 1.0, out=start)
    start[start <= 1e-9] = 0.0
    start[start >= 1.0 - 1e-9] = 1.0
    start[costs <= 0.0] = 1.0
    return start


def naive_plan(v, costs, p, q):
    """(alpha, beta) of the twist of the pair p < q."""
    ratio = costs[q] / costs[p]
    return float(min(1.0 - v[p], v[q] * ratio)), float(min(v[p], (1.0 - v[q]) * ratio))


def naive_apply_twist(v, costs, p, q, alpha, beta, up):
    ratio = costs[p] / costs[q]
    if up:
        v[p] += alpha
        v[q] -= ratio * alpha
    else:
        v[p] -= beta
        v[q] += ratio * beta
    for k in (p, q):
        if v[k] <= 1e-9:
            v[k] = 0.0
        elif v[k] >= 1.0 - 1e-9:
            v[k] = 1.0


def naive_leaves(values, costs):
    """Every trajectory of the lowest-index-pair rounding, one copy per branch."""
    costs = np.asarray(costs, dtype=float)
    out = []

    def recurse(v, prob):
        frac = np.flatnonzero((v > 0.0) & (v < 1.0))
        if frac.size >= 2:
            p, q = int(frac[0]), int(frac[1])
            alpha, beta = naive_plan(v, costs, p, q)
            up, down = v.copy(), v.copy()
            naive_apply_twist(up, costs, p, q, alpha, beta, up=True)
            naive_apply_twist(down, costs, p, q, alpha, beta, up=False)
            recurse(up, prob * beta / (alpha + beta))
            recurse(down, prob * alpha / (alpha + beta))
        elif frac.size == 1:
            j = int(frac[0])
            up, down = v.copy(), v.copy()
            up[j], down[j] = 1.0, 0.0
            recurse(up, prob * v[j])
            recurse(down, prob * (1.0 - v[j]))
        else:
            out.append((prob, v))

    recurse(naive_start(values, costs), 1.0)
    return out


def naive_ras_selection(instance, values, rng):
    """The sampler: one coin per twist and one for a lone fractional entry."""
    costs = np.asarray(instance.costs, dtype=float)
    v = naive_start(values, costs)
    while True:
        frac = np.flatnonzero((v > 0.0) & (v < 1.0))
        if frac.size >= 2:
            p, q = int(frac[0]), int(frac[1])
            alpha, beta = naive_plan(v, costs, p, q)
            naive_apply_twist(v, costs, p, q, alpha, beta, up=rng.random() < beta / (alpha + beta))
        elif frac.size == 1:
            j = int(frac[0])
            v[j] = 1.0 if rng.random() < v[j] else 0.0
        else:
            return v > 0.5


def rounding_suite():
    """(instance, start vector): an LP optimum, a random fractional vector and
    (where costs allow) a vector whose first twist lands near a bound, per
    seeded instance; every fourth instance has free programs."""
    rng = np.random.default_rng(5150)
    for k in range(300):
        instance = random_instance(rng, max_programs=9)
        n_j = len(instance.programs)
        if k % 4 == 0:
            free = rng.choice(n_j, size=int(rng.integers(1, 3)), replace=False)
            programs = tuple(
                dataclasses.replace(p, cost=0.0) if j in free else p
                for j, p in enumerate(instance.programs)
            )
            instance = dataclasses.replace(instance, programs=programs)
        yield instance, solve_lp(build_lp(instance)).x_star
        values = rng.uniform(0.0, 1.0, n_j)
        # exact and near-integral entries, and overshoot within the tolerance
        edges = np.array([0.0, 1.0, 5e-10, 1.0 - 5e-10, -5e-10, 1.0 + 5e-10])
        picks = rng.random(n_j) < 0.25
        values[picks] = rng.choice(edges, size=int(picks.sum()))
        yield instance, values
        # a first twist that lands one of its pair within 1e-9 of a bound
        costs = instance.costs
        if costs[0] > 0.0 and costs[1] > 0.0:
            values = rng.uniform(0.0, 1.0, n_j)
            values[0] = rng.uniform(0.5, 1.0)
            values[1] = costs[0] / costs[1] * (1.0 - values[0]) + rng.choice([-7e-10, 7e-10])
            if 1e-8 < values[1] < 1.0 - 1e-8:
                yield instance, values


class TestRoundingReference:
    def test_leaves_match_bit_for_bit(self):
        count = 0
        for instance, values in rounding_suite():
            fast = list(trajectory_leaves(values, instance.costs))
            slow = naive_leaves(values, instance.costs)
            assert [p for p, _ in fast] == [p for p, _ in slow]
            assert [v.tobytes() for _, v in fast] == [v.tobytes() for _, v in slow]
            count += len(fast) > 1
        assert count >= 300  # most vectors really branch

    def test_ras_selection_matches_selection_and_rng_state(self):
        for seed, (instance, values) in enumerate(rounding_suite()):
            fast_rng, slow_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):
                fast = ras_selection(instance, values, fast_rng)
                slow = naive_ras_selection(instance, values, slow_rng)
                assert fast.dtype == bool and np.array_equal(fast, slow)
            assert fast_rng.bit_generator.state == slow_rng.bit_generator.state


def naive_cli_trials(instance, run, seed, trials, lp_value):
    """CLI `ras`/`uniform` output as the `naive_outcome` of each trial's
    selection gives it: the summary lines and the trial-log rows."""
    outcomes = [
        naive_outcome(instance, run(np.random.default_rng(np.random.SeedSequence((seed, t)))))
        for t in range(trials)
    ]
    equity = float(naive_group_means(instance, outcomes).min())
    costs = np.array([o.total_cost for o in outcomes])
    lines = [f"trials {trials}", f"mean_equity {equity:.9f}"]
    if lp_value is not None:
        lines.append(f"approx_ratio {equity / lp_value if lp_value > 1e-12 else 1.0:.9f}")
    lines += [f"mean_cost {costs.mean():.9f}", f"max_cost {costs.max():.9f}"]
    log = [["trial", "selected", "cost", "equity"]] + [
        [str(t), ";".join(p.id for p, v in zip(instance.programs, o.selected) if v),
         f"{o.total_cost:.12g}", f"{o.equity:.12g}"]
        for t, o in enumerate(outcomes)
    ]
    return lines, log


class TestCliTrialsReference:
    @pytest.mark.parametrize("command", ["ras", "uniform"])
    def test_summary_and_trial_log_match_per_trial_outcomes(self, command, tmp_path, capsys):
        rng = np.random.default_rng(31)
        instances = [random_instance(rng, max_households=30, max_programs=20) for _ in range(8)]
        instances += [no_groups(), overlapping_groups()]
        for k, instance in enumerate(instances):
            write_instance(instance, tmp_path / f"inst{k}")
            norm, _ = normalize(read_instance(tmp_path / f"inst{k}"))
            if command == "ras":
                solution = solve_lp(build_lp(norm))
                lines, log = naive_cli_trials(
                    norm, lambda g: ras_selection(norm, solution, g), k, 40, solution.objective
                )
            else:
                lines, log = naive_cli_trials(norm, lambda g: naive_uniform(norm, g), k, 40, None)
            path = tmp_path / f"log{k}.csv"
            argv = [command, "--instance", str(tmp_path / f"inst{k}"), "--seed", str(k),
                    "--trials", "40", "--trial-log", str(path)]
            assert main(argv) == 0
            assert capsys.readouterr().out.splitlines() == lines
            with path.open(newline="") as fh:
                assert list(csv.reader(fh)) == log


# ---------------------------------------------------------------------------
# geo: clustering and instance assembly against their plain loops


def naive_cluster_stops(households):
    """Leader clustering with the haversine over every centroid per household."""
    ordered = sorted(households, key=lambda h: h.id)
    cent_lat, cent_lon, counts = [], [], []
    for h in ordered:
        if cent_lat:
            d = great_circle_miles(np.array(cent_lat), np.array(cent_lon), h.lat, h.lon)
            near = np.flatnonzero(d <= CLUSTER_RADIUS_MILES)
        else:
            near = np.array([], dtype=int)
        if near.size:
            k = int(near[0])
            counts[k] += 1
            cent_lat[k] += (h.lat - cent_lat[k]) / counts[k]
            cent_lon[k] += (h.lon - cent_lon[k]) / counts[k]
        else:
            cent_lat.append(h.lat)
            cent_lon.append(h.lon)
            counts.append(1)
    lat, lon = np.array(cent_lat), np.array(cent_lon)
    keep = np.ones(lat.size, dtype=bool)
    if lat.size > 1:
        for k in range(lat.size):
            d = great_circle_miles(lat, lon, lat[k], lon[k])
            d[k] = np.inf
            if d.min() > STOP_ISOLATION_MILES:
                keep[k] = False
    return [
        StopSite(id=f"s{k:04d}", lat=float(lat[k]), lon=float(lon[k]))
        for k in np.flatnonzero(keep)
    ]


def naive_build_instance(households, routes, budget, guideline, group_by="race",
                         params=CostParams()):
    """The instance with `assign_subsidy` per household and, per stop, the
    haversine over every household."""
    lat = np.array([h.lat for h in households])
    lon = np.array([h.lon for h in households])
    model_households = []
    for h in households:
        tier, _ = assign_subsidy(h, guideline, params)
        model_households.append(
            Household(
                id=h.id,
                ride_hail_cost=ride_hail_quarterly_cost(tier, params),
                group_ids=frozenset({f"{group_by}:{getattr(h, group_by)}"}),
            )
        )
    programs = []
    for route in routes:
        order = {}
        for pos, stop in enumerate(route.stops):
            d = great_circle_miles(lat, lon, stop.lat, stop.lon)
            for i in np.flatnonzero(d <= CLUSTER_RADIUS_MILES):
                order.setdefault(int(i), pos)
        ranked = sorted(order, key=lambda i: (order[i], households[i].id))
        if route.daily_hours is Schedule.HALF:
            ranked = ranked[::2]
        if ranked:
            programs.append(
                Program(
                    id=route.id,
                    cost=route.quarterly_cost,
                    covers=frozenset(households[i].id for i in ranked),
                    kind=ProgramKind.BUS_LINE,
                )
            )
    return Instance(
        households=tuple(model_households),
        programs=tuple(programs),
        budget=float(budget),
    )


def assert_geo_equals_naive(city, seed, group_bys=("race",)):
    households, stops, guideline = synthetic_city(city, seed)
    eligible = eligibility_filter(households, stops)
    sites = cluster_stops(eligible)
    assert sites == naive_cluster_stops(eligible)
    routes = generate_routes(sites, stops, 20, seed, COST_PARAMS)
    for group_by in group_bys:
        fast = build_instance(eligible, routes, 1e6, guideline, group_by=group_by,
                              params=COST_PARAMS)
        slow = naive_build_instance(eligible, routes, 1e6, guideline, group_by, COST_PARAMS)
        assert fast == slow
        assert len(fast.programs) == 40


def naive_generate_routes(sites, transit_stops, count, seed, params, max_attempts_per_route):
    """Route chaining that spends every attempt: each draws a start and
    chains it afresh, even a start drawn before."""
    rng = np.random.default_rng(seed)
    lat, lon = np.array([s.lat for s in sites]), np.array([s.lon for s in sites])
    t_lat = np.array([s.lat for s in transit_stops])
    t_lon = np.array([s.lon for s in transit_stops])
    chains = []
    for _ in range(max_attempts_per_route * count):
        if len(chains) == count:
            break
        chain = [int(rng.integers(lat.size))]
        while len(chain) < ROUTE_STOPS[1]:
            d = great_circle_miles(lat, lon, lat[chain[-1]], lon[chain[-1]])
            d[chain] = np.inf
            nxt = int(np.argmin(d))
            if d[nxt] > MAX_STOP_GAP_MILES:
                break
            chain.append(nxt)
        ends = [
            k for k in range(ROUTE_STOPS[0], len(chain) + 1)
            if great_circle_miles(t_lat, t_lon, lat[chain[k - 1]], lon[chain[k - 1]]).min()
            <= MAX_STOP_GAP_MILES
        ]
        if ends and tuple(chain[: ends[-1]]) not in chains:
            chains.append(tuple(chain[: ends[-1]]))
    routes = [
        CandidateRoute(
            id=f"route{r:02d}_{schedule.value}",
            stops=tuple(sites[k] for k in chain),
            daily_hours=schedule,
            quarterly_cost=route_quarterly_cost(schedule, params),
        )
        for r, chain in enumerate(chains)
        for schedule in (Schedule.FULL, Schedule.HALF)
    ]
    if len(chains) < count:
        raise RouteGenerationError(requested=count, routes=routes)
    return routes


def routes_or_error(generate, *args):
    try:
        return generate(*args), None
    except RouteGenerationError as err:
        return err.routes, str(err)


MILES_PER_DEGREE = EARTH_RADIUS_MILES * np.pi / 180.0
EDGE_LAT, EDGE_LON = 41.8, -87.7


def geo_at(hid, north_miles, east_miles):
    """A household at a tangent-plane offset from (EDGE_LAT, EDGE_LON); due
    north or south, its great-circle distance is |north_miles|."""
    lat = EDGE_LAT + north_miles / MILES_PER_DEGREE
    lon = EDGE_LON + east_miles / (MILES_PER_DEGREE * np.cos(np.radians(EDGE_LAT)))
    return GeoHousehold(id=hid, lat=lat, lon=lon, income=30000.0, household_size=3, race="x")


def band_edge_offsets():
    """(north, east) miles: due north and south at the clustering radius
    times 1 -/+ 1e-12, and at the latitude band's limit a mile east."""
    limit = CLUSTER_LAT_BAND_DEGREES * MILES_PER_DEGREE
    edges = [(sign * CLUSTER_RADIUS_MILES * (1 + eps), 0.0)
             for sign in (1, -1) for eps in (-1e-12, 1e-12)]
    return edges + [(limit, 1.0), (-limit, 1.0)]


class TestGeoReference:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_default_city(self, seed):
        assert_geo_equals_naive(SyntheticCityParams(), seed, ("race", "household_size"))

    def test_city_4x(self):
        city = SyntheticCityParams(n_households=4 * SyntheticCityParams().n_households)
        assert_geo_equals_naive(city, 1)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("count", [20, 120])
    def test_route_chaining(self, seed, count):
        # the tiny city chains about 75 routes, so 120 is a shortfall
        households, stops, _ = synthetic_city(TINY_CITY, seed)
        sites = cluster_stops(eligibility_filter(households, stops))
        args = (sites, stops, count, seed, COST_PARAMS, 5)
        fast = routes_or_error(generate_routes, *args)
        assert fast == routes_or_error(naive_generate_routes, *args)
        assert (fast[1] is None) == (count == 20)

    @pytest.mark.parametrize("north, east", band_edge_offsets())
    def test_clustering_band_edges(self, north, east):
        households = [geo_at("h0", 0.0, 0.0), geo_at("h1", north, east)]
        assert cluster_stops(households) == naive_cluster_stops(households)

    @pytest.mark.parametrize("north, east", band_edge_offsets())
    def test_coverage_band_edges(self, north, east):
        # ten stops half a mile apart going east; the probe sits off the first
        stops = tuple(
            StopSite(id=f"s{k}", lat=h.lat, lon=h.lon)
            for k, h in enumerate(geo_at(f"s{k}", 0.0, 0.5 * k) for k in range(10))
        )
        routes = [CandidateRoute("r_full", stops, Schedule.FULL, 2.0),
                  CandidateRoute("r_half", stops, Schedule.HALF, 1.0)]
        households = [geo_at("h0", 0.0, 0.0), geo_at("h1", north, east)]
        guideline = PovertyGuideline(thresholds=((3, 20000.0),))
        fast = build_instance(households, routes, 1.0, guideline)
        assert fast == naive_build_instance(households, routes, 1.0, guideline)
