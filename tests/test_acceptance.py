"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Criteria 2-7 run against a frozen set of 200 seeded random instances
(households <= 12, programs <= 10, costs in (0,1] with max 1, 1-4 groups,
budget in [1, total cost]) plus dedicated fixtures.
"""

import itertools
import math
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import pytest

from transit_equity.baselines import greedy
from transit_equity.experiment import ExperimentConfig, run_experiment
from transit_equity.generators import disjoint_singletons_instance, random_instance
from transit_equity.geo import (
    CostParams,
    GeoHousehold,
    PovertyGuideline,
    TransitStop,
    assign_subsidy,
    cluster_stops,
    eligibility_filter,
    generate_routes,
    great_circle_miles,
    synthetic_city,
)
from transit_equity.lp import build_lp, solve_lp
from transit_equity.oracles import opt_deterministic, opt_randomized
from transit_equity.rounding import exact_expectation, ras, trajectory_leaves

ONE_MINUS_1_OVER_E = 1.0 - 1.0 / math.e
SUITE_SEED = 20240641
SUITE_SIZE = 200


@contextmanager
def criterion(number: int, label: str):
    started = time.time()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {label} ({time.time() - started:.1f}s)")
        raise
    print(f"[PASS] criterion {number}: {label} ({time.time() - started:.1f}s)")


@dataclass(frozen=True, eq=False)
class SolvedInstance:
    instance: object
    solution: object
    stats: object
    leaves: tuple


@pytest.fixture(scope="module")
def suite():
    started = time.time()
    rng = np.random.default_rng(SUITE_SEED)
    out = []
    for _ in range(SUITE_SIZE):
        inst = random_instance(rng)
        sol = solve_lp(build_lp(inst))
        stats = exact_expectation(inst, sol)
        leaves = tuple(trajectory_leaves(sol.x_star, inst.costs))
        out.append(SolvedInstance(inst, sol, stats, leaves))
    return out, time.time() - started


@pytest.fixture(scope="module")
def sweep_report():
    config = ExperimentConfig(
        budgets=tuple(b * 1e6 for b in (5, 7.5, 10, 12.5, 15, 17.5, 20)),
        trials=1000,
        seed=20240801,
        synthetic_seed=7,
        route_seed=11,
        cost_params=CostParams(rides_per_quarter=364),
    )
    started = time.time()
    report = run_experiment(config)
    return report, time.time() - started


def test_criterion_01_minimal_separation_instance():
    with criterion(1, "two-singleton-group instance solved exactly"):
        started = time.time()
        inst = disjoint_singletons_instance()
        sol = solve_lp(build_lp(inst))
        assert abs(sol.objective - 0.5) <= 1e-7

        _, value_d = opt_deterministic(inst)
        assert value_d == 0.0

        _, value_r = opt_randomized(inst)
        assert abs(value_r - 0.5) <= 1e-7

        stats = exact_expectation(inst, sol)
        assert abs(stats.equity - 0.5) <= 1e-9
        assert abs(stats.equity / sol.objective - 1.0) <= 1e-7

        assert greedy(inst).equity == 0.0
        assert time.time() - started < 1.0


def test_criterion_02_ratio_bound_on_every_instance(suite):
    solved, build_time = suite
    with criterion(2, "exact worst-group ratio >= (1 - 1/e) * lp on 200 instances"):
        started = time.time()
        for s in solved:
            bound = ONE_MINUS_1_OVER_E * s.solution.objective - 1e-9
            assert s.stats.equity >= bound, (s.stats.equity, s.solution.objective)
        assert build_time + (time.time() - started) < 120.0


def test_criterion_03_budget_bounds(suite):
    solved, _ = suite
    with criterion(3, "expected cost <= B and every realization <= B + 1"):
        for s in solved:
            budget = s.instance.budget
            assert s.stats.expected_cost <= budget + 1e-9
            assert s.stats.max_leaf_cost <= budget + 1.0 + 1e-9


def test_criterion_04_marginals_preserved(suite):
    solved, _ = suite
    with criterion(4, "exact per-program marginals equal the fractional optimum (1e-12)"):
        for s in solved:
            gap = float(np.abs(s.stats.x_mean - s.solution.x_star).max())
            assert gap <= 1e-12, gap


def test_criterion_05_negative_correlation(suite):
    solved, _ = suite
    with criterion(5, "E[prod(1 - X_j)] never exceeds prod(1 - x*_j) on subsets <= 4"):
        for s in solved:
            probs = np.array([p for p, _ in s.leaves])
            mat = np.array([v for _, v in s.leaves])
            complements = 1.0 - mat
            base = 1.0 - s.solution.x_star
            n_j = mat.shape[1]
            for size in (1, 2, 3, 4):
                for subset in itertools.combinations(range(n_j), size):
                    lhs = float(probs @ complements[:, subset].prod(axis=1))
                    rhs = float(base[list(subset)].prod())
                    assert lhs <= rhs + 1e-12, (subset, lhs, rhs)


def test_criterion_06_optimal_value_ordering(suite):
    solved, _ = suite
    with criterion(6, "opt_d <= opt_r <= lp everywhere; opt_d = opt_r with one group"):
        for s in solved:
            _, value_d = opt_deterministic(s.instance)
            _, value_r = opt_randomized(s.instance)
            assert value_d <= value_r + 1e-7
            assert value_r <= s.solution.objective + 1e-7
        rng = np.random.default_rng(SUITE_SEED + 1)
        for _ in range(40):
            inst = random_instance(rng, max_groups=1)
            _, value_d = opt_deterministic(inst)
            _, value_r = opt_randomized(inst)
            assert abs(value_d - value_r) <= 1e-7


def test_criterion_07_monte_carlo_consistency():
    with criterion(7, "10k-trial empirical equity within 4 SE of exact on 20 instances"):
        rng = np.random.default_rng(777)
        trials = 10_000
        for k in range(20):
            inst = random_instance(rng)
            sol = solve_lp(build_lp(inst))
            exact = exact_expectation(inst, sol)
            ratios = np.empty((trials, len(inst.groups)))
            for t in range(trials):
                run_rng = np.random.default_rng(np.random.SeedSequence((777, k, t)))
                outcome = ras(inst, sol, run_rng)
                ratios[t] = [outcome.group_ratios[g] for g in inst.groups]
            empirical = float(ratios.mean(axis=0).min())
            se = float((ratios.std(axis=0, ddof=1) / np.sqrt(trials)).max())
            if se == 0.0:
                assert abs(empirical - exact.equity) <= 1e-12
            else:
                assert abs(empirical - exact.equity) <= 4.0 * se


def test_criterion_08_synthetic_budget_sweep(sweep_report):
    report, elapsed = sweep_report
    with criterion(8, "synthetic sweep: ras ratio >= 0.632, ratios rise with budget"):
        assert elapsed < 600.0
        budgets = sorted({r.budget for r in report.rows})
        assert budgets == [b * 1e6 for b in (5, 7.5, 10, 12.5, 15, 17.5, 20)]
        for r in report.rows:
            if r.algorithm == "ras":
                assert r.approx_ratio >= 0.632, (r.budget, r.scenario, r.approx_ratio)
        for scenario in ("bus_only", "combined"):
            for algorithm in ("ras", "greedy", "uniform"):
                cells = sorted(
                    (r for r in report.rows if r.scenario == scenario and r.algorithm == algorithm),
                    key=lambda r: r.budget,
                )
                assert cells[-1].approx_ratio >= cells[0].approx_ratio - 1e-12, (
                    scenario,
                    algorithm,
                )


def test_criterion_09_ingestion_correctness():
    with criterion(9, "eligibility endpoints, subsidy tiers, and route bounds"):
        mile_lat = 3958.7613 * math.pi / 180.0

        def place(north, east):
            return 41.8 + north / mile_lat, -87.7 + east / (
                mile_lat * math.cos(math.radians(41.8))
            )

        bus_lat, bus_lon = place(0, 0)
        rail_lat, rail_lon = place(2.0, 0)
        stops = [
            TransitStop(id="bus", kind="bus", lat=bus_lat, lon=bus_lon),
            TransitStop(id="rail", kind="rail", lat=rail_lat, lon=rail_lon),
        ]

        def hh(hid, north, east, income=30000.0, size=3):
            lat, lon = place(north, east)
            return GeoHousehold(
                id=hid, lat=lat, lon=lon, income=income, household_size=size, race="x"
            )

        fixture = [
            hh("bus_below", 0.0, 0.24),     # bus 0.24 < 0.25: out
            hh("interior_a", 0.0, 0.30),    # bus 0.30, rail ~2.02: in
            hh("bus_above", 0.0, 3.60),     # bus 3.60 > 3.5: out
            hh("rail_below", 1.9, 0.40),    # rail ~0.41 < 0.5: out
            hh("interior_b", 0.0, 1.00),    # bus 1.00, rail ~2.24: in
            hh("rail_above", -2.0, 1.00),   # rail ~4.12 > 3.5: out
        ]
        kept = {h.id for h in eligibility_filter(fixture, stops)}
        assert kept == {"interior_a", "interior_b"}

        guideline = PovertyGuideline(
            thresholds=tuple((s, 12000.0 + 4500.0 * (s - 1)) for s in range(1, 9))
        )
        for percent, subsidy in ((2.00, 10.0), (1.90, 15.0), (1.00, 20.0)):
            h = hh("t", 0, 1, income=percent * guideline.threshold(3), size=3)
            assert assign_subsidy(h, guideline)[1] == subsidy

        households, transit, _ = synthetic_city(seed=7)
        eligible = eligibility_filter(households, transit)
        sites = cluster_stops(eligible)
        routes = generate_routes(sites, transit, count=20, rng=11)
        assert len(routes) == 40
        for route in routes:
            assert 10 <= len(route.stops) <= 18
            for a, b in zip(route.stops, route.stops[1:]):
                assert float(great_circle_miles(a.lat, a.lon, b.lat, b.lon)) <= 0.75 + 1e-9


def test_criterion_10_experiment_determinism(tmp_path):
    with criterion(10, "byte-identical result CSVs across seeded experiment reruns"):
        instance_dir = tmp_path / "inst"
        base = [
            sys.executable,
            "-m",
            "transit_equity.cli",
        ]
        ingest = subprocess.run(
            base
            + [
                "ingest",
                "--synthetic",
                "--budget",
                "5000000",
                "--rides-per-quarter",
                "364",
                "--out",
                str(instance_dir),
            ],
            capture_output=True,
            text=True,
        )
        assert ingest.returncode == 0, ingest.stderr
        outputs = []
        for run in ("one", "two"):
            proc = subprocess.run(
                base
                + [
                    "experiment",
                    "--instance",
                    str(instance_dir),
                    "--budgets",
                    "5000000,20000000",
                    "--trials",
                    "50",
                    "--seed",
                    "99",
                    "--out",
                    str(tmp_path / run),
                ],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(
                (
                    (tmp_path / run / "results.csv").read_bytes(),
                    (tmp_path / run / "plot_data.json").read_bytes(),
                )
            )
        assert outputs[0][0] == outputs[1][0]
        assert outputs[0][1] == outputs[1][1]
