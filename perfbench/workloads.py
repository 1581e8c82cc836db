"""The benchmark's workloads, driven only through the package's public functions.

Each workload makes its inputs from the workload seed at set-up, runs one
"pass" (its unit of work) as often as the run allows, and checks a pass's
outputs outside the timed region. The sweeps go through
`experiment.run_experiment` + `emit`, the path of CLI `experiment`;
`exact_small` goes through `lp`, `rounding` and `oracles`, the path of CLI
`oracle` and acceptance criteria 2-6.

Modules are called through their attributes (`lp.solve_lp`, not a name
imported from `lp`) so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from transit_equity import experiment, generators, geo, instance_io, lp, oracles, rounding

ONE_MINUS_1_OVER_E = 1.0 - 1.0 / math.e
# Criterion-8 programme costs: 364 rides a quarter per ride-hail enrollment.
COST_PARAMS = geo.CostParams(rides_per_quarter=364)
ROUTE_COUNT = 20

SWEEP_CITY_BUDGETS = tuple(b * 1e6 for b in (5, 7.5, 10, 12.5, 15, 17.5, 20))
SWEEP_CITY_TRIALS = 10
SWEEP_FRACTIONAL_BUDGETS = tuple(b * 1e6 for b in (0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4))
SWEEP_FRACTIONAL_TRIALS = 10
CITY_4X = geo.SyntheticCityParams(n_households=4 * geo.SyntheticCityParams().n_households)
CITY_4X_BUDGETS = (7.5e6,)
CITY_4X_TRIALS = 3
EXACT_SMALL_INSTANCES = 200


def derived_seeds(seed: int, n: int) -> list[int]:
    """n independent 32-bit seeds for the program, drawn from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed % 2**63).generate_state(n)]


def first_call_warmup() -> None:
    """Load scipy's HiGHS path once, as the first call of any sweep would."""
    lp.solve_lp(lp.build_lp(generators.disjoint_singletons_instance()), solver="highs")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Sweep:
    """A budget sweep through run_experiment + emit; a pass is one whole sweep."""

    def __init__(self, name: str, budgets, trials: int,
                 city: geo.SyntheticCityParams = geo.SyntheticCityParams(),
                 group_by: str | None = None):
        self.name = name
        self.budgets = budgets
        self.trials = trials
        self.city = city
        self.group_by = group_by

    def setup(self, seed: int, scratch: Path) -> experiment.ExperimentConfig:
        city_seed, route_seed, trial_seed = derived_seeds(seed, 3)
        config = experiment.ExperimentConfig(
            budgets=self.budgets,
            trials=self.trials,
            seed=trial_seed,
            synthetic_seed=city_seed,
            synthetic=self.city,
            route_count=ROUTE_COUNT,
            route_seed=route_seed,
            cost_params=COST_PARAMS,
            solver="highs",
        )
        if self.group_by is not None:
            # run_experiment builds synthetic instances grouped by race; any other
            # grouping enters as an instance directory, written once here.
            households, stops, guideline = geo.synthetic_city(self.city, city_seed)
            eligible = geo.eligibility_filter(households, stops)
            sites = geo.cluster_stops(eligible)
            routes = geo.generate_routes(sites, stops, ROUTE_COUNT, route_seed, COST_PARAMS)
            instance = geo.build_instance(
                eligible, routes, budget=0.0, guideline=guideline,
                group_by=self.group_by, params=COST_PARAMS,
            )
            instance_dir = scratch / "instance"
            instance_io.write_instance(instance, instance_dir)
            config = dataclasses.replace(config, instance_dir=str(instance_dir))
        return config

    def run(self, config: experiment.ExperimentConfig, out_dir: Path):
        report = experiment.run_experiment(config)
        experiment.emit(report, out_dir)
        return report

    def check(self, config, report, out_dir: Path) -> tuple[list[str], str]:
        problems = []
        for r in report.rows:
            scale = r.budget / r.budget_normalized
            if r.algorithm == "ras":
                limit = (r.budget_normalized + 1.0) * scale
            else:
                limit = r.budget
            if r.max_cost > limit * (1.0 + 1e-12):
                problems.append(
                    f"{r.scenario}/{r.algorithm} at {r.budget:g}: max_cost {r.max_cost!r} > {limit!r}"
                )
        digest = "/".join(_sha256(out_dir / n) for n in ("results.csv", "plot_data.json"))
        return problems, digest

    def work(self, config: experiment.ExperimentConfig) -> dict[str, int]:
        cells = len(config.budgets) * len(config.scenarios)
        randomized = sum(a in ("ras", "uniform") for a in config.algorithms)
        return {"cells_per_pass": cells, "trials_per_pass": cells * randomized * config.trials}


@dataclass(frozen=True)
class SmallResult:
    solution: object
    stats: object
    leaves: tuple
    value_d: float
    value_r: float


class ExactSmall:
    """A seeded suite of small instances through the exact oracles; a pass is the suite."""

    name = "exact_small"

    def __init__(self, count: int):
        self.count = count

    def setup(self, seed: int, scratch: Path) -> list:
        rng = np.random.default_rng(derived_seeds(seed, 1)[0])
        return [generators.random_instance(rng) for _ in range(self.count)]

    def run(self, instances: list, out_dir: Path) -> list[SmallResult]:
        results = []
        for instance in instances:
            solution = lp.solve_lp(lp.build_lp(instance))
            stats = rounding.exact_expectation(instance, solution)
            leaves = tuple(rounding.trajectory_leaves(solution.x_star, instance.costs))
            _, value_d = oracles.opt_deterministic(instance)
            _, value_r = oracles.opt_randomized(instance)
            results.append(SmallResult(solution, stats, leaves, value_d, value_r))
        return results

    def check(self, instances: list, results: list[SmallResult], out_dir: Path):
        problems = []
        digest = hashlib.sha256()
        for k, (instance, r) in enumerate(zip(instances, results)):
            budget, lp_value = instance.budget, r.solution.objective
            leaf_cost = max(float(instance.costs @ v) for _, v in r.leaves)
            marginal_gap = float(np.abs(r.stats.x_mean - r.solution.x_star).max())
            failed = [
                label
                for label, ok in (
                    ("ratio bound", r.stats.equity >= ONE_MINUS_1_OVER_E * lp_value - 1e-9),
                    ("expected cost", r.stats.expected_cost <= budget + 1e-9),
                    ("leaf cost", leaf_cost <= budget + 1.0 + 1e-9),
                    ("marginals", marginal_gap <= 1e-12),
                    ("opt_d <= opt_r", r.value_d <= r.value_r + 1e-7),
                    ("opt_r <= lp", r.value_r <= lp_value + 1e-7),
                )
                if not ok
            ]
            problems += [f"instance {k}: {label}" for label in failed]
            digest.update(
                repr((lp_value, r.stats.equity, r.stats.expected_cost, len(r.leaves),
                      r.value_d, r.value_r)).encode()
            )
        return problems, digest.hexdigest()

    def work(self, instances: list) -> dict[str, int]:
        return {"instances_per_pass": len(instances)}


WORKLOADS = {
    w.name: w
    for w in (
        Sweep("sweep_city", SWEEP_CITY_BUDGETS, SWEEP_CITY_TRIALS),
        Sweep("sweep_fractional", SWEEP_FRACTIONAL_BUDGETS, SWEEP_FRACTIONAL_TRIALS,
              group_by="household_size"),
        Sweep("city_4x", CITY_4X_BUDGETS, CITY_4X_TRIALS, city=CITY_4X),
        ExactSmall(EXACT_SMALL_INSTANCES),
    )
}
