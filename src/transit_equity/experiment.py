"""Experiment harness: budget sweeps, Monte Carlo trials, and CSV reports.

For each (budget, scenario) cell the benchmark LP is solved once; randomized
algorithms then run `trials` independent realizations on derived seeds and
deterministic ones run once. The reported equity of a randomized algorithm is
the worst-group mean coverage ratio across trials (the Monte Carlo estimate
of the randomized objective), with a normal-approximation 95% confidence
interval taken from the trial spread of that worst group.

Everything that does not depend on the budget is built once per scenario:
the city (or the instance read from `instance_dir`; the combined scenario is
the bus-only instance with ride-hail programs injected), its normalized
programs and households, and on those the coverage incidence and the LP's
and greedy's tables, kept in the store `Instance.with_budget` copies share.
A cell swaps in its budget, divides it in `normalize`, builds the LP's
sparse matrix and solves it. An algorithm's trials form one (trials,
programs) bool selection matrix: `ras_selection` rows stacked,
`uniform_selections` drawn in one batch, or greedy's one selection.
`run_trials` scores the matrix, summing costs and counting covered group
members in arrays with the floats `evaluate` gives; CLI `ras` and `uniform`
score theirs as one cell.

Seed derivation: trial t of algorithm a (index within the algorithms tuple)
in cell (budget index b, scenario index s) uses
numpy.random.SeedSequence((master_seed, s, b, a, t)), so every trial is
independently reproducible and trials may run in any order or in parallel.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .baselines import greedy, uniform_selections
from .geo import (
    CostParams,
    SyntheticCityParams,
    build_instance,
    cluster_stops,
    eligibility_filter,
    generate_routes,
    synthetic_city,
)
from .instance_io import read_instance
from .lp import build_lp, check_backend, solve_lp
from .model import Instance, _check_budget, inject_ride_hailing, normalize
from .rounding import ras_selection

SCENARIOS = ("bus_only", "combined")
ALGORITHMS = ("ras", "greedy", "uniform")
Z_95 = 1.96

RESULTS_HEADER = [
    "budget",
    "scenario",
    "algorithm",
    "mean_equity",
    "approx_ratio",
    "ci_low",
    "ci_high",
    "mean_cost",
    "max_cost",
]
PLOT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ExperimentConfig:
    budgets: tuple[float, ...]
    scenarios: tuple[str, ...] = SCENARIOS
    algorithms: tuple[str, ...] = ALGORITHMS
    trials: int = 1000
    seed: int = 0
    instance_dir: str | None = None
    synthetic_seed: int = 0
    synthetic: SyntheticCityParams = SyntheticCityParams()
    route_count: int = 20
    route_seed: int = 0
    cost_params: CostParams = CostParams()
    # LP backend override; None lets solve_lp choose by model size
    solver: str | None = None
    allow_small_budget: bool = False

    def __post_init__(self) -> None:
        if not self.budgets:
            raise ValueError("budgets must be nonempty")
        for budget in self.budgets:
            _check_budget(budget)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        for name in ("seed", "synthetic_seed", "route_seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        check_backend(self.solver)
        for name, known in (("scenarios", SCENARIOS), ("algorithms", ALGORITHMS)):
            unknown = set(getattr(self, name)) - set(known)
            if unknown:
                raise ValueError(f"unknown {name} {sorted(unknown)}")
        # a repeated entry would write two rows for one (budget, scenario,
        # algorithm), which plot_data.json and compare_scenarios cannot tell apart
        for name in ("budgets", "scenarios", "algorithms"):
            values = getattr(self, name)
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ValueError(f"repeated {name} {repeated}")


@dataclass(frozen=True)
class ReportRow:
    budget: float  # raw money units
    scenario: str
    algorithm: str
    mean_equity: float
    approx_ratio: float
    ci_low: float
    ci_high: float
    mean_cost: float  # raw money units
    max_cost: float  # raw money units
    lp_value: float
    budget_normalized: float


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple[ReportRow, ...]


def _base_instances(config: ExperimentConfig) -> dict[str, Instance]:
    """One template instance per scenario; the budget is swapped per sweep point."""
    if config.instance_dir is not None:
        bus_only = read_instance(config.instance_dir)
    else:
        households, stops, guideline = synthetic_city(config.synthetic, config.synthetic_seed)
        eligible = eligibility_filter(households, stops)
        sites = cluster_stops(eligible)
        routes = generate_routes(
            sites, stops, config.route_count, config.route_seed, config.cost_params
        )
        bus_only = build_instance(
            eligible, routes, budget=0.0, guideline=guideline, params=config.cost_params
        )
    return {
        name: bus_only if name == "bus_only" else inject_ride_hailing(bus_only)
        for name in config.scenarios
    }


def _trial_rng(config: ExperimentConfig, s: int, b: int, a: int, t: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((config.seed, s, b, a, t)))


@dataclass(frozen=True, eq=False)
class _CellStats:
    group_means: np.ndarray
    group_stds: np.ndarray
    costs: np.ndarray
    trials: int
    ratios: np.ndarray | None = None  # (trials, groups), from run_trials


def run_trials(instance: Instance, selections: np.ndarray) -> _CellStats:
    """Aggregate the trials of a (trials, programs) bool selection matrix.

    Each trial's cost and group ratios are the floats `evaluate` would report
    for its selection: the selected costs summed by `costs[selected].sum()`,
    and each group's covered-member count, from `Instance.coverage` on the
    whole matrix, divided by the group size. A group's mean is
    its covered count summed over trials, divided by trials x group size: one
    rounding, so a group covered alike in every trial reads exactly that
    trial's ratio. Its sample variance is T (sum c^2) - (sum c)^2 over
    T (T - 1) size^2, from the integer counts c of its T trials, so such a
    group has standard deviation 0 and a confidence interval of zero width.
    """
    n_trials = len(selections)
    costs = np.array([instance.costs[selected].sum() for selected in selections])
    if instance.groups:
        counts = instance.coverage(selections)
        sizes = instance.group_sizes
    else:
        sizes = np.ones(1, dtype=int)
        counts = np.ones((n_trials, 1), dtype=int)
    sums = counts.sum(axis=0)
    # in Python ints, which cannot overflow: one rounding, in the division
    squares = (counts.astype(object) ** 2).sum(axis=0)
    variances = [
        (n_trials * int(q) - int(c) ** 2) / (n_trials * max(n_trials - 1, 1) * int(n) ** 2)
        for c, q, n in zip(sums, squares, sizes)
    ]
    return _CellStats(
        group_means=sums / (n_trials * sizes),
        group_stds=np.sqrt(variances),
        costs=costs,
        trials=n_trials,
        ratios=counts / sizes,
    )


def approx_ratio(equity: float, lp_value: float) -> float:
    """equity / lp_value, or 1.0 when the LP value is 0."""
    return equity / lp_value if lp_value > 1e-12 else 1.0


def _row_from_stats(
    budget: float,
    scenario: str,
    algorithm: str,
    stats: _CellStats,
    lp_value: float,
    scale: float,
    budget_normalized: float,
) -> ReportRow:
    worst = int(np.argmin(stats.group_means))
    mean_equity = float(stats.group_means[worst])
    half_width = Z_95 * float(stats.group_stds[worst]) / np.sqrt(stats.trials)
    return ReportRow(
        budget=budget,
        scenario=scenario,
        algorithm=algorithm,
        mean_equity=mean_equity,
        approx_ratio=float(approx_ratio(mean_equity, lp_value)),
        ci_low=mean_equity - half_width,
        ci_high=mean_equity + half_width,
        mean_cost=float(stats.costs.mean()) * scale,
        max_cost=float(stats.costs.max()) * scale,
        lp_value=lp_value,
        budget_normalized=budget_normalized,
    )


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    bases = _base_instances(config)
    rows: list[ReportRow] = []
    for s, scenario in enumerate(config.scenarios):
        base = bases[scenario]
        for b, budget in enumerate(config.budgets):
            norm, scale = normalize(
                base.with_budget(float(budget)), allow_small_budget=config.allow_small_budget
            )
            solution = solve_lp(build_lp(norm), solver=config.solver)
            t_star = solution.objective
            for a, algorithm in enumerate(config.algorithms):
                if algorithm == "greedy":
                    selections = np.array([greedy(norm).strategy.selected], dtype=bool)
                else:
                    rngs = [_trial_rng(config, s, b, a, t) for t in range(config.trials)]
                    selections = (
                        uniform_selections(norm, rngs)
                        if algorithm == "uniform"
                        else np.array([ras_selection(norm, solution, rng) for rng in rngs])
                    )
                stats = run_trials(norm, selections)
                rows.append(
                    _row_from_stats(budget, scenario, algorithm, stats, t_star, scale, norm.budget)
                )
    return ExperimentReport(rows=tuple(rows))


def compare_scenarios(report: ExperimentReport) -> list[tuple[float, str, float]]:
    """Per (budget, algorithm): equity delta of combined minus bus_only."""
    by_key = {(r.budget, r.scenario, r.algorithm): r for r in report.rows}
    budgets = sorted({r.budget for r in report.rows})
    algorithms: list[str] = []
    for r in report.rows:
        if r.algorithm not in algorithms:
            algorithms.append(r.algorithm)
    deltas: list[tuple[float, str, float]] = []
    for budget in budgets:
        for algorithm in algorithms:
            bus = by_key.get((budget, "bus_only", algorithm))
            combined = by_key.get((budget, "combined", algorithm))
            if bus is None or combined is None:
                raise ValueError(
                    f"both scenarios are required for budget {budget!r}, algorithm {algorithm!r}"
                )
            deltas.append((budget, algorithm, combined.mean_equity - bus.mean_equity))
    return deltas


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


def emit(report: ExperimentReport, out_dir: str | Path) -> tuple[Path, Path]:
    """Write results.csv (fixed 9-column schema) and plot_data.json (one series
    per algorithm per scenario, schema_version marked). Byte-deterministic for
    a given report."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = out_dir / "results.csv"
    with results.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULTS_HEADER)
        for r in report.rows:
            writer.writerow(
                [
                    _fmt(r.budget),
                    r.scenario,
                    r.algorithm,
                    _fmt(r.mean_equity),
                    _fmt(r.approx_ratio),
                    _fmt(r.ci_low),
                    _fmt(r.ci_high),
                    _fmt(r.mean_cost),
                    _fmt(r.max_cost),
                ]
            )

    series: dict[tuple[str, str], dict] = {}
    for r in report.rows:
        key = (r.scenario, r.algorithm)
        entry = series.setdefault(
            key,
            {
                "scenario": r.scenario,
                "algorithm": r.algorithm,
                "budget": [],
                "budget_normalized": [],
                "lp_value": [],
                "mean_equity": [],
                "approx_ratio": [],
                "ci_low": [],
                "ci_high": [],
            },
        )
        entry["budget"].append(r.budget)
        entry["budget_normalized"].append(r.budget_normalized)
        entry["lp_value"].append(r.lp_value)
        entry["mean_equity"].append(r.mean_equity)
        entry["approx_ratio"].append(r.approx_ratio)
        entry["ci_low"].append(r.ci_low)
        entry["ci_high"].append(r.ci_high)
    plot = out_dir / "plot_data.json"
    payload = {
        "schema_version": PLOT_SCHEMA_VERSION,
        "series": [series[k] for k in sorted(series)],
    }
    plot.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return results, plot


def write_trial_log(
    instance: Instance,
    selections: Sequence[Sequence[bool]],
    costs: Sequence[float],
    equities: Sequence[float],
    path: str | Path,
) -> None:
    """Per-trial outcome log: trial, selected program ids, cost, equity."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "selected", "cost", "equity"])
        for t, (selected, cost, equity) in enumerate(zip(selections, costs, equities)):
            ids = (instance.programs[j].id for j in np.flatnonzero(selected))
            writer.writerow([t, ";".join(ids), _fmt(cost), _fmt(equity)])
