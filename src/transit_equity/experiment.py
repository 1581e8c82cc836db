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
programs and households, and on those the coverage incidence, the LP's
HiGHS model and greedy's tables, kept in the store `Instance.with_budget`
copies share. Before the first cell, each scenario's budgets are checked
(`normalize` at the smallest), its restarts started and its greedy run.
`lp.start_solves` sends the HiGHS restarts (budgets below the saturation
cost) to worker threads, one idle model copy each, so they run while the
cells do. One `greedy_selections` call gives greedy's selection at every
budget of the sweep (the budgets share their picks up to where a pick
stops fitting). A cell swaps in its budget, divides it in `normalize`,
builds the LP's sparse matrix and solves it; on HiGHS only the budget row's
bound changes, and `lp.solve_lp` waits for the restart started for that
budget, whose solution does not depend on the thread or copy it ran on.
Each randomized algorithm then runs `run_cell`, as do CLI `ras`, `uniform`
and `greedy`: its trials form one (trials, programs) bool selection matrix,
drawn in one batch (`ras_selections` or `uniform_selections`), which
`run_trials` scores with the two methods `evaluate` scores one selection
with: `Instance.selection_costs` for the costs and `Instance.coverage` for
the covered group members. Greedy's cell scores its row with `run_trials`;
CLI `greedy` is its call at one budget.

Seed derivation: trial t of algorithm a (index within the algorithms tuple)
in cell (budget index b, scenario index s) uses
numpy.random.SeedSequence((master_seed, s, b, a, t)), so every trial is
independently reproducible and trials may run in any order or in parallel.
CLI `ras` and `uniform` key theirs by (seed,): trial t uses
SeedSequence((seed, t)). A trial's generator is built when it is first
drawn from (`_TrialRngs`), so a `ras` cell whose LP optimum is integral
builds none.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import count
from pathlib import Path
from typing import Sequence

import numpy as np

from .baselines import greedy_selections, uniform_selections
from .geo import (
    CostParams,
    SyntheticCityParams,
    build_instance,
    cluster_stops,
    eligibility_filter,
    generate_routes,
    synthetic_city,
)
from .instance_io import read_instance, write_rows
from .lp import FractionalSolution, build_lp, check_backend, solve_lp, start_solves
from .model import (
    ID_SEPARATOR, ZERO_LP_VALUE, Instance, _check_budget, inject_ride_hailing, normalize,
)
from .rounding import ras_selections

SCENARIOS = ("bus_only", "combined")
ALGORITHMS = ("ras", "greedy", "uniform")
Z_95 = 1.96

# results.csv's columns, named as the ReportRow fields they hold
RESULTS_HEADER = [
    "budget", "scenario", "algorithm", "mean_equity", "approx_ratio", "ci_low", "ci_high",
    "mean_cost", "max_cost",
]
PLOT_SCHEMA_VERSION = 1
# The per-budget lists of a plot_data.json series (keyed by its scenario and
# algorithm), named as the ReportRow fields they copy.
PLOT_FIELDS = (
    "budget", "budget_normalized", "lp_value", "mean_equity", "approx_ratio", "ci_low", "ci_high",
)


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
    # None: solve_lp picks the LP backend by model size; "highs" forces HiGHS
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


@dataclass(frozen=True, eq=False)
class _CellStats:
    group_means: np.ndarray
    group_stds: np.ndarray
    costs: np.ndarray
    trials: int
    ratios: np.ndarray | None = None  # (trials, groups), from run_trials


def run_trials(instance: Instance, selections: np.ndarray) -> _CellStats:
    """Aggregate the trials of a (trials, programs) bool selection matrix.

    Each trial's cost and group ratios are the floats `evaluate` reports for
    its selection, from the same two methods on the whole matrix: its cost
    from `Instance.selection_costs`, and each group's covered-member count
    from `Instance.coverage`, divided by the group size. A group's mean is
    its covered count summed over trials, divided by trials x group size:
    one rounding, so a group covered alike in every trial reads exactly that
    trial's ratio. Its sample variance is T (sum c^2) - (sum c)^2 over
    T (T - 1) size^2, from the integer counts c of its T trials, so such a
    group has standard deviation 0 and a confidence interval of zero width.
    """
    n_trials = len(selections)
    costs = instance.selection_costs(selections)
    if instance.groups:
        _, counts = instance.coverage(selections)
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


class _TrialRngs(Sequence[np.random.Generator]):
    """Trial t's generator, default_rng(SeedSequence((*key, t))), built the
    first time it is asked for: a `ras` cell whose LP optimum is integral
    draws from none."""

    def __init__(self, key: tuple[int, ...], trials: int):
        self._key = key
        self._rngs: list[np.random.Generator | None] = [None] * trials

    def __len__(self) -> int:
        return len(self._rngs)

    def __getitem__(self, t: int) -> np.random.Generator:
        rng = self._rngs[t]
        if rng is None:
            rng = self._rngs[t] = np.random.default_rng(np.random.SeedSequence((*self._key, t)))
        return rng


def run_cell(
    instance: Instance,
    solution: FractionalSolution | None,
    algorithm: str,
    trials: int,
    key: tuple[int, ...],
) -> tuple[np.ndarray, _CellStats]:
    """One algorithm's trials on a normalized instance: the (trials,
    programs) bool selection matrix and its `run_trials` scores. `ras`
    (rounding `solution`) and `uniform` draw all trials in one batch, trial
    t from SeedSequence((*key, t)); `greedy` runs once and draws nothing."""
    if algorithm == "greedy":
        selections = greedy_selections(instance, [instance.budget])
    else:
        rngs = _TrialRngs(key, trials)
        selections = (
            uniform_selections(instance, rngs)
            if algorithm == "uniform"
            else ras_selections(instance, solution, rngs)
        )
    return selections, run_trials(instance, selections)


def approx_ratio(equity: float, lp_value: float) -> float:
    """equity / lp_value, or 1.0 when the LP value is 0."""
    return equity / lp_value if lp_value > ZERO_LP_VALUE else 1.0


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
    # combined first, as its costlier programs reject a too-small sweep first;
    # each budget divided by the scale as `normalize` divides it in its cell
    greedy_rows: dict[str, np.ndarray] = {}
    for scenario in sorted(config.scenarios, key=lambda name: name != "combined"):
        low = bases[scenario].with_budget(float(min(config.budgets)))
        norm, scale = normalize(low, allow_small_budget=config.allow_small_budget)
        budgets = [float(x) / scale for x in config.budgets]
        start_solves(norm, budgets, config.solver)
        if "greedy" in config.algorithms:
            greedy_rows[scenario] = greedy_selections(norm, budgets)
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
                key = (config.seed, s, b, a)
                if algorithm == "greedy":
                    stats = run_trials(norm, greedy_rows[scenario][b : b + 1])
                else:
                    _, stats = run_cell(norm, solution, algorithm, config.trials, key)
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
    rows = (
        [v if isinstance(v, str) else _fmt(v) for v in (getattr(r, c) for c in RESULTS_HEADER)]
        for r in report.rows
    )
    write_rows(results, RESULTS_HEADER, rows)

    series: dict[tuple[str, str], dict] = {}
    for r in report.rows:
        entry = series.setdefault(
            (r.scenario, r.algorithm),
            {"scenario": r.scenario, "algorithm": r.algorithm, **{f: [] for f in PLOT_FIELDS}},
        )
        for field in PLOT_FIELDS:
            entry[field].append(getattr(r, field))
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
    programs = instance.programs
    ids = (ID_SEPARATOR.join(programs[j].id for j in np.flatnonzero(s)) for s in selections)
    rows = zip(count(), ids, map(_fmt, costs), map(_fmt, equities))
    write_rows(path, ["trial", "selected", "cost", "equity"], rows)
