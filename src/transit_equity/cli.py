"""Command-line interface.

Subcommands: solve-lp, ras, greedy, uniform, oracle, ingest, experiment.
Instances are directories of CSV files (households.csv / programs.csv /
meta.csv); see instance_io. The experiment subcommand accepts a flat
key=value config file, with flags overriding file entries; an unknown key is
rejected. Input errors print one `error: ...` line and exit with status 2.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
from pathlib import Path
from typing import Callable

import numpy as np

from . import experiment as exp
from .baselines import greedy, uniform_selections
from .geo import (
    CostParams,
    SyntheticCityParams,
    build_instance,
    cluster_stops,
    eligibility_filter,
    generate_routes,
    read_geo_households,
    read_poverty_guideline,
    read_transit_stops,
    synthetic_city,
    write_geo_households,
    write_poverty_guideline,
    write_transit_stops,
)
from .instance_io import read_instance, write_instance
from .lp import build_lp, dump_lp, solve_lp, verify_solution
from .model import inject_ride_hailing, normalize
from .oracles import opt_deterministic, opt_randomized
from .rounding import ras_selection


def _load(args) -> tuple:
    instance = read_instance(args.instance)
    if getattr(args, "budget", None) is not None:
        instance = dataclasses.replace(instance, budget=args.budget)
    if getattr(args, "scenario", "bus_only") == "combined":
        instance = inject_ride_hailing(instance)
    return normalize(instance, allow_small_budget=args.allow_small_budget)


def _add_instance_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--instance", required=True, help="instance directory")
    parser.add_argument("--budget", type=float, default=None, help="override the stored budget")
    parser.add_argument(
        "--scenario",
        choices=["bus_only", "combined"],
        default="bus_only",
        help="combined appends virtual ride-hail programs",
    )
    parser.add_argument(
        "--allow-small-budget",
        action="store_true",
        help="accept a normalized budget below 1",
    )


def _check_seeds(args, *dests: str) -> None:
    for dest in dests:
        if getattr(args, dest) < 0:
            raise ValueError(f"--{dest.replace('_', '-')} must be >= 0, got {getattr(args, dest)}")


def _cmd_solve_lp(args) -> int:
    instance, scale = _load(args)
    model = build_lp(instance)
    solution = solve_lp(model)
    if args.dump_lp:
        dump_lp(model, args.dump_lp)
    violations = verify_solution(instance, solution)
    print(f"lp_value {solution.objective:.9f}")
    print(f"budget_normalized {instance.budget:.9f}")
    print(f"scale {scale:.9f}")
    print(f"fractional_x {int(((solution.x_star > 0) & (solution.x_star < 1)).sum())}")
    print(f"violations {len(violations)}")
    return 0


def _cmd_trials(args) -> int:
    """ras / uniform: --trials seeded trials as one selection matrix, scored
    by the experiment's `run_trials` as one cell; trial t draws from
    SeedSequence((seed, t))."""
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    _check_seeds(args, "seed")
    instance, _ = _load(args)
    rngs = [
        np.random.default_rng(np.random.SeedSequence((args.seed, t))) for t in range(args.trials)
    ]
    if args.command == "ras":
        solution = solve_lp(build_lp(instance))
        selections = np.array([ras_selection(instance, solution, rng) for rng in rngs])
    else:
        solution = None
        selections = uniform_selections(instance, rngs)
    stats = exp.run_trials(instance, selections)
    equity = float(stats.group_means.min())
    print(f"trials {stats.trials}")
    print(f"mean_equity {equity:.9f}")
    if solution is not None:
        print(f"approx_ratio {exp.approx_ratio(equity, solution.objective):.9f}")
    print(f"mean_cost {stats.costs.mean():.9f}")
    print(f"max_cost {stats.costs.max():.9f}")
    if args.trial_log:
        exp.write_trial_log(
            instance, selections, stats.costs, stats.ratios.min(axis=1), args.trial_log
        )
    return 0


def _cmd_greedy(args) -> int:
    instance, _ = _load(args)
    outcome = greedy(instance)
    print(f"equity {outcome.equity:.9f}")
    print(f"cost {outcome.total_cost:.9f}")
    print(f"selected {';'.join(outcome.strategy.selected_ids(instance))}")
    if args.trial_log:
        log = ([outcome.strategy.selected], [outcome.total_cost], [outcome.equity])
        exp.write_trial_log(instance, *log, args.trial_log)
    return 0


def _cmd_oracle(args) -> int:
    instance, _ = _load(args)
    _, value_d = opt_deterministic(instance)
    _, value_r = opt_randomized(instance)
    solution = solve_lp(build_lp(instance))
    print(f"opt_deterministic {value_d:.9f}")
    print(f"opt_randomized {value_r:.9f}")
    print(f"lp_value {solution.objective:.9f}")
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["opt_deterministic", "opt_randomized", "lp_value"])
            writer.writerow(
                [f"{value_d:.12g}", f"{value_r:.12g}", f"{solution.objective:.12g}"]
            )
    return 0


def _cmd_ingest(args) -> int:
    _check_seeds(args, "seed", "synthetic_seed")
    params = CostParams(rides_per_quarter=args.rides_per_quarter)
    if args.synthetic:
        households, stops, guideline = synthetic_city(SyntheticCityParams(), args.synthetic_seed)
        if args.dump_geo:
            out = Path(args.dump_geo)
            out.mkdir(parents=True, exist_ok=True)
            write_geo_households(households, out / "geo_households.csv")
            write_transit_stops(stops, out / "transit_stops.csv")
            write_poverty_guideline(guideline, out / "poverty_guideline.csv")
    else:
        if not (args.households and args.stops and args.guideline):
            print("ingest: provide --households/--stops/--guideline or --synthetic", file=sys.stderr)
            return 2
        households = read_geo_households(args.households)
        stops = read_transit_stops(args.stops)
        guideline = read_poverty_guideline(args.guideline)
    eligible = eligibility_filter(households, stops)
    sites = cluster_stops(eligible)
    routes = generate_routes(sites, stops, args.routes, args.seed, params)
    instance = build_instance(
        eligible, routes, budget=args.budget, guideline=guideline, params=params
    )
    if args.scenario == "combined":
        instance = inject_ride_hailing(instance)
    write_instance(instance, args.out)
    print(f"eligible_households {len(eligible)}")
    print(f"candidate_stops {len(sites)}")
    print(f"programs {len(instance.programs)}")
    print(f"instance_dir {args.out}")
    return 0


def _floats(value: str) -> tuple[float, ...]:
    return tuple(float(x) for x in value.split(","))


def _names(value: str) -> tuple[str, ...]:
    return tuple(value.split(","))


def _cost_params(value: str) -> CostParams:
    return CostParams(rides_per_quarter=int(value))


# Each key an experiment config file may set, named as its flag: the
# ExperimentConfig field it fills and the parser of its value (also the
# flag's type). A key set neither way keeps the ExperimentConfig default.
CONFIG_FIELDS: dict[str, tuple[str, Callable[[str], object]]] = {
    "budgets": ("budgets", _floats),
    "scenarios": ("scenarios", _names),
    "algorithms": ("algorithms", _names),
    "trials": ("trials", int),
    "seed": ("seed", int),
    "instance": ("instance_dir", str),
    "synthetic_seed": ("synthetic_seed", int),
    "route_seed": ("route_seed", int),
    "rides_per_quarter": ("cost_params", _cost_params),
}


def _parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}: config line without '=': {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in CONFIG_FIELDS:
            raise ValueError(f"{path}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


def _cmd_experiment(args) -> int:
    file_values = _parse_config_file(args.config) if args.config else {}
    if args.budgets is None and "budgets" not in file_values:
        print("experiment: budgets are required (flag --budgets or config budgets=)", file=sys.stderr)
        return 2
    fields = {}
    for key, (field, parse) in CONFIG_FIELDS.items():
        value = getattr(args, key)
        if value is None and key in file_values:
            try:
                value = parse(file_values[key])
            except ValueError as exc:
                raise ValueError(f"{args.config}: {key}: {exc}") from None
        if value is not None:
            fields[field] = value
    config = exp.ExperimentConfig(**fields, allow_small_budget=args.allow_small_budget)
    report = exp.run_experiment(config)
    results, plot = exp.emit(report, args.out)
    print(f"results {results}")
    print(f"plot_data {plot}")
    if set(config.scenarios) == set(exp.SCENARIOS):
        for budget, algorithm, delta in exp.compare_scenarios(report):
            print(f"delta budget={budget:.12g} algorithm={algorithm} combined-bus={delta:.9f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transit-equity",
        description="Equity-maximizing transit budget allocation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-lp", help="solve the benchmark LP")
    _add_instance_args(p)
    p.add_argument("--dump-lp", default=None, help="write the model in LP text format")
    p.set_defaults(fn=_cmd_solve_lp)

    p = sub.add_parser("ras", help="run the randomized allocation strategy")
    _add_instance_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--trial-log", default=None, help="write per-trial outcomes CSV")
    p.set_defaults(fn=_cmd_trials)

    p = sub.add_parser("greedy", help="run the greedy baseline")
    _add_instance_args(p)
    p.add_argument("--trial-log", default=None)
    p.set_defaults(fn=_cmd_greedy)

    p = sub.add_parser("uniform", help="run the uniform-random baseline")
    _add_instance_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--trial-log", default=None)
    p.set_defaults(fn=_cmd_trials)

    p = sub.add_parser("oracle", help="exact optimal values on a small instance")
    _add_instance_args(p)
    p.add_argument("--out", default=None, help="write (opt_d, opt_r, lp) CSV")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("ingest", help="build an instance from geodata")
    p.add_argument("--households", default=None, help="geo_households.csv")
    p.add_argument("--stops", default=None, help="transit_stops.csv")
    p.add_argument("--guideline", default=None, help="poverty_guideline.csv")
    p.add_argument("--synthetic", action="store_true", help="generate a synthetic city instead")
    p.add_argument("--synthetic-seed", type=int, default=0)
    p.add_argument("--dump-geo", default=None, help="also write the synthetic geodata CSVs here")
    p.add_argument("--budget", type=float, required=True)
    p.add_argument("--routes", type=int, default=20)
    p.add_argument("--seed", type=int, default=0, help="route generation seed")
    p.add_argument("--rides-per-quarter", type=int, default=120)
    p.add_argument(
        "--scenario", choices=["bus_only", "combined"], default="bus_only"
    )
    p.add_argument("--out", required=True, help="instance directory to write")
    p.set_defaults(fn=_cmd_ingest)

    p = sub.add_parser("experiment", help="budget sweep with Monte Carlo trials")
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.add_argument("--budgets", type=_floats, default=None)
    p.add_argument("--scenarios", type=_names, default=None)
    p.add_argument("--algorithms", type=_names, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--instance", default=None, help="instance directory (default: synthetic)")
    p.add_argument("--synthetic-seed", type=int, default=None)
    p.add_argument("--route-seed", type=int, default=None)
    p.add_argument("--rides-per-quarter", type=_cost_params, default=None)
    p.add_argument("--allow-small-budget", action="store_true")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand. Bad input (a ValueError, including a budget below
    1 without --allow-small-budget or an instance too large for the oracles)
    and file errors print one `error: ...` line to stderr and exit 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print("error: " + " ".join(str(exc).splitlines()), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
