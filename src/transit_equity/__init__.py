"""Equity-maximizing budget allocation for public transit access."""

from .baselines import greedy, uniform
from .experiment import ExperimentConfig, ExperimentReport, compare_scenarios, emit, run_experiment
from .generators import disjoint_singletons_instance, random_instance
from .instance_io import read_instance, write_instance
from .lp import FractionalSolution, LpModel, build_lp, dump_lp, solve_lp, verify_solution
from .model import (
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
from .oracles import (
    RandomizedStrategy,
    StrategySpace,
    enumerate_feasible,
    opt_deterministic,
    opt_randomized,
)
from .rounding import ExactRoundingStats, exact_expectation, ras, trajectory_leaves

__version__ = "0.1.0"

__all__ = [
    "BudgetTooSmallError",
    "DeterministicStrategy",
    "ExactRoundingStats",
    "ExperimentConfig",
    "ExperimentReport",
    "FractionalSolution",
    "Household",
    "Instance",
    "LpModel",
    "Program",
    "ProgramKind",
    "RandomizedStrategy",
    "StrategyOutcome",
    "StrategySpace",
    "build_lp",
    "compare_scenarios",
    "disjoint_singletons_instance",
    "dump_lp",
    "emit",
    "enumerate_feasible",
    "evaluate",
    "exact_expectation",
    "greedy",
    "inject_ride_hailing",
    "normalize",
    "opt_deterministic",
    "opt_randomized",
    "random_instance",
    "ras",
    "read_instance",
    "run_experiment",
    "solve_lp",
    "trajectory_leaves",
    "uniform",
    "verify_solution",
    "write_instance",
]
