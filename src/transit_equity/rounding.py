"""Weighted dependent rounding of a fractional program-opening vector.

The randomized allocation strategy starts from the benchmark LP optimum and
repeatedly "twists" two fractional entries: one is pushed up and the other
down, in cost-weighted proportion, so that the selected direction is random
but the cost-weighted sum of the pair is conserved exactly. Each twist makes
at least one entry integral; when a single fractional entry remains it is
rounded on its own (the only step that can raise the total cost, by at most
the max program cost, i.e. at most 1 after normalization).

Per-step closed forms, derived from the feasible step sizes
alpha = max{e > 0 : X_p + e <= 1, X_q - c_p e / c_q >= 0} and
beta  = max{e > 0 : X_p - e >= 0, X_q + c_p e / c_q <= 1}:

    alpha = min(1 - X_p, X_q * c_q / c_p)
    beta  = min(X_p, (1 - X_q) * c_q / c_p)

and the pair moves up with probability beta / (alpha + beta).

`exact_expectation` enumerates the full binary trajectory tree under a fixed
deterministic pair-selection policy, yielding exact per-program marginals,
per-household coverage probabilities, expected cost, and the worst-group
expected coverage ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .lp import FractionalSolution
from .model import DeterministicStrategy, Instance, StrategyOutcome, evaluate

SNAP_EPS = 1e-9
MAX_EXACT_PROGRAMS = 24

PairPolicy = Callable[[np.ndarray], tuple[int, int]]


def lowest_index_pair(fractional: np.ndarray) -> tuple[int, int]:
    """Default pair policy: the two fractional entries with the lowest indices."""
    return int(fractional[0]), int(fractional[1])


@dataclass(frozen=True, eq=False)
class AllocationVector:
    """A (possibly fractional, mid-rounding) opening vector with its costs."""

    values: np.ndarray
    costs: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        costs = np.array(self.costs, dtype=float)
        if values.shape != costs.shape or values.ndim != 1:
            raise ValueError("values and costs must be 1-d arrays of equal length")
        if ((values < -SNAP_EPS) | (values > 1 + SNAP_EPS)).any():
            raise ValueError("allocation values must lie in [0, 1]")
        _snap_inplace(values)
        values.setflags(write=False)
        costs.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "costs", costs)

    def weighted_sum(self) -> float:
        return float(np.dot(self.costs, self.values))

    def fractional_indices(self) -> np.ndarray:
        v = self.values
        return np.flatnonzero((v > 0.0) & (v < 1.0))

    def is_integral(self) -> bool:
        return self.fractional_indices().size == 0


@dataclass(frozen=True)
class TwistStep:
    """One planned pairwise rounding step."""

    p: int
    q: int
    alpha: float
    beta: float

    @property
    def prob_up(self) -> float:
        return self.beta / (self.alpha + self.beta)


def _snap_inplace(values: np.ndarray, eps: float = SNAP_EPS) -> None:
    np.clip(values, 0.0, 1.0, out=values)
    values[values <= eps] = 0.0
    values[values >= 1.0 - eps] = 1.0


def _plan(v: np.ndarray, c: np.ndarray, p: int, q: int) -> TwistStep:
    if p == q:
        raise ValueError("twist requires two distinct indices")
    for k in (p, q):
        if not 0.0 < v[k] < 1.0:
            raise ValueError(f"twist entry {k} is not strictly fractional")
        if c[k] <= 0.0:
            raise ValueError(f"twist entry {k} has nonpositive cost")
    ratio = c[q] / c[p]
    alpha = min(1.0 - v[p], v[q] * ratio)
    beta = min(v[p], (1.0 - v[q]) * ratio)
    return TwistStep(p=p, q=q, alpha=float(alpha), beta=float(beta))


def plan_twist(vector: AllocationVector, p: int, q: int) -> TwistStep:
    return _plan(vector.values, vector.costs, p, q)


def _apply_twist(values: np.ndarray, costs: np.ndarray, step: TwistStep, up: bool) -> None:
    p, q = step.p, step.q
    ratio = costs[p] / costs[q]
    if up:
        values[p] += step.alpha
        values[q] -= ratio * step.alpha
    else:
        values[p] -= step.beta
        values[q] += ratio * step.beta
    for k in (p, q):
        if values[k] <= SNAP_EPS:
            values[k] = 0.0
        elif values[k] >= 1.0 - SNAP_EPS:
            values[k] = 1.0


def twist(vector: AllocationVector, p: int, q: int, coin: float) -> AllocationVector:
    """Apply one pairwise step; moves up iff coin < beta/(alpha+beta).

    At least one of the pair becomes integral, and c_p X_p + c_q X_q is
    conserved in both branches.
    """
    step = plan_twist(vector, p, q)
    values = np.array(vector.values, dtype=float)
    _apply_twist(values, vector.costs, step, up=coin < step.prob_up)
    return AllocationVector(values=values, costs=vector.costs)


def round_single(vector: AllocationVector, j: int, coin: float) -> AllocationVector:
    """Round the last remaining fractional entry to 1 with probability X_j.

    An entry already within the integrality tolerance of 0 or 1 is returned
    unchanged (no coin is consumed by callers in that case).
    """
    frac = vector.fractional_indices()
    if frac.size > 1:
        raise ValueError(f"round_single requires at most one fractional entry, found {frac.size}")
    values = np.array(vector.values, dtype=float)
    if frac.size == 1 and int(frac[0]) == j:
        values[j] = 1.0 if coin < values[j] else 0.0
    return AllocationVector(values=values, costs=vector.costs)


def _round_values(
    values: np.ndarray,
    costs: np.ndarray,
    rng: np.random.Generator,
    pair_policy: PairPolicy,
) -> np.ndarray:
    """In-place rounding loop shared by the public entry points."""
    _snap_inplace(values)
    values[costs <= 0.0] = 1.0  # a free program is always opened
    for _ in range(values.size + 1):
        frac = np.flatnonzero((values > 0.0) & (values < 1.0))
        if frac.size >= 2:
            p, q = pair_policy(frac)
            step = _plan(values, costs, p, q)
            _apply_twist(values, costs, step, up=rng.random() < step.prob_up)
        elif frac.size == 1:
            j = int(frac[0])
            values[j] = 1.0 if rng.random() < values[j] else 0.0
        else:
            return values
    raise RuntimeError("rounding failed to terminate")  # unreachable: each step fixes an entry


def ras_selection(
    instance: Instance,
    x_star: FractionalSolution | Sequence[float] | np.ndarray,
    rng: np.random.Generator,
    pair_policy: PairPolicy = lowest_index_pair,
) -> np.ndarray:
    """One realization of the randomized allocation strategy as a bool
    selection over the programs: the rounding `ras` evaluates."""
    values = np.array(_values_of(x_star), dtype=float)
    if values.size != len(instance.programs):
        raise ValueError("fractional vector length does not match the program count")
    costs = np.asarray(instance.costs, dtype=float)
    return _round_values(values, costs, rng, pair_policy) > 0.5


def ras(
    instance: Instance,
    x_star: FractionalSolution | Sequence[float] | np.ndarray,
    rng: int | np.random.Generator,
    pair_policy: PairPolicy = lowest_index_pair,
) -> StrategyOutcome:
    """Run one realization of the randomized allocation strategy.

    Starts from the fractional optimum, twists pairs of fractional entries
    until at most one remains, rounds that one on its own, and evaluates the
    realized binary strategy. Reproducible given an integer seed.
    """
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    selected = ras_selection(instance, x_star, rng, pair_policy)
    return evaluate(instance, DeterministicStrategy(tuple(selected.tolist())))


def _values_of(x_star) -> np.ndarray:
    if isinstance(x_star, FractionalSolution):
        return x_star.x_star
    return np.asarray(x_star, dtype=float)


def trajectory_leaves(
    values: Sequence[float] | np.ndarray,
    costs: Sequence[float] | np.ndarray,
    pair_policy: PairPolicy = lowest_index_pair,
) -> Iterator[tuple[float, np.ndarray]]:
    """Enumerate (probability, integral vector) over every rounding trajectory
    under the given deterministic pair policy. Probabilities sum to 1."""
    start = np.array(values, dtype=float)
    costs = np.asarray(costs, dtype=float)
    _snap_inplace(start)
    start[costs <= 0.0] = 1.0

    def recurse(v: np.ndarray, prob: float) -> Iterator[tuple[float, np.ndarray]]:
        frac = np.flatnonzero((v > 0.0) & (v < 1.0))
        if frac.size >= 2:
            p, q = pair_policy(frac)
            step = _plan(v, costs, p, q)
            up = v.copy()
            _apply_twist(up, costs, step, up=True)
            down = v.copy()
            _apply_twist(down, costs, step, up=False)
            denominator = step.alpha + step.beta
            yield from recurse(up, prob * step.beta / denominator)
            yield from recurse(down, prob * step.alpha / denominator)
        elif frac.size == 1:
            j = int(frac[0])
            pj = v[j]
            up = v.copy()
            up[j] = 1.0
            down = v.copy()
            down[j] = 0.0
            yield from recurse(up, prob * pj)
            yield from recurse(down, prob * (1.0 - pj))
        else:
            yield prob, v

    yield from recurse(start, 1.0)


@dataclass(frozen=True, eq=False)
class ExactRoundingStats:
    """Exact distributional summary of the rounding procedure."""

    x_mean: np.ndarray
    y_mean: np.ndarray
    equity: float  # worst-group expected coverage ratio
    expected_cost: float
    prob_over_budget: float
    max_leaf_cost: float


def exact_expectation(
    instance: Instance,
    x_star: FractionalSolution | Sequence[float] | np.ndarray,
    pair_policy: PairPolicy = lowest_index_pair,
) -> ExactRoundingStats:
    """Exact expectations over the full trajectory tree (needs |J| <= 24)."""
    n_j = len(instance.programs)
    if n_j > MAX_EXACT_PROGRAMS:
        raise ValueError(
            f"exact enumeration supports at most {MAX_EXACT_PROGRAMS} programs, got {n_j}"
        )
    values = _values_of(x_star)
    if values.size != n_j:
        raise ValueError("fractional vector length does not match the program count")
    costs = np.asarray(instance.costs, dtype=float)

    x_mean = np.zeros(n_j)
    y_mean = np.zeros(len(instance.households))
    expected_cost = 0.0
    prob_over = 0.0
    max_cost = 0.0
    total_prob = 0.0
    for prob, leaf in trajectory_leaves(values, costs, pair_policy):
        sel = leaf > 0.5
        cost = float(costs[sel].sum())
        x_mean += prob * leaf
        y_mean += prob * instance.covered_mask(sel)
        expected_cost += prob * cost
        max_cost = max(max_cost, cost)
        if cost > instance.budget + 1e-9:
            prob_over += prob
        total_prob += prob
    if abs(total_prob - 1.0) > 1e-9:
        raise RuntimeError(f"trajectory probabilities sum to {total_prob}, not 1")

    equity = 1.0
    for members in instance.group_indices:
        equity = min(equity, float(y_mean[members].mean()))
    return ExactRoundingStats(
        x_mean=x_mean,
        y_mean=y_mean,
        equity=equity,
        expected_cost=expected_cost,
        prob_over_budget=prob_over,
        max_leaf_cost=max_cost,
    )
