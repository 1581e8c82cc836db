"""Core domain model: households, programs, protected groups, and strategies.

An `Instance` bundles the needy households, the candidate coverage programs
(bus lines and single-household ride-hail enrollments) and a budget. Each
household lists the protected groups it belongs to; the minimum coverage
ratio over those groups defines the equity objective. All domain types are
immutable after construction and safe to share across concurrent evaluators.
Money on households and programs is raw; an instance's `costs` and budget
are in its `unit` (money per unit, which only `normalize` sets).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from itertools import chain
from typing import Callable, TypeVar

import numpy as np

# Numeric tolerances, each named once (lp and simplex keep their solver
# tolerances beside the code that snaps and pivots).
# Slack on "cost <= remaining budget" wherever a program is tested for fitting.
AFFORDABILITY_TOL = 1e-12
# Slack on "a rounding leaf costs more than the budget" in exact enumeration.
LEAF_OVER_BUDGET_TOL = 1e-9
# How far the trajectory probabilities of exact enumeration may sum from 1.
PROBABILITY_SUM_TOL = 1e-9
# An LP value at or below this counts as 0 in an approximation ratio.
ZERO_LP_VALUE = 1e-12
# Atoms of an optimal distribution with at most this probability are dropped.
ATOM_PROBABILITY_CUT = 1e-12
# The oracles' cost tie margin, relative to the sum of all costs: far above
# what summation order changes in a sum of at most 20 costs.
COST_TIE_MARGIN = 1e-12

VIRTUAL_PROGRAM_PREFIX = "ride-hail:"

# Separates the entries of an id list in the instance CSVs (see instance_io).
ID_SEPARATOR = ";"

# Selections `Instance.coverage` scores per block: far above a sweep cell's
# trials, and small enough that the oracles' largest matrix (2**20 rows) is
# scored in 16 blocks.
COVERAGE_BLOCK_ROWS = 2**16

T = TypeVar("T")


def _check_id(what: str, value: str) -> None:
    """Reject an id the instance CSVs cannot carry: a list field splits on
    ID_SEPARATOR and drops empty entries, and Python 3.10's csv writer cannot
    write NUL."""
    if not value or ID_SEPARATOR in value or "\x00" in value:
        raise ValueError(
            f"{what} id must be nonempty and free of {ID_SEPARATOR!r} and NUL, got {value!r}"
        )


def _check_budget(budget: float) -> None:
    if not 0 <= budget < math.inf:
        raise ValueError(f"budget must be finite and >= 0, got {budget!r}")


def _distinct_ids(what: str, ids: list[str]) -> set[str]:
    """The set of `ids`; a repeated id raises ValueError naming the first
    one seen twice."""
    distinct = set(ids)
    if len(distinct) != len(ids):
        seen: set[str] = set()
        for value in ids:
            if value in seen:
                raise ValueError(f"duplicate {what} id {value!r}")
            seen.add(value)
    return distinct


class BudgetTooSmallError(ValueError):
    """Normalized budget fell below 1, outside the regime the rounding
    guarantees assume. Callers may re-run with allow_small_budget=True (the
    CLI's --allow-small-budget)."""


class ProgramKind(str, Enum):
    BUS_LINE = "bus_line"
    VIRTUAL_RIDE_HAIL = "virtual_ride_hail"


@dataclass(frozen=True)
class Household:
    """A qualified needy household.

    ride_hail_cost is the cost of enrolling this household into the
    subsidized ride-hail program for the planning window; None means the
    household cannot be served that way. group_ids lists the protected
    groups the household belongs to (possibly none, possibly several).
    """

    id: str
    ride_hail_cost: float | None = None
    group_ids: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        _check_id("household", self.id)
        if self.ride_hail_cost is not None and not 0 <= self.ride_hail_cost < math.inf:
            raise ValueError(
                f"household {self.id}: ride_hail_cost must be finite and >= 0,"
                f" got {self.ride_hail_cost!r}"
            )
        object.__setattr__(self, "group_ids", frozenset(self.group_ids))
        for gid in self.group_ids:
            _check_id("group", gid)


@dataclass(frozen=True)
class Program:
    """A candidate coverage program: a bus line covering a set of households,
    or a virtual single-household line encoding ride-hail enrollment."""

    id: str
    cost: float
    covers: frozenset[str]
    kind: ProgramKind = ProgramKind.BUS_LINE

    def __post_init__(self) -> None:
        _check_id("program", self.id)
        if self.kind is ProgramKind.BUS_LINE and self.id.startswith(VIRTUAL_PROGRAM_PREFIX):
            raise ValueError(
                f"program {self.id}: the prefix {VIRTUAL_PROGRAM_PREFIX!r} is reserved"
                " for virtual ride-hail programs"
            )
        if not 0 <= self.cost < math.inf:
            raise ValueError(f"program {self.id}: cost must be finite and >= 0, got {self.cost!r}")
        object.__setattr__(self, "covers", frozenset(self.covers))
        if not self.covers:
            raise ValueError(f"program {self.id}: covers must be nonempty")
        if self.kind is ProgramKind.VIRTUAL_RIDE_HAIL and len(self.covers) != 1:
            raise ValueError(
                f"program {self.id}: a virtual ride-hail program covers exactly one household"
            )


class _budget_free(cached_property):
    """A cached property of `Instance` kept in its budget-free store under
    its name: the instance and its `with_budget` copies compute it once
    between them. Each caches it as a plain attribute on first read."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.attrname] = instance.derive(self.attrname, self.func)
        return value


@dataclass(frozen=True)
class Instance:
    """A full problem instance. Its protected groups are the group ids its
    households list (`groups`); a group's members are the households listing
    it. `costs` (raw costs / `unit`) and `budget` are in money per `unit`.
    What does not depend on the budget lives in one store (`derive`),
    shared by every `with_budget` copy."""

    households: tuple[Household, ...]
    programs: tuple[Program, ...]
    budget: float
    unit: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "households", tuple(self.households))
        object.__setattr__(self, "programs", tuple(self.programs))
        _check_budget(self.budget)
        if not 0 < self.unit < math.inf:
            raise ValueError(f"unit must be finite and > 0, got {self.unit!r}")
        known = _distinct_ids("household", [h.id for h in self.households])
        _distinct_ids("program", [p.id for p in self.programs])
        for p in self.programs:
            missing = p.covers - known
            if missing:
                raise ValueError(f"program {p.id} covers unknown households {sorted(missing)}")
        object.__setattr__(self, "_store", {})

    def with_budget(self, budget: float) -> "Instance":
        """This instance at another budget. Only the budget is validated; the
        copy shares this instance's budget-free store, and whatever it has
        cached already."""
        _check_budget(budget)
        out = object.__new__(type(self))
        out.__dict__.update(self.__dict__)
        object.__setattr__(out, "budget", budget)
        return out

    def derive(self, key: str, build: Callable[["Instance"], T]) -> T:
        """`build(self)`, computed once for this instance and its
        `with_budget` copies: the result is kept under `key` in the store
        they share, so `build` must not read the budget."""
        if key not in self._store:
            self._store[key] = build(self)
        return self._store[key]

    @_budget_free
    def household_index(self) -> dict[str, int]:
        return {h.id: k for k, h in enumerate(self.households)}

    @_budget_free
    def costs(self) -> np.ndarray:
        arr = np.array([p.cost for p in self.programs], dtype=float) / self.unit
        arr.setflags(write=False)
        return arr

    @_budget_free
    def groups(self) -> tuple[str, ...]:
        """The protected group ids the households list, sorted."""
        return tuple(sorted(set().union(*(h.group_ids for h in self.households))))

    @_budget_free
    def group_indices(self) -> tuple[np.ndarray, ...]:
        """Per group, the ascending household positions of its members: the
        rows of `group_members`."""
        bounds, indices = self.group_members.indptr.tolist(), self.group_members.indices
        return tuple(indices[a:b] for a, b in zip(bounds[:-1], bounds[1:]))

    @_budget_free
    def coverers(self):
        """The coverage incidence, household-major: a (households, programs)
        scipy CSR of ones whose row i marks the programs covering household
        i, ascending (scipy's transpose of the programs' `covers` sorts it;
        empty when none covers i). `coverers.tocsc()` walks it by program."""
        idx = self.household_index
        sizes = [len(p.covers) for p in self.programs]
        owners = np.fromiter(
            (idx[hid] for p in self.programs for hid in p.covers), dtype=np.intp, count=sum(sizes)
        )
        return _ones_csr(np.cumsum([0, *sizes]), owners, len(self.households)).T.tocsr()

    @_budget_free
    def group_members(self):
        """Group membership: a (groups, households) scipy CSR of ones whose
        row g marks, ascending, the households listing group `groups[g]`."""
        members: dict[str, list[int]] = {gid: [] for gid in self.groups}
        for i, h in enumerate(self.households):
            for gid in h.group_ids:
                members[gid].append(i)
        rows = members.values()
        indices = np.fromiter(chain.from_iterable(rows), dtype=np.intp)
        return _ones_csr(np.cumsum([0, *map(len, rows)]), indices, len(self.households))

    @_budget_free
    def group_sizes(self) -> np.ndarray:
        """Member count per group: the row lengths of `group_members`."""
        sizes = np.diff(self.group_members.indptr).astype(np.intp)
        sizes.setflags(write=False)
        return sizes

    def coverage(self, selections: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Score a (K, programs) bool matrix of selections: `covered[k, i]`
        tells whether selection k covers household i, and `counts[k, g]` how
        many members of group g it covers. Hits per household are one product
        with `coverers`, clamped to 1; counts one product of those with
        `group_members`. Rows go through in blocks of COVERAGE_BLOCK_ROWS, so
        the int32 copies scipy makes stay small. `covered` is the transpose
        of a household-major array, which the hits fill without a transpose."""
        n_rows = selections.shape[0]
        covered = np.empty((len(self.households), n_rows), dtype=bool)
        counts = np.empty((n_rows, len(self.groups)), dtype=np.intp)
        for start in range(0, n_rows, COVERAGE_BLOCK_ROWS):
            block = slice(start, start + COVERAGE_BLOCK_ROWS)
            hits = self.coverers @ selections[block].T
            np.minimum(hits, 1, out=hits)
            covered[:, block] = hits
            counts[block] = (self.group_members @ hits).T
        return covered.T, counts

    def selection_costs(self, selections: np.ndarray) -> np.ndarray:
        """Each row's total cost, summed as `costs[row].sum()` sums it."""
        return np.array([self.costs[row].sum() for row in selections], dtype=float)


def _ones_csr(indptr: np.ndarray, indices: np.ndarray, n_columns: int):
    """The scipy CSR matrix of int32 ones with rows `(indptr, indices)`."""
    from scipy.sparse import csr_matrix

    data = np.ones(indices.size, dtype=np.int32)
    return csr_matrix((data, indices, indptr), shape=(indptr.size - 1, n_columns))


@dataclass(frozen=True)
class DeterministicStrategy:
    """A binary selection over the instance's programs, in program order."""

    selected: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "selected", tuple(map(int, np.asarray(self.selected).tolist())))
        if any(v not in (0, 1) for v in self.selected):
            raise ValueError("selection entries must be 0 or 1")


@dataclass(frozen=True, eq=False)
class StrategyOutcome:
    """A realized strategy together with its cost, coverage, and equity."""

    strategy: DeterministicStrategy
    total_cost: float
    covered: frozenset[str]
    group_ratios: dict[str, float]
    equity: float


def _scaled(instance: Instance) -> tuple[Instance, float]:
    """`instance` at budget 0 in the unit of its costliest program, and that
    program's cost in `instance`'s unit. The copy shares the households and
    programs and has a store of its own; it builds no object."""
    top = max(p.cost for p in instance.programs)
    if top <= 0:
        raise ValueError("cannot normalize: max program cost is 0")
    out = object.__new__(Instance)
    out.__dict__.update(
        households=instance.households, programs=instance.programs, budget=0.0, unit=top, _store={}
    )
    return out, top / instance.unit


def normalize(
    instance: Instance, *, allow_small_budget: bool = False
) -> tuple[Instance, float]:
    """Rescale so the costliest program has cost 1.

    Returns the instance in the unit of its costliest program, sharing its
    households and programs (their money stays raw), with the budget divided
    by the scale factor, also returned: that program's cost in `instance`'s
    unit (multiply scaled money by it to recover `instance`'s). Rejects a
    normalized budget below 1 unless allow_small_budget is set, since the
    rounding guarantees assume max cost <= 1 <= B.

    The scaled copy does not depend on the budget: it is made once and
    shared by every `with_budget` copy of the instance, so on such a copy
    this only divides the budget.
    """
    if not instance.programs:
        raise ValueError("cannot normalize an instance with no programs")
    scaled, scale = instance.derive("normalize", _scaled)
    new_budget = instance.budget / scale
    if new_budget < 1 and not allow_small_budget:
        raise BudgetTooSmallError(
            f"normalized budget {new_budget:.6g} < 1; pass allow_small_budget=True"
            " (CLI: --allow-small-budget) to proceed"
        )
    return scaled.with_budget(new_budget), scale


def inject_ride_hailing(instance: Instance) -> Instance:
    """Append one virtual single-household program per household whose
    ride-hail cost is defined, at that raw cost (`unit` scales it). Idempotent:
    households that already have a virtual program are skipped. Virtual ids
    use the reserved prefix 'ride-hail:<household id>'."""
    existing = {
        next(iter(p.covers))
        for p in instance.programs
        if p.kind is ProgramKind.VIRTUAL_RIDE_HAIL
    }
    added = [
        Program(
            id=f"{VIRTUAL_PROGRAM_PREFIX}{h.id}",
            cost=h.ride_hail_cost,
            covers=frozenset((h.id,)),
            kind=ProgramKind.VIRTUAL_RIDE_HAIL,
        )
        for h in instance.households
        if h.ride_hail_cost is not None and h.id not in existing
    ]
    if not added:
        return instance
    return replace(instance, programs=instance.programs + tuple(added))


def evaluate(instance: Instance, strategy: DeterministicStrategy) -> StrategyOutcome:
    """Realize a strategy: covered set, per-group coverage ratios, and equity
    (the minimum group ratio; 1.0 when there are no groups). Feasibility is
    deliberately not enforced so exhaustive oracles can probe any point."""
    if len(strategy.selected) != len(instance.programs):
        raise ValueError(
            f"strategy length {len(strategy.selected)} != program count {len(instance.programs)}"
        )
    sel = np.array(strategy.selected, dtype=bool)[np.newaxis]
    (hits,), (counts,) = instance.coverage(sel)
    covered = frozenset(h.id for h, c in zip(instance.households, hits) if c)
    ratios = {g: float(c / n) for g, c, n in zip(instance.groups, counts, instance.group_sizes)}
    equity = min(ratios.values(), default=1.0)
    return StrategyOutcome(
        strategy=strategy,
        total_cost=float(instance.selection_costs(sel)[0]),
        covered=covered,
        group_ratios=ratios,
        equity=equity,
    )
