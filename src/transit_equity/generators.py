"""Seeded generators for small benchmark instances.

`disjoint_singletons_instance` is the minimal instance where randomization
strictly beats every deterministic strategy: two households in two singleton
groups, each coverable only by its own unit-cost ride-hail enrollment, and a
budget of one. `random_instance` draws already-normalized instances (max
program cost exactly 1, budget >= 1) for property and oracle testing.
"""

from __future__ import annotations

import numpy as np

from .model import Household, Instance, Program, inject_ride_hailing


def disjoint_singletons_instance() -> Instance:
    households = (
        Household(id="a", ride_hail_cost=1.0, group_ids=frozenset({"g1"})),
        Household(id="b", ride_hail_cost=1.0, group_ids=frozenset({"g2"})),
    )
    return inject_ride_hailing(Instance(households=households, programs=(), budget=1.0))


def random_instance(
    rng: np.random.Generator,
    *,
    max_households: int = 12,
    max_programs: int = 10,
    max_groups: int = 4,
) -> Instance:
    """A seeded random normalized instance: costs in (0, 1] with max exactly 1,
    nonempty random cover sets, 1..max_groups possibly-overlapping groups, and
    budget uniform in [1, total cost]."""
    n_i = int(rng.integers(2, max_households + 1))
    n_j = int(rng.integers(2, max_programs + 1))
    n_g = int(rng.integers(1, max_groups + 1))
    household_ids = [f"h{i:02d}" for i in range(n_i)]

    group_members: list[frozenset[str]] = []
    for _ in range(n_g):
        size = int(rng.integers(1, n_i + 1))
        members = rng.choice(n_i, size=size, replace=False)
        group_members.append(frozenset(household_ids[int(i)] for i in members))
    group_ids_of = {
        hid: frozenset(f"g{g}" for g, members in enumerate(group_members) if hid in members)
        for hid in household_ids
    }
    households = tuple(
        Household(id=hid, ride_hail_cost=None, group_ids=group_ids_of[hid])
        for hid in household_ids
    )

    costs = rng.uniform(0.0, 1.0, size=n_j)
    costs = np.nextafter(costs, 1.0)  # keep costs strictly positive
    costs /= costs.max()
    programs = []
    for j in range(n_j):
        size = int(rng.integers(1, n_i + 1))
        covers = rng.choice(n_i, size=size, replace=False)
        programs.append(
            Program(
                id=f"p{j:02d}",
                cost=float(costs[j]),
                covers=frozenset(household_ids[int(i)] for i in covers),
            )
        )

    total = float(costs.sum())
    budget = float(rng.uniform(1.0, max(1.0, total)))
    return Instance(households=households, programs=tuple(programs), budget=budget)
