import numpy as np
import pytest
from hypothesis import settings

from transit_equity.generators import disjoint_singletons_instance
from transit_equity.model import Household, Instance, Program

settings.register_profile("suite", deadline=None, derandomize=True)
settings.load_profile("suite")


@pytest.fixture
def singletons():
    """Two households in two singleton groups, one unit-cost virtual program
    each, budget 1: the smallest instance where every deterministic strategy
    has equity 0 but a fair coin over the two programs reaches 1/2."""
    return disjoint_singletons_instance()


@pytest.fixture
def small_instance():
    """Four households, two overlapping groups, three bus programs."""
    households = (
        Household(id="a", ride_hail_cost=0.5, group_ids=frozenset({"g1"})),
        Household(id="b", ride_hail_cost=0.5, group_ids=frozenset({"g1", "g2"})),
        Household(id="c", ride_hail_cost=1.0, group_ids=frozenset({"g2"})),
        Household(id="d", ride_hail_cost=None, group_ids=frozenset()),
    )
    programs = (
        Program(id="p1", cost=1.0, covers=frozenset({"a", "b"})),
        Program(id="p2", cost=0.5, covers=frozenset({"b", "c"})),
        Program(id="p3", cost=0.25, covers=frozenset({"d"})),
    )
    return Instance(households=households, programs=programs, budget=1.5)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
