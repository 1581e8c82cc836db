import numpy as np
import pytest
from scipy.optimize import linprog

from transit_equity import simplex


def test_textbook_maximum():
    # max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 -> (4, 0), value 12
    res = simplex.solve([3, 2], [[1, 1], [1, 3]], [4, 6])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(12.0, abs=1e-9)
    assert res.x == pytest.approx([4.0, 0.0], abs=1e-9)


def test_unbounded_detected():
    res = simplex.solve([1], np.zeros((0, 1)), [])
    assert res.status == "unbounded"


def test_upper_bounds_respected():
    res = simplex.solve([1, 1], np.zeros((0, 2)), [], upper_bounds=[0.25, None])
    assert res.status == "unbounded"
    res = simplex.solve([1, 1], [[0, 1]], [2], upper_bounds=[0.25, 1.5])
    assert res.objective == pytest.approx(1.75, abs=1e-9)


def test_degenerate_cycling_guard():
    # classic cycling-prone example (Beale); must terminate at value 0.05
    c = [0.75, -150, 0.02, -6]
    a = [
        [0.25, -60, -1 / 25, 9],
        [0.5, -90, -1 / 50, 3],
        [0, 0, 1, 0],
    ]
    b = [0, 0, 1]
    res = simplex.solve(c, a, b)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(0.05, abs=1e-9)


def test_negative_rhs_rejected():
    # b >= 0 makes the slack basis feasible; there is no phase 1 to find another
    with pytest.raises(simplex.SimplexError, match="right-hand sides must be >= 0"):
        simplex.solve([1, 1], [[1, 0], [0, 1]], [1, -0.5])


@pytest.mark.parametrize("seed", range(40))
def test_matches_scipy_on_random_problems(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    m = int(rng.integers(1, 8))
    c = rng.normal(size=n)
    a = rng.normal(size=(m, n))
    b = rng.uniform(0.5, 3.0, size=m)
    ubs = [float(u) if rng.random() < 0.7 else None for u in rng.uniform(0.5, 2.0, size=n)]

    ours = simplex.solve(c, a, b, upper_bounds=ubs)

    ref = linprog(-c, A_ub=a, b_ub=b, bounds=[(0, ub) for ub in ubs], method="highs")

    if ref.status == 3:
        assert ours.status == "unbounded"
    else:
        assert ref.status == 0
        assert ours.status == "optimal"
        assert ours.objective == pytest.approx(-ref.fun, abs=1e-7, rel=1e-7)
        # the returned point must itself be feasible
        x = ours.x
        assert (x >= -1e-9).all()
        for k, ub in enumerate(ubs):
            if ub is not None:
                assert x[k] <= ub + 1e-9
        assert (a @ x <= b + 1e-7).all()
