import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from transit_equity.baselines import greedy
from transit_equity.generators import random_instance
from transit_equity.instance_io import write_instance
from transit_equity.lp import build_lp, solve_lp
from transit_equity.model import (
    BudgetTooSmallError,
    DeterministicStrategy,
    Household,
    Instance,
    Program,
    ProgramKind,
    evaluate,
    inject_ride_hailing,
    normalize,
)


def make_instance(costs, budget):
    households = (Household(id="h0", group_ids=frozenset({"g"})),)
    programs = tuple(
        Program(id=f"p{k}", cost=c, covers=frozenset({"h0"})) for k, c in enumerate(costs)
    )
    return Instance(households=households, programs=programs, budget=budget)


class TestValidation:
    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            Program(id="p", cost=-1.0, covers=frozenset({"a"}))

    def test_negative_ride_hail_cost_rejected(self):
        with pytest.raises(ValueError):
            Household(id="h", ride_hail_cost=-0.5)

    def test_empty_covers_rejected(self):
        with pytest.raises(ValueError):
            Program(id="p", cost=1.0, covers=frozenset())

    def test_virtual_program_covers_one(self):
        with pytest.raises(ValueError):
            Program(
                id="p",
                cost=1.0,
                covers=frozenset({"a", "b"}),
                kind=ProgramKind.VIRTUAL_RIDE_HAIL,
            )

    def test_unknown_cover_rejected(self):
        with pytest.raises(ValueError, match="unknown households"):
            Instance(
                households=(Household(id="a"),),
                programs=(Program(id="p", cost=1.0, covers=frozenset({"zzz"})),),
                budget=1.0,
            )

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_ride_hail_cost_rejected(self, value):
        with pytest.raises(ValueError, match="ride_hail_cost must be finite"):
            Household(id="h", ride_hail_cost=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_program_cost_rejected(self, value):
        with pytest.raises(ValueError, match="cost must be finite"):
            Program(id="p", cost=value, covers=frozenset({"a"}))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_budget_rejected(self, value):
        with pytest.raises(ValueError, match="budget must be finite"):
            make_instance([1.0], budget=value)

    @pytest.mark.parametrize("value", [0.0, -2.0, float("nan"), float("inf")])
    def test_non_positive_or_non_finite_unit_rejected(self, value):
        instance = make_instance([1.0], budget=1.0)
        with pytest.raises(ValueError, match="unit must be finite and > 0"):
            Instance(instance.households, instance.programs, 1.0, unit=value)

    @pytest.mark.parametrize("bad", ["", "a;b", ";"])
    def test_unwritable_ids_rejected(self, bad):
        with pytest.raises(ValueError, match="household id must be nonempty"):
            Household(id=bad)
        with pytest.raises(ValueError, match="program id must be nonempty"):
            Program(id=bad, cost=1.0, covers=frozenset({"a"}))

    def test_nul_in_ids_rejected(self):
        # Python 3.10's csv writer cannot write NUL, so such an id would not round-trip
        with pytest.raises(ValueError, match="household id .* NUL"):
            Household(id="a\x00b")
        with pytest.raises(ValueError, match="program id .* NUL"):
            Program(id="\x00", cost=1.0, covers=frozenset({"a"}))

    @pytest.mark.parametrize("bad", ["", "a;b", ";", "\x00"])
    def test_bad_group_ids_rejected(self, bad):
        with pytest.raises(ValueError, match="group id must be nonempty"):
            Household(id="h", group_ids=frozenset({"g", bad}))

    def test_reserved_prefix_rejected_on_bus_lines(self):
        with pytest.raises(ValueError, match="reserved"):
            Program(id="ride-hail:a", cost=1.0, covers=frozenset({"a"}))
        virtual = Program(
            id="ride-hail:a", cost=1.0, covers=frozenset({"a"}), kind=ProgramKind.VIRTUAL_RIDE_HAIL
        )
        assert virtual.id == "ride-hail:a"


class TestNormalize:
    def test_divides_by_max_cost(self):
        inst = make_instance([2.0, 4.0], budget=8.0)
        norm, scale = normalize(inst)
        assert scale == 4.0
        assert norm.costs.tolist() == [0.5, 1.0]
        assert norm.budget == 2.0

    def test_identity_when_already_normalized(self):
        inst = make_instance([1.0], budget=1.0)
        norm, scale = normalize(inst)
        assert scale == 1.0
        assert norm.budget == 1.0
        assert [p.cost for p in norm.programs] == [1.0]

    def test_subsidy_tier_costs(self):
        inst = make_instance([10.0, 15.0, 20.0], budget=40.0)
        norm, scale = normalize(inst)
        assert scale == 20.0
        assert norm.costs.tolist() == [0.5, 0.75, 1.0]
        assert norm.budget == 2.0

    def test_household_costs_scaled_too(self):
        inst = make_instance([4.0], budget=8.0)
        inst = dataclasses.replace(
            inst,
            households=(Household(id="h0", ride_hail_cost=2.0, group_ids=frozenset({"g"})),),
        )
        norm, _ = normalize(inst)
        assert inject_ride_hailing(norm).costs[-1] == 0.5

    def test_rejects_empty_program_list(self):
        inst = Instance(households=(Household(id="a"),), programs=(), budget=1.0)
        with pytest.raises(ValueError, match="no programs"):
            normalize(inst)

    def test_small_budget_needs_override(self):
        inst = make_instance([4.0], budget=2.0)
        with pytest.raises(BudgetTooSmallError):
            normalize(inst)
        norm, _ = normalize(inst, allow_small_budget=True)
        assert norm.budget == 0.5

    @given(st.integers(0, 2**32 - 1))
    def test_preserves_feasibility(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, max_households=6, max_programs=6)
        raw = dataclasses.replace(
            inst,
            programs=tuple(dataclasses.replace(p, cost=p.cost * 7.5) for p in inst.programs),
            budget=inst.budget * 7.5,
        )
        norm, scale = normalize(raw)
        assert scale == pytest.approx(7.5)
        strategy = DeterministicStrategy(
            tuple(int(rng.integers(2)) for _ in inst.programs)
        )
        sel = np.array(strategy.selected, dtype=bool)
        assert (raw.costs[sel].sum() <= raw.budget + 1e-9 * scale) == (
            norm.costs[sel].sum() <= norm.budget + 1e-9
        )


def raw_money_instance(budget=10.0):
    """Raw money whose quotients by the costliest program are inexact."""
    households = (
        Household(id="a", ride_hail_cost=2.5, group_ids=frozenset({"g1"})),
        Household(id="b", ride_hail_cost=1.1, group_ids=frozenset({"g1", "g2"})),
        Household(id="c", ride_hail_cost=7.3, group_ids=frozenset({"g2"})),
        Household(id="d", ride_hail_cost=None, group_ids=frozenset()),
    )
    programs = (
        Program(id="p1", cost=3.0, covers=frozenset({"a", "b"})),
        Program(id="p2", cost=7.0, covers=frozenset({"b", "c"})),
        Program(id="p3", cost=0.1, covers=frozenset({"d"})),
    )
    return Instance(households=households, programs=programs, budget=budget)


def written_sha256(instance, directory):
    write_instance(instance, directory)
    digest = hashlib.sha256()
    for name in ("households.csv", "programs.csv", "meta.csv"):
        digest.update((Path(directory) / name).read_bytes())
    return digest.hexdigest()


class TestCostUnit:
    """Money on households and programs stays raw; a normalized instance
    holds its scale in `unit`, and its `costs` and budget in that unit."""

    def test_normalized_instance_shares_objects_and_holds_the_scale(self):
        raw = raw_money_instance()
        norm, scale = normalize(raw)
        assert norm.households is raw.households and norm.programs is raw.programs
        assert raw.unit == 1.0 and norm.unit == scale == 7.0
        assert norm.budget == 10.0 / 7.0

    def test_costs_are_raw_costs_over_the_scale_to_the_bit(self):
        norm, scale = normalize(raw_money_instance())
        expected = np.array([p.cost / scale for p in norm.programs])
        assert norm.costs.tobytes() == expected.tobytes()
        assert not norm.costs.flags.writeable

    def test_normalize_builds_no_object(self, monkeypatch):
        raw = raw_money_instance()
        built = []
        for cls in (Household, Program, Instance):
            check = cls.__post_init__
            monkeypatch.setattr(
                cls, "__post_init__", lambda self, check=check: built.append(self) or check(self)
            )
        for budget in (7.0, 14.0):
            normalize(raw.with_budget(budget))
        assert built == []

    def test_with_budget_keeps_unit_and_renormalizing_is_identity(self):
        norm, scale = normalize(raw_money_instance())
        copy = norm.with_budget(3.0)
        assert copy.unit == norm.unit and copy.costs is norm.costs
        again, one = normalize(copy)
        assert one == 1.0 and again.unit == scale and again.budget == 3.0
        assert again.costs.tobytes() == norm.costs.tobytes()

    def test_injected_ride_hail_costs_take_the_unit(self):
        raw = raw_money_instance()
        norm, scale = normalize(raw)
        combined = inject_ride_hailing(norm)
        assert combined.unit == scale
        for h, cost in zip(raw.households[:3], combined.costs[len(raw.programs):]):
            assert cost == h.ride_hail_cost / scale
        assert combined.costs[-1] == raw.households[2].ride_hail_cost / scale

    def test_inject_and_normalize_commute_at_one_scale(self):
        # every ride-hail cost below the costliest bus line: one scale
        base = raw_money_instance()
        households = tuple(
            dataclasses.replace(h, ride_hail_cost=min(h.ride_hail_cost, 6.9))
            if h.ride_hail_cost is not None
            else h
            for h in base.households
        )
        raw = dataclasses.replace(base, households=households)
        first = normalize(inject_ride_hailing(raw))[0]
        later = inject_ride_hailing(normalize(raw)[0])
        assert first.costs.tobytes() == later.costs.tobytes()

    def test_written_normalized_instance_is_pinned(self, tmp_path):
        # digests of the files that dividing every object's money wrote
        raw = raw_money_instance()
        written = [
            written_sha256(instance, tmp_path / name)
            for name, instance in (
                ("bus", normalize(raw)[0]),
                ("inject_first", normalize(inject_ride_hailing(raw))[0]),
                ("inject_later", inject_ride_hailing(normalize(raw)[0])),
            )
        ]
        assert written == [
            "a43b39b07a272538f2680d3c574ecf3edceac557dbe83df1f6c46e23b83971fe",
            "c715c34271b6b66e669557a4ed671c2aec26b8cbb36ab8d41846e8d51af1f719",
            "624118e5a7ca8833b60c81149c92f55bbf7997ba1dda47a479fdeeadcf501831",
        ]


class TestWithBudget:
    def test_shares_caches_and_changes_only_the_budget(self, small_instance):
        copy = small_instance.with_budget(0.75)
        assert copy.budget == 0.75 and small_instance.budget == 1.5
        assert copy == dataclasses.replace(small_instance, budget=0.75)
        assert copy._store is small_instance._store
        assert copy.with_budget(2.0)._store is small_instance._store
        # read first on the copy or on the original, each is built once
        for name in ("costs", "groups", "household_index", "coverers"):
            assert getattr(copy, name) is getattr(small_instance, name)
        for name in ("group_indices", "group_members"):
            assert getattr(small_instance, name) is getattr(copy, name)
        assert copy.with_budget(2.0).costs is small_instance.costs
        assert dataclasses.replace(small_instance)._store is not small_instance._store

    def test_raw_instance_only_feeds_normalize(self, small_instance):
        # a sweep's raw base instance builds its normalized form and nothing
        # else: the incidence and the tables belong to the normalized copies
        raw = dataclasses.replace(small_instance, budget=0.0)
        for budget in (1.0, 1.5, 3.0):
            norm, _ = normalize(raw.with_budget(budget))
            greedy(norm)
            solve_lp(build_lp(norm), solver="highs")
        assert set(raw._store) == {"normalize"}
        assert "coverers" not in raw.__dict__
        assert {"coverers", "greedy", "household_classes"} <= set(norm._store)

    def test_normalized_programs_and_households_shared(self, small_instance):
        programs = tuple(dataclasses.replace(p, cost=4 * p.cost) for p in small_instance.programs)
        raw = dataclasses.replace(small_instance, programs=programs)
        low, scale_low = normalize(raw.with_budget(4.0))
        high, scale_high = normalize(raw.with_budget(8.0))
        assert (low.budget, high.budget) == (1.0, 2.0) and scale_low == scale_high == 4.0
        assert low.programs is high.programs and low.households is high.households
        assert low.costs is high.costs
        assert low == normalize(dataclasses.replace(raw, budget=4.0))[0]

    def test_small_budget_still_checked_per_copy(self):
        raw = make_instance([4.0], budget=8.0)
        normalize(raw.with_budget(8.0))
        with pytest.raises(BudgetTooSmallError):
            normalize(raw.with_budget(2.0))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_bad_budget_rejected(self, small_instance, value):
        with pytest.raises(ValueError, match="budget must be finite and >= 0"):
            small_instance.with_budget(value)


class TestInjectRideHailing:
    def test_adds_virtual_program_per_costed_household(self, singletons):
        assert len(singletons.programs) == 2
        assert all(p.kind is ProgramKind.VIRTUAL_RIDE_HAIL for p in singletons.programs)
        by_id = {p.id: p for p in singletons.programs}
        assert by_id["ride-hail:a"].cost == 1.0
        assert by_id["ride-hail:a"].covers == frozenset({"a"})

    def test_idempotent(self, singletons):
        again = inject_ride_hailing(singletons)
        assert [p.id for p in again.programs] == [p.id for p in singletons.programs]

    def test_counts_with_existing_bus_lines(self, small_instance):
        combined = inject_ride_hailing(small_instance)
        # 3 bus programs + virtual lines for a, b, c (d has no ride-hail cost)
        assert len(combined.programs) == 6
        kinds = [p.kind for p in combined.programs[3:]]
        assert kinds == [ProgramKind.VIRTUAL_RIDE_HAIL] * 3

    def test_originals_untouched(self, small_instance):
        combined = inject_ride_hailing(small_instance)
        assert combined.programs[:3] == small_instance.programs


class TestIncidence:
    @staticmethod
    def instances(rng):
        yield Instance(
            households=tuple(Household(id=h) for h in "abcde"),
            programs=(
                Program(id="p1", cost=1.0, covers=frozenset({"d", "a"})),
                Program(id="p0", cost=1.0, covers=frozenset({"c", "a", "b"})),
            ),
            budget=1.0,
        )
        for _ in range(40):
            yield random_instance(rng, max_households=8, max_programs=8)

    def test_rows_are_sorted_cover_positions(self, rng):
        # row i of coverers marks, ascending, the programs whose covers hold i
        for inst in self.instances(rng):
            coverers = inst.coverers
            assert coverers.shape == (len(inst.households), len(inst.programs))
            assert (coverers.data == 1).all()
            for i, h in enumerate(inst.households):
                row = coverers.indices[coverers.indptr[i] : coverers.indptr[i + 1]].tolist()
                assert row == [j for j, p in enumerate(inst.programs) if h.id in p.covers]

    def test_transpose_is_exact(self, rng):
        # the program-major view greedy walks: column j holds program j's covers
        for inst in self.instances(rng):
            by_program = inst.coverers.tocsc()
            for j, p in enumerate(inst.programs):
                column = by_program.indices[by_program.indptr[j] : by_program.indptr[j + 1]]
                assert column.tolist() == sorted(inst.household_index[h] for h in p.covers)

    def test_uncovered_household_has_empty_row(self, rng):
        inst = next(self.instances(rng))
        indptr = inst.coverers.indptr
        assert indptr[inst.household_index["e"] + 1] == indptr[inst.household_index["e"]]

    def test_evaluate_extremes_match_set_recomputation(self, rng):
        for inst in self.instances(rng):
            n_j = len(inst.programs)
            for selected in ((0,) * n_j, (1,) * n_j):
                outcome = evaluate(inst, DeterministicStrategy(selected))
                covered = set()
                for v, p in zip(selected, inst.programs):
                    if v:
                        covered |= p.covers
                assert outcome.covered == frozenset(covered)
                members = {
                    g: {h.id for h in inst.households if g in h.group_ids} for g in inst.groups
                }
                ratios = {g: len(m & covered) / len(m) for g, m in members.items()}
                assert outcome.group_ratios == ratios
                assert outcome.equity == min(ratios.values(), default=1.0)
                cost = sum(p.cost for v, p in zip(selected, inst.programs) if v)
                assert outcome.total_cost == pytest.approx(cost, abs=1e-12)


class TestEvaluate:
    def test_single_virtual_selection_covers_one_group(self, singletons):
        outcome = evaluate(singletons, DeterministicStrategy((1, 0)))
        assert outcome.covered == frozenset({"a"})
        assert outcome.group_ratios == {"g1": 1.0, "g2": 0.0}
        assert outcome.equity == 0.0
        assert outcome.total_cost == 1.0

    def test_full_selection_reaches_equity_one(self, singletons):
        outcome = evaluate(singletons, DeterministicStrategy((1, 1)))
        assert outcome.equity == 1.0

    def test_empty_selection(self, small_instance):
        outcome = evaluate(small_instance, DeterministicStrategy((0, 0, 0)))
        assert outcome.equity == 0.0
        assert outcome.total_cost == 0.0
        assert outcome.covered == frozenset()

    def test_length_mismatch_rejected(self, small_instance):
        with pytest.raises(ValueError, match="length"):
            evaluate(small_instance, DeterministicStrategy((1, 0)))

    def test_overlapping_groups(self, small_instance):
        outcome = evaluate(small_instance, DeterministicStrategy((0, 1, 0)))
        assert outcome.group_ratios == {"g1": 0.5, "g2": 1.0}
        assert outcome.equity == 0.5

    def test_infeasible_point_still_evaluated(self, small_instance):
        outcome = evaluate(small_instance, DeterministicStrategy((1, 1, 1)))
        assert outcome.total_cost == pytest.approx(1.75)
        assert outcome.total_cost > small_instance.budget + 1e-9

    def test_selection_costs_are_evaluates_costs_to_the_bit(self):
        # up to 300 programs: past numpy's 8-way unrolled and 128-element
        # pairwise summation blocks; costs spread over six decades. Rows of
        # 0 and of more than 128 picks both occur.
        rng = np.random.default_rng(41)
        picks = set()
        for _ in range(300):
            n_j = int(rng.integers(1, 300))
            costs = rng.random(n_j) * 10.0 ** rng.uniform(-3, 3, n_j)
            inst = make_instance(costs.tolist(), budget=1.0)
            selections = rng.random((int(rng.integers(0, 30)), n_j)) < rng.random()
            totals = inst.selection_costs(selections)
            want = [float(costs[s].sum()) for s in selections]
            assert totals.dtype == float and totals.tolist() == want
            picks.update(selections.sum(axis=1).tolist())
        assert 0 in picks and max(picks) > 128

    @given(st.integers(0, 2**32 - 1))
    def test_equity_bounds_and_monotonicity(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, max_households=8, max_programs=6)
        sel = [int(rng.integers(2)) for _ in inst.programs]
        base = evaluate(inst, DeterministicStrategy(tuple(sel)))
        assert 0.0 <= base.equity <= 1.0
        assert all(base.equity <= r for r in base.group_ratios.values())
        off = [k for k, v in enumerate(sel) if v == 0]
        if off:
            sel[off[0]] = 1
            bigger = evaluate(inst, DeterministicStrategy(tuple(sel)))
            for gid, r in base.group_ratios.items():
                assert bigger.group_ratios[gid] >= r - 1e-12


def test_no_groups_means_vacuous_equity():
    inst = Instance(
        households=(Household(id="a"),),
        programs=(Program(id="p", cost=1.0, covers=frozenset({"a"})),),
        budget=1.0,
    )
    assert evaluate(inst, DeterministicStrategy((0,))).equity == 1.0
