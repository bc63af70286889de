import numpy as np
import pytest

from oracles import is_feasible
from reqsel import (
    DARS,
    PCBK,
    PRICE_VALUE,
    SBK,
    Conflicts,
    ExactlyOne,
    InfluenceMatrix,
    RequiresAll,
    RequiresAny,
    build_model,
    case_study_precedence,
    case_study_problem,
    case_study_requirements,
    solve,
)
from reqsel.casestudy import TOTAL_EXPECTED_VALUE, TOTAL_VALUE
from reqsel.solver import INFEASIBLE, OPTIMAL

REQS = case_study_requirements()
IDS = tuple(r.id for r in REQS)


class TestDataset:
    def test_sizes_and_ids(self):
        assert len(REQS) == 27
        assert IDS == tuple(f"r{i+1}" for i in range(27))

    def test_value_total_is_exact(self):
        assert sum(r.value for r in REQS) == TOTAL_VALUE == 342.0

    def test_values_are_whole_money_units(self):
        for r in REQS:
            assert r.value == int(r.value)

    def test_expected_value_total(self):
        total = sum(r.expected_value for r in REQS)
        assert total == pytest.approx(232.99, abs=1e-9)
        assert TOTAL_EXPECTED_VALUE == 232.99

    def test_probability_times_value_reconstructs_published_expected(self):
        published = {
            "r1": 9.43, "r2": 20.00, "r3": 1.85, "r4": 16.61, "r5": 5.28,
            "r6": 18.30, "r7": 12.36, "r8": 9.00, "r9": 19.43, "r10": 12.18,
            "r11": 11.36, "r12": 12.00, "r13": 6.09, "r14": 6.28, "r15": 4.64,
            "r16": 8.24, "r17": 1.19, "r18": 7.59, "r19": 13.41, "r20": 4.09,
            "r21": 2.05, "r22": 6.59, "r23": 17.61, "r24": 1.00, "r25": 1.19,
            "r26": 0.36, "r27": 4.86,
        }
        for r in REQS:
            assert r.expected_value == pytest.approx(published[r.id], abs=1e-9)

    def test_probabilities_are_valid(self):
        for r in REQS:
            assert 0.0 < r.probability <= 1.0

    def test_costs_unpublished_so_zero(self):
        assert all(r.cost == 0.0 for r in REQS)


class TestPrecedence:
    def test_record_census(self):
        records = case_study_precedence().constraints
        assert len(records) == 13
        by_type = {}
        for rec in records:
            by_type.setdefault(type(rec).__name__, []).append(rec)
        assert len(by_type["ExactlyOne"]) == 1
        assert len(by_type["RequiresAny"]) == 3
        assert len(by_type["RequiresAll"]) == 8
        assert len(by_type["Conflicts"]) == 1

    def test_named_records(self):
        ix = {rid: i for i, rid in enumerate(IDS)}
        records = set(case_study_precedence().constraints)
        assert ExactlyOne(members=(ix["r2"], ix["r6"])) in records
        assert Conflicts(a=ix["r17"], b=ix["r18"]) in records
        for rid in ("r4", "r5", "r8"):
            assert RequiresAny(source=ix[rid], targets=(ix["r1"], ix["r2"])) in records
        for src, dst in (
            ("r8", "r25"), ("r19", "r2"), ("r19", "r6"), ("r20", "r2"),
            ("r20", "r6"), ("r26", "r27"), ("r27", "r1"), ("r27", "r6"),
        ):
            assert RequiresAll(source=ix[src], target=ix[dst]) in records

    def test_r19_and_r20_are_unselectable(self):
        # both need r2 and r6 while exactly one of r2, r6 may be chosen
        problem = case_study_problem(100.0)
        ix = {rid: i for i, rid in enumerate(IDS)}
        x = [0] * 27
        x[ix["r19"]] = 1
        x[ix["r2"]] = 1
        x[ix["r6"]] = 1
        assert not is_feasible(problem, x)
        x[ix["r6"]] = 0
        assert not is_feasible(problem, x)


class TestProblem:
    def test_price_budget_from_percent(self):
        assert case_study_problem(60.0).budget == pytest.approx(0.6 * 342.0)
        assert case_study_problem(100.0).budget == pytest.approx(342.0)
        p = case_study_problem(45.5)
        assert p.constraint_mode == PRICE_VALUE
        assert p.budget == pytest.approx(155.61)

    def test_full_price_level_selects_everything_selectable(self):
        # one of r2/r6 must go (exactly-one), r17 loses to r18, and r19/r20
        # are structurally out: 342 - 20 - 10 - 20 - 20 = 272
        got = solve(build_model(case_study_problem(100.0), PCBK))
        assert got.status == OPTIMAL
        assert got.objective == pytest.approx(272.0, abs=1e-9)
        sel = {IDS[i] for i, xi in enumerate(got.x) if xi}
        assert {"r19", "r20"}.isdisjoint(sel)
        assert ("r2" in sel) != ("r6" in sel)
        assert not {"r17", "r18"}.issubset(sel)

    def test_expected_value_model_at_full_price(self):
        # dropping r2 (E 20.00) beats dropping r6, which would also pull
        # out r27 and r26; r17 (E 1.19) loses the conflict to r18
        got = solve(build_model(case_study_problem(100.0), SBK))
        assert got.status == OPTIMAL
        assert got.objective == pytest.approx(232.99 - 20.0 - 1.19 - 13.41 - 4.09, abs=1e-6)

    def test_tight_price_level(self):
        got = solve(build_model(case_study_problem(10.0), PCBK))
        assert got.status == OPTIMAL
        assert got.objective == pytest.approx(34.0, abs=1e-9)

    def test_zero_price_is_infeasible(self):
        # the exactly-one record forces a 20-unit pick the price forbids
        got = solve(build_model(case_study_problem(0.0), PCBK))
        assert got.status == INFEASIBLE
        assert got.proven

    def test_r19_r20_never_appear_across_levels(self):
        ix = {rid: i for i, rid in enumerate(IDS)}
        for pct in (20.0, 40.0, 60.0, 80.0, 100.0):
            got = solve(build_model(case_study_problem(pct), PCBK))
            assert got.status == OPTIMAL
            assert got.x[ix["r19"]] == 0
            assert got.x[ix["r20"]] == 0

    def test_dependency_aware_run_with_explicit_influence(self):
        # with no influence the penalties vanish and the objective matches
        # the expected-value model
        problem = case_study_problem(100.0, influence=InfluenceMatrix.zeros(27))
        dars = solve(build_model(problem, DARS, simplify=True))
        sbk = solve(build_model(case_study_problem(100.0), SBK))
        assert dars.status == OPTIMAL
        assert dars.objective == pytest.approx(sbk.objective, abs=1e-9)

    def test_influence_dimension_checked(self):
        with pytest.raises(Exception):
            case_study_problem(50.0, influence=InfluenceMatrix.zeros(5))
