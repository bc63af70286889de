import hashlib
import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from reqsel import (
    BenchmarkReport,
    DARS,
    PCBK,
    PRICE_VALUE,
    SBK,
    Conflicts,
    ExactlyOne,
    InfluenceMatrix,
    PrecedenceGraph,
    Requirement,
    RequiresAll,
    SelectionProblem,
    SolverLimits,
    SweepReport,
    SyntheticSpec,
    ValidationError,
    benchmark,
    build_model,
    case_study_problem,
    compare_selections,
    evaluate_selection,
    frequency_profile,
    generate_synthetic,
    propagate_strengths,
    risk_of_value_loss,
    solve,
    sweep,
)
from reqsel.analysis import BenchmarkRow, SweepRow
from reqsel.dependency_graph import NEGATIVE, vdl_nvdl, pdl_npdl
from reqsel.solver import FEASIBLE, INFEASIBLE, OPTIMAL


class TestSyntheticGeneration:
    def test_density_targets_hit_exactly(self):
        spec = SyntheticSpec(n=8, vdl=0.25, nvdl=0.5, pdl=0.1, npdl=0.3, seed=3)
        problem, vdg = generate_synthetic(spec)
        # 56 ordered pairs: 14 edges, 7 negative; 6 precedence pairs, 2 conflicts
        assert vdg.edge_count == 14
        assert vdg.negative_edge_count == 7
        vdl, nvdl = vdl_nvdl(vdg)
        assert vdl == pytest.approx(14 / 56)
        assert nvdl == pytest.approx(0.5)
        records = problem.precedence.constraints
        assert len(records) == 6
        assert sum(isinstance(r, Conflicts) for r in records) == 2
        assert sum(isinstance(r, RequiresAll) for r in records) == 4
        pdl, npdl = pdl_npdl(problem.precedence)
        assert pdl == pytest.approx(6 / 56)
        assert npdl == pytest.approx(2 / 6)

    def test_zero_targets_give_empty_structures(self):
        problem, vdg = generate_synthetic(SyntheticSpec(n=5, vdl=0.0, seed=1))
        assert vdg.edge_count == 0
        assert problem.precedence.constraints == ()
        assert np.all(problem.influence.influence == 0.0)

    def test_influence_holds_the_one_hop_edges(self):
        spec = SyntheticSpec(n=6, vdl=0.3, nvdl=0.4, seed=9)
        problem, vdg = generate_synthetic(spec)
        for (i, j), (s, quality) in vdg.edges.items():
            if quality == NEGATIVE:
                assert problem.influence.neg[i, j] == s
            else:
                assert problem.influence.pos[i, j] == s
        assert problem.influence.pos.sum() + problem.influence.neg.sum() == pytest.approx(
            sum(s for s, _ in vdg.edges.values())
        )

    def test_deterministic_per_seed(self):
        spec = SyntheticSpec(n=7, vdl=0.2, nvdl=0.25, pdl=0.05, seed=11)
        a_problem, a_vdg = generate_synthetic(spec)
        b_problem, b_vdg = generate_synthetic(spec)
        assert a_vdg.edges == b_vdg.edges
        assert a_problem.requirements == b_problem.requirements
        assert a_problem.precedence.constraints == b_problem.precedence.constraints
        assert a_problem.budget == b_problem.budget

    def test_seeds_vary_the_instance(self):
        base = SyntheticSpec(n=7, vdl=0.2, seed=1)
        other = SyntheticSpec(n=7, vdl=0.2, seed=2)
        assert generate_synthetic(base)[1].edges != generate_synthetic(other)[1].edges

    def test_ranges_respected(self):
        spec = SyntheticSpec(
            n=20,
            vdl=0.1,
            cost_range=(2.0, 3.0),
            value_range=(5.0, 6.0),
            probability_range=(0.4, 0.6),
            seed=4,
        )
        problem, _ = generate_synthetic(spec, budget_fraction=0.5)
        for r in problem.requirements:
            assert 2.0 <= r.cost <= 3.0
            assert 5.0 <= r.value <= 6.0
            assert 0.4 <= r.probability <= 0.6
        total_cost = sum(r.cost for r in problem.requirements)
        assert problem.budget == pytest.approx(0.5 * total_cost)

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            SyntheticSpec(n=1, vdl=0.1)
        with pytest.raises(ValidationError):
            SyntheticSpec(n=5, vdl=1.5)
        with pytest.raises(ValidationError):
            SyntheticSpec(n=5, vdl=0.0, nvdl=0.5)
        with pytest.raises(ValidationError):
            SyntheticSpec(n=5, vdl=0.1, pdl=0.0, npdl=0.5)
        with pytest.raises(ValidationError):
            SyntheticSpec(n=5, vdl=0.1, probability_range=(0.5, 1.5))
        with pytest.raises(ValidationError):
            SyntheticSpec(n=5, vdl=0.1, cost_range=(3.0, 2.0))
        with pytest.raises(ValidationError, match="seed"):
            SyntheticSpec(n=5, vdl=0.1, seed=-1)
        for fraction in (-1.0, math.inf, math.nan):
            with pytest.raises(ValidationError, match="budget fraction"):
                generate_synthetic(SyntheticSpec(n=5, vdl=0.1), budget_fraction=fraction)

    @pytest.mark.parametrize("field", ["cost_range", "value_range", "probability_range"])
    @pytest.mark.parametrize(
        "ends", [(math.nan, 0.5), (0.5, math.nan), (0.5, math.inf), (-math.inf, 0.5)]
    )
    def test_spec_rejects_non_finite_range_ends(self, field, ends):
        with pytest.raises(ValidationError, match="finite"):
            SyntheticSpec(n=5, vdl=0.1, **{field: ends})


def forced_pick_problem():
    """Three requirements where one of the first two must be selected."""
    reqs = (
        Requirement(id="r1", cost=0.0, value=10.0, probability=1.0),
        Requirement(id="r2", cost=0.0, value=6.0, probability=0.5),
        Requirement(id="r3", cost=0.0, value=4.0, probability=1.0),
    )
    net = np.zeros((3, 3))
    net[2, 0] = 0.5  # r3 leans on r1
    return SelectionProblem(
        requirements=reqs,
        budget=20.0,
        precedence=PrecedenceGraph(n=3, constraints=(ExactlyOne(members=(0, 1)),)),
        influence=InfluenceMatrix(pos=np.clip(net, 0, None), neg=np.clip(-net, 0, None)),
    )


class TestSweep:
    def test_grid_shape_and_order(self):
        report = sweep(forced_pick_problem(), (0.0, 50.0, 100.0), (PCBK, DARS))
        assert [(r.percent, r.method) for r in report.rows] == [
            (0.0, PCBK),
            (0.0, DARS),
            (50.0, PCBK),
            (50.0, DARS),
            (100.0, PCBK),
            (100.0, DARS),
        ]
        assert len(report.rows_for(DARS)) == 3
        assert report.total_value == pytest.approx(20.0)

    def test_infeasible_cells_recorded_not_raised(self):
        report = sweep(forced_pick_problem(), (0.0, 100.0), (PCBK,))
        zero, full = report.rows
        assert zero.status == INFEASIBLE
        assert zero.selection == (0, 0, 0)
        assert zero.av == zero.ev == zero.ov == 0.0
        assert (zero.pct_av, zero.pct_ev, zero.pct_ov) == (0.0, 0.0, 0.0)
        assert full.status == OPTIMAL

    def test_zero_total_value_rejected(self):
        # every percentage metric divides by the total value
        reqs = tuple(Requirement(id=f"r{i}", cost=1.0, value=0.0, probability=0.5) for i in range(2))
        with pytest.raises(ValidationError, match="positive total value"):
            sweep(SelectionProblem(requirements=reqs, budget=1.0), (50.0,), (PCBK,))

    def test_limit_hit_cells_keep_the_incumbent(self):
        problem, _ = generate_synthetic(SyntheticSpec(n=12, vdl=0.2, nvdl=0.3, seed=4))
        limits = SolverLimits(max_nodes=1)
        report = sweep(problem, (50.0,), (PCBK, SBK, DARS), limits)
        level = replace(problem, budget=0.5 * report.total_value, constraint_mode=PRICE_VALUE)
        for row in report.rows:
            sol = solve(build_model(level, row.method), limits)
            assert sol.status == FEASIBLE
            assert row.status == FEASIBLE
            assert row.selection == sol.x
            assert any(sol.x)
            ev = evaluate_selection(problem.requirements, problem.influence, sol.x)
            assert (row.av, row.ev, row.ov) == (ev.av, ev.ev, ev.ov)

    def test_metrics_recomputed_on_common_footing(self):
        problem = forced_pick_problem()
        report = sweep(problem, (100.0,), (PCBK, SBK, DARS))
        for row in report.rows:
            ev = evaluate_selection(problem.requirements, problem.influence, row.selection)
            assert row.av == pytest.approx(ev.av, abs=1e-12)
            assert row.ev == pytest.approx(ev.ev, abs=1e-12)
            assert row.ov == pytest.approx(ev.ov, abs=1e-12)
            assert row.pct_ov == pytest.approx(100.0 * ev.ov / 20.0, abs=1e-12)

    def test_price_levels_rebudget_from_percent(self):
        # at 50% the price cap is 10: {r1} and {r2, r3} tie at value 10 and
        # the lexicographically smaller selection wins
        report = sweep(forced_pick_problem(), (50.0,), (PCBK,))
        row = report.rows[0]
        assert row.status == OPTIMAL
        assert row.selection == (0, 1, 1)
        assert row.av == pytest.approx(10.0)

    def test_csv_outputs(self):
        report = sweep(forced_pick_problem(), (0.0, 100.0), (PCBK, DARS))
        wide = io.StringIO()
        report.to_csv(wide)
        lines = wide.getvalue().splitlines()
        assert lines[0].startswith("percent,method,status,av,ev,ov")
        assert len(lines) == 1 + 4
        assert lines[1].split(",")[-1] == "000"
        long = io.StringIO()
        report.to_long_csv(long)
        long_lines = long.getvalue().splitlines()
        assert long_lines[0] == "level,method,metric,value"
        assert len(long_lines) == 1 + 4 * 3

    def test_json_round_trips(self):
        report = sweep(forced_pick_problem(), (100.0,), (DARS,))
        obj = json.loads(json.dumps(report.to_json_obj()))
        assert obj["total_value"] == 20.0
        assert obj["requirement_ids"] == ["r1", "r2", "r3"]
        assert obj["rows"][0]["method"] == DARS
        assert isinstance(obj["rows"][0]["selection"], list)


class TestComparisons:
    def test_compare_selections(self):
        dist, hamming = compare_selections((1, 0, 1, 0), (0, 0, 1, 1))
        assert dist == pytest.approx(np.sqrt(2.0))
        assert hamming == 2
        assert compare_selections((1, 1), (1, 1)) == (0.0, 0)

    def test_compare_selections_shape_check(self):
        with pytest.raises(ValidationError):
            compare_selections((1, 0), (1, 0, 1))

    def test_frequency_profile(self):
        def row(percent, method, selection):
            return SweepRow(
                percent=percent,
                method=method,
                status=OPTIMAL,
                av=0.0,
                ev=0.0,
                ov=0.0,
                pct_av=0.0,
                pct_ev=0.0,
                pct_ov=0.0,
                selection=selection,
            )

        report = SweepReport(
            total_value=10.0,
            requirement_ids=("r1", "r2"),
            rows=(
                row(50.0, "A", (1, 0)),
                row(100.0, "A", (1, 1)),
                row(50.0, "B", (0, 1)),
                row(100.0, "B", (1, 1)),
            ),
        )
        delta = frequency_profile(report, "A", "B")
        assert delta["r1"] == pytest.approx(50.0)
        assert delta["r2"] == pytest.approx(-50.0)
        with pytest.raises(ValidationError, match="not present"):
            frequency_profile(report, "A", "C")

    def test_risk_of_value_loss(self):
        problem = forced_pick_problem()
        ev = evaluate_selection(problem.requirements, problem.influence, (0, 1, 1))
        # r3 leans on the unselected r1: theta_3 = 0.5, ov = 3 + 2 = 5
        assert ev.ev == pytest.approx(7.0)
        assert ev.ov == pytest.approx(5.0)
        assert risk_of_value_loss(ev, 20.0) == pytest.approx(10.0)
        with pytest.raises(ValidationError):
            risk_of_value_loss(ev, 0.0)


class TestBenchmark:
    def test_rows_carry_the_grid_and_seed(self):
        specs = (
            SyntheticSpec(n=6, vdl=0.2, nvdl=0.25, pdl=0.05, npdl=0.0, seed=1),
            SyntheticSpec(n=6, vdl=0.2, nvdl=0.25, pdl=0.05, npdl=0.0, seed=2),
        )
        report = benchmark(specs, method=DARS, budget_fraction=0.6, max_seconds=30.0)
        assert report.method == DARS
        assert [r.seed for r in report.rows] == [1, 2]
        for row in report.rows:
            assert row.n == 6
            assert row.status == OPTIMAL
            assert row.objective is not None
            assert row.nodes >= 1
            assert row.budget_fraction == 0.6

    def test_csv_and_json_have_seed_column(self):
        specs = (SyntheticSpec(n=4, vdl=0.25, seed=7),)
        report = benchmark(specs, method=PCBK)
        buf = io.StringIO()
        report.to_csv(buf)
        header = buf.getvalue().splitlines()[0].split(",")
        assert header[:2] == ["n", "seed"]
        obj = report.to_json_obj()
        assert obj["rows"][0]["seed"] == 7


class TestReportBytes:
    """The report writers' bytes, recorded before the serializers were
    derived from the dataclass fields. The sweep texts hold .6f and :g
    numbers only, so they do not move with the BLAS build."""

    @pytest.fixture(scope="class")
    def case_study_sweep(self):
        # the case study with a synthetic 27-node VDG, as the benchmark sweeps it
        _, vdg = generate_synthetic(SyntheticSpec(n=27, vdl=0.1, nvdl=0.3, seed=0))
        problem = case_study_problem(influence=propagate_strengths(vdg))
        return sweep(problem, [float(v) for v in range(10, 101, 10)], (PCBK, SBK, DARS))

    def test_sweep_csv_texts_pinned(self, case_study_sweep):
        wide = io.StringIO()
        case_study_sweep.to_csv(wide)
        long = io.StringIO()
        case_study_sweep.to_long_csv(long)
        assert hashlib.sha256(wide.getvalue().encode("utf-8")).hexdigest() == (
            "2589ef02013375d13c9a9c2c6e992f5e22ba7142485a6e18eb0d4e7dc3a5db7c"
        )
        assert hashlib.sha256(long.getvalue().encode("utf-8")).hexdigest() == (
            "849fc05e7030b2296302f05205eb72478a5c8f04a06b29f69d864d680e96ec9f"
        )

    def test_sweep_json_obj_lists_every_field(self, case_study_sweep):
        r = case_study_sweep
        explicit = {
            "total_value": r.total_value,
            "requirement_ids": list(r.requirement_ids),
            "rows": [
                {
                    "percent": row.percent,
                    "method": row.method,
                    "status": row.status,
                    "av": row.av,
                    "ev": row.ev,
                    "ov": row.ov,
                    "pct_av": row.pct_av,
                    "pct_ev": row.pct_ev,
                    "pct_ov": row.pct_ov,
                    "selection": list(row.selection),
                }
                for row in r.rows
            ],
        }
        # tuples serialize as JSON arrays, so equal dumps mean equal values,
        # equal JSON types and equal key order at every level
        assert json.dumps(r.to_json_obj()) == json.dumps(explicit)

    def test_benchmark_writers(self):
        row = BenchmarkRow(
            n=6, seed=3, vdl=0.2, nvdl=0.25, pdl=0.05, npdl=0.0, budget_fraction=0.5,
            elapsed_s=0.0123, nodes=17, status=OPTIMAL, objective=41.25,
        )
        report = BenchmarkReport(method=DARS, rows=(row, replace(row, status=FEASIBLE, objective=None)))
        buf = io.StringIO()
        report.to_csv(buf)
        assert buf.getvalue() == (
            "n,seed,vdl,nvdl,pdl,npdl,budget_fraction,elapsed_s,nodes,status,objective\n"
            "6,3,0.2,0.25,0.05,0,0.5,0.012,17,OPTIMAL,41.250000\n"
            "6,3,0.2,0.25,0.05,0,0.5,0.012,17,FEASIBLE,\n"
        )
        explicit = {
            "method": DARS,
            "rows": [
                {
                    "n": r.n,
                    "seed": r.seed,
                    "vdl": r.vdl,
                    "nvdl": r.nvdl,
                    "pdl": r.pdl,
                    "npdl": r.npdl,
                    "budget_fraction": r.budget_fraction,
                    "elapsed_s": r.elapsed_s,
                    "nodes": r.nodes,
                    "status": r.status,
                    "objective": r.objective,
                }
                for r in report.rows
            ],
        }
        assert json.dumps(report.to_json_obj()) == json.dumps(explicit)
