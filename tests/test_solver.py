import dataclasses
import io

import numpy as np
import pytest

from oracles import enumerate_optimum, objective_value, penalties, reference_propagate
from reqsel import (
    BK,
    BUDGET_COST,
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
    RequiresAny,
    SelectionProblem,
    SolverLimits,
    SyntheticSpec,
    ValidationError,
    build_model,
    case_study_problem,
    evaluate_selection,
    export_lp,
    generate_synthetic,
    parse_lp,
    solution_report,
    solve,
    verify_solution,
)
from reqsel.selection_models import (
    BINARY,
    CONTINUOUS,
    INCREASE_DECREASE,
    LinearConstraint,
    LinearModel,
    SubsetEstimate,
    Variable,
)
from reqsel.solver import FEASIBLE, FREE, INFEASIBLE, OPTIMAL, UNKNOWN, _Compiled, _Search

METHODS = (BK, PCBK, SBK, DARS)


def random_precedence(rng, n):
    records = []
    for _ in range(int(rng.integers(0, 3))):
        kind = int(rng.integers(0, 4))
        idx = rng.permutation(n)
        if kind == 0:
            records.append(RequiresAll(source=int(idx[0]), target=int(idx[1])))
        elif kind == 1:
            width = int(rng.integers(1, min(3, n)))
            records.append(
                RequiresAny(source=int(idx[0]), targets=tuple(int(t) for t in idx[1 : 1 + width]))
            )
        elif kind == 2:
            records.append(Conflicts(a=int(idx[0]), b=int(idx[1])))
        else:
            width = int(rng.integers(2, min(4, n + 1)))
            records.append(ExactlyOne(members=tuple(int(m) for m in idx[:width])))
    return PrecedenceGraph(n=n, constraints=tuple(records))


def random_influence(rng, n, density=0.4):
    pos = np.zeros((n, n))
    neg = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < density:
                strength = float(np.round(rng.uniform(0.05, 1.0), 2))
                if rng.random() < 0.3:
                    neg[i, j] = strength
                else:
                    pos[i, j] = strength
    return InfluenceMatrix(pos=pos, neg=neg)


def random_problem(seed, n=None, mode=None, with_precedence=True):
    rng = np.random.default_rng(seed)
    if n is None:
        n = int(rng.integers(2, 9))
    if mode is None:
        mode = BUDGET_COST if rng.random() < 0.5 else PRICE_VALUE
    reqs = tuple(
        Requirement(
            id=f"r{i+1}",
            cost=float(np.round(rng.uniform(0.0, 5.0), 2)),
            value=float(np.round(rng.uniform(0.0, 10.0), 2)),
            probability=float(np.round(rng.uniform(0.05, 1.0), 2)),
        )
        for i in range(n)
    )
    total = sum(r.cost if mode == BUDGET_COST else r.value for r in reqs)
    budget = float(np.round(rng.uniform(0.2, 0.9) * total, 2))
    precedence = random_precedence(rng, n) if with_precedence else None
    return SelectionProblem(
        requirements=reqs,
        budget=budget,
        constraint_mode=mode,
        precedence=precedence,
        influence=random_influence(rng, n),
    )


def with_zero_value_and_cost(problem):
    """The problem with r1 and r2 worth nothing and r3 and r4 free."""
    reqs = list(problem.requirements)
    for i in (0, 1):
        reqs[i] = dataclasses.replace(reqs[i], value=0.0)
    for i in (2, 3):
        reqs[i] = dataclasses.replace(reqs[i], cost=0.0)
    return dataclasses.replace(problem, requirements=tuple(reqs))


def pinned_problem(n, pdl, seed):
    spec = SyntheticSpec(n=n, vdl=0.05, nvdl=0.2, pdl=pdl, npdl=0.2 if pdl else 0.0, seed=seed)
    return generate_synthetic(spec, budget_fraction=0.5)[0]


def reparse(model):
    buf = io.StringIO()
    export_lp(model, buf)
    return parse_lp(io.StringIO(buf.getvalue()))


def assert_matches_oracle(problem, method, simplify=False):
    model = build_model(problem, method, simplify=simplify)
    got = solve(model)
    want = enumerate_optimum(problem, method)
    if want is None:
        assert got.status == INFEASIBLE
        assert got.proven
        return got
    want_x, want_obj = want
    assert got.status == OPTIMAL, f"seedcase {problem} {method}: {got.status}"
    assert got.proven
    assert got.objective == pytest.approx(want_obj, abs=1e-9)
    assert got.x == want_x
    report = verify_solution(model, got)
    assert report.ok, report.violations
    return got


class TestWorkedExample:
    """Four requirements whose value flows along two positive chains while a
    direct negative edge competes; dropping the sink requirement costs the
    sources part of their value."""

    def problem(self, budget=4.0, mode=BUDGET_COST):
        net = np.array(
            [
                [0.0, 0.5, 0.7, 0.7],
                [0.2, 0.0, 0.2, 0.3],
                [0.6, 0.5, 0.0, 0.7],
                [0.0, 0.0, 0.0, 0.0],
            ]
        )
        inf = InfluenceMatrix(pos=np.clip(net, 0, None), neg=np.clip(-net, 0, None))
        reqs = tuple(
            Requirement(id=f"r{i+1}", cost=1.0, value=v, probability=1.0)
            for i, v in enumerate((10.0, 20.0, 10.0, 5.0))
        )
        return SelectionProblem(
            requirements=reqs, budget=budget, constraint_mode=mode, influence=inf
        )

    def test_penalized_objective_matches_hand_value(self):
        # with the fourth requirement priced out of reach, theta for the
        # remaining three is (0.7, 0.3, 0.7) and their overall value is
        # 3 + 14 + 3 = 20
        p = self.problem(budget=3.0)
        p = dataclasses.replace(
            p,
            requirements=tuple(
                dataclasses.replace(r, cost=10.0) if r.id == "r4" else r
                for r in p.requirements
            ),
        )
        got = solve(build_model(p, DARS))
        assert got.status == OPTIMAL
        assert got.x == (1, 1, 1, 0)
        assert got.objective == pytest.approx(20.0, abs=1e-9)
        assert got.theta == pytest.approx((0.7, 0.3, 0.7, 0.0), abs=1e-9)

    def test_three_slot_budget_prefers_dropping_the_source(self):
        # dropping r1 instead of r4 keeps theta at (., 0.2, 0.6, 0) and
        # scores 16 + 4 + 5 = 25, beating the hand selection's 20
        p = self.problem(budget=3.0)
        got = solve(build_model(p, DARS))
        assert got.status == OPTIMAL
        assert got.x == (0, 1, 1, 1)
        assert got.objective == pytest.approx(25.0, abs=1e-9)

    def test_full_budget_clears_all_penalties(self):
        p = self.problem(budget=4.0)
        got = solve(build_model(p, DARS))
        assert got.x == (1, 1, 1, 1)
        assert got.objective == pytest.approx(45.0, abs=1e-9)

    def test_objective_equals_selection_evaluation(self):
        p = self.problem(budget=3.0)
        got = solve(build_model(p, DARS))
        ev = evaluate_selection(p.requirements, p.influence, got.x)
        assert got.objective == pytest.approx(ev.ov, abs=1e-6)


class TestOracleEquivalence:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("seed", range(12))
    def test_random_instances(self, method, seed):
        problem = random_problem(seed, with_precedence=(method != BK))
        assert_matches_oracle(problem, method)

    @pytest.mark.parametrize("seed", range(6))
    def test_simplified_dars_agrees(self, seed):
        problem = random_problem(seed + 300, with_precedence=True)
        plain = assert_matches_oracle(problem, DARS, simplify=False)
        slim = assert_matches_oracle(problem, DARS, simplify=True)
        assert plain.stats.nodes == slim.stats.nodes
        if plain.status == OPTIMAL:
            assert plain.x == slim.x
            assert plain.objective == pytest.approx(slim.objective, abs=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_auxiliary_binaries_track_selection(self, seed):
        problem = random_problem(seed + 600, with_precedence=True)
        got = solve(build_model(problem, DARS))
        if got.status != OPTIMAL:
            return
        for i in range(problem.n):
            assert got.values[f"g{i+1}"] == got.values[f"x{i+1}"]

    @pytest.mark.parametrize("seed", range(8))
    def test_price_mode_value_grid(self, seed):
        # objective coefficients equal the budget-row weights here, which
        # floods the search with bound ties unless the solver exploits the
        # objective's value grid
        rng = np.random.default_rng(seed)
        n = 10
        reqs = tuple(
            Requirement(
                id=f"r{i+1}",
                cost=0.0,
                value=float(np.round(rng.uniform(1.0, 30.0), 2)),
                probability=1.0,
            )
            for i in range(n)
        )
        total = sum(r.value for r in reqs)
        problem = SelectionProblem(
            requirements=reqs,
            budget=float(np.round(0.6 * total, 2)),
            constraint_mode=PRICE_VALUE,
        )
        assert_matches_oracle(problem, BK)

    def test_bk_truly_ignores_precedence(self):
        base = random_problem(42, n=6, with_precedence=False)
        constrained = dataclasses.replace(
            base,
            precedence=PrecedenceGraph(
                n=6, constraints=(Conflicts(0, 1), RequiresAll(2, 3))
            ),
        )
        a = solve(build_model(base, BK))
        b = solve(build_model(constrained, BK))
        assert a.x == b.x and a.objective == b.objective


class TestTieBreaking:
    def test_identical_items_pick_lexicographically_smallest(self):
        reqs = tuple(
            Requirement(id=f"r{i+1}", cost=1.0, value=5.0, probability=1.0)
            for i in range(3)
        )
        problem = SelectionProblem(requirements=reqs, budget=1.0)
        got = solve(build_model(problem, BK))
        # all three single selections score 5; (0, 0, 1) reads smallest
        assert got.x == (0, 0, 1)
        assert got.objective == pytest.approx(5.0)

    def test_engineered_two_way_tie(self):
        # {r1} and {r2, r3} both reach value 8
        reqs = (
            Requirement(id="r1", cost=2.0, value=8.0, probability=1.0),
            Requirement(id="r2", cost=1.0, value=5.0, probability=1.0),
            Requirement(id="r3", cost=1.0, value=3.0, probability=1.0),
        )
        problem = SelectionProblem(requirements=reqs, budget=2.0)
        got = solve(build_model(problem, BK))
        assert got.objective == pytest.approx(8.0)
        assert got.x == (0, 1, 1)  # "011" < "100"


class TestStatusesAndLimits:
    def test_infeasible_instance_is_proven(self):
        reqs = tuple(
            Requirement(id=f"r{i+1}", cost=1.0, value=1.0, probability=1.0)
            for i in range(2)
        )
        problem = SelectionProblem(
            requirements=reqs,
            budget=0.0,
            precedence=PrecedenceGraph(n=2, constraints=(ExactlyOne(members=(0, 1)),)),
        )
        got = solve(build_model(problem, PCBK))
        assert got.status == INFEASIBLE
        assert got.proven
        assert got.objective is None
        assert got.values == {}

    def test_zero_budget_empty_selection(self):
        problem = random_problem(7, n=5, mode=BUDGET_COST, with_precedence=False)
        problem = dataclasses.replace(problem, budget=0.0)
        got = solve(build_model(problem, BK))
        assert got.status == OPTIMAL
        assert got.x == (0, 0, 0, 0, 0)
        assert got.objective == pytest.approx(0.0)

    def test_node_limit_degrades_honestly(self):
        problem = random_problem(11, n=8, with_precedence=False)
        got = solve(build_model(problem, DARS), SolverLimits(max_nodes=1))
        assert got.status in (FEASIBLE, UNKNOWN)
        assert not got.proven
        if got.status == FEASIBLE:
            # any reported incumbent must still be a real solution
            assert verify_solution(build_model(problem, DARS), got).ok

    def test_root_fixed_by_propagation_is_a_leaf(self):
        # r2 and r3 overrun the budget, so ExactlyOne(r1, r2) forces r1: the
        # root is a leaf, and its objective is its bound
        reqs = tuple(
            Requirement(id=f"r{i + 1}", cost=cost, value=value, probability=1.0)
            for i, (cost, value) in enumerate(((1.0, 2.0), (5.0, 9.0), (5.0, 7.0)))
        )
        precedence = PrecedenceGraph(n=3, constraints=(ExactlyOne(members=(0, 1)),))
        problem = SelectionProblem(reqs, budget=4.0, precedence=precedence)
        got = solve(build_model(problem, PCBK))
        assert got.status == OPTIMAL and got.proven
        assert got.x == (1, 0, 0)
        assert got.stats.nodes == 1
        assert got.stats.root_bound == got.objective == 2.0

    def test_generous_limits_leave_optimality_intact(self):
        problem = random_problem(13, n=5, with_precedence=False)
        got = solve(build_model(problem, SBK), SolverLimits(max_nodes=10**6, max_seconds=60))
        assert got.status == OPTIMAL and got.proven


class TestVerification:
    def test_clean_solution_passes(self):
        problem = random_problem(3, n=6)
        model = build_model(problem, DARS)
        got = solve(model)
        report = verify_solution(model, got)
        assert report.ok
        assert report.max_violation <= 1e-9
        assert abs(report.objective_delta) <= 1e-9

    def test_corrupted_assignment_is_caught(self):
        problem = random_problem(3, n=6, mode=BUDGET_COST, with_precedence=False)
        model = build_model(problem, BK)
        got = solve(model)
        bad_values = dict(got.values)
        flip = "x1" if got.values.get("x1") == 0.0 else "x2" if got.values.get("x2") == 0.0 else None
        if flip is None:
            bad_values["x1"] = 0.0  # breaks the objective tally instead
        else:
            bad_values[flip] = 1.0
        corrupted = dataclasses.replace(got, values=bad_values)
        report = verify_solution(model, corrupted)
        assert not report.ok

    def test_missing_variable_reported(self):
        problem = random_problem(5, n=4, with_precedence=False)
        model = build_model(problem, BK)
        got = solve(model)
        shrunk = dict(got.values)
        shrunk.pop("x1")
        report = verify_solution(model, dataclasses.replace(got, values=shrunk))
        assert any("missing" in v for v in report.violations)


class TestSolutionReport:
    def test_keys_and_ids(self):
        problem = random_problem(19, n=4)
        model = build_model(problem, DARS)
        got = solve(model)
        rep = solution_report(model, got)
        assert set(rep) == {"status", "selected", "objective", "theta", "proven", "stats"}
        assert set(rep["stats"]) == {"nodes", "root_bound"}
        assert all(rid in problem.ids for rid in rep["selected"])
        if got.status == OPTIMAL:
            assert rep["objective"] == got.objective
            assert set(rep["theta"]) == set(problem.ids)

    def test_report_has_no_wall_clock_fields(self):
        problem = random_problem(23, n=3)
        model = build_model(problem, BK)
        rep = solution_report(model, solve(model))
        assert "elapsed" not in repr(rep)

    @pytest.mark.parametrize("method", (PCBK, DARS))
    def test_parsed_model_reports_x_names(self, method):
        # an LP file carries no requirement ids: the report names the x variables
        problem = case_study_problem(50.0, influence=InfluenceMatrix.zeros(27))
        model = build_model(problem, method)
        parsed = reparse(model)
        got = solve(parsed)
        rep = solution_report(parsed, got)
        assert got.status == OPTIMAL and any(got.x)
        assert rep["selected"] == [f"x{i + 1}" for i, xi in enumerate(got.x) if xi == 1]
        by_id = solution_report(model, solve(model))
        assert rep["selected"] == [f"x{problem.ids.index(r) + 1}" for r in by_id["selected"]]
        if method == DARS:
            assert list(rep["theta"]) == [f"x{i + 1}" for i in range(27)]


class TestForeignModels:
    def test_handwritten_lp_solves(self):
        text = (
            "Maximize\n"
            " obj: 3 a + 2 b + 4 c\n"
            "Subject To\n"
            " weight: 2 a + 1 b + 3 c <= 4\n"
            " choose: a + b >= 1\n"
            "Binary\n a\n b\n c\nEnd\n"
        )
        got = solve(parse_lp(io.StringIO(text)))
        assert got.status == OPTIMAL
        # best is {b, c}: value 6, weight 4
        assert got.objective == pytest.approx(6.0)
        assert got.values == {"a": 0.0, "b": 1.0, "c": 1.0}

    def test_minimization_sense(self):
        text = (
            "Minimize\n"
            " obj: 3 a + 2 b\n"
            "Subject To\n"
            " cover: a + b >= 1\n"
            "Binary\n a\n b\nEnd\n"
        )
        got = solve(parse_lp(io.StringIO(text)))
        assert got.status == OPTIMAL
        assert got.objective == pytest.approx(2.0)
        assert got.values["b"] == 1.0

    def test_floor_forced_continuous_variable(self):
        # a continuous variable outside a DARS link row has no closed form
        # at the leaves, so the solver rejects the model
        text = (
            "Maximize\n"
            " obj: 2 x1 - 0.5 t\n"
            "Subject To\n"
            " floor: 1 t - 1 x1 >= 0\n"
            "Bounds\n 0 <= t <= 1\n"
            "Binary\n x1\nEnd\n"
        )
        with pytest.raises(ValidationError, match="variable t: a continuous variable"):
            solve(parse_lp(io.StringIO(text)))

    @pytest.mark.parametrize(
        "change", ["objective", "bounds", "row over theta", "penalty over g", "floor above 1"]
    )
    def test_malformed_linearization_rejected(self, change):
        message = {
            "objective": "variables theta1, y1: the objective must read",
            "bounds": "variables theta1, y1: the objective must read",
            "row over theta": "constraint extra: a row over theta, y or g",
            "penalty over g": "constraint extra: a row over theta, y or g",
            "floor above 1": "penalty rows floor theta above",
        }[change]
        model = build_model(random_problem(3, n=3), DARS)
        objective, variables, rows = dict(model.objective), list(model.variables), []
        if change == "objective":
            objective["y1"] = 0.5 * objective["y1"]
        elif change == "bounds":
            wide = Variable("theta1", CONTINUOUS, 0.0, 2.0)
            variables = [wide if v.name == "theta1" else v for v in variables]
        else:
            coeffs, rhs = {"theta1": 1.0, "x2": 0.5}, 0.5
            if change == "row over theta":
                coeffs["x3"] = 1.0
            elif change == "penalty over g":
                coeffs = {"theta1": 1.0, "g2": 0.5}
            else:
                rhs = 1.2
            rows.append(LinearConstraint("extra", coeffs, ">=", rhs))
        bad = LinearModel(variables, "max", objective, model.constraints + tuple(rows))
        with pytest.raises(ValidationError, match=message):
            solve(bad)


class TestDeterminism:
    def test_repeat_solves_identical(self):
        problem = random_problem(31, n=8)
        model = build_model(problem, DARS)
        a = solve(model)
        b = solve(model)
        assert a.x == b.x
        assert a.objective == b.objective
        assert a.values == b.values
        assert a.stats.nodes == b.stats.nodes

    def test_round_trip_through_lp_preserves_answer(self):
        # zero terms are not written, so the zeroed requirements appear in
        # fewer rows of the parsed model than of the built one
        for problem in (random_problem(37, n=6), with_zero_value_and_cost(random_problem(41, n=7))):
            model = build_model(problem, DARS)
            direct = solve(model)
            reparsed = solve(reparse(model))
            assert reparsed.status == direct.status
            assert reparsed.stats.nodes == direct.stats.nodes
            if direct.status == OPTIMAL:
                assert reparsed.objective == pytest.approx(direct.objective, abs=1e-9)
                assert reparsed.x == direct.x
                assert reparsed.theta == pytest.approx(direct.theta, abs=1e-9)
                assert reparsed.y == pytest.approx(direct.y, abs=1e-9)
                assert set(reparsed.values) == set(direct.values)
                for name, value in direct.values.items():
                    assert reparsed.values[name] == pytest.approx(value, abs=1e-9)


class TestObjectiveIdentity:
    @pytest.mark.parametrize("seed", range(8))
    def test_dars_objective_is_the_overall_value(self, seed):
        problem = random_problem(seed + 900)
        got = solve(build_model(problem, DARS))
        if got.status != OPTIMAL:
            return
        ev = evaluate_selection(problem.requirements, problem.influence, got.x)
        assert got.objective == pytest.approx(ev.ov, abs=1e-6)
        assert got.theta == pytest.approx(tuple(ev.theta), abs=1e-6)

    @pytest.mark.parametrize("method", (BK, PCBK, SBK))
    def test_linear_objectives_match_oracle_formula(self, method):
        problem = random_problem(77, with_precedence=(method != BK))
        got = solve(build_model(problem, method))
        if got.status != OPTIMAL:
            return
        assert got.objective == pytest.approx(
            objective_value(problem, method, got.x), abs=1e-9
        )


def random_row_set(seed):
    """All-binary rows: a widest <= knapsack row first (tied and zero
    weights, rhs an exact partial sum, just off one, or inside the
    feasibility tolerance below one), then narrower <=/>=/= rows with
    mixed-sign integer coefficients that one random selection satisfies,
    tight or with one unit of slack. Also a random partial fixing."""
    rng = np.random.default_rng(seed)
    nb = int(rng.integers(3, 16))
    names = [f"b{i}" for i in range(nb)]
    weights = rng.choice([0.0, 0.25, 0.5, 1.0, 1.0, 2.0, 3.0, 3.0], size=nb)
    rhs = float(weights[rng.random(nb) < 0.5].sum()) + float(rng.choice([0.0, 0.0, 0.25, -0.25, -5e-10]))
    rows = [LinearConstraint("knap", dict(zip(names, weights.tolist())), "<=", rhs)]
    witness = rng.random(nb) < 0.5
    for r in range(int(rng.integers(1, 6))):
        members = rng.choice(nb, size=int(rng.integers(1, nb)), replace=False)
        coefs = rng.choice([-3.0, -2.0, -1.0, -1.0, 1.0, 1.0, 2.0, 3.0], size=members.size)
        relation = str(rng.choice(["<=", "<=", ">=", ">=", "="]))
        slack = 0.0 if relation == "=" else float(rng.choice([0.0, 1.0]))
        row_rhs = float(coefs[witness[members]].sum()) + (slack if relation == "<=" else -slack)
        rows.append(
            LinearConstraint(f"r{r}", {names[m]: c for m, c in zip(members, coefs)}, relation, row_rhs)
        )
    variables = tuple(Variable(name, BINARY) for name in names)
    start = np.where(rng.random(nb) < 0.6, -1, rng.integers(0, 2, nb)).astype(np.int8)
    return LinearModel(variables, "max", {names[0]: 1.0}, tuple(rows)), start


class TestSearchParity:
    """The node kernel (bytearray state, sorted knapsack-row scan) against
    the full-rescan reference, and the search against pinned node counts."""

    def test_propagation_matches_full_rescan(self):
        verdicts = set()
        forced = 0
        for seed in range(300):
            model, start = random_row_set(seed)
            comp = _Compiled(model)
            assert comp.kn_row == 0
            search = _Search(comp, SolverLimits())
            f = bytearray(FREE if v == -1 else int(v) for v in start)
            fv = np.frombuffer(f, np.int8)
            mi, ma = search._activities(fv)
            ref_fixed = start.copy()
            ref_min, ref_max = np.array(mi), np.array(ma)
            rows = [(row.vars, row.coefs, row.relation, row.rhs) for row in comp.binrows]
            queue = []
            ok = all(
                search._scan_row(rid, f, mi, ma, queue) for rid in range(comp.nbinrows)
            ) and search._propagate(f, mi, ma, queue)
            ref_ok, ref_queue = reference_propagate(rows, ref_fixed, ref_min, ref_max)
            assert ok == ref_ok, seed
            assert queue == ref_queue, seed
            assert np.array_equal(fv, ref_fixed), seed
            if ok:
                assert mi == ref_min.tolist() and ma == ref_max.tolist(), seed
            verdicts.add(ok)
            forced += bool(queue)
        assert verdicts == {True, False}
        assert forced > 100

    @pytest.mark.parametrize("method", (BK, PCBK, SBK, DARS, INCREASE_DECREASE))
    @pytest.mark.parametrize("mode", (BUDGET_COST, PRICE_VALUE))
    def test_knapsack_row_is_the_budget_row(self, method, mode):
        problem = random_problem(41, n=7, mode=mode)
        if method == INCREASE_DECREASE:
            subsets = (SubsetEstimate(members=(0, 1), estimated_value=3.0),)
            model = build_model(problem, method, subsets=subsets)
        else:
            model = build_model(problem, method)
        buf = io.StringIO()
        export_lp(model, buf)
        for m in (model, parse_lp(io.StringIO(buf.getvalue()))):
            comp = _Compiled(m)
            assert m.constraints[0].name == ("budget" if mode == BUDGET_COST else "price")
            assert comp.kn_row == 0
            assert comp.kn_rhs == m.constraints[0].rhs

    def test_knapsack_row_survives_zero_costs(self):
        # the LP file drops the zero-cost terms, so the parsed budget row is
        # narrower than the ExactlyOne row and is still the knapsack row
        reqs = tuple(
            Requirement(id=f"r{i + 1}", cost=cost, value=value, probability=1.0)
            for i, (cost, value) in enumerate(((0.0, 5.0), (0.0, 4.0), (3.0, 9.0)))
        )
        precedence = PrecedenceGraph(n=3, constraints=(ExactlyOne(members=(0, 1)),))
        model = build_model(SelectionProblem(reqs, budget=2.0, precedence=precedence), PCBK)
        buf = io.StringIO()
        export_lp(model, buf)
        parsed = parse_lp(io.StringIO(buf.getvalue()))
        assert len(parsed.constraints[0].coeffs) == 1
        built, reparsed = solve(model), solve(parsed)
        for m in (model, parsed):
            assert _Compiled(m).kn_row == 0
        assert built.stats.root_bound == reparsed.stats.root_bound == 9.0
        assert (built.x, built.objective, built.stats.nodes) == (
            reparsed.x,
            reparsed.objective,
            reparsed.stats.nodes,
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_dars_searches_the_x_core(self, seed):
        # built or read back from an LP file, plain or simplified: the search
        # sees the x binaries, the PCBK rows and one penalty-floor table
        def rows(comp):
            # an LP file lists a row's terms in variable order
            return [(sorted(zip(r.vars, r.coefs)), r.relation, r.rhs) for r in comp.binrows]

        problem = random_problem(seed + 300, n=4 + seed)
        core = rows(_Compiled(build_model(problem, PCBK)))
        floors = None
        for simplify in (False, True):
            model = build_model(problem, DARS, simplify=simplify)
            for m in (model, reparse(model)):
                comp = _Compiled(m)
                assert comp.nbin == problem.n
                assert rows(comp) == core
                floors = floors or (comp.B0, comp.B1)
                assert np.array_equal(comp.B0, floors[0]) and np.array_equal(comp.B1, floors[1])

    def test_echo_guard_keeps_mutual_requirements(self):
        # r1 and r2 require each other, so x1 - x2 <= 0 and x2 - x1 <= 0 look
        # like the echo pair of a g. Both own link rows, so neither is folded
        # into the other, and each keeps its own theta.
        reqs = tuple(
            Requirement(id=f"r{i + 1}", cost=cost, value=value, probability=1.0)
            for i, (cost, value) in enumerate(((0.0, 0.0), (0.0, 0.0), (2.0, 6.0), (3.0, 5.0)))
        )
        influence = np.zeros((4, 4))
        influence[0, 3] = influence[2, 0] = 0.5
        influence[1, 2] = 0.3
        problem = SelectionProblem(
            reqs,
            budget=3.0,
            precedence=PrecedenceGraph(n=4, constraints=(RequiresAll(0, 1), RequiresAll(1, 0))),
            influence=InfluenceMatrix(pos=influence, neg=np.zeros((4, 4))),
        )
        model = build_model(problem, DARS, simplify=True)
        got = assert_matches_oracle(problem, DARS, simplify=True)
        assert got.x == (1, 1, 1, 0)
        assert got.theta == pytest.approx(penalties(influence, got.x), abs=1e-12)
        parsed = reparse(model)
        for m in (model, parsed):
            assert _Compiled(m).nbin == 4
        reparsed = solve(parsed)
        assert reparsed.values == pytest.approx(got.values, abs=1e-12)

    @pytest.mark.parametrize(
        "n, pdl, seed, nodes",
        [(100, 0.02, 1, 6_299), (100, 0.02, 2, 1_254), (30, 0.0, 1, 1_814)],
    )
    def test_select_node_counts_pinned(self, n, pdl, seed, nodes):
        problem = pinned_problem(n, pdl, seed)
        for simplify in (False, True):
            model = build_model(problem, DARS, simplify=simplify)
            got, reparsed = solve(model), solve(reparse(model))
            assert got.status == reparsed.status == OPTIMAL
            assert got.stats.nodes == reparsed.stats.nodes == nodes
            assert got.x == reparsed.x
            assert got.objective == pytest.approx(reparsed.objective, abs=1e-9)

    @pytest.mark.parametrize("n, pdl, seed", [(100, 0.02, 1), (100, 0.02, 2), (30, 0.0, 1)])
    def test_no_state_is_dived_twice(self, n, pdl, seed, monkeypatch):
        # the root is expanded like every other node, so its dive runs once
        starts = []
        dive = _Search._dive

        def recording_dive(search, f, mi, ma):
            starts.append(bytes(f))
            return dive(search, f, mi, ma)

        monkeypatch.setattr(_Search, "_dive", recording_dive)
        got = solve(build_model(pinned_problem(n, pdl, seed), DARS))
        assert got.status == OPTIMAL
        assert len(starts) == len(set(starts)) > 1
