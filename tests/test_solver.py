import dataclasses
import io
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

from oracles import (
    INCREASE_DECREASE,
    SubsetEstimate,
    enumerate_model_optimum,
    enumerate_optimum,
    improving_neighbour,
    increase_decrease_model,
    objective_value,
    penalties,
    penalty_floor,
    reference_accepted_link_rows,
    reference_bound,
    reference_compile,
    reference_propagate,
    reference_solve,
    row_activities,
)
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
    LinearConstraint,
    LinearModel,
    Variable,
    link_rows,
)
from reqsel.solver import (
    FEAS_EPS,
    FEASIBLE,
    FREE,
    INFEASIBLE,
    OPTIMAL,
    TIE_EPS,
    UNKNOWN,
    _Compiled,
    _pairwise_sum,
    _Search,
)

METHODS = (BK, PCBK, SBK, DARS)
NO_PROBLEM = "this one states no selection problem"


def random_precedence(rng, n, most=2):
    records = []
    for _ in range(int(rng.integers(0, most + 1))):
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


def random_problem(seed, n=None, mode=None, with_precedence=True, most=2):
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
    precedence = random_precedence(rng, n, most) if with_precedence else None
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


def random_binary_model(seed):
    """An all-binary model over 2-10 binaries with what only LP files bring
    to the search: objective coefficients of either sign or absent, binaries
    the knapsack row leaves at zero weight or that no row names, and ">=" and
    "=" rows next to "<=" rows; maximized or, one time in four, minimized.
    Every number is a quarter multiple, so sums are exact and ties are real.
    The rows after the knapsack row hold for one random selection, tight or
    with one unit of slack."""
    rng = np.random.default_rng(seed)
    nb = int(rng.integers(2, 11))
    names = [f"b{i}" for i in range(nb)]
    in_knap = rng.random(nb) < 0.7
    weights = rng.choice([0.0, 0.5, 1.0, 2.0, 3.0], size=nb)
    knap = {names[i]: float(weights[i]) for i in range(nb) if in_knap[i]} or {names[0]: 1.0}
    picked = [a for a in knap.values() if rng.random() < 0.5]
    rows = [LinearConstraint("knap", knap, "<=", float(sum(picked)))]
    witness = rng.random(nb) < 0.5
    for r in range(int(rng.integers(0, 4))):
        members = rng.choice(nb, size=int(rng.integers(1, nb + 1)), replace=False)
        coefs = rng.choice([-2.0, -1.0, -1.0, 1.0, 1.0, 2.0, 3.0], size=members.size)
        relation = str(rng.choice(["<=", ">=", ">=", "=", "="]))
        slack = 0.0 if relation == "=" else float(rng.choice([0.0, 1.0]))
        rhs = float(coefs[witness[members]].sum()) + (slack if relation == "<=" else -slack)
        rows.append(
            LinearConstraint(f"r{r}", {names[m]: c for m, c in zip(members, coefs)}, relation, rhs)
        )
    c = rng.choice([-4.0, -2.5, -0.25, 0.0, 0.5, 1.0, 1.0, 2.0, 3.75, 6.0], size=nb)
    objective = {names[i]: float(c[i]) for i in range(nb) if rng.random() < 0.85}
    sense = "min" if rng.random() < 0.25 else "max"
    variables = tuple(Variable(name, BINARY) for name in names)
    return LinearModel(variables, sense, objective, tuple(rows))


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

    @pytest.mark.parametrize("mode", (BUDGET_COST, PRICE_VALUE))
    @pytest.mark.parametrize("seed", range(60))
    def test_increase_decrease_instances(self, mode, seed):
        # one subset worth more than its members, one worth less, one either
        # way; the precedence records must not bind this model. x holds the
        # requirement binaries and then one y per subset, set exactly when
        # the subset is whole. The model states no selection problem, so the
        # search runs on the rows reference_solve reads
        n = 2 + seed % 9
        problem = random_problem(seed + 1200, n=n, mode=mode)
        rng = np.random.default_rng(seed)
        subsets = []
        for sign in (1.0, -1.0, float(rng.choice((-1.0, 1.0)))):
            members = tuple(int(m) for m in rng.permutation(n)[: int(rng.integers(2, min(4, n) + 1))])
            base = sum(problem.requirements[m].value for m in members)
            shift = sign * float(np.round(rng.uniform(0.5, 6.0), 2))
            subsets.append(SubsetEstimate(members=members, estimated_value=base + shift))
        model = increase_decrease_model(problem, subsets)
        got = reference_solve(model)
        want_x, want_obj = enumerate_optimum(problem, INCREASE_DECREASE, subsets=subsets)
        assert (got.status, got.proven) == (OPTIMAL, True)
        assert got.objective == pytest.approx(want_obj, abs=1e-9)
        whole = tuple(int(all(want_x[m] for m in s.members)) for s in subsets)
        assert got.x == want_x + whole
        report = verify_solution(model, got)
        assert report.ok, report.violations

    def test_hand_built_binary_models(self):
        # searched as built and as read back from an LP file, which drops
        # zero terms: both match the model's own 2^n enumeration, tie-break
        # included, and x holds every binary in declaration order
        seen = {"infeasible": 0, "negative objective": 0, "zero weight": 0, ">=": 0, "=": 0}
        for seed in range(400):
            model = random_binary_model(seed)
            want = enumerate_model_optimum(model)
            names = tuple(v.name for v in model.variables)
            direct, parsed = reference_solve(model), reference_solve(reparse(model))
            for got in (direct, parsed):
                if want is None:
                    assert (got.status, got.proven) == (INFEASIBLE, True), seed
                    continue
                assert (got.status, got.proven) == (OPTIMAL, True), seed
                assert (got.x, got.objective) == want, seed
                assert tuple(got.values) == names
                assert verify_solution(model, got).ok, seed
            assert direct.stats.nodes == parsed.stats.nodes, seed
            seen["infeasible"] += want is None
            seen["negative objective"] += min(model.objective.values(), default=0.0) < 0
            seen["zero weight"] += any(model.constraints[0].coeffs.get(nm, 0.0) == 0 for nm in names)
            for relation in (">=", "="):
                seen[relation] += any(con.relation == relation for con in model.constraints)
        assert min(seen.values()) >= 20, seen

    def test_built_models_match_enumeration(self):
        # every method, plain and simplified DARS, both modes, n up to 12,
        # sparse and dense precedence, and requirements worth nothing or
        # free: each matches the 2^n enumeration, tie-break included
        variants = ((BK, False), (PCBK, False), (SBK, False), (DARS, False), (DARS, True))
        seen = {"infeasible": 0, "price": 0, "zero weight": 0, "dense": 0}
        for seed in range(400):
            n = 2 + seed % 11
            dense = seed % 3 == 0
            problem = random_problem(seed + 5000, n=n, most=2 * n if dense else 2)
            if n >= 4 and seed % 4 == 1:
                problem = with_zero_value_and_cost(problem)
                seen["zero weight"] += 1
            method, simplify = variants[seed % 5]
            if method == BK:
                # BK ignores precedence, and the enumeration does not
                problem = dataclasses.replace(problem, precedence=None)
            got = assert_matches_oracle(problem, method, simplify=simplify)
            seen["infeasible"] += got.status == INFEASIBLE
            seen["price"] += problem.constraint_mode == PRICE_VALUE
            seen["dense"] += dense
        assert min(seen.values()) >= 20, seen

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
        assert list(rep["stats"]) == ["nodes", "root_bound", "final_bound", "gap"]
        assert all(rid in problem.ids for rid in rep["selected"])
        if got.status == OPTIMAL:
            assert rep["objective"] == got.objective
            assert set(rep["theta"]) == set(problem.ids)

    def test_report_has_no_wall_clock_fields(self):
        problem = random_problem(23, n=3)
        model = build_model(problem, BK)
        rep = solution_report(model, solve(model))
        assert "elapsed" not in repr(rep)


class TestForeignModels:
    def test_handwritten_lp_solves(self):
        # solve rejects the file; the search runs on the rows it states
        text = (
            "Maximize\n"
            " obj: 3 a + 2 b + 4 c\n"
            "Subject To\n"
            " weight: 2 a + 1 b + 3 c <= 4\n"
            " choose: a + b >= 1\n"
            "Binary\n a\n b\n c\nEnd\n"
        )
        model = parse_lp(io.StringIO(text))
        with pytest.raises(ValidationError, match=NO_PROBLEM):
            solve(model)
        got = reference_solve(model)
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
        got = reference_solve(parse_lp(io.StringIO(text)))
        assert got.status == OPTIMAL
        assert got.objective == pytest.approx(2.0)
        assert got.values["b"] == 1.0

    def test_floor_forced_continuous_variable(self):
        # a continuous variable that build_model does not state as a theta
        # or y has no closed form at the leaves: the row reader rejects the
        # model, and solve rejects it as stating no selection problem
        text = (
            "Maximize\n"
            " obj: 2 x1 - 0.5 t\n"
            "Subject To\n"
            " floor: 1 t - 1 x1 >= 0\n"
            "Bounds\n 0 <= t <= 1\n"
            "Binary\n x1\nEnd\n"
        )
        model = parse_lp(io.StringIO(text))
        with pytest.raises(ValidationError, match="variable t: an unstated continuous variable"):
            reference_solve(model)
        with pytest.raises(ValidationError, match=NO_PROBLEM):
            solve(model)

    @pytest.mark.parametrize("source", ("bk", "pcbk", "sbk", "hand-built"))
    def test_models_that_state_no_problem_are_rejected(self, source):
        # the search is built from the problem build_model states, which no
        # LP file and no hand-built model carries
        if source == "hand-built":
            names = ("a", "b")
            model = LinearModel(
                tuple(Variable(nm, BINARY) for nm in names),
                "max",
                {"a": 3.0, "b": 2.0},
                (LinearConstraint("weight", {"a": 2.0, "b": 1.0}, "<=", 2.0),),
            )
        else:
            model = reparse(build_model(random_problem(3, n=3), source.upper()))
        with pytest.raises(ValidationError, match=NO_PROBLEM):
            solve(model)

    @pytest.mark.parametrize("simplify", (False, True))
    def test_parsed_dars_file_is_rejected(self, simplify):
        # an LP file states no selection problem, so neither the search nor
        # theta, y and g can be read from it
        model = build_model(random_problem(3, n=3), DARS, simplify=simplify)
        with pytest.raises(ValidationError, match=NO_PROBLEM):
            solve(reparse(model))

    @pytest.mark.parametrize("seed", range(20))
    def test_accepted_link_rows_match_reference(self, seed):
        # random (theta, y, b, x) index tuples, b = x and b != x alike
        rng = np.random.default_rng(seed)
        links = []
        for k in range(int(rng.integers(1, 6))):
            t, y, x, g = (int(v) for v in rng.permutation(50)[:4])
            links.append((t, y, x if k % 2 == seed % 2 else g, x))
        got = {
            (relation, rhs, frozenset(coeffs.items()))
            for t, y, b, x in links
            for _, coeffs, relation, rhs in link_rows(x, b, t, y)
        }
        assert got == reference_accepted_link_rows(links)


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
        # the search read back out of the parsed file's rows answers as solve
        # does from the problem. Zero terms are not written, so the zeroed
        # requirements appear in fewer rows of the parsed model than of the
        # built one
        problems = (random_problem(37, n=6), with_zero_value_and_cost(random_problem(41, n=7)))
        for problem, method in itertools.product(problems, (BK, PCBK, SBK)):
            model = build_model(problem, method)
            direct = solve(model)
            reparsed = reference_solve(reparse(model))
            assert reparsed.status == direct.status
            assert reparsed.stats.nodes == direct.stats.nodes
            if direct.status == OPTIMAL:
                assert reparsed.objective == pytest.approx(direct.objective, abs=1e-9)
                assert reparsed.x == direct.x
                assert reparsed.theta is direct.theta is None
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


def dense_problem(seed):
    """A problem with the rows propagation meets at their densest: a budget
    row of quarter-multiple weights (tied and zero ones among them) whose
    budget is an exact partial sum, just off one, or inside the feasibility
    tolerance below one, then up to 2n precedence records (+-1 rows, and
    "=" rows searched as two halves). Also a random partial fixing."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 16))
    mode = (BUDGET_COST, PRICE_VALUE)[seed % 2]
    weights = rng.choice([0.0, 0.25, 0.5, 1.0, 1.0, 2.0, 3.0, 3.0], size=n).tolist()
    other = rng.choice([0.0, 0.5, 1.0, 2.5, 4.0], size=n).tolist()
    reqs = tuple(
        Requirement(
            id=f"r{i + 1}",
            cost=weights[i] if mode == BUDGET_COST else other[i],
            value=other[i] if mode == BUDGET_COST else weights[i],
            probability=1.0,
        )
        for i in range(n)
    )
    jitter = float(rng.choice([0.0, 0.0, 0.25, -0.25, -5e-10]))
    budget = max(0.0, float(np.array(weights)[rng.random(n) < 0.5].sum()) + jitter)
    precedence = random_precedence(rng, n, most=2 * n)
    problem = SelectionProblem(reqs, budget, mode, precedence, random_influence(rng, n))
    start = np.where(rng.random(n) < 0.6, -1, rng.integers(0, 2, n)).astype(np.int8)
    return problem, start


def model_rows(model):
    """The model's rows over its x binaries alone as (vars, coefs, relation,
    rhs) tuples over x indices, and for each searched row the (model row,
    sign) it is compiled from: a "<=" half (+1) or a negated half (-1)."""
    x_pos = {name: j for j, name in enumerate(model.metadata["x_names"])}
    rows, halves = [], []
    for con in model.constraints:
        if x_pos.keys() >= con.coeffs.keys():
            rid = len(rows)
            coefs = [float(a) for a in con.coeffs.values()]
            rows.append(([x_pos[name] for name in con.coeffs], coefs, con.relation, float(con.rhs)))
            halves += {"<=": [(rid, 1)], ">=": [(rid, -1)], "=": [(rid, 1), (rid, -1)]}[
                con.relation
            ]
    return rows, halves


def searched_rows(rows, halves):
    """The model rows each searched row comes from, in "<=" form."""
    return [(rows[r][0], [sign * a for a in rows[r][1]], sign * rows[r][3]) for r, sign in halves]


def compiled_rows(comp):
    return [(r.vars, r.coefs, r.rhs) for r in comp.binrows]


def least_activities(halves, minact, maxact):
    """A searched row's least activity: the model row's least activity on a
    "<=" half, minus its greatest activity on a negated half."""
    return [minact[r] if sign > 0 else -maxact[r] for r, sign in halves]


def assert_cursors_passed(comp, fv, minact, pos):
    """Every row entry before its row's scan cursor has its variable fixed
    and still cannot move without breaking the row."""
    for rid, row in enumerate(comp.binrows):
        for p, au in row.order[: pos[rid]]:
            assert fv[row.vars[p]] != -1, (rid, p)
            assert minact[rid] + au > row.rhs + FEAS_EPS, (rid, p)


class TestSearchParity:
    """The node kernel (bytearray state, sorted knapsack-row scan) against
    the full-rescan reference, and the search against pinned node counts."""

    def test_propagation_matches_full_rescan(self):
        verdicts = set()
        forced = 0
        for seed in range(300):
            problem, start = dense_problem(seed)
            method = BK if seed % 10 == 0 else PCBK
            comp = _Compiled(problem, method)
            search = _Search(comp, SolverLimits())
            f = bytearray(FREE if v == -1 else int(v) for v in start)
            fv = np.frombuffer(f, np.int8)
            rows, halves = model_rows(build_model(problem, method))
            assert compiled_rows(comp) == searched_rows(rows, halves), seed
            ref_min, ref_max = (np.array(act) for act in row_activities(rows, start))
            mi = least_activities(halves, ref_min.tolist(), ref_max.tolist())
            ref_fixed = start.copy()
            queue = []
            pos = [0] * comp.nbinrows
            ok = all(
                search._scan_row(rid, f, mi, pos, queue) for rid in range(comp.nbinrows)
            ) and search._propagate(f, mi, pos, queue)
            ref_ok, ref_queue = reference_propagate(rows, ref_fixed, ref_min, ref_max)
            assert ok == ref_ok, seed
            assert queue == ref_queue, seed
            assert np.array_equal(fv, ref_fixed), seed
            if ok:
                assert mi == least_activities(halves, ref_min.tolist(), ref_max.tolist()), seed
                assert_cursors_passed(comp, fv, mi, pos)
            verdicts.add(ok)
            forced += bool(queue)
        assert verdicts == {True, False}
        assert forced > 100

    def test_knapsack_row_skips_negated_rows(self):
        # -x1 - x2 >= -1 is searched as x1 + x2 <= 1: non-negative
        # coefficients after negation, but a ">=" row is no knapsack row
        names = ("x1", "x2", "x3")
        rows = (
            LinearConstraint("cover", {"x1": -1.0, "x2": -1.0}, ">=", -1.0),
            LinearConstraint("budget", {"x1": 2.0, "x2": 1.0, "x3": 1.0}, "<=", 2.0),
        )
        model = LinearModel(
            tuple(Variable(nm, BINARY) for nm in names), "max", dict(zip(names, (3.0, 2.0, 2.0))), rows
        )
        comp = reference_compile(model)
        assert comp.kn_row == 1
        assert (comp.binrows[1][1], comp.kn_rhs) == ([2.0, 1.0, 1.0], 2.0)
        assert comp.w_bin.tolist() == [2.0, 1.0, 1.0]
        got = reference_solve(model)
        assert (got.status, got.x, got.objective) == (OPTIMAL, (0, 1, 1), 4.0)

    @pytest.mark.parametrize("method", (*METHODS, INCREASE_DECREASE))
    @pytest.mark.parametrize("mode", (BUDGET_COST, PRICE_VALUE))
    def test_knapsack_row_is_the_budget_row(self, method, mode):
        problem = random_problem(41, n=7, mode=mode)
        if method == INCREASE_DECREASE:
            # it states no problem: the row reader finds the budget row first,
            # in the model and in its LP file
            model = increase_decrease_model(problem, (SubsetEstimate(members=(0, 1), estimated_value=3.0),))
            for m in (model, reparse(model)):
                comp = reference_compile(m)
                assert m.constraints[0].name == ("budget" if mode == BUDGET_COST else "price")
                assert comp.kn_row == 0
                assert comp.kn_rhs == m.constraints[0].rhs
            return
        budget = build_model(problem, method).constraints[0]
        comp = _Compiled(problem, method)
        weights = list(budget.coeffs.values())
        assert budget.name == ("budget" if mode == BUDGET_COST else "price")
        assert compiled_rows(comp)[0] == (list(range(7)), weights, budget.rhs)
        assert comp.kn_rhs == budget.rhs
        assert comp.w_bin.tolist() == weights

    def test_knapsack_row_survives_zero_costs(self):
        # the LP file drops the zero-cost terms, so the parsed budget row is
        # narrower than the ExactlyOne row and is still the knapsack row
        reqs = tuple(
            Requirement(id=f"r{i + 1}", cost=cost, value=value, probability=1.0)
            for i, (cost, value) in enumerate(((0.0, 5.0), (0.0, 4.0), (3.0, 9.0)))
        )
        precedence = PrecedenceGraph(n=3, constraints=(ExactlyOne(members=(0, 1)),))
        problem = SelectionProblem(reqs, budget=2.0, precedence=precedence)
        model = build_model(problem, PCBK)
        buf = io.StringIO()
        export_lp(model, buf)
        parsed = parse_lp(io.StringIO(buf.getvalue()))
        assert len(parsed.constraints[0].coeffs) == 1
        built, reparsed = solve(model), reference_solve(parsed)
        assert compiled_rows(_Compiled(problem, PCBK))[0] == ([0, 1, 2], [0.0, 0.0, 3.0], 2.0)
        assert reference_compile(parsed).kn_row == 0
        assert built.stats.root_bound == reparsed.stats.root_bound == 9.0
        assert (built.x, built.objective, built.stats.nodes) == (
            reparsed.x,
            reparsed.objective,
            reparsed.stats.nodes,
        )

    def test_compile_matches_the_row_reader(self):
        # the kernel built from (problem, method) against the reader that
        # recovered it from the model's rows (oracles.reference_compile)
        variants = ((BK, False), (PCBK, False), (SBK, False), (DARS, False), (DARS, True))
        for seed in range(300):
            problem = random_problem(seed + 6000, n=2 + seed % 15, most=2 * (seed % 3))
            if problem.n >= 4 and seed % 5 == 1:
                problem = with_zero_value_and_cost(problem)
            for method, simplify in variants:
                comp = _Compiled(problem, method)
                want = reference_compile(build_model(problem, method, simplify=simplify))
                where = (seed, method, simplify)
                assert compiled_rows(comp) == want.binrows, where
                for name in ("c_bin", "w_bin", "B"):
                    got, ref = getattr(comp, name), getattr(want, name)
                    assert (got is ref is None) or np.array_equal(got, ref), (where, name)
                assert repr(comp.kn_rhs) == repr(want.kn_rhs), where
                assert comp.obj_quantum == want.obj_quantum, where
                assert comp.branch_order == want.branch_order, where

    @pytest.mark.parametrize("seed", range(6))
    def test_dars_searches_the_x_core(self, seed):
        # the search sees the x binaries, the PCBK rows and one penalty-floor
        # table; its rows are the DARS model's rows over x alone, plain or
        # simplified
        problem = random_problem(seed + 300, n=4 + seed)
        comp = _Compiled(problem, DARS)
        assert comp.nbin == problem.n
        assert compiled_rows(comp) == compiled_rows(_Compiled(problem, PCBK))
        for simplify in (False, True):
            rows, halves = model_rows(build_model(problem, DARS, simplify=simplify))
            assert compiled_rows(comp) == searched_rows(rows, halves)
        assert comp.B.shape == (2 * problem.n, problem.n)
        assert _Compiled(problem, PCBK).B is None

    @pytest.mark.parametrize("simplify", (False, True))
    @pytest.mark.parametrize("kind", ("zero", "negative", "dense"))
    @pytest.mark.parametrize("seed", range(5))
    def test_stated_floor_table_matches_the_penalty_rows(self, seed, kind, simplify):
        # the search reads its floors from the problem's influence matrix and
        # only verify_solution reads the penalty rows, so the two must agree:
        # a row theta_i + w x_j >= rhs floors theta_i at rhs while x_j = 0
        # and at rhs - w once x_j = 1
        rng = np.random.default_rng(seed)
        problem = random_problem(seed + 1100, n=2 + 2 * seed)
        n = problem.n
        influence = {
            "zero": InfluenceMatrix.zeros(n),
            "negative": InfluenceMatrix(
                pos=np.zeros((n, n)), neg=random_influence(rng, n, density=0.7).pos
            ),
            "dense": random_influence(rng, n, density=1.0),
        }[kind]
        problem = dataclasses.replace(problem, influence=influence)
        model = build_model(problem, DARS, simplify=simplify)
        x_pos = {name: j for j, name in enumerate(model.metadata["x_names"])}
        theta_pos = {f"theta{i + 1}": i for i in range(n)}
        want0, want1 = np.zeros((n, n)), np.zeros((n, n))
        penalty_rows = 0
        for con in model.constraints:
            if con.relation != ">=" or theta_pos.keys().isdisjoint(con.coeffs):
                continue
            (theta, one), (x, w) = sorted(con.coeffs.items(), key=lambda e: e[0] not in theta_pos)
            assert one == 1.0
            want0[x_pos[x], theta_pos[theta]] = con.rhs
            want1[x_pos[x], theta_pos[theta]] = con.rhs - w
            penalty_rows += 1
        assert penalty_rows == np.count_nonzero(influence.influence)
        assert penalty_rows == 0 if kind == "zero" else penalty_rows > 0
        comp = _Compiled(problem, DARS)
        assert np.array_equal(comp.B[:n], want0) and np.array_equal(comp.B[n:], want1)
        assert not np.signbit(comp.B).any()

    @pytest.mark.parametrize("simplify", (False, True))
    @pytest.mark.parametrize("seed", range(6))
    def test_row_order_leaves_the_compile_unchanged(self, seed, simplify):
        # shuffling the rows after the budget row changes neither the search
        # read out of them (up to row order) nor its answer, which is the
        # one solve finds from the problem the model states
        model = build_model(random_problem(seed + 500, n=5 + seed), DARS, simplify=simplify)
        budget, *rest = model.constraints
        order = np.random.default_rng(seed).permutation(len(rest))
        shuffled = dataclasses.replace(model, constraints=(budget, *(rest[i] for i in order)))
        built, moved = reference_compile(model), reference_compile(shuffled)
        assert sorted(moved.binrows) == sorted(built.binrows) and moved.kn_row == built.kn_row == 0
        assert np.array_equal(moved.B, built.B)
        got, want = reference_solve(shuffled), solve(model)
        assert (got.x, got.objective) == (want.x, want.objective)

    @pytest.mark.parametrize(
        "n, pdl, seed, nodes",
        [(100, 0.02, 1, 6_299), (100, 0.02, 2, 1_254), (30, 0.0, 1, 1_814)],
    )
    def test_select_node_counts_pinned(self, n, pdl, seed, nodes):
        problem = pinned_problem(n, pdl, seed)
        runs = [solve(build_model(problem, DARS, simplify=simplify)) for simplify in (False, True)]
        assert [(got.status, got.stats.nodes) for got in runs] == [(OPTIMAL, nodes)] * 2
        assert runs[0].x == runs[1].x
        assert runs[0].objective == pytest.approx(runs[1].objective, abs=1e-9)

    @pytest.mark.parametrize("n, pdl, seed", [(100, 0.02, 1), (100, 0.02, 2), (30, 0.0, 1)])
    def test_no_state_is_dived_twice(self, n, pdl, seed, monkeypatch):
        # the root is expanded like every other node, so its dive runs once
        starts = []
        dive = _Search._dive

        def recording_dive(search, f, *state):
            starts.append(bytes(f))
            return dive(search, f, *state)

        monkeypatch.setattr(_Search, "_dive", recording_dive)
        got = solve(build_model(pinned_problem(n, pdl, seed), DARS))
        assert got.status == OPTIMAL
        assert len(starts) == len(set(starts)) > 1

    @staticmethod
    def assert_carried_match_oracle(model, monkeypatch):
        """Solve `model`, checking the state each node carries to its
        expansion against a from-scratch oracle: the row activities, the scan
        cursors, the penalty floor and the branching variable; returns the
        expansions."""
        records = []
        expand = _Search._expand

        def recording_expand(search, bound, bvar, f, mi, pos, floor):
            fv = np.frombuffer(bytes(f), np.int8)
            records.append((search.comp, fv, mi[:], pos[:], floor, bvar))
            return expand(search, bound, bvar, f, mi, pos, floor)

        with monkeypatch.context() as patch:
            patch.setattr(_Search, "_expand", recording_expand)
            solve(model)
        for comp, fv, mi, pos, floor, bvar in records:
            rows, halves = model_rows(model)
            want = least_activities(halves, *row_activities(rows, fv))
            assert len(mi) == len(want)
            for k, (r, _) in enumerate(halves):
                # quarter multiples add exactly in any order; float costs do not
                tol = 0.0 if all((4.0 * a).is_integer() for a in rows[r][1]) else 1e-9
                assert abs(mi[k] - want[k]) <= tol
            assert_cursors_passed(comp, fv, mi, pos)
            want_floor = penalty_floor(model, fv)
            if want_floor is None:
                assert floor is None
            else:
                assert np.array_equal(floor, want_floor)
            assert bvar == next(b for b in comp.branch_order if fv[b] == -1)
        return len(records)

    def test_carried_floor_check_catches_an_unfolded_queue(self, monkeypatch):
        # a floor that folds only the branching variable of each queue, not
        # the fixings propagation added, fails the check
        fold = _Search._raise
        monkeypatch.setattr(
            _Search, "_raise", lambda search, floor, f, fixings: fold(search, floor, f, fixings[:1])
        )
        model = build_model(pinned_problem(100, 0.02, 2), DARS)
        with pytest.raises(AssertionError):
            self.assert_carried_match_oracle(model, monkeypatch)

    @pytest.mark.parametrize("n, pdl, seed", [(100, 0.02, 1), (100, 0.02, 2), (30, 0.0, 1)])
    def test_carried_activities_match_rescan_pinned(self, n, pdl, seed, monkeypatch):
        model = build_model(pinned_problem(n, pdl, seed), DARS)
        assert self.assert_carried_match_oracle(model, monkeypatch) > 50

    def test_carried_activities_match_rescan_random(self, monkeypatch):
        expanded = 0
        for seed in range(120):
            problem, _ = dense_problem(seed)
            expanded += self.assert_carried_match_oracle(build_model(problem, PCBK), monkeypatch)
            problem = random_problem(seed + 700, n=6 + seed % 6)
            expanded += self.assert_carried_match_oracle(build_model(problem, DARS), monkeypatch)
        assert expanded > 1000

    @pytest.mark.parametrize(
        "n, objective, nodes, root_bound, final_bound",
        [
            (60, 188.94914930083021, 40_021, 271.7585896773415, 247.98294771011044),
            (100, 257.1586451980872, 40_013, 419.0676593817241, 373.5249947940024),
        ],
        ids=["n60", "n100"],
    )
    def test_node_capped_incumbents_pinned(self, n, objective, nodes, root_bound, final_bound):
        # the same search under a node cap: the polished incumbent, node
        # count and root and final bounds of the precedence-free instances no
        # solve proves in 40k (the search's own incumbents were 176.08124802377924
        # and 187.45841194958928)
        got = solve(build_model(pinned_problem(n, 0.0, 0), DARS), SolverLimits(max_nodes=40_000))
        assert (got.status, got.proven) == (FEASIBLE, False)
        assert repr(got.objective) == repr(objective)
        assert got.stats.nodes == nodes
        assert repr(got.stats.root_bound) == repr(root_bound)
        assert repr(got.stats.final_bound) == repr(final_bound)
        assert got.stats.gap == final_bound - objective


def checked_bounds(monkeypatch) -> list[float]:
    """Check every bound a search scores against the array bound it
    replaced (oracles.reference_bound), bit for bit; returns the bounds."""
    seen = []
    bound = _Search._bound

    def checked(search, f, floor):
        got = bound(search, f, floor)
        want = reference_bound(search.comp, np.frombuffer(bytes(f), np.int8), floor)
        assert repr(got) == repr(want), (bytes(f), floor)
        seen.append(got)
        return got

    monkeypatch.setattr(_Search, "_bound", checked)
    return seen


class TestKnapsackBound:
    """The bound walked over a node's bytearray in ratio order against the
    array bound that sorted the free subset at every node."""

    def test_every_scored_node_matches_the_array_bound(self, monkeypatch):
        seen = checked_bounds(monkeypatch)
        solves = 0
        for seed in range(80):
            n = 2 + seed * 37 % 59  # every n in 2-60
            mode = (BUDGET_COST, PRICE_VALUE)[seed % 2]
            problem = random_problem(seed + 7000, n=n, mode=mode, most=1 + n // 4)
            if n >= 4 and seed % 3 == 0:
                problem = with_zero_value_and_cost(problem)
            for method in METHODS:
                got = solve(build_model(problem, method), SolverLimits(max_nodes=300))
                assert all(type(xi) is int for xi in got.x)
                solves += 1
        assert solves >= 300
        assert len(seen) > 10_000 and len(set(seen)) > 1_000

    def test_row_reader_kernels_match_the_array_bound(self, monkeypatch):
        # what only LP files and hand-built models bring: objective
        # coefficients of either sign, a minimized objective, "=" rows, and
        # no knapsack row at all (kn_rhs = inf), here by dropping the first
        seen = checked_bounds(monkeypatch)
        shapes = set()
        for seed in range(150):
            model = random_binary_model(seed)
            for m in (model, dataclasses.replace(model, constraints=tuple(model.constraints)[1:])):
                ref = reference_compile(m)
                shapes.add("min" if m.objective_sense == "min" else "max")
                shapes.add("no knapsack row" if ref.kn_rhs == math.inf else "knapsack row")
                shapes.update("=" for con in m.constraints if con.relation == "=")
                got = reference_solve(m, SolverLimits(max_nodes=50))
                assert all(type(xi) is int for xi in got.x)
        assert shapes == {"min", "max", "no knapsack row", "knapsack row", "="}
        assert len(seen) > 500

    def test_random_fixings_match_the_array_bound(self):
        # fixings no search reaches, selections past the budget (-inf) among
        # them, under the floor those fixings impose
        rng = np.random.default_rng(26)
        outcomes = set()
        for seed in range(60):
            n = 2 + seed % 30
            problem = random_problem(seed + 7500, n=n)
            if n >= 4 and seed % 4 == 0:
                problem = with_zero_value_and_cost(problem)
            for method in METHODS:
                comp = _Compiled(problem, method)
                if seed % 3 == 0:
                    # values of either sign, under a floor too
                    comp.c_bin = comp.c_bin * rng.choice([-1.0, 1.0], size=n)
                search = _Search(comp, SolverLimits())
                for share in (0.2, 0.5, 0.8):
                    values = rng.choice([1, 0, FREE], size=n, p=[share, (1 - share) / 2, (1 - share) / 2])
                    f = bytearray(values.tolist())
                    fixed = [b for b in range(n) if f[b] != FREE]
                    floor = None if comp.B is None else search._raise(np.zeros(n), f, fixed)
                    got = search._bound(f, floor)
                    want = reference_bound(comp, np.frombuffer(bytes(f), np.int8), floor)
                    assert repr(got) == repr(want), (seed, method, bytes(f))
                    outcomes.add("-inf" if got == -math.inf else "finite")
        assert outcomes == {"-inf", "finite"}

    @pytest.mark.parametrize(
        "costs, budget, f, want",
        [
            # 0.1 + 0.2 passes a budget of 0.3 by 5.6e-17: the selection
            # stands, and not even the free r3, which weighs nothing, fits
            ((0.1, 0.2, 0.0), 0.3, (1, 1, FREE), 8.0),
            # running weights that end exactly at the room plus 1e-12 fit
            # (DARS keeps the bound off the objective grid, which would
            # round the break item's 4 - 4e-12 up to 4)
            ((1.0, 1.0, 1.0), 1.0 - 1e-12, (FREE, 0, FREE), 4.0),
        ],
    )
    def test_knapsack_edges_match_the_array_bound(self, costs, budget, f, want):
        reqs = tuple(
            Requirement(id=f"r{i + 1}", cost=cost, value=4.0, probability=1.0)
            for i, cost in enumerate(costs)
        )
        problem = SelectionProblem(reqs, budget=budget, influence=InfluenceMatrix.zeros(3))
        f = bytearray(f)
        for method, floor in ((PCBK, None), (DARS, np.zeros(3))):
            comp = _Compiled(problem, method)
            got = _Search(comp, SolverLimits())._bound(f, floor)
            assert got == reference_bound(comp, np.frombuffer(bytes(f), np.int8), floor) == want

    def test_pairwise_sum_is_numpy_sum_bit_for_bit(self):
        # every length to 1,000, so runs past 128 split at several depths;
        # mixed signs, magnitudes from 1e-300 to 1e300 or within a few
        # decades of each other (where the order of additions shows), -0.0
        rng = np.random.default_rng(0)
        for n in range(1001):
            for spread in (300.0, 3.0):
                centre = 0.0 if spread == 300.0 else rng.uniform(-290.0, 290.0)
                a = rng.choice([-1.0, 1.0], size=n) * 10.0 ** (centre + rng.uniform(-spread, spread, n))
                a[rng.random(n) < 0.05] = -0.0
                assert _pairwise_sum(a.tolist()).hex() == float(np.add.reduce(a)).hex(), (n, spread)
        for zeros in ([], [-0.0], [-0.0] * 9, [-0.0] * 200, [0.0, -0.0], [-0.0, 0.0] * 70):
            a = np.array(zeros, dtype=np.float64)
            assert _pairwise_sum(zeros).hex() == float(np.add.reduce(a)).hex() == "0x0.0p+0", zeros


def polish_cases():
    """400 node-limited solves: n = 8-40, every method, both constraint
    modes, with and without precedence (BK ignores it), caps of 1-24 nodes
    and, one time in five, of 500 nodes, which proves about half of those."""
    for seed in range(400):
        method = METHODS[seed % 4]
        n = 8 + (seed * 7) % 33
        mode = (BUDGET_COST, PRICE_VALUE)[(seed // 4) % 2]
        problem = random_problem(seed + 3000, n=n, mode=mode, with_precedence=(seed // 8) % 2 == 0)
        yield problem, method, SolverLimits(max_nodes=500 if seed % 5 == 0 else 1 + seed % 24)


def without_clock(sol):
    return dataclasses.replace(sol, stats=dataclasses.replace(sol.stats, elapsed_s=0.0))


class TestPolish:
    def test_limit_stopped_incumbents_are_flip_and_swap_optimal(self, monkeypatch):
        # every polished incumbent verifies, never loses to the search's own
        # incumbent under the tie rule, and no flip or swap beats it
        stopped = moved = 0
        for problem, method, limits in polish_cases():
            model = build_model(problem, method)
            got = solve(model, limits)
            if got.status != FEASIBLE:
                continue
            with monkeypatch.context() as patch:
                patch.setattr(_Search, "_polish", lambda search: None)
                base = solve(model, limits)
            stopped += 1
            assert verify_solution(model, got).ok
            assert got.objective == pytest.approx(objective_value(problem, method, got.x), abs=1e-9)
            assert got.stats.nodes == base.stats.nodes
            assert got.stats.root_bound == base.stats.root_bound
            if got.x != base.x:
                moved += 1
                assert got.objective > base.objective + TIE_EPS or (
                    got.objective >= base.objective - TIE_EPS and got.x < base.x
                )
            assert got.objective >= base.objective - TIE_EPS
            assert improving_neighbour(problem, method, got.x, got.objective) is None
            assert got.stats.final_bound == max(base.stats.final_bound, got.objective)
            assert got.stats.gap == got.stats.final_bound - got.objective >= 0.0
        assert stopped >= 300 and moved >= 100, (stopped, moved)

    def test_proven_solves_match_the_unpolished_search(self, monkeypatch):
        proven = 0
        for problem, method, limits in polish_cases():
            model = build_model(problem, method)
            got = solve(model, limits)
            if not got.proven:
                continue
            with monkeypatch.context() as patch:
                patch.setattr(_Search, "_polish", lambda search: None)
                base = solve(model, limits)
            proven += 1
            assert without_clock(got) == without_clock(base)
            if got.status == OPTIMAL:
                assert (got.stats.final_bound, got.stats.gap) == (got.objective, 0.0)
            else:
                assert (got.stats.final_bound, got.stats.gap) == (None, None)
        assert proven >= 30, proven

    @pytest.mark.parametrize("method", (SBK, DARS))
    def test_move_floors_and_values_match_the_model(self, method):
        # every flip's and every swap's floor read off the top three equals
        # the floor of its penalty rows, and its estimate the objective
        moves = 0
        for seed in range(40):
            problem = random_problem(seed + 4000, n=2 + seed % 11)
            model = build_model(problem, method)
            search = _Search(_Compiled(problem, method), SolverLimits())
            x = np.random.default_rng(seed).integers(0, 2, problem.n)
            top = None if method == SBK else search._top3(x)
            swaps = np.array([(j, k) for j in np.flatnonzero(x == 1) for k in np.flatnonzero(x == 0)])
            for moved in (np.arange(problem.n)[:, None], swaps):
                if not moved.size:
                    continue
                values = search._move_values(moved, x, top)
                floors = None if top is None else search._move_floors(top, moved, x)
                for k, move in enumerate(moved):
                    y = x.copy()
                    y[move] = 1 - y[move]
                    if floors is not None:
                        assert np.array_equal(floors[k], penalty_floor(model, y.astype(np.int8)))
                    assert values[k] == pytest.approx(objective_value(problem, method, y), abs=1e-9)
                    moves += 1
        assert moves > 700

    @pytest.mark.parametrize("seed", range(60))
    def test_binary_models_polish_in_their_own_sense(self, seed):
        # LP-only shapes, searched through the row reader: minimized
        # objectives, coefficients of either sign, ">=" and "=" rows; the gap
        # reads the same in both senses
        model = random_binary_model(seed)
        for cap in (1, 2, 3):
            got = reference_solve(model, SolverLimits(max_nodes=cap))
            if got.objective is None:
                assert got.stats.gap is None
                assert (got.stats.final_bound is None) == (got.status == INFEASIBLE)
                continue
            assert verify_solution(model, got).ok
            sign = 1.0 if model.objective_sense == "max" else -1.0
            assert got.stats.gap == sign * (got.stats.final_bound - got.objective) >= 0.0
            if got.status == FEASIBLE:
                _, obj = enumerate_model_optimum(model)
                assert sign * got.objective <= sign * obj + 1e-9

    def test_node_limit_is_overrun_by_one_expansion_at_most(self):
        # the limit is checked between heap pops: the expansion that reaches
        # it still dives (at most two children per free binary) and branches
        # (two more), so a solve over n binaries visits at most
        # max(max_nodes, 2) + 2n + 1 nodes
        over = 0
        for problem, method, limits in polish_cases():
            got = solve(build_model(problem, method), limits)
            assert got.stats.nodes <= max(limits.max_nodes, 2) + 2 * problem.n + 1
            over += got.stats.nodes > limits.max_nodes
        assert over >= 300, over

    def test_polish_at_n1000_is_bounded(self, monkeypatch):
        # a 1-node DARS solve at n = 1000 hands the polish its first dive's
        # leaf, 173.13, and the polish takes it to 317.63. On a 2-core x86
        # host that takes 1.9 s (3.5 s under tracemalloc) with a 2.0 MB
        # allocation peak; the bounds here are 20 s and 16 MB
        polish = _Search._polish
        seen = {}

        def measured(search):
            start = search.inc_obj
            tracemalloc.start()
            t0 = time.perf_counter()
            try:
                polish(search)
            finally:
                seen["s"] = time.perf_counter() - t0
                seen["mb"] = tracemalloc.get_traced_memory()[1] / 1e6
                tracemalloc.stop()
            seen["start"] = start

        monkeypatch.setattr(_Search, "_polish", measured)
        model = build_model(pinned_problem(1000, 0.0, 0), DARS)
        got = solve(model, SolverLimits(max_nodes=1))
        assert got.status == FEASIBLE
        assert got.stats.nodes == 573  # the root's expansion, dive and children
        assert got.objective > seen["start"] + 100.0
        assert seen["s"] < 20.0 and seen["mb"] < 16.0, seen
        assert verify_solution(model, got).ok
