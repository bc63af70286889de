import io
import math

import numpy as np
import pytest

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
    LinearModel,
    PrecedenceGraph,
    Requirement,
    RequiresAll,
    RequiresAny,
    SelectionProblem,
    ValidationError,
    build_model,
    export_lp,
    parse_lp,
)
from reqsel.errors import InputFormatError
from reqsel.selection_models import (
    BINARY,
    CONTINUOUS,
    INCREASE_DECREASE,
    LinearConstraint,
    SubsetEstimate,
    Variable,
    build_increase_decrease,
)


def make_problem(
    n=2,
    costs=None,
    values=None,
    probs=None,
    budget=10.0,
    mode=BUDGET_COST,
    precedence=None,
    influence=None,
):
    costs = costs or [1.0] * n
    values = values or [float(i + 1) for i in range(n)]
    probs = probs or [1.0] * n
    reqs = tuple(
        Requirement(id=f"r{i+1}", cost=costs[i], value=values[i], probability=probs[i])
        for i in range(n)
    )
    return SelectionProblem(
        requirements=reqs,
        budget=budget,
        constraint_mode=mode,
        precedence=precedence,
        influence=influence,
    )


def two_way_influence(w01=0.7, w10=-0.3):
    net = np.array([[0.0, w01], [w10, 0.0]])
    return InfluenceMatrix(pos=np.clip(net, 0, None), neg=np.clip(-net, 0, None))


def zeroed_problem(seed, mode):
    """Random instance in which two requirements have zero value and two
    others zero cost, with every precedence kind and signed influences."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 10))
    costs = np.round(rng.uniform(0.0, 5.0, n), 2)
    values = np.round(rng.uniform(0.0, 10.0, n), 2)
    picked = rng.permutation(n)
    values[picked[:2]] = 0.0
    costs[picked[2:4]] = 0.0
    idx = rng.permutation(n)
    precedence = PrecedenceGraph(
        n=n,
        constraints=(
            RequiresAll(int(idx[0]), int(idx[1])),
            RequiresAny(int(idx[2]), (int(idx[0]), int(idx[3]))),
            Conflicts(int(idx[1]), int(idx[2])),
            ExactlyOne(tuple(int(m) for m in idx[1:4])),
        ),
    )
    net = np.round(rng.uniform(-1.0, 1.0, (n, n)), 2) * (rng.random((n, n)) < 0.4)
    np.fill_diagonal(net, 0.0)
    return make_problem(
        n,
        costs=costs.tolist(),
        values=values.tolist(),
        probs=np.round(rng.uniform(0.05, 1.0, n), 2).tolist(),
        budget=float(np.round(rng.uniform(0.2, 0.9) * (costs if mode == BUDGET_COST else values).sum(), 2)),
        mode=mode,
        precedence=precedence,
        influence=InfluenceMatrix(pos=np.clip(net, 0, None), neg=np.clip(-net, 0, None)),
    )


class TestSelectionProblem:
    def test_defaults(self):
        p = make_problem(3)
        assert p.n == 3
        assert p.ids == ("r1", "r2", "r3")
        assert p.precedence is not None and p.precedence.constraints == ()

    def test_validation(self):
        with pytest.raises(ValidationError):
            SelectionProblem(requirements=(), budget=1.0)
        with pytest.raises(ValidationError):
            make_problem(2, budget=-1.0)
        with pytest.raises(ValidationError):
            make_problem(2, mode="BUDGET_TIME")
        with pytest.raises(ValidationError):
            make_problem(2, precedence=PrecedenceGraph.empty(3))
        with pytest.raises(ValidationError):
            make_problem(2, influence=InfluenceMatrix.zeros(3))


class TestBudgetRow:
    def test_cost_mode(self):
        m = build_model(make_problem(2, costs=[2.0, 3.0], budget=4.0), BK)
        row = m.constraints[0]
        assert row.name == "budget"
        assert row.coeffs == {"x1": 2.0, "x2": 3.0}
        assert row.relation == "<=" and row.rhs == 4.0

    def test_price_mode_charges_values(self):
        m = build_model(
            make_problem(2, values=[5.0, 7.0], budget=6.0, mode=PRICE_VALUE), BK
        )
        row = m.constraints[0]
        assert row.name == "price"
        assert row.coeffs == {"x1": 5.0, "x2": 7.0}
        assert row.rhs == 6.0


class TestObjectives:
    def test_bk_and_pcbk_use_estimated_values(self):
        p = make_problem(2, values=[5.0, 7.0], probs=[0.5, 0.5])
        for method in (BK, PCBK):
            m = build_model(p, method)
            assert m.objective == {"x1": 5.0, "x2": 7.0}
            assert m.objective_sense == "max"

    def test_sbk_uses_expected_values(self):
        p = make_problem(2, values=[5.0, 7.0], probs=[0.5, 0.25])
        m = build_model(p, SBK)
        assert m.objective == {"x1": 2.5, "x2": 1.75}

    def test_dars_pays_for_penalized_value(self):
        p = make_problem(2, values=[5.0, 7.0], probs=[0.5, 1.0], influence=two_way_influence())
        m = build_model(p, DARS)
        assert m.objective["x1"] == 2.5 and m.objective["y1"] == -2.5
        assert m.objective["x2"] == 7.0 and m.objective["y2"] == -7.0


class TestPrecedenceRows:
    def graph(self):
        return PrecedenceGraph(
            n=3,
            constraints=(
                RequiresAll(source=0, target=1),
                RequiresAny(source=1, targets=(0, 2)),
                Conflicts(0, 2),
                ExactlyOne(members=(0, 1, 2)),
            ),
        )

    def test_pcbk_encodes_every_record(self):
        m = build_model(make_problem(3, precedence=self.graph()), PCBK)
        rows = {c.name: c for c in m.constraints}
        r = rows["prec1_requires_all"]
        assert r.coeffs == {"x1": 1.0, "x2": -1.0} and r.relation == "<=" and r.rhs == 0.0
        r = rows["prec2_requires_any"]
        assert r.coeffs == {"x2": 1.0, "x1": -1.0, "x3": -1.0} and r.rhs == 0.0
        ab, ba = rows["prec3_conflict_ab"], rows["prec3_conflict_ba"]
        for r in (ab, ba):
            assert r.coeffs == {"x1": 1.0, "x3": 1.0}
            assert r.relation == "<=" and r.rhs == 1.0
        r = rows["prec4_exactly_one"]
        assert r.coeffs == {"x1": 1.0, "x2": 1.0, "x3": 1.0}
        assert r.relation == "=" and r.rhs == 1.0

    def test_bk_ignores_precedence(self):
        m = build_model(make_problem(3, precedence=self.graph()), BK)
        assert len(m.constraints) == 1
        assert m.constraints[0].name == "budget"

    def test_sbk_and_dars_keep_precedence(self):
        p = make_problem(3, precedence=self.graph(), influence=InfluenceMatrix.zeros(3))
        for method in (SBK, DARS):
            names = {c.name for c in build_model(p, method).constraints}
            assert "prec1_requires_all" in names
            assert "prec4_exactly_one" in names


class TestDarsStructure:
    def test_variable_and_row_census(self):
        p = make_problem(2, influence=two_way_influence())
        m = build_model(p, DARS)
        names = [v.name for v in m.variables]
        assert names == ["x1", "x2", "g1", "g2", "theta1", "theta2", "y1", "y2"]
        kinds = {v.name: v.kind for v in m.variables}
        assert kinds["x1"] == BINARY and kinds["g2"] == BINARY
        assert kinds["theta1"] == CONTINUOUS and kinds["y2"] == CONTINUOUS
        # budget + 2 penalty rows + 4 linking rows per requirement
        assert len(m.constraints) == 11

    def test_penalty_row_shape(self):
        p = make_problem(2, influence=two_way_influence(w01=0.7, w10=-0.3))
        m = build_model(p, DARS)
        rows = {c.name: c for c in m.constraints}
        pos_row = rows["penalty_x1_x2"]
        assert pos_row.coeffs == {"theta1": 1.0, "x2": 0.7}
        assert pos_row.relation == ">=" and pos_row.rhs == pytest.approx(0.7)
        neg_row = rows["penalty_x2_x1"]
        assert neg_row.coeffs == {"theta2": 1.0, "x1": -0.3}
        assert neg_row.relation == ">=" and neg_row.rhs == 0.0

    def test_zero_influence_pairs_emit_no_rows(self):
        p = make_problem(2, influence=InfluenceMatrix.zeros(2))
        m = build_model(p, DARS)
        assert not any(c.name.startswith("penalty") for c in m.constraints)

    def test_linking_rows(self):
        p = make_problem(1, influence=InfluenceMatrix.zeros(1))
        m = build_model(p, DARS)
        rows = {c.name: c for c in m.constraints}
        assert rows["link_xg_1"].coeffs == {"x1": 1.0, "g1": -1.0}
        assert rows["link_gx_1"].coeffs == {"g1": 1.0, "x1": -1.0}
        assert rows["link_yg_1"].coeffs == {"y1": 1.0, "g1": -1.0}
        link_ty = rows["link_ty_1"]
        assert link_ty.coeffs == {"theta1": 1.0, "y1": -1.0, "g1": 1.0}
        assert link_ty.relation == "<=" and link_ty.rhs == 1.0

    def test_simplified_substitutes_g_for_x(self):
        p = make_problem(2, influence=two_way_influence())
        m = build_model(p, DARS, simplify=True)
        names = [v.name for v in m.variables]
        assert names == ["x1", "x2", "theta1", "theta2", "y1", "y2"]
        # budget + 2 penalty rows + 2 linking rows per requirement
        assert len(m.constraints) == 7
        rows = {c.name: c for c in m.constraints}
        assert rows["link_yg_1"].coeffs == {"y1": 1.0, "x1": -1.0}
        assert rows["link_ty_1"].coeffs == {"theta1": 1.0, "y1": -1.0, "x1": 1.0}
        assert m.metadata["simplified"] is True

    def test_influence_required(self):
        with pytest.raises(ValidationError, match="influence"):
            build_model(make_problem(2), DARS)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError, match="unknown model method"):
            build_model(make_problem(2), "GREEDY")


class TestIncreaseDecrease:
    def test_activation_row(self):
        p = make_problem(3, values=[4.0, 5.0, 6.0])
        m = build_increase_decrease(p, (SubsetEstimate(members=(0, 2), estimated_value=12.0),))
        rows = {c.name: c for c in m.constraints}
        active = rows["subset1_active"]
        assert active.coeffs == {"y1": 2.0, "x1": -1.0, "x3": -1.0}
        assert active.relation == "<=" and active.rhs == 0.0
        # positive adjustment (12 - 10 = 2) needs no completeness row
        assert "subset1_complete" not in rows
        assert m.objective["y1"] == pytest.approx(2.0)

    def test_negative_adjustment_forces_completion(self):
        p = make_problem(2, values=[4.0, 5.0])
        m = build_increase_decrease(p, (SubsetEstimate(members=(0, 1), estimated_value=7.0),))
        rows = {c.name: c for c in m.constraints}
        complete = rows["subset1_complete"]
        assert complete.coeffs == {"x1": 1.0, "x2": 1.0, "y1": -1.0}
        assert complete.relation == "<=" and complete.rhs == 1.0
        assert m.objective["y1"] == pytest.approx(-2.0)

    def test_build_model_routes_by_method(self):
        p = make_problem(2, values=[4.0, 5.0])
        subsets = (SubsetEstimate(members=(0, 1), estimated_value=11.0),)
        direct = build_increase_decrease(p, subsets)
        routed = build_model(p, INCREASE_DECREASE, subsets=subsets)
        assert routed == direct

    def test_subset_validation(self):
        with pytest.raises(ValidationError):
            SubsetEstimate(members=(1,), estimated_value=5.0)
        with pytest.raises(ValidationError):
            SubsetEstimate(members=(1, 1), estimated_value=5.0)
        p = make_problem(2)
        with pytest.raises(ValidationError, match="out of range"):
            build_increase_decrease(p, (SubsetEstimate(members=(0, 5), estimated_value=3.0),))


class TestModelValidation:
    def test_variable_rules(self):
        with pytest.raises(ValidationError):
            Variable(name="v", kind="semicontinuous")
        with pytest.raises(ValidationError):
            Variable(name="v", kind=BINARY, lower=0.0, upper=2.0)
        with pytest.raises(ValidationError):
            Variable(name="v", kind=CONTINUOUS, lower=1.0, upper=0.0)

    def test_constraint_rules(self):
        with pytest.raises(ValidationError):
            LinearConstraint(name="c", coeffs={"x": 1.0}, relation="<", rhs=0.0)
        with pytest.raises(ValidationError):
            LinearConstraint(name="c", coeffs={}, relation="<=", rhs=0.0)

    def test_model_rules(self):
        x = Variable(name="x", kind=BINARY)
        row = LinearConstraint(name="c", coeffs={"x": 1.0}, relation="<=", rhs=1.0)
        with pytest.raises(ValidationError, match="duplicate variable"):
            LinearModel((x, x), "max", {"x": 1.0}, (row,))
        with pytest.raises(ValidationError, match="undeclared"):
            LinearModel((x,), "max", {"z": 1.0}, (row,))
        with pytest.raises(ValidationError, match="duplicate constraint"):
            LinearModel((x,), "max", {"x": 1.0}, (row, row))
        with pytest.raises(ValidationError, match="sense"):
            LinearModel((x,), "argmax", {"x": 1.0}, (row,))
        bad_row = LinearConstraint(name="d", coeffs={"z": 1.0}, relation="<=", rhs=1.0)
        with pytest.raises(ValidationError, match="undeclared"):
            LinearModel((x,), "max", {"x": 1.0}, (bad_row,))


class TestLpFormat:
    def dars_model(self):
        p = make_problem(
            2,
            costs=[2.0, 3.0],
            values=[5.0, 7.0],
            probs=[0.5, 1.0],
            budget=4.0,
            precedence=PrecedenceGraph(n=2, constraints=(RequiresAll(0, 1),)),
            influence=two_way_influence(),
        )
        return build_model(p, DARS)

    def test_sections_in_order(self):
        buf = io.StringIO()
        export_lp(self.dars_model(), buf)
        text = buf.getvalue()
        order = [text.index(s) for s in ("Maximize", "Subject To", "Bounds", "Binary", "End")]
        assert order == sorted(order)
        assert text.endswith("End\n")

    def test_parse_recovers_the_model(self):
        m = self.dars_model()
        buf = io.StringIO()
        export_lp(m, buf)
        parsed = parse_lp(io.StringIO(buf.getvalue()))
        assert parsed.objective_sense == "max"
        assert parsed.objective == m.objective
        assert {v.name for v in parsed.variables} == {v.name for v in m.variables}
        assert {v.name for v in parsed.variables if v.kind == BINARY} == {
            v.name for v in m.variables if v.kind == BINARY
        }
        want = {c.name: c for c in m.constraints}
        got = {c.name: c for c in parsed.constraints}
        assert set(got) == set(want)
        for name, row in want.items():
            assert got[name].relation == row.relation
            assert got[name].rhs == pytest.approx(row.rhs, abs=1e-12)
            assert got[name].coeffs == pytest.approx(row.coeffs, abs=1e-12)
        for v in parsed.variables:
            if v.kind == CONTINUOUS:
                assert (v.lower, v.upper) == (0.0, 1.0)

    def test_reexport_is_a_fixed_point(self):
        buf1 = io.StringIO()
        export_lp(self.dars_model(), buf1)
        once = parse_lp(io.StringIO(buf1.getvalue()))
        buf2 = io.StringIO()
        export_lp(once, buf2)
        twice = parse_lp(io.StringIO(buf2.getvalue()))
        buf3 = io.StringIO()
        export_lp(twice, buf3)
        assert buf2.getvalue() == buf1.getvalue()
        assert buf3.getvalue() == buf2.getvalue()

    @pytest.mark.parametrize("mode", (BUDGET_COST, PRICE_VALUE))
    @pytest.mark.parametrize(
        "method, simplify",
        [(BK, False), (PCBK, False), (SBK, False), (DARS, False), (DARS, True), (INCREASE_DECREASE, False)],
        ids=["bk", "pcbk", "sbk", "dars", "dars-simplified", "increase-decrease"],
    )
    def test_parse_inverts_export(self, method, simplify, mode):
        for seed in range(20):
            p = zeroed_problem(seed, mode)
            subsets = (
                SubsetEstimate(members=(0, 1), estimated_value=3.5),
                SubsetEstimate(members=(1, 2, 3), estimated_value=float(seed % 3)),
            )
            m = build_model(p, method, subsets=subsets, simplify=simplify)
            buf = io.StringIO()
            export_lp(m, buf)
            parsed = parse_lp(io.StringIO(buf.getvalue()))
            again = io.StringIO()
            export_lp(parsed, again)
            assert again.getvalue() == buf.getvalue(), f"seed {seed}"
            assert [(v.name, v.kind, v.lower, v.upper) for v in parsed.variables] == [
                (v.name, v.kind, v.lower, v.upper) for v in m.variables
            ], f"seed {seed}"

    def test_zero_objective_emits_placeholder_term(self):
        x = Variable(name="x1", kind=BINARY)
        row = LinearConstraint(name="c", coeffs={"x1": 1.0}, relation="<=", rhs=1.0)
        m = LinearModel((x,), "max", {}, (row,))
        buf = io.StringIO()
        export_lp(m, buf)
        assert " obj: + 0 x1\n" in buf.getvalue()
        parsed = parse_lp(io.StringIO(buf.getvalue()))
        assert parsed.objective == {"x1": 0.0}

    def test_minimize_round_trip(self):
        x = Variable(name="x1", kind=BINARY)
        row = LinearConstraint(name="c", coeffs={"x1": 1.0}, relation=">=", rhs=1.0)
        m = LinearModel((x,), "min", {"x1": 2.5}, (row,))
        buf = io.StringIO()
        export_lp(m, buf)
        assert buf.getvalue().startswith("Minimize\n")
        assert parse_lp(io.StringIO(buf.getvalue())).objective_sense == "min"

    def test_parse_handles_continuation_lines(self):
        text = (
            "Maximize\n obj: + 1 x1\nSubject To\n c1: + 1 x1\n + 1 x2 <= 1\n"
            "Binary\n x1\n x2\nEnd\n"
        )
        m = parse_lp(io.StringIO(text))
        assert m.constraints[0].coeffs == {"x1": 1.0, "x2": 1.0}

    def test_parse_implicit_coefficients_and_signs(self):
        text = "Maximize\n obj: x1 - x2 + 2 x3\nSubject To\n c: x1 + x2 + x3 <= 2\nEnd\n"
        m = parse_lp(io.StringIO(text))
        assert m.objective == {"x1": 1.0, "x2": -1.0, "x3": 2.0}

    def test_parse_rejects_general_section(self):
        text = "Maximize\n obj: x1\nSubject To\n c: x1 <= 1\nGeneral\n x1\nEnd\n"
        with pytest.raises(InputFormatError, match="general integer"):
            parse_lp(io.StringIO(text))

    def test_parse_rejects_headerless_content(self):
        with pytest.raises(InputFormatError, match="before any section"):
            parse_lp(io.StringIO("obj: x1\n"))

    def test_parse_rejects_malformed_rows(self):
        with pytest.raises(InputFormatError, match="terms rel rhs"):
            parse_lp(io.StringIO("Maximize\n obj: x1\nSubject To\n c: x1 x2\nEnd\n"))
        with pytest.raises(InputFormatError, match="dangling number"):
            parse_lp(io.StringIO("Maximize\n obj: x1 + 3\nSubject To\n c: x1 <= 1\nEnd\n"))
        with pytest.raises(InputFormatError, match="consecutive numbers"):
            parse_lp(io.StringIO("Maximize\n obj: 2 3 x1\nSubject To\n c: x1 <= 1\nEnd\n"))

    def test_parse_one_sided_bounds(self):
        text = (
            "Maximize\n obj: x1 + t\nSubject To\n c: x1 + t <= 5\n"
            "Bounds\n t <= 3\n t >= 1\nBinary\n x1\nEnd\n"
        )
        m = parse_lp(io.StringIO(text))
        (t,) = [v for v in m.variables if v.name == "t"]
        assert (t.lower, t.upper) == (1.0, 3.0)

    def test_infinite_bounds_round_trip(self):
        # export_lp writes "-inf <= a <= +inf" and "0 <= b <= +inf"
        m = LinearModel(
            (
                Variable("x1", BINARY),
                Variable("a", CONTINUOUS, -math.inf, math.inf),
                Variable("b", CONTINUOUS, 0.0, math.inf),
            ),
            "max",
            {"x1": 1.0, "a": 1.0, "b": 1.0},
            (LinearConstraint("c", {"x1": 1.0, "a": 1.0, "b": 1.0}, "<=", 5.0),),
        )
        buf = io.StringIO()
        export_lp(m, buf)
        assert "-inf <= a <= +inf" in buf.getvalue()
        parsed = parse_lp(io.StringIO(buf.getvalue()))
        assert [(v.name, v.kind, v.lower, v.upper) for v in parsed.variables] == [
            (v.name, v.kind, v.lower, v.upper) for v in m.variables
        ]
