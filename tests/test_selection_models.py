import dataclasses
import hashlib
import io
import math
import re

import numpy as np
import pytest
from oracles import (
    INCREASE_DECREASE,
    SubsetEstimate,
    increase_decrease_model,
    reference_export_lp,
    reference_model_rows,
    reference_parse_lp,
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
    LinearModel,
    PrecedenceGraph,
    Requirement,
    RequiresAll,
    RequiresAny,
    SelectionProblem,
    SyntheticSpec,
    ValidationError,
    build_model,
    export_lp,
    generate_synthetic,
    parse_lp,
)
from reqsel.errors import InputFormatError
from reqsel.selection_models import (
    _BLOCK,
    _NUMBER,
    BINARY,
    CONTINUOUS,
    LinearConstraint,
    RowStore,
    Variable,
    _plain_numbers,
    _plain_rows,
    link_rows,
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
        for budget in (-1.0, -math.inf, math.nan):
            with pytest.raises(ValidationError):
                make_problem(2, budget=budget)
        assert make_problem(2, budget=math.inf).budget == math.inf
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

    def test_link_rows_over_names_and_indices(self):
        assert link_rows("x1", "g1", "theta1", "y1") == [
            ("link_xg", {"x1": 1.0, "g1": -1.0}, "<=", 0.0),
            ("link_gx", {"g1": 1.0, "x1": -1.0}, "<=", 0.0),
            ("link_yg", {"y1": 1.0, "g1": -1.0}, "<=", 0.0),
            ("link_ty", {"theta1": 1.0, "y1": -1.0, "g1": 1.0}, "<=", 1.0),
        ]
        # with g = x the echo pair is left out
        assert link_rows(0, 0, 5, 7) == [
            ("link_yg", {7: 1.0, 0: -1.0}, "<=", 0.0),
            ("link_ty", {5: 1.0, 7: -1.0, 0: 1.0}, "<=", 1.0),
        ]
        assert [name for name, *_ in link_rows(0, 3, 5, 7)] == ["link_xg", "link_gx", "link_yg", "link_ty"]

    @pytest.mark.parametrize("simplify", [False, True])
    def test_link_rows_are_the_models_rows(self, simplify):
        m = build_model(make_problem(3, influence=InfluenceMatrix.zeros(3)), DARS, simplify=simplify)
        got = [(c.name, c.coeffs, c.relation, c.rhs) for c in m.constraints if c.name.startswith("link_")]
        want = [
            (f"{name}_{i}", coeffs, relation, rhs)
            for i in (1, 2, 3)
            for name, coeffs, relation, rhs in link_rows(
                f"x{i}", f"x{i}" if simplify else f"g{i}", f"theta{i}", f"y{i}"
            )
        ]
        assert got == want
        assert len(got) == (6 if simplify else 12)

    def test_influence_required(self):
        with pytest.raises(ValidationError, match="influence"):
            build_model(make_problem(2), DARS)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError, match="unknown model method"):
            build_model(make_problem(2), "GREEDY")


class TestIncreaseDecrease:
    """The rows of the hand-built increase-decrease model (tests/oracles.py)
    that the LP tests below run on."""

    def test_activation_row(self):
        p = make_problem(3, values=[4.0, 5.0, 6.0])
        m = increase_decrease_model(p, (SubsetEstimate(members=(0, 2), estimated_value=12.0),))
        rows = {c.name: c for c in m.constraints}
        active = rows["subset1_active"]
        assert active.coeffs == {"y1": 2.0, "x1": -1.0, "x3": -1.0}
        assert active.relation == "<=" and active.rhs == 0.0
        # positive adjustment (12 - 10 = 2) needs no completeness row
        assert "subset1_complete" not in rows
        assert m.objective["y1"] == pytest.approx(2.0)

    def test_negative_adjustment_forces_completion(self):
        p = make_problem(2, values=[4.0, 5.0])
        m = increase_decrease_model(p, (SubsetEstimate(members=(0, 1), estimated_value=7.0),))
        rows = {c.name: c for c in m.constraints}
        complete = rows["subset1_complete"]
        assert complete.coeffs == {"x1": 1.0, "x2": 1.0, "y1": -1.0}
        assert complete.relation == "<=" and complete.rhs == 1.0
        assert m.objective["y1"] == pytest.approx(-2.0)


VARIANTS = {
    "bk": (BK, False),
    "pcbk": (PCBK, False),
    "sbk": (SBK, False),
    "dars": (DARS, False),
    "dars-simplified": (DARS, True),
    "increase-decrease": (INCREASE_DECREASE, False),
}

# export_lp bytes of seed_subsets / zeroed_problem seeds 0-4; the
# increase-decrease pins were recorded while the package still built that
# model, so they also hold the hand-built model to the same bytes
LP_SHA256 = {
    ("bk", BUDGET_COST): "3e9250e87986fe3c1f7ae6bf3cf3bcac6933790ef69de00d288594168086846e",
    ("bk", PRICE_VALUE): "1e8fc5413af4c940acdc88a174912ed71da47081c0367c3631699591a68bde6c",
    ("pcbk", BUDGET_COST): "915e1e8b4cf53bba771ef3dfe03208ba1e67d1bca3e55d2db2919de0e7a8e5d6",
    ("pcbk", PRICE_VALUE): "e016b5c1001f9d645d2767a293a4b263a462f58fb7dba1ad32a1800f83eeb4b4",
    ("sbk", BUDGET_COST): "bfd25000a771d08eab8cb0e49cdc0543feedb610d3a11cb7470098e7945ddba8",
    ("sbk", PRICE_VALUE): "611d55209bd80b81019bc3af8e4970cb6fc64e55bce91ca4e9800faea83bcfa3",
    ("dars", BUDGET_COST): "21a6531c5456ac4c7058304dedcb0ef4d7d6c6f515a14150d14ded8d96e484ce",
    ("dars", PRICE_VALUE): "21e13b2d66043ff7b1d03f2eb79225b93c930c2ae305974707dc2cfac984c482",
    ("dars-simplified", BUDGET_COST): "4b27e90250ae54d59cbe20f0bcf08dec166500a84acb9d89cc879319512daf3a",
    ("dars-simplified", PRICE_VALUE): "c6b8b3abc721b97ed972cd310bcadc90f100e409c101fab3cb3c6d6de02d1207",
    ("increase-decrease", BUDGET_COST): "e71ba88adeb7a11efde225097e30727e14e31afe1bc70a7c37a59b22fde48b76",
    ("increase-decrease", PRICE_VALUE): "bcecaf7f6a3f387bbd55903999efd69474b3a7180c97f5c9d369633ad12b3651",
}


def seed_subsets(seed):
    """Two subset estimates over the first four requirements."""
    return (
        SubsetEstimate(members=(0, 1), estimated_value=3.5),
        SubsetEstimate(members=(1, 2, 3), estimated_value=float(seed % 3)),
    )


def variant_model(seed, mode, method, simplify):
    """The model of one VARIANTS entry over zeroed_problem(seed, mode)."""
    problem = zeroed_problem(seed, mode)
    if method == INCREASE_DECREASE:
        return increase_decrease_model(problem, seed_subsets(seed))
    return build_model(problem, method, simplify=simplify)


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


class TestRowStore:
    """LinearModel.constraints: rows held by column, read as LinearConstraint views."""

    ROWS = (
        LinearConstraint("budget", {"x1": 2.0, "x2": 0.0, "x3": 1.5}, "<=", 3.0),
        LinearConstraint("cover", {"x3": -1.0, "x1": 1.0}, ">=", -0.0),
        LinearConstraint("pick", {"x2": 1.0, "x1": 1.0}, "=", 1),
    )

    def model(self, rows=ROWS):
        names = ("x1", "x2", "x3")
        return LinearModel(tuple(Variable(nm, BINARY) for nm in names), "max", {"x1": 1.0}, rows)

    def test_reads_as_a_sequence_of_rows(self):
        rows, store = self.ROWS, self.model().constraints
        assert isinstance(store, RowStore)
        assert len(store) == 3
        assert store[0] == rows[0] and store[2] == rows[2]
        assert store[-1] == rows[2] and store[-3] == rows[0]
        for k in (3, -4):
            with pytest.raises(IndexError):
                store[k]
        assert isinstance(store[1:], tuple) and store[1:] == rows[1:]
        assert store[::-2] == rows[::-2] and store[5:] == ()
        budget, *rest = store
        assert budget == rows[0] and rest == list(rows[1:])
        assert store == rows and rows == store and store == self.model().constraints
        assert store != rows[:2] and store != rows[::-1] and store != list(rows)
        assert [(c.name, list(c.coeffs.items()), c.relation, repr(c.rhs)) for c in store] == [
            ("budget", [("x1", 2.0), ("x2", 0.0), ("x3", 1.5)], "<=", "3.0"),
            ("cover", [("x3", -1.0), ("x1", 1.0)], ">=", "-0.0"),
            ("pick", [("x2", 1.0), ("x1", 1.0)], "=", "1"),
        ]

    def test_columns(self):
        store = self.model().constraints
        assert store.names == ("budget", "cover", "pick")
        assert store.relations == ("<=", ">=", "=")
        assert store.rhs == (3.0, -0.0, 1)
        assert store.starts == (0, 3, 5, 7)
        assert store.terms == ("x1", "x2", "x3", "x3", "x1", "x2", "x1")
        assert store.coefs == (2.0, 0.0, 1.5, -1.0, 1.0, 1.0, 1.0)

    def test_views_are_built_per_access(self):
        store = self.model().constraints
        view = store[0]
        view.coeffs["x1"] = 99.0
        assert store[0].coeffs["x1"] == 2.0 and store[0] is not store[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            store.names = ()

    def test_replace_takes_rows_or_a_store(self):
        m = self.model()
        budget, *rest = m.constraints
        moved = dataclasses.replace(m, constraints=(budget, *reversed(rest)))
        assert isinstance(moved.constraints, RowStore)
        assert moved.constraints.names == ("budget", "pick", "cover")
        assert moved.constraints == (self.ROWS[0], self.ROWS[2], self.ROWS[1])
        same = dataclasses.replace(m, constraints=m.constraints)
        assert same.constraints is m.constraints and same == m

    def test_faults_keep_their_messages(self):
        row = self.ROWS[0]
        stray = LinearConstraint("d", {"x1": 1.0, "z": 2.0}, "<=", 1.0)
        with pytest.raises(ValidationError, match=r"^duplicate constraint name 'budget'$"):
            self.model((row, row))
        with pytest.raises(ValidationError, match=r"^constraint d references undeclared variable 'z'$"):
            self.model((row, stray, row))  # the first fault in row order
        with pytest.raises(ValidationError, match=r"^constraint c: unknown relation '<'$"):
            LinearConstraint("c", {"x1": 1.0}, "<", 1.0)
        with pytest.raises(ValidationError, match=r"^constraint c: no coefficients$"):
            LinearConstraint("c", {}, "<=", 1.0)
        # parse_lp reports the faults it can meet the same way
        head = "Maximize\n obj: x1\nSubject To\n"
        with pytest.raises(ValidationError, match=r"^constraint c: no coefficients$"):
            parse_lp(io.StringIO(head + " c: <= 1\nEnd\n"))
        with pytest.raises(ValidationError, match=r"^duplicate constraint name 'c'$"):
            parse_lp(io.StringIO(head + " c: + 1 x1 <= 1\n c: + 1 x1 >= 0\nEnd\n"))

    def test_all_zero_row_writes_the_placeholder_term(self):
        m = self.model(self.ROWS + (LinearConstraint("z", {"x3": 0.0, "x2": -0.0}, "<=", 1.0),))
        buf = io.StringIO()
        export_lp(m, buf)
        assert " z: + 0 x1 <= 1\n" in buf.getvalue()
        assert buf.getvalue() == reference_export_lp(m)


def row_key(rows):
    """Each row's name, coefficient items in order, relation and repr(rhs)."""
    return [(c.name, list(c.coeffs.items()), c.relation, repr(c.rhs)) for c in rows]


class TestRowsMatchReference:
    """build_model and export_lp against the dict-row builder and the
    line-by-line writer they replaced (tests/oracles.py)."""

    @pytest.mark.parametrize("mode", (BUDGET_COST, PRICE_VALUE))
    @pytest.mark.parametrize("method, simplify", VARIANTS.values(), ids=VARIANTS.keys())
    def test_variant_models(self, method, simplify, mode):
        for seed in range(20):
            m = variant_model(seed, mode, method, simplify)
            if method != INCREASE_DECREASE:
                want = reference_model_rows(zeroed_problem(seed, mode), method, simplify)
                assert row_key(m.constraints) == row_key(want), f"seed {seed}"
            buf = io.StringIO()
            export_lp(m, buf)
            assert buf.getvalue() == reference_export_lp(m), f"seed {seed}"

    @pytest.mark.parametrize("simplify", (False, True), ids=("plain", "simplified"))
    def test_simulated_dars_model(self, simplify):
        spec = SyntheticSpec(n=300, vdl=0.05, nvdl=0.2, pdl=0.02, npdl=0.2, seed=3)
        problem, _ = generate_synthetic(spec)
        m = build_model(problem, DARS, simplify=simplify)
        assert len(m.constraints) > 6000
        assert row_key(m.constraints) == row_key(reference_model_rows(problem, DARS, simplify))
        buf = io.StringIO()
        export_lp(m, buf)
        text = buf.getvalue()
        assert text == reference_export_lp(m)
        assert model_key(parse_lp(io.StringIO(text))) == model_key(reference_parse_lp(io.StringIO(text)))


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
    @pytest.mark.parametrize("method, simplify", VARIANTS.values(), ids=VARIANTS.keys())
    def test_parse_inverts_export(self, method, simplify, mode):
        for seed in range(20):
            m = variant_model(seed, mode, method, simplify)
            buf = io.StringIO()
            export_lp(m, buf)
            parsed = parse_lp(io.StringIO(buf.getvalue()))
            again = io.StringIO()
            export_lp(parsed, again)
            assert again.getvalue() == buf.getvalue(), f"seed {seed}"
            assert [(v.name, v.kind, v.lower, v.upper) for v in parsed.variables] == [
                (v.name, v.kind, v.lower, v.upper) for v in m.variables
            ], f"seed {seed}"

    @pytest.mark.parametrize("mode", (BUDGET_COST, PRICE_VALUE))
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_export_bytes_pinned(self, variant, mode):
        method, simplify = VARIANTS[variant]
        digest = hashlib.sha256()
        for seed in range(5):
            m = variant_model(seed, mode, method, simplify)
            buf = io.StringIO()
            export_lp(m, buf)
            digest.update(buf.getvalue().encode("utf-8"))
        assert digest.hexdigest() == LP_SHA256[variant, mode]

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

    @pytest.mark.parametrize(
        "where, text",
        [
            ("objective", "Maximize\n obj: 2 * x1\nSubject To\n c: x1 <= 1\nEnd\n"),
            ("constraint c", "Maximize\n obj: x1\nSubject To\n c: x1 * x2 <= 1\nEnd\n"),
            ("constraint c", "Maximize\n obj: x1\nSubject To\n c: x1\n * x2 <= 1\nEnd\n"),
            ("constraint c", "Maximize\n obj: x1\nSubject To\n c: x1 =< 1\nEnd\n"),
            ("bounds", "Maximize\n obj: x1\nSubject To\n c: x1 <= 1\nBounds\n 0 <= t <= 1;\nEnd\n"),
            ("binary", "Maximize\n obj: x1\nSubject To\n c: x1 <= 1\nBinary\n x1, x2\nEnd\n"),
        ],
    )
    def test_parse_rejects_characters_no_token_reads(self, where, text):
        with pytest.raises(InputFormatError, match=f"^{where}: unexpected"):
            parse_lp(io.StringIO(text))

    def test_negative_right_hand_sides_round_trip(self):
        names = ("x1", "x2", "x3")
        m = LinearModel(
            tuple(Variable(nm, BINARY) for nm in names),
            "max",
            {nm: 1.0 for nm in names},
            (
                LinearConstraint("c", {"x1": 1.0}, ">=", -1.0),
                LinearConstraint("d", {"x1": 1.0, "x2": -3.0}, "=", -2.5),
                LinearConstraint("e", {"x3": 1.0}, "<=", -0.0),
            ),
        )
        buf = io.StringIO()
        export_lp(m, buf)
        text = buf.getvalue()
        assert " c: + 1 x1 >= -1\n" in text and " e: + 1 x3 <= -0\n" in text
        parsed = parse_lp(io.StringIO(text))
        assert [(c.name, c.coeffs, c.relation, repr(c.rhs)) for c in parsed.constraints] == [
            (c.name, c.coeffs, c.relation, repr(c.rhs)) for c in m.constraints
        ]
        again = io.StringIO()
        export_lp(parsed, again)
        assert again.getvalue() == text

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

    def test_names_that_spell_numbers_round_trip(self):
        # float() reads all of these, so a reader that probes tokens with it
        # takes them for numbers
        binaries = ("inf", "nan", "Infinity", "NaN", "INF")
        m = LinearModel(
            (*(Variable(name, BINARY) for name in binaries), Variable("infinity", CONTINUOUS)),
            "max",
            {name: float(k + 1) for k, name in enumerate(binaries)},
            (
                LinearConstraint("c1", {name: 1.0 for name in binaries}, "<=", 2.0),
                LinearConstraint("c2", {"infinity": 1.0, "nan": -2.5}, ">=", 0.0),
            ),
        )
        buf = io.StringIO()
        export_lp(m, buf)
        parsed = parse_lp(io.StringIO(buf.getvalue()))
        assert parsed.variables == m.variables
        assert parsed.objective == m.objective
        assert parsed.constraints == m.constraints


def model_key(m):
    """Everything a parsed model holds, in order; repr keeps -0.0 and nan apart."""
    return (
        [(v.name, v.kind, repr(v.lower), repr(v.upper)) for v in m.variables],
        m.objective_sense,
        repr(list(m.objective.items())),
        [(c.name, repr(list(c.coeffs.items())), c.relation, repr(c.rhs)) for c in m.constraints],
        m.metadata,
    )


# No input below names a variable `inf`, `nan` or `infinity`: the reference
# reads such a name as a number, which is the fault parse_lp no longer has.
HAND_WRITTEN_LP = [
    "Maximize\n obj: + 1 x1\nSubject To\n c1: + 1 x1\n + 1 x2\n + 0 x3 <= 1\n c2: x3\n >= 1\nBinary\n x1\n x2\nEnd\n",
    "Maximize\n obj: x1 - x2 + 2 x3\nSubject To\n c: x1 + x2 + x3 <= 2\nEnd\n",
    "Max\n obj: - - x1 + - 2 x2 3 - x3 - x1\nst\n c:x1+2x2-.5e1x3>=0\n d: - 0 x1 + x2 + x2 = 1e3\nEnd\n",
    "\\ a comment\nMaximize \\ trailing\n obj: 2 x1 \\ + 5 x2\n\nSubject To\n c: x1 + x2 <= 4 \\ note\nEnd\n",
    "Maximize\n obj: x1 + t\nSubject To\n c: x1 + t <= 5\nBounds\n t <= 3\n t >= 1\nBinary\n x1\nEnd\n",
    "Maximize\n obj: a + b + c + d\nSubject To\n r: a + b + c + d <= 5\n"
    "Bounds\n -inf <= a <= +inf\n 0 <= b <= +Infinity\n -INFINITY <= c <= 2\n d = 4\n b >= -3\nEnd\n",
    "Minimize\n obj: 2.5 x1\nSubject To\n c: x1 >= 1\nBinary\n x1\nEnd\n",
    "min\n obj: y\ns.t.\n c: y + z <= 7\nBinaries\n z\n",
    "Maximize\n obj: x1\n obj2: x2\nSuch That\n c: x1 + x2 <= 1\nEND\n ignored: after end\n",
    "MAXIMIZE\n obj: + 0 x1\nSUBJECT TO\n c: + 1 x1 <= 1\nBinary\n x1\nEnd\n",
]

MALFORMED_LP = [
    "Maximize\n obj: x1\nSubject To\n c: x1 x2\nEnd\n",
    "Maximize\n obj: x1 + 3\nSubject To\n c: x1 <= 1\nEnd\n",
    "Maximize\n obj: 2 3 x1\nSubject To\n c: x1 <= 1\nEnd\n",
    "Maximize\n obj: x1\nSubject To\n c: x1 <= 1\nGeneral\n x1\nEnd\n",
    "obj: x1\n",
    "Maximize\n obj: x1\nSubject To\n + x1 <= 1\nEnd\n",
    "Maximize\n obj: x1\nSubject To\n c: x1 <= y\nEnd\n",
    "Maximize\n obj: x1\nSubject To\n c: x1 <= 1 + x2\nEnd\n",
    "Maximize\n obj: x1\nSubject To\n c: x1 = <= 1\nEnd\n",
    "Maximize\n obj: x1\nSubject To\n c: x1 <= =\nEnd\n",
    "Maximize\n obj: x1\nSubject To\n c: <=\nEnd\n",
    "Maximize\n obj: x1\nSubject To\n c: <= 1\nEnd\n",
    "Maximize\n obj: x1\nSubject To\n c: 2 3 x1 <= 1\nEnd\n",
    "Maximize\n obj: x1\nSubject To\n c: x1 + 4 <= 1\nEnd\n",
    "Maximize\n obj: x1\nSubject To\n c: x1 <= 1\n c: x1 >= 0\nEnd\n",
    "Maximize\n obj: x1\nSubject To\n c: x1 <= 1\nBounds\n 0 <= x1 <= y\nEnd\n",
    "Maximize\n obj: x1\nSubject To\n c: x1 <= 1\nBounds\n x1 <= 1 <= 2\nEnd\n",
    "Maximize\n obj: x1\nSubject To\n c: x1 <= 1\nBounds\n 2 <= x1 <= 1\nEnd\n",
]


# Inputs parse_lp reads differently from the reference, with parse_lp's
# reading: a signed right-hand side, which the reference rejects, characters
# that start no token, which the reference skips (reading `x1 * x2` as
# x1 + x2, and `x.1 + y` as x + 0.1 y), a number or relation where a
# variable name belongs, which the reference declares as a variable, a digit
# of another script, which the reference reads as a number, and an infinite
# right-hand side, which the reference keeps.
KNOWN_DIFFERENCES = [
    (
        "Maximize\n obj: x1\nSubject To\n c: x1 - x2 >= -1\nEnd\n",
        [("c", {"x1": 1.0, "x2": -1.0}, ">=", "-1.0")],
    ),
    ("Maximize\n obj: x1\nSubject To\n c: x1 * x2 <= 1\nEnd\n", "constraint c: unexpected '*'"),
    (
        "Maximize\n obj: x1\nSubject To\n d: x.1 + y <= 2\nEnd\n",
        [("d", {"x.1": 1.0, "y": 1.0}, "<=", "2.0")],
    ),
    (
        "Maximize\n obj: x1\nSubject To\n c: x1 <= 1\nBinary\n x1 5 <=\nEnd\n",
        "binary: '5' is not a variable name",
    ),
    (
        "Maximize\n obj: x1\nSubject To\n c: x1 <= 1\nBounds\n 0 <= 5 <= 1\nEnd\n",
        "bounds: '5' is not a variable name",
    ),
    ("Maximize\n obj: x1\nSubject To\n c: + \u0661 x1 <= 1\nEnd\n", "constraint c: unexpected '\u0661'"),
    ("min\n obj: y\ns.t.\n c: y + z <= inf\nBinaries\n z\n", "constraint c: right-hand side 'inf' is not finite"),
]


def reference_outcome(text):
    try:
        return model_key(reference_parse_lp(io.StringIO(text)))
    except (InputFormatError, ValidationError) as exc:
        return type(exc), str(exc)


class TestParseMatchesReference:
    """parse_lp against the two-pass reader it replaced (tests/oracles.py)."""

    @pytest.mark.parametrize("mode", (BUDGET_COST, PRICE_VALUE))
    @pytest.mark.parametrize("method, simplify", VARIANTS.values(), ids=VARIANTS.keys())
    def test_exported_models(self, method, simplify, mode):
        # the models test_parse_inverts_export builds
        for seed in range(20):
            m = variant_model(seed, mode, method, simplify)
            buf = io.StringIO()
            export_lp(m, buf)
            text = buf.getvalue()
            assert model_key(parse_lp(io.StringIO(text))) == reference_outcome(text), f"seed {seed}"

    @pytest.mark.parametrize("text", HAND_WRITTEN_LP)
    def test_hand_written(self, text):
        assert model_key(parse_lp(text.splitlines(keepends=True))) == reference_outcome(text)

    @pytest.mark.parametrize("text, want", KNOWN_DIFFERENCES)
    def test_known_differences(self, text, want):
        def rows(parse):
            try:
                m = parse(io.StringIO(text))
            except InputFormatError as exc:
                return str(exc)
            return [(c.name, c.coeffs, c.relation, repr(c.rhs)) for c in m.constraints]

        assert rows(parse_lp) == want != rows(reference_parse_lp)

    @pytest.mark.parametrize("text", MALFORMED_LP)
    def test_malformed(self, text):
        # each input holds one fault, so reading rows as they end or after
        # the whole file reports the same one
        want = reference_outcome(text)
        assert isinstance(want[0], type), "the reference accepted a malformed input"
        with pytest.raises(want[0]) as info:
            parse_lp(io.StringIO(text))
        assert (type(info.value), str(info.value)) == want


@pytest.mark.parametrize(
    "text",
    [
        # rows in export_lp's word layout holding a negative zero or a repeated name
        "Maximize\n obj: + 1 x1\nSubject To\n c: + 1 x1 - 0 x2 <= 1\n d: + 2 x1 - 3 x2 + 1.5 x1 >= 1\n"
        " f: - .5e1 x2 = 0\nEnd\n",
        # a row in that layout continued on the next line
        "Maximize\n obj: x1\nSubject To\n c: + 1 x1 <= 2\n + 1 x2\nEnd\n",
    ],
)
def test_word_layout_rows_read_like_the_reference(text):
    try:
        got = model_key(parse_lp(io.StringIO(text)))
    except (InputFormatError, ValidationError) as exc:
        got = type(exc), str(exc)
    assert got == reference_outcome(text)


def exported(m):
    buf = io.StringIO()
    export_lp(m, buf)
    return buf.getvalue()


def row_lines(text):
    """The Subject To lines of an exported LP text."""
    lines = text.splitlines(keepends=True)
    start = lines.index("Subject To\n") + 1
    stop = next(k for k in range(start, len(lines)) if ":" not in lines[k])
    return lines[start:stop]


# three row shapes export_lp never writes, which parse_lp reads token by token
TOKEN_SHAPES = (
    lambda line: re.sub(r" ([+-]) ", r" \1", line),  # `+1 x1`
    lambda line: line.replace(": ", ":\t", 1),
    lambda line: line.replace(" ", "  ", 2),
)


def token_layout(text):
    """`text` with each Subject To row written in one of TOKEN_SHAPES, by turns."""
    rows = row_lines(text)
    assert rows, "no rows to rewrite"
    head, _, rest = text.partition("".join(rows))
    return head + "".join(TOKEN_SHAPES[k % 3](line) for k, line in enumerate(rows)) + rest


def parsed_columns(text):
    """parse_lp of `text`, every RowStore column included, or its error."""
    try:
        m = parse_lp(io.StringIO(text))
    except (InputFormatError, ValidationError) as exc:
        return type(exc), str(exc)
    rows = m.constraints
    return (
        [(v.name, v.kind, repr(v.lower), repr(v.upper)) for v in m.variables],
        m.objective_sense,
        repr(list(m.objective.items())),
        rows.names,
        rows.relations,
        repr(rows.rhs),
        rows.starts,
        rows.terms,
        repr(rows.coefs),
    )


def assert_blocks_read_like_tokens(text):
    twin = token_layout(text)
    assert all(a != b for a, b in zip(row_lines(text), row_lines(twin)))
    assert parsed_columns(text) == parsed_columns(twin)


def lp_text(rows, objective=" obj: + 1 x1\n"):
    return "Maximize\n" + objective + "Subject To\n" + "".join(rows) + "End\n"


def plain_rows(count, start=0):
    """`count` rows in export_lp's layout over x1..x7."""
    return [f" r{k}: + 1 x{k % 7 + 1} - 2.5 x{(k + 3) % 7 + 1} <= {k % 5}\n" for k in range(start, start + count)]


class TestBlockReader:
    """parse_lp's block reader against its token reader, which reads the
    rows of TOKEN_SHAPES, and against the reference reader."""

    @pytest.mark.parametrize("mode", (BUDGET_COST, PRICE_VALUE))
    @pytest.mark.parametrize("method, simplify", VARIANTS.values(), ids=VARIANTS.keys())
    def test_exported_models(self, method, simplify, mode):
        for seed in range(20):
            text = exported(variant_model(seed, mode, method, simplify))
            # every row export_lp writes here is plain, so the block reader reads it
            assert _plain_rows(row_lines(text), {}) is not None, f"seed {seed}"
            assert_blocks_read_like_tokens(text)

    @pytest.mark.parametrize("simplify", (False, True), ids=("plain", "simplified"))
    def test_simulated_models(self, simplify):
        for seed in range(3):
            problem, _ = generate_synthetic(SyntheticSpec(n=40, vdl=0.1, nvdl=0.3, pdl=0.05, npdl=0.2, seed=seed))
            for method in (PCBK, DARS):
                assert_blocks_read_like_tokens(exported(build_model(problem, method, simplify=simplify)))

    def test_model_of_several_blocks(self):
        problem, _ = generate_synthetic(SyntheticSpec(n=600, vdl=0.05, nvdl=0.2, pdl=0.02, npdl=0.2, seed=4))
        text = exported(build_model(problem, DARS))
        assert len(row_lines(text)) > 3 * _BLOCK
        assert_blocks_read_like_tokens(text)
        assert model_key(parse_lp(io.StringIO(text))) == reference_outcome(text)

    @pytest.mark.parametrize("at", (_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK - 2))
    def test_row_continued_at_a_block_boundary(self, at):
        rows = plain_rows(3 * _BLOCK)
        # row `at - 1` goes on on line `at`
        rows[at - 1 : at] = [" split: + 1 x1\n", " - 2 x2 + 3 x3 >= 1\n"]
        text = lp_text(rows)
        assert model_key(parse_lp(io.StringIO(text))) == reference_outcome(text)
        assert_blocks_read_like_tokens(text)
        (row,) = [c for c in parse_lp(io.StringIO(text)).constraints if c.name == "split"]
        assert (row.coeffs, row.relation, row.rhs) == ({"x1": 1.0, "x2": -2.0, "x3": 3.0}, ">=", 1.0)

    @pytest.mark.parametrize(
        "row, message",
        [
            (" bad: + 1 x1 * x2 <= 1\n", "constraint bad: unexpected '*'"),
            (" bad: + 1 x1 + 2 <= 1\n", "constraint bad: dangling number without a variable"),
            (" bad: + 1 x1 x2\n", "constraint bad: expected `terms rel rhs`"),
        ],
    )
    def test_malformed_row_after_plain_blocks(self, row, message):
        text = lp_text(plain_rows(2 * _BLOCK + 10) + [row] + plain_rows(50, start=2 * _BLOCK + 10))
        assert parsed_columns(text) == parsed_columns(token_layout(text)) == (InputFormatError, message)

    def test_unusual_rows_inside_large_blocks(self):
        special = {
            100: " dup: + 1 x1 + 2 x1 - 4 x2 <= 1\n",
            _BLOCK + 7: " zero: + 1 x1 - 0 x2 <= 1\n",
            _BLOCK + 8: " eq: + 1 x1 + 1 x2 = 2\n",
            _BLOCK + 9: " negzero: + 1 x3 <= -0\n",
            2 * _BLOCK + 3: " neg: - 1 x3 + 0.5 x4 >= -4.5\n",
            2 * _BLOCK + 4: " exp: + 1e-05 x1 - 2.5E+3 x2 + 5. x3 + .5 x4 <= 1e3\n",
        }
        rows = plain_rows(3 * _BLOCK)
        for k, row in special.items():
            rows[k] = row
        text = lp_text(rows)
        assert_blocks_read_like_tokens(text)
        got = {c.name: c for c in parse_lp(io.StringIO(text)).constraints}
        assert got["dup"].coeffs == {"x1": 3.0, "x2": -4.0}
        assert repr(list(got["zero"].coeffs.values())) == "[1.0, 0.0]"
        assert (got["eq"].relation, got["eq"].rhs) == ("=", 2.0)
        assert repr(got["negzero"].rhs) == "-0.0"
        assert got["neg"].rhs == -4.5
        assert got["exp"].coeffs == {"x1": 1e-05, "x2": -2500.0, "x3": 5.0, "x4": 0.5}

    def test_names_that_spell_numbers_inside_a_block(self):
        rows = plain_rows(_BLOCK + 20)
        rows[_BLOCK - 5] = " names: + 1 inf - 2 nan + 3 x.1 <= 1\n"
        text = lp_text(rows)
        assert_blocks_read_like_tokens(text)
        (row,) = [c for c in parse_lp(io.StringIO(text)).constraints if c.name == "names"]
        assert row.coeffs == {"inf": 1.0, "nan": -2.0, "x.1": 3.0}


NUMBER_CORPUS = [
    "0", "7", "00", "1_0", "+1", "-1", ".", "5.", ".5", "1e", "1e+5", "1E-05", "1e+", "1e5e5", "1.2.3",
    "12.5e3", ".5e-2", "e5", "E5", "1ee5", "1..2", "+.5", "inf", "nan", "infinity", "1e400",
    "\u0661", "1\u0661", "0x10", "1e5.5", "--1", "5e-", "3.14159",
]  # fmt: skip


@pytest.mark.parametrize("word", NUMBER_CORPUS)
def test_block_number_check_is_the_number_grammar(word):
    # _plain_numbers' character scan and float() accept exactly the finite _NUMBER words
    want = float(word) if _NUMBER.fullmatch(word) and math.isfinite(float(word)) else None

    def values(words, signed=False):
        got = _plain_numbers(words, signed)
        return None if got is None else got.tolist()

    assert values([word]) == (None if want is None else [want])
    assert values(["2", word, "3"]) == (None if want is None else [2.0, want, 3.0])
    assert values(["-" + word], signed=True) == (None if want is None else [-want])


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("value", (math.inf, -math.inf, math.nan), ids=("inf", "-inf", "nan"))
    @pytest.mark.parametrize("where", ("objective", "coefficient", "rhs"))
    def test_export_rejects_before_writing(self, where, value):
        objective = {"x1": value if where == "objective" else 1.0}
        row = LinearConstraint(
            "c", {"x1": 1.0, "x2": value if where == "coefficient" else 2.0}, "<=", value if where == "rhs" else 1.0
        )
        m = LinearModel((Variable("x1", BINARY), Variable("x2", BINARY)), "max", objective, (row,))
        sink = io.StringIO()
        with pytest.raises(ValidationError, match="^(objective|constraint c): .* is not finite$"):
            export_lp(m, sink)
        assert sink.getvalue() == ""

    @pytest.mark.parametrize(
        "row, message",
        [
            (" c: + 1 x1 <= nan\n", "constraint c: right-hand side 'nan' is not finite"),
            (" c: + 1 x1 <= inf\n", "constraint c: right-hand side 'inf' is not finite"),
            (" c: + 1 x1 <= infinity\n", "constraint c: right-hand side 'infinity' is not finite"),
            (" c: + 1 x1 <= 1e400\n", "constraint c: right-hand side '1e400' is not finite"),
            (" c: + 1 x1 >= -1e400\n", "constraint c: right-hand side '-1e400' is not finite"),
            (" c: + 1e400 x1 <= 1\n", "constraint c: coefficient inf of x1 is not finite"),
            (" c: + 1 x2 - 1e400 x1 <= 1\n", "constraint c: coefficient -inf of x1 is not finite"),
        ],
    )
    def test_parse_names_the_row(self, row, message):
        text = lp_text(plain_rows(_BLOCK + 10) + [row] + plain_rows(10, start=_BLOCK + 10))
        assert parsed_columns(text) == parsed_columns(token_layout(text)) == (InputFormatError, message)

    def test_parse_rejects_an_infinite_objective_coefficient(self):
        with pytest.raises(InputFormatError, match="^objective: coefficient inf of x1 is not finite$"):
            parse_lp(io.StringIO(lp_text(plain_rows(3), objective=" obj: + 1e400 x1\n")))

    @pytest.mark.parametrize("lower, upper", ((math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan)))
    def test_variable_rejects_a_nan_bound(self, lower, upper):
        # every comparison with NaN is false, so no interval test catches it
        with pytest.raises(ValidationError, match="^variable x1: a bound is NaN$"):
            Variable("x1", CONTINUOUS, lower=lower, upper=upper)

    @pytest.mark.parametrize("bound", (" nan <= x1 <= 2\n", " 0 <= x1 <= nan\n", " x1 >= NaN\n"))
    def test_parse_rejects_a_nan_bound(self, bound):
        text = "Maximize\n obj: x1\nSubject To\n c: x1 <= 1\nBounds\n" + bound + "End\n"
        with pytest.raises(ValidationError, match="^variable x1: a bound is NaN$"):
            parse_lp(io.StringIO(text))
