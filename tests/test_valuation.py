import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import penalties as oracle_penalties
from reqsel import (
    InfluenceMatrix,
    Requirement,
    ValidationError,
    evaluate_selection,
    penalties,
)
from reqsel.errors import InputFormatError
from reqsel.valuation import load_requirements, save_requirements

# Net influences for four requirements; the fourth exerts none of its own.
EXAMPLE_NET = np.array(
    [
        [0.0, 0.5, 0.7, 0.7],
        [0.2, 0.0, 0.2, 0.3],
        [0.6, 0.5, 0.0, 0.7],
        [0.0, 0.0, 0.0, 0.0],
    ]
)
EXAMPLE_INFLUENCE = InfluenceMatrix(
    pos=np.clip(EXAMPLE_NET, 0.0, None), neg=np.clip(-EXAMPLE_NET, 0.0, None)
)


def random_influence(n, seed):
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0.0, 1.0, (n, n))
    neg = rng.uniform(0.0, 1.0, (n, n))
    keep_pos = rng.random((n, n)) < 0.5
    pos = np.where(keep_pos, pos, 0.0)
    neg = np.where(keep_pos, 0.0, neg)
    np.fill_diagonal(pos, 0.0)
    np.fill_diagonal(neg, 0.0)
    return InfluenceMatrix(pos=pos, neg=neg)


class TestPenalties:
    def test_dropping_the_fourth_requirement(self):
        theta = penalties(EXAMPLE_INFLUENCE, (1, 1, 1, 0))
        assert theta[0] == pytest.approx(0.7, abs=1e-12)
        assert theta[1] == pytest.approx(0.3, abs=1e-12)
        assert theta[2] == pytest.approx(0.7, abs=1e-12)
        assert theta[3] == 0.0

    def test_full_selection_covers_positive_influences(self):
        theta = penalties(EXAMPLE_INFLUENCE, (1, 1, 1, 1))
        assert np.all(theta == 0.0)

    def test_unselected_negative_source_costs_nothing(self):
        inf = InfluenceMatrix(
            pos=np.zeros((2, 2)), neg=np.array([[0.0, 0.8], [0.0, 0.0]])
        )
        # r2 unselected: its negative influence on r1 is avoided
        assert penalties(inf, (1, 0))[0] == 0.0
        # r2 selected: the damage lands
        assert penalties(inf, (1, 1))[0] == pytest.approx(0.8)

    def test_ignored_positive_influence_costs_its_strength(self):
        inf = InfluenceMatrix(
            pos=np.array([[0.0, 0.45], [0.0, 0.0]]), neg=np.zeros((2, 2))
        )
        assert penalties(inf, (1, 0))[0] == pytest.approx(0.45)
        assert penalties(inf, (1, 1))[0] == 0.0

    def test_strongest_uncovered_wins(self):
        inf = InfluenceMatrix(
            pos=np.array([[0.0, 0.3, 0.6], [0.0] * 3, [0.0] * 3]),
            neg=np.zeros((3, 3)),
        )
        assert penalties(inf, (1, 0, 0))[0] == pytest.approx(0.6)
        assert penalties(inf, (1, 0, 1))[0] == pytest.approx(0.3)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        inf = random_influence(n, seed + 50)
        x = rng.integers(0, 2, n)
        got = penalties(inf, x)
        want = oracle_penalties(inf.influence, x)
        assert np.abs(got - want).max() < 1e-12

    def test_shape_and_binary_validation(self):
        with pytest.raises(ValidationError):
            penalties(EXAMPLE_INFLUENCE, (1, 0))
        with pytest.raises(ValidationError):
            penalties(EXAMPLE_INFLUENCE, (1, 0, 2, 0))


def example_requirements(values=(10.0, 20.0, 10.0, 5.0)):
    return tuple(
        Requirement(id=f"r{i+1}", cost=1.0, value=v, probability=1.0)
        for i, v in enumerate(values)
    )


class TestEvaluateSelection:
    def test_overall_value_of_partial_selection(self):
        ev = evaluate_selection(example_requirements(), EXAMPLE_INFLUENCE, (1, 1, 1, 0))
        assert ev.ov == pytest.approx(20.0, abs=1e-9)
        assert ev.ev == pytest.approx(40.0)
        assert ev.av == pytest.approx(40.0)
        assert ev.selection == (1, 1, 1, 0)

    def test_unselected_requirement_contributes_nothing(self):
        # the fourth value never enters, whatever it is
        a = evaluate_selection(
            example_requirements((10, 20, 10, 5)), EXAMPLE_INFLUENCE, (1, 1, 1, 0)
        )
        b = evaluate_selection(
            example_requirements((10, 20, 10, 900)), EXAMPLE_INFLUENCE, (1, 1, 1, 0)
        )
        assert a.ov == b.ov and a.ev == b.ev and a.av == b.av

    def test_empty_selection_is_zero(self):
        ev = evaluate_selection(example_requirements(), EXAMPLE_INFLUENCE, (0, 0, 0, 0))
        assert ev.av == 0.0 and ev.ev == 0.0 and ev.ov == 0.0

    def test_no_influence_collapses_ov_to_ev(self):
        reqs = example_requirements()
        ev = evaluate_selection(reqs, InfluenceMatrix.zeros(4), (1, 0, 1, 1))
        assert ev.ov == ev.ev == ev.av == pytest.approx(25.0)

    def test_probability_discounts_expected_value(self):
        reqs = (
            Requirement(id="a", cost=0.0, value=10.0, probability=0.5),
            Requirement(id="b", cost=0.0, value=8.0, probability=0.25),
        )
        ev = evaluate_selection(reqs, InfluenceMatrix.zeros(2), (1, 1))
        assert ev.av == pytest.approx(18.0)
        assert ev.ev == pytest.approx(7.0)
        assert ev.ov == pytest.approx(7.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            evaluate_selection(example_requirements()[:3], EXAMPLE_INFLUENCE, (1, 1, 1))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_value_ordering_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 8))
        reqs = tuple(
            Requirement(
                id=f"r{i}",
                cost=float(rng.uniform(0, 5)),
                value=float(rng.uniform(0, 10)),
                probability=float(rng.uniform(0, 1)),
            )
            for i in range(n)
        )
        inf = random_influence(n, seed + 1)
        x = rng.integers(0, 2, n)
        ev = evaluate_selection(reqs, inf, x)
        assert ev.ov <= ev.ev + 1e-12
        assert ev.ev <= ev.av + 1e-12
        assert np.all((ev.theta >= 0.0) & (ev.theta <= 1.0))


class TestRequirement:
    def test_expected_value(self):
        r = Requirement(id="x", cost=2.0, value=12.0, probability=0.75)
        assert r.expected_value == pytest.approx(9.0)

    def test_validation(self):
        for bad in (-1.0, math.inf, -math.inf, math.nan):
            with pytest.raises(ValidationError):
                Requirement(id="x", cost=bad, value=1.0, probability=0.5)
            with pytest.raises(ValidationError):
                Requirement(id="x", cost=1.0, value=bad, probability=0.5)
        with pytest.raises(ValidationError):
            Requirement(id="x", cost=1.0, value=1.0, probability=1.5)


class TestRequirementsCsv:
    def test_round_trip(self):
        reqs = (
            Requirement(id="r1", cost=3.25, value=10.0, probability=0.8, name="login"),
            Requirement(id="r2", cost=0.0, value=5.5, probability=1.0, name=""),
        )
        buf = io.StringIO()
        save_requirements(reqs, buf)
        back = load_requirements(io.StringIO(buf.getvalue()))
        assert back == reqs

    def test_headerless_accepted(self):
        back = load_requirements(io.StringIO("r1,login,1.5,10,0.8\n"))
        assert back[0].cost == 1.5 and back[0].name == "login"

    def test_field_count_enforced(self):
        with pytest.raises(InputFormatError, match="5 fields"):
            load_requirements(io.StringIO("r1,login,1.5,10\n"))

    def test_non_numeric_rejected_with_line(self):
        with pytest.raises(InputFormatError, match="line 2"):
            load_requirements(io.StringIO("r1,a,1,2,0.5\nr2,b,cheap,2,0.5\n"))

    def test_validation_failure_carries_line(self):
        with pytest.raises(InputFormatError, match="line 1"):
            load_requirements(io.StringIO("r1,a,1,2,1.5\n"))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(InputFormatError, match="line 2: requirement id 'r1' repeats"):
            load_requirements(io.StringIO("r1,a,1,2,0.5\nr1,b,1,2,0.5\n"))

    def test_empty_rejected(self):
        with pytest.raises(InputFormatError):
            load_requirements(io.StringIO("# only a comment\n"))
