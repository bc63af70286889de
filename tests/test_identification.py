import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import causal_strength, per_pair_vdg_edges, woolf_interval, woolf_pair
from reqsel import (
    MembershipConfig,
    PreferenceMatrix,
    SignificanceConfig,
    ValidationError,
    build_vdg,
    compute_eells,
    membership,
    odds_ratio,
    significance_test,
)
from reqsel.dependency_graph import NEGATIVE, POSITIVE
from reqsel.identification import _membership


def matrix_from_cells(cells):
    cells = np.asarray(cells, dtype=np.int8)
    n, k = cells.shape
    return PreferenceMatrix(
        tuple(f"r{i+1}" for i in range(n)),
        tuple(f"u{j+1}" for j in range(k)),
        cells,
    )


def pair_matrix(n11, n10, n01, n00, extra_rows=()):
    """Two requirements realizing the given 2x2 contingency counts."""
    a = [1] * n11 + [1] * n10 + [0] * n01 + [0] * n00
    b = [1] * n11 + [0] * n10 + [1] * n01 + [0] * n00
    rows = [a, b, *extra_rows]
    return matrix_from_cells(rows)


WOOLF_FIXTURE = pair_matrix(40, 10, 10, 40)


class TestComputeEells:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_per_user_oracle(self, seed):
        rng = np.random.default_rng(seed)
        cells = (rng.random((6, 35)) < 0.45).astype(np.int8)
        analysis = compute_eells(matrix_from_cells(cells))
        for i in range(6):
            for j in range(6):
                want = 0.0 if i == j else causal_strength(cells, i, j)
                assert analysis.eells[i, j] == pytest.approx(want, abs=1e-12)

    def test_fixture_strength(self):
        analysis = compute_eells(WOOLF_FIXTURE)
        # p(a|b) = 40/50, p(a|not b) = 10/50
        assert analysis.eells[0, 1] == pytest.approx(0.6, abs=1e-12)
        assert analysis.eells[1, 0] == pytest.approx(0.6, abs=1e-12)

    def test_diagonal_is_zero(self):
        analysis = compute_eells(WOOLF_FIXTURE)
        assert np.all(np.diag(analysis.eells) == 0.0)

    def test_unanimous_requirement_gives_zero_and_undefined(self):
        # second row wanted by everyone: no counterfactual side
        m = matrix_from_cells([[1, 0, 1, 0], [1, 1, 1, 1]])
        analysis = compute_eells(m)
        assert analysis.eells[0, 1] == 0.0
        assert not analysis.woolf_table[2][0, 1]
        # conditioning on the varied row is still fine
        assert analysis.woolf_table[2][1, 0]

    def test_never_wanted_requirement_gives_zero_and_undefined(self):
        m = matrix_from_cells([[1, 0, 1, 0], [0, 0, 0, 0]])
        analysis = compute_eells(m)
        assert analysis.eells[0, 1] == 0.0
        assert not analysis.woolf_table[2][0, 1]

    def test_strength_bounded(self):
        rng = np.random.default_rng(5)
        cells = (rng.random((8, 50)) < 0.5).astype(np.int8)
        analysis = compute_eells(matrix_from_cells(cells))
        assert np.abs(analysis.eells).max() <= 1.0 + 1e-15


class TestOddsRatio:
    def test_fixture_value(self):
        analysis = compute_eells(WOOLF_FIXTURE)
        assert odds_ratio(analysis, 0, 1) == pytest.approx(16.0, abs=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(11)
        cells = (rng.random((5, 30)) < 0.5).astype(np.int8)
        analysis = compute_eells(matrix_from_cells(cells))
        for i in range(5):
            for j in range(i + 1, 5):
                assert odds_ratio(analysis, i, j) == odds_ratio(analysis, j, i)

    def test_zero_cell_takes_half_correction(self):
        # no user wants a without b: n10 = 0
        m = pair_matrix(20, 0, 10, 10)
        analysis = compute_eells(m)
        want = (20.5 * 10.5) / (0.5 * 10.5)
        assert odds_ratio(analysis, 0, 1) == pytest.approx(want, abs=1e-12)

    def test_same_requirement_rejected(self):
        analysis = compute_eells(WOOLF_FIXTURE)
        with pytest.raises(ValidationError):
            odds_ratio(analysis, 1, 1)


class TestSignificance:
    def test_woolf_fixture_interval(self):
        # omega = 16, half-width = 1.96 * sqrt(1/40 + 1/40 + 1/10 + 1/10) = 0.98,
        # so the interval is exp(ln 16 -+ 0.98) = (6.005, 42.631)
        analysis = compute_eells(WOOLF_FIXTURE)
        lower, upper, significant = significance_test(
            analysis, 0, 1, SignificanceConfig()
        )
        assert lower == pytest.approx(math.exp(math.log(16.0) - 0.98), rel=1e-12)
        assert upper == pytest.approx(math.exp(math.log(16.0) + 0.98), rel=1e-12)
        assert lower == pytest.approx(6.01, abs=0.01)
        assert upper == pytest.approx(42.63, abs=0.01)
        assert significant

    @pytest.mark.parametrize(
        "counts", [(40, 10, 10, 40), (20, 0, 10, 10), (3, 9, 5, 1), (12, 12, 8, 8)]
    )
    def test_matches_oracle(self, counts):
        analysis = compute_eells(pair_matrix(*counts))
        lower, upper, _ = significance_test(analysis, 0, 1, SignificanceConfig())
        _, want_lower, want_upper = woolf_interval(counts, 1.96)
        assert lower == pytest.approx(want_lower, rel=1e-12)
        assert upper == pytest.approx(want_upper, rel=1e-12)

    def test_exact_independence_is_insignificant(self):
        # p(a|b) == p(a|not b) == 0.6, omega == 1
        analysis = compute_eells(pair_matrix(30, 30, 20, 20))
        lower, upper, significant = significance_test(
            analysis, 0, 1, SignificanceConfig()
        )
        assert lower < 1.0 < upper
        assert not significant

    def test_undefined_pair_is_insignificant(self):
        m = matrix_from_cells([[1, 0, 1, 0], [1, 1, 1, 1]])
        analysis = compute_eells(m)
        _, _, significant = significance_test(analysis, 0, 1, SignificanceConfig())
        assert not significant

    def test_wider_critical_value_can_flip_to_insignificant(self):
        analysis = compute_eells(WOOLF_FIXTURE)
        _, _, at_95 = significance_test(analysis, 0, 1, SignificanceConfig())
        _, _, at_wide = significance_test(
            analysis, 0, 1, SignificanceConfig(z_prime=10.0)
        )
        assert at_95
        assert not at_wide

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            SignificanceConfig(z_prime=0.0)

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_non_finite_critical_value_rejected(self, z):
        # a NaN radius would leave every interval end NaN, which no
        # comparison places around 1
        with pytest.raises(ValidationError):
            SignificanceConfig(z_prime=z)

    def test_every_pair_matches_the_scalar_oracle_exactly(self):
        # 320 random analyses: Haldane zero cells from sparse and dense rows,
        # unanimous and never-wanted rows, one-user matrices; plus the
        # fixture at the z' that puts its lower interval end on 1
        rng = np.random.default_rng(2024)
        cases = [(compute_eells(WOOLF_FIXTURE), math.log(16.0) / 0.5)]
        for case in range(320):
            n = int(rng.integers(2, 9))
            k = 1 if case % 8 == 0 else int(rng.integers(1, 61))
            cells = (rng.random((n, k)) < rng.uniform(0.02, 0.98, (n, 1))).astype(np.int8)
            if case % 3 == 0:
                cells[rng.integers(n)] = 1
            if case % 5 == 0:
                cells[rng.integers(n)] = 0
            z = (0.5, 1.0, 1.96, 3.3)[case % 4]
            cases.append((compute_eells(matrix_from_cells(cells)), z))
        pairs, verdicts = 0, set()
        for analysis, z in cases:
            sig = SignificanceConfig(z_prime=z)
            for i in range(analysis.n):
                for j in range(analysis.n):
                    if i == j:
                        continue
                    omega, lower, upper, significant = woolf_pair(analysis, i, j, z)
                    got = (odds_ratio(analysis, i, j), *significance_test(analysis, i, j, sig))
                    want = (omega, lower, upper, significant)
                    assert [repr(v) for v in got] == [repr(v) for v in want]
                    pairs += 1
                    verdicts.add(significant)
        assert pairs > 5000 and verdicts == {False, True}


class TestMembership:
    def test_defaults_give_absolute_value(self):
        cfg = MembershipConfig()
        assert membership(0.37, cfg) == pytest.approx(0.37)
        assert membership(-0.52, cfg) == pytest.approx(0.52)
        assert membership(1.0, cfg) == 1.0
        assert membership(0.0, cfg) == 0.0

    def test_ramp_between_cuts(self):
        cfg = MembershipConfig(lower_cut=0.2, upper_cut=0.8)
        assert membership(0.2, cfg) == 0.0
        assert membership(0.1, cfg) == 0.0
        assert membership(0.5, cfg) == pytest.approx(0.5)
        assert membership(0.65, cfg) == pytest.approx(0.75)
        assert membership(0.8, cfg) == 1.0
        assert membership(-0.9, cfg) == 1.0

    def test_subnormal_cut_width_does_not_overflow(self):
        # |eta| beyond the cuts is clipped before the division by their width
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _membership(np.array([0.5, 1.0]), MembershipConfig(0.0, 5e-324))
        assert got.tolist() == [1.0, 1.0]

    def test_values_inside_the_cuts_are_the_plain_ratio(self):
        eta = np.random.default_rng(7).uniform(-1.0, 1.0, 4000)
        cfg = MembershipConfig(lower_cut=0.15, upper_cut=0.85)
        s = np.abs(eta)
        inside = (s > cfg.lower_cut) & (s < cfg.upper_cut)
        want = (s[inside] - cfg.lower_cut) / (cfg.upper_cut - cfg.lower_cut)
        assert inside.sum() > 2000
        assert _membership(eta, cfg)[inside].tobytes() == want.tobytes()

    def test_cut_validation(self):
        with pytest.raises(ValidationError):
            MembershipConfig(lower_cut=0.9, upper_cut=0.1)
        with pytest.raises(ValidationError):
            MembershipConfig(lower_cut=-0.1)

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(-1, 1),
        st.floats(0, 1),
        st.floats(0, 1),
    )
    def test_range_property(self, eta, a, b):
        if a > b:
            a, b = b, a
        value = membership(eta, MembershipConfig(lower_cut=a, upper_cut=b))
        assert 0.0 <= value <= 1.0


class TestBuildVdg:
    def test_emits_only_significant_pairs(self):
        # rows a and b strongly tied; row c alternates independently of both
        n11, n10, n01, n00 = 40, 10, 10, 40
        c = [(u + 1) % 2 for u in range(100)]
        m = pair_matrix(n11, n10, n01, n00, extra_rows=[c])
        g = build_vdg(compute_eells(m), SignificanceConfig(), MembershipConfig())
        assert set(g.edges) == {(0, 1), (1, 0)}
        rho, quality = g.edges[(0, 1)]
        assert rho == pytest.approx(0.6, abs=1e-12)
        assert quality == POSITIVE

    def test_negative_association_gets_negative_quality(self):
        m = pair_matrix(10, 40, 40, 10)
        g = build_vdg(compute_eells(m), SignificanceConfig(), MembershipConfig())
        assert g.edges[(0, 1)][1] == NEGATIVE

    def test_membership_cut_can_drop_edges(self):
        m = pair_matrix(40, 10, 10, 40)  # |eta| = 0.6
        g = build_vdg(
            compute_eells(m),
            SignificanceConfig(),
            MembershipConfig(lower_cut=0.7, upper_cut=1.0),
        )
        assert g.edge_count == 0

    def test_unanimous_rows_emit_nothing(self):
        m = matrix_from_cells([[1, 1, 1, 1], [0, 0, 0, 0], [1, 0, 1, 0]])
        g = build_vdg(compute_eells(m), SignificanceConfig(), MembershipConfig())
        assert g.edge_count == 0

    @pytest.mark.parametrize("cuts", [(0.0, 1.0), (0.1, 0.6), (0.3, 0.3)])
    @pytest.mark.parametrize("z", [1.0, 1.96, 3.29])
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_per_pair_filter(self, seed, z, cuts):
        # unanimous rows, sparse rows (zero cells, Haldane correction) and
        # dense rows; tiny user counts leave many pairs undefined
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 16))
        k = int(rng.integers(1, 60))
        cells = (rng.random((n, k)) < rng.uniform(0.05, 0.95, (n, 1))).astype(np.int8)
        cells[0] = 0
        if n > 2:
            cells[1] = 1
        analysis = compute_eells(matrix_from_cells(cells))
        sig = SignificanceConfig(z_prime=z)
        mem = MembershipConfig(lower_cut=cuts[0], upper_cut=cuts[1])
        assert build_vdg(analysis, sig, mem).edges == per_pair_vdg_edges(analysis, sig, mem)

    def test_interval_end_at_one_takes_the_scalar_verdict(self):
        # z' = log(16) / 0.5 puts the lower end of the fixture's interval on
        # 1 (radius 0.5 z'), inside the band the array filter re-decides
        analysis = compute_eells(WOOLF_FIXTURE)
        sig = SignificanceConfig(z_prime=math.log(16.0) / 0.5)
        lower, _, _ = significance_test(analysis, 0, 1, sig)
        assert abs(math.log(lower)) < 1e-9
        mem = MembershipConfig()
        assert build_vdg(analysis, sig, mem).edges == per_pair_vdg_edges(analysis, sig, mem)
