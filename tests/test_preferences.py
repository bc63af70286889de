import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bisected_latent_correlation, binary_moments, phi2, quad_phi2
import reqsel
from reqsel import BinaryStats, PreferenceMatrix, ValidationError
from reqsel.errors import InputFormatError
from reqsel.preferences import (
    DegenerateMarginalError,
    InfeasibleCovarianceError,
    _phi2,
    _std_normal_cdf,
    binary_stats,
    fit_dichotomized_gaussian,
    load_preference_matrix,
    resampling_report,
    sample_dichotomized_gaussian,
    save_preference_matrix,
)


def random_matrix(n, k, seed, p=0.5):
    rng = np.random.default_rng(seed)
    cells = (rng.random((n, k)) < p).astype(np.int8)
    return PreferenceMatrix(
        tuple(f"r{i+1}" for i in range(n)),
        tuple(f"u{j+1}" for j in range(k)),
        cells,
    )


class TestPreferenceMatrix:
    def test_shape_properties(self):
        m = random_matrix(3, 7, 0)
        assert m.n == 3 and m.k == 7

    def test_rejects_non_binary_cells(self):
        with pytest.raises(ValidationError):
            PreferenceMatrix(("a",), ("u1",), np.array([[2]]))

    @pytest.mark.parametrize("cells", [np.array([[257, 0]]), np.array([[1.7, 0.0]]), [[-255, 0]]])
    def test_rejects_cells_before_the_int8_cast(self, cells):
        # an int8 cast would store 257 and 1.7 as 1 and overflow on -255
        with pytest.raises(ValidationError, match="must be 0 or 1"):
            PreferenceMatrix(("a",), ("u1", "u2"), cells)

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValidationError):
            PreferenceMatrix(("a", "a"), ("u1",), np.zeros((2, 1)))
        with pytest.raises(ValidationError):
            PreferenceMatrix(("a", "b"), ("u", "u"), np.zeros((2, 2)))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValidationError):
            PreferenceMatrix(("a", "b"), ("u1",), np.zeros((1, 1)))


class TestCsvRoundTrip:
    def test_round_trip_preserves_everything(self):
        m = random_matrix(4, 9, 3)
        buf = io.StringIO()
        save_preference_matrix(m, buf)
        back = load_preference_matrix(io.StringIO(buf.getvalue()))
        assert back.requirement_ids == m.requirement_ids
        assert back.user_ids == m.user_ids
        assert np.array_equal(back.cells, m.cells)

    def test_headerless_input_gets_default_user_ids(self):
        back = load_preference_matrix(io.StringIO("a,1,0\nb,0,1\n"))
        assert back.user_ids == ("u1", "u2")
        assert back.requirement_ids == ("a", "b")

    def test_comments_and_blanks_skipped(self):
        text = "# provenance\n\nreq_id,u1\na,1\n"
        back = load_preference_matrix(io.StringIO(text))
        assert back.requirement_ids == ("a",)

    def test_ragged_row_reports_line(self):
        with pytest.raises(InputFormatError, match="line 3"):
            load_preference_matrix(io.StringIO("a,1,0\nb,0,1\nc,1\n"))

    def test_repeated_id_reports_line(self):
        with pytest.raises(InputFormatError, match="line 4: requirement id 'a' repeats"):
            load_preference_matrix(io.StringIO("req_id,u1,u2\na,1,0\nb,0,1\na,1,1\n"))

    def test_non_binary_cell_reports_position(self):
        with pytest.raises(InputFormatError, match="line 2, column 3"):
            load_preference_matrix(io.StringIO("a,1,0\nb,1,5\n"))

    def test_empty_input_rejected(self):
        with pytest.raises(InputFormatError):
            load_preference_matrix(io.StringIO("# nothing\n"))

    def test_csv_field_over_the_limit_reports_line(self):
        # a stray quote on line 1 opens a field that runs past csv's limit
        row = ",".join(["1", "0"] * 40)
        text = '"' + "".join(f"r{i},{row}\n" for i in range(2000))
        with pytest.raises(InputFormatError, match=r"line \d+: field larger than field limit"):
            load_preference_matrix(io.StringIO(text))


class TestBinaryStats:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_two_pass_oracle(self, seed):
        m = random_matrix(5, 40, seed, p=0.4)
        stats = binary_stats(m)
        means, cov = binary_moments(m.cells)
        assert np.abs(stats.means - means).max() < 1e-12
        assert np.abs(stats.covariance - cov).max() < 1e-12

    def test_validation_catches_bad_diagonal(self):
        with pytest.raises(ValidationError):
            BinaryStats(means=np.array([0.5]), covariance=np.array([[0.3]]))


def bivariate_normal_cdf(a, b, rho):
    """Phi2(a, b; rho) through the Owen's T kernel the DG fit runs on arrays."""
    return float(_phi2(a, b, rho, _std_normal_cdf(a), _std_normal_cdf(b)))


class TestBivariateNormalCdf:
    @pytest.mark.parametrize("rho", [-0.9, -0.4, 0.0, 0.3, 0.8])
    def test_matches_scipy_on_grid(self, rho):
        for a in (-1.5, -0.2, 0.0, 0.7, 2.0):
            for b in (-2.0, -0.3, 0.5, 1.2):
                assert bivariate_normal_cdf(a, b, rho) == pytest.approx(
                    phi2(a, b, rho), abs=1e-8
                )

    def test_degenerate_correlations(self):
        from scipy.stats import norm

        assert bivariate_normal_cdf(0.3, 1.0, 1.0) == pytest.approx(
            norm.cdf(0.3), abs=1e-12
        )
        assert bivariate_normal_cdf(0.3, -0.3, -1.0) == pytest.approx(
            max(0.0, norm.cdf(0.3) + norm.cdf(-0.3) - 1.0), abs=1e-12
        )

    @pytest.mark.parametrize("rho", [-0.95, -0.3, 0.0, 0.45, 0.99])
    def test_zero_thresholds_match_quadrature(self, rho):
        # a zero threshold sends Owen's T argument to +-inf (T = +-1/4); two
        # zero thresholds have the closed form 1/4 + asin(rho) / (2 pi)
        for a, b in ((0.0, 0.0), (0.0, 1.3), (0.0, -0.8), (-2.1, 0.0), (0.6, 0.0)):
            assert bivariate_normal_cdf(a, b, rho) == pytest.approx(
                quad_phi2(a, b, rho), abs=1e-9
            )
        assert bivariate_normal_cdf(0.0, 0.0, rho) == pytest.approx(
            0.25 + math.asin(rho) / (2.0 * math.pi), abs=1e-15
        )

    def test_near_unit_correlation_meets_closed_form_limits(self):
        from scipy.stats import norm

        for a in (-2.0, -0.7, 0.0, 0.4, 1.5):
            for b in (-1.2, 0.0, 0.4, 2.2):
                upper = norm.cdf(min(a, b))
                lower = max(0.0, norm.cdf(a) + norm.cdf(b) - 1.0)
                assert bivariate_normal_cdf(a, b, 1.0 - 1e-9) == pytest.approx(upper, abs=1e-5)
                assert bivariate_normal_cdf(a, b, -1.0 + 1e-9) == pytest.approx(lower, abs=1e-5)


class TestFit:
    def test_thresholds_invert_the_means(self):
        from scipy.stats import norm

        m = random_matrix(4, 250, 7)
        stats = binary_stats(m)
        model = fit_dichotomized_gaussian(stats)
        assert np.abs(model.thresholds - norm.ppf(stats.means)).max() < 1e-9

    def test_latent_correlation_reproduces_joint_probabilities(self):
        m = random_matrix(4, 250, 8)
        stats = binary_stats(m)
        model = fit_dichotomized_gaussian(stats)
        for i in range(4):
            for j in range(i + 1, 4):
                target = stats.means[i] * stats.means[j] + stats.covariance[i, j]
                got = phi2(
                    model.thresholds[i],
                    model.thresholds[j],
                    model.latent_correlation[i, j],
                )
                assert got == pytest.approx(target, abs=1e-5)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_scalar_quadrature_bisection(self, seed):
        # two rows at a mean of exactly 0.5 (zero thresholds); 200 users keep
        # every pair clear of the Frechet bounds
        rng = np.random.default_rng(seed)
        n, k = 3 + seed % 3, 200
        cells = (rng.random((n, k)) < rng.uniform(0.3, 0.7, (n, 1))).astype(np.int8)
        for row in (0, 1):
            cells[row] = 0
            cells[row, rng.permutation(k)[: k // 2]] = 1
        stats = binary_stats(
            PreferenceMatrix(tuple(f"r{i}" for i in range(n)), tuple(f"u{j}" for j in range(k)), cells)
        )
        model = fit_dichotomized_gaussian(stats)
        assert not model.psd_repaired
        assert np.array_equal(
            model.latent_correlation, bisected_latent_correlation(stats.means, stats.covariance)
        )

    def test_independent_zero_threshold_pair_matches_bisection(self):
        # every mean is 0.5 and rows 1 and 3 are uncorrelated: the target
        # equals Phi2 at the first midpoint, rho = 0, exactly
        r1 = [1] * 50 + [0] * 50
        r2 = [1] * 40 + [0] * 10 + [1] * 10 + [0] * 40
        r3 = [i % 2 for i in range(100)]
        stats = binary_stats(
            PreferenceMatrix(("r1", "r2", "r3"), tuple(f"u{j}" for j in range(100)), [r1, r2, r3])
        )
        assert stats.covariance[0, 2] == 0.0
        model = fit_dichotomized_gaussian(stats)
        assert np.array_equal(
            model.latent_correlation, bisected_latent_correlation(stats.means, stats.covariance)
        )

    def test_nested_pair_fits_near_one(self):
        # every user who wants r1 also wants r2: the joint probability sits
        # on the upper Frechet bound, which is feasible
        r1 = [1] * 30 + [0] * 70
        r2 = [1] * 60 + [0] * 40
        stats = binary_stats(
            PreferenceMatrix(("r1", "r2"), tuple(f"u{j}" for j in range(100)), [r1, r2])
        )
        model = fit_dichotomized_gaussian(stats)
        assert 0.99 < model.latent_correlation[0, 1] < 1.0

    def test_covering_pair_fits_near_minus_one(self):
        # every user wants r1 or r2: the joint probability 0.3 sits on the
        # lower Frechet bound 0.6 + 0.7 - 1, which is feasible
        r1 = [1] * 60 + [0] * 40
        r2 = [0] * 30 + [1] * 70
        stats = binary_stats(
            PreferenceMatrix(("r1", "r2"), tuple(f"u{j}" for j in range(100)), [r1, r2])
        )
        model = fit_dichotomized_gaussian(stats)
        assert -1.0 < model.latent_correlation[0, 1] < -0.99

    def test_degenerate_marginal_raises(self):
        cells = np.ones((2, 10), dtype=np.int8)
        cells[1, ::2] = 0
        m = PreferenceMatrix(("a", "b"), tuple(f"u{i}" for i in range(10)), cells)
        with pytest.raises(DegenerateMarginalError):
            fit_dichotomized_gaussian(binary_stats(m))

    def test_frechet_violation_raises(self):
        # means (0.9, 0.1) cap the joint probability at 0.1; covariance 0.05
        # asks for 0.14
        stats = BinaryStats(
            means=np.array([0.9, 0.1]),
            covariance=np.array([[0.09, 0.05], [0.05, 0.09]]),
        )
        with pytest.raises(InfeasibleCovarianceError):
            fit_dichotomized_gaussian(stats)

    def test_pairwise_feasible_jointly_inconsistent_gets_repaired(self):
        # three mutually negative pairs are pairwise fine but have no joint
        # latent correlation matrix; the fit must repair and say so
        stats = BinaryStats(
            means=np.full(3, 0.5),
            covariance=np.full((3, 3), -0.12) + np.eye(3) * 0.37,
        )
        model = fit_dichotomized_gaussian(stats)
        assert model.psd_repaired
        assert model.repair_shift > 0
        assert np.linalg.eigvalsh(model.latent_correlation).min() > -1e-9


class TestSampling:
    def test_identical_seed_identical_samples(self):
        model = fit_dichotomized_gaussian(binary_stats(random_matrix(3, 100, 1)))
        a = sample_dichotomized_gaussian(model, 500, seed=9)
        b = sample_dichotomized_gaussian(model, 500, seed=9)
        assert np.array_equal(a.cells, b.cells)

    def test_different_seed_differs(self):
        model = fit_dichotomized_gaussian(binary_stats(random_matrix(3, 100, 1)))
        a = sample_dichotomized_gaussian(model, 500, seed=9)
        b = sample_dichotomized_gaussian(model, 500, seed=10)
        assert not np.array_equal(a.cells, b.cells)

    def test_moments_converge_to_source(self):
        src = binary_stats(random_matrix(4, 200, 21))
        model = fit_dichotomized_gaussian(src)
        sampled = sample_dichotomized_gaussian(model, 20000, seed=0)
        report = resampling_report(src, binary_stats(sampled))
        assert report.max_mean_gap < 0.02
        assert report.max_covariance_gap < 0.03

    def test_requirement_ids_carried(self):
        model = fit_dichotomized_gaussian(binary_stats(random_matrix(2, 60, 2)))
        s = sample_dichotomized_gaussian(model, 10, seed=0, requirement_ids=("x", "y"))
        assert s.requirement_ids == ("x", "y")

    def test_count_validation(self):
        model = fit_dichotomized_gaussian(binary_stats(random_matrix(2, 60, 2)))
        with pytest.raises(ValidationError):
            sample_dichotomized_gaussian(model, 0, seed=0)
        with pytest.raises(ValidationError, match="seed"):
            sample_dichotomized_gaussian(model, 10, seed=-1)


class TestResamplingReport:
    def test_gap_arithmetic(self):
        a = BinaryStats(means=np.array([0.5]), covariance=np.array([[0.25]]))
        b = BinaryStats(means=np.array([0.4]), covariance=np.array([[0.24]]))
        rep = resampling_report(a, b)
        assert rep.max_mean_gap == pytest.approx(0.1)
        assert rep.max_covariance_gap == pytest.approx(0.01)

    def test_dimension_mismatch(self):
        a = BinaryStats(means=np.array([0.5]), covariance=np.array([[0.25]]))
        b = BinaryStats(means=np.array([0.5, 0.5]), covariance=np.eye(2) * 0.25)
        with pytest.raises(ValidationError):
            resampling_report(a, b)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(5, 60), st.integers(0, 10_000))
def test_stats_oracle_property(n, k, seed):
    m = random_matrix(n, k, seed, p=0.5)
    stats = binary_stats(m)
    means, cov = binary_moments(m.cells)
    assert np.abs(stats.means - means).max() < 1e-12
    assert np.abs(stats.covariance - cov).max() < 1e-10


def test_import_reqsel_leaves_scipy_special_unloaded():
    # only the DG fit needs scipy.special, and loading it dominated `import reqsel`
    src = str(Path(reqsel.__file__).resolve().parents[1])
    code = "import sys, reqsel; print('scipy.special' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"
