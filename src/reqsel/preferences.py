"""Binary user-preference matrices: loading, summary statistics, and
dichotomized-Gaussian resampling.

A preference matrix records, for each requirement (row) and each user
(column), whether the user wants the requirement. Resampling fits a latent
Gaussian model to the observed first and second moments so that arbitrarily
many synthetic users with the same statistics can be drawn: a latent vector
z ~ Normal(gamma, Lambda) with unit marginal variances is cut at zero and
cell i is 1 iff z_i > 0. Means are matched through the thresholds

    gamma_i = Phi^-1(mean_i)

and each pairwise covariance through the latent correlation Lambda_ij, the
solution of

    Phi2(gamma_i, gamma_j; Lambda_ij) = mean_i * mean_j + cov_ij

where Phi2 is the standard bivariate normal CDF, evaluated through Owen's T
function (Owen 1956; Genz 2004). The left side is continuous and
non-decreasing in Lambda_ij, so bisection converges, and all pairs are
bisected together as arrays; the right side is a joint probability and must
lie inside the Frechet bounds

    max(0, mean_i + mean_j - 1) <= p <= min(mean_i, mean_j)

or no latent correlation exists. Pairwise fitting does not guarantee a
positive semidefinite Lambda, so negative eigenvalues are clipped and the
diagonal renormalized, with the repair magnitude reported on the model.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

from .errors import (
    DegenerateMarginalError,
    InfeasibleCovarianceError,
    InputFormatError,
    ValidationError,
    check_distinct,
    read_rows,
)

_SQRT2 = math.sqrt(2.0)


def _std_normal_cdf(t: float) -> float:
    return 0.5 * math.erfc(-t / _SQRT2)


@dataclass(frozen=True)
class PreferenceMatrix:
    """Binary matrix, rows = requirements, columns = users."""

    requirement_ids: tuple[str, ...]
    user_ids: tuple[str, ...]
    cells: np.ndarray

    def __post_init__(self) -> None:
        # checked before the int8 cast, which would wrap 257 and truncate 1.7 to 1
        cells = np.asarray(self.cells)
        object.__setattr__(self, "requirement_ids", tuple(self.requirement_ids))
        object.__setattr__(self, "user_ids", tuple(self.user_ids))
        n, k = len(self.requirement_ids), len(self.user_ids)
        if n < 1 or k < 1:
            raise ValidationError("a preference matrix needs at least one requirement and one user")
        if cells.shape != (n, k):
            raise ValidationError(f"cell block has shape {cells.shape}, expected {(n, k)}")
        if len(set(self.requirement_ids)) != n:
            raise ValidationError("duplicate requirement ids")
        if len(set(self.user_ids)) != k:
            raise ValidationError("duplicate user ids")
        if not np.isin(cells, (0, 1)).all():
            raise ValidationError("preference cells must be 0 or 1")
        object.__setattr__(self, "cells", cells.astype(np.int8, copy=False))

    @property
    def n(self) -> int:
        return len(self.requirement_ids)

    @property
    def k(self) -> int:
        return len(self.user_ids)


@dataclass(frozen=True)
class BinaryStats:
    """Per-requirement means and the population covariance matrix."""

    means: np.ndarray
    covariance: np.ndarray

    def __post_init__(self) -> None:
        means = np.asarray(self.means, dtype=np.float64)
        cov = np.asarray(self.covariance, dtype=np.float64)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "covariance", cov)
        n = means.shape[0]
        if means.ndim != 1 or cov.shape != (n, n):
            raise ValidationError("means must be a vector and covariance a matching square matrix")
        if ((means < 0) | (means > 1)).any():
            raise ValidationError("means of binary variables must lie in [0, 1]")
        if not np.allclose(cov, cov.T, atol=1e-12, rtol=0):
            raise ValidationError("covariance matrix must be symmetric")
        if np.abs(np.diag(cov) - means * (1.0 - means)).max() > 1e-12:
            raise ValidationError("binary variance must equal mean*(1-mean)")
        if np.abs(cov).max() > 0.25 + 1e-12:
            raise ValidationError("binary covariances cannot exceed 0.25 in magnitude")

    @property
    def n(self) -> int:
        return self.means.shape[0]


@dataclass(frozen=True)
class DichotomizedGaussianModel:
    """Latent Normal(gamma, Lambda) cut at zero; unit latent variances."""

    thresholds: np.ndarray
    latent_correlation: np.ndarray
    psd_repaired: bool = False
    repair_shift: float = 0.0

    def __post_init__(self) -> None:
        gamma = np.asarray(self.thresholds, dtype=np.float64)
        lam = np.asarray(self.latent_correlation, dtype=np.float64)
        object.__setattr__(self, "thresholds", gamma)
        object.__setattr__(self, "latent_correlation", lam)
        n = gamma.shape[0]
        if gamma.ndim != 1 or lam.shape != (n, n):
            raise ValidationError("threshold vector and correlation matrix dimensions disagree")
        if not np.allclose(lam, lam.T, atol=1e-12, rtol=0):
            raise ValidationError("latent correlation matrix must be symmetric")
        if np.abs(np.diag(lam) - 1.0).max() > 1e-12:
            raise ValidationError("latent correlation matrix must have unit diagonal")
        off = lam[~np.eye(n, dtype=bool)]
        if off.size and (np.abs(off) >= 1.0).any():
            raise ValidationError("latent correlations must lie strictly inside (-1, 1)")
        if n > 1 and np.linalg.eigvalsh(lam).min() < -1e-9:
            raise ValidationError("latent correlation matrix is not PSD within tolerance")

    @property
    def n(self) -> int:
        return self.thresholds.shape[0]


@dataclass(frozen=True)
class ResamplingReport:
    """Largest absolute gaps between two stat summaries."""

    max_mean_gap: float
    max_covariance_gap: float


_BINARY_TOKENS = {"0", "1"}


def load_preference_matrix(source: IO[str] | Iterable[str]) -> PreferenceMatrix:
    """Parse `req_id,u1,u2,...` CSV rows with 0/1 cells.

    A leading header row of user ids is detected by any non-binary token in
    its data columns. The line and repeated-id rules are those of `errors`.
    """
    records, _ = read_rows(source)
    if not records:
        raise InputFormatError("preference CSV holds no data rows")

    first_line, first = records[0]
    if len(first) < 2:
        raise InputFormatError(f"line {first_line}: a data row needs an id plus at least one cell")
    if any(cell not in _BINARY_TOKENS for cell in first[1:]):
        user_ids = tuple(first[1:])
        data = records[1:]
        if not data:
            raise InputFormatError("preference CSV holds a header but no data rows")
    else:
        user_ids = tuple(f"u{i + 1}" for i in range(len(first) - 1))
        data = records

    width = len(user_ids) + 1
    requirement_ids: list[str] = []
    rows: list[list[int]] = []
    for lineno, record in data:
        if len(record) != width:
            raise InputFormatError(
                f"line {lineno}: expected {width} fields, found {len(record)} (ragged row)"
            )
        requirement_ids.append(record[0])
        row = []
        for col, cell in enumerate(record[1:], start=2):
            if cell not in _BINARY_TOKENS:
                raise InputFormatError(f"line {lineno}, column {col}: non-binary cell {cell!r}")
            row.append(int(cell))
        rows.append(row)
    check_distinct(requirement_ids, [lineno for lineno, _ in data], "preference CSV")
    return PreferenceMatrix(tuple(requirement_ids), user_ids, np.array(rows, dtype=np.int8))


def save_preference_matrix(m: PreferenceMatrix, sink: IO[str]) -> None:
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(["req_id", *m.user_ids])
    for rid, row in zip(m.requirement_ids, m.cells):
        writer.writerow([rid, *row.tolist()])


def binary_stats(m: PreferenceMatrix) -> BinaryStats:
    """Row means and population covariance E[x_i x_j] - mean_i * mean_j."""
    x = m.cells.astype(np.float64)
    means = x.mean(axis=1)
    cov = (x @ x.T) / m.k - np.outer(means, means)
    cov = (cov + cov.T) / 2.0
    return BinaryStats(means=means, covariance=cov)


def _phi2(
    a: np.ndarray, b: np.ndarray, rho: np.ndarray, pa: np.ndarray, pb: np.ndarray
) -> np.ndarray:
    """Element-wise Phi2(a, b; rho), given pa = Phi(a) and pb = Phi(b), by
    Owen's T function (Owen 1956):

        Phi2 = (Phi(a) + Phi(b)) / 2 - T(a, alpha_a) - T(b, alpha_b) - beta,
        alpha_a = (b - rho a) / (a sqrt(1 - rho^2)),  alpha_b likewise,

    with beta = 1/2 when a b < 0, or a b = 0 and a + b < 0, else 0 (see
    Genz 2004, Stat. Comput. 14, for this and other Phi2 algorithms). At a
    zero threshold T(0, alpha) = atan(alpha) / 2 pi, so alpha = +-inf gives
    T = +-1/4; with both thresholds zero, alpha_a = alpha_b = (1 - rho) /
    sqrt(1 - rho^2), the a = b limit. rho = 0 is the product Phi(a) Phi(b),
    and |rho| within 1e-12 of 1 takes the closed-form limits Phi(min(a, b))
    and max(0, Phi(a) + Phi(b) - 1).
    """
    from scipy import special  # loaded by the DG fit only, not by `import reqsel`

    a, b, rho, pa, pb = np.broadcast_arrays(
        *(np.asarray(v, dtype=np.float64) for v in (a, b, rho, pa, pb))
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.sqrt(1.0 - rho * rho)
        both_zero = (a == 0.0) & (b == 0.0)
        alpha_a = np.where(both_zero, (1.0 - rho) / s, (b - rho * a) / (a * s))
        alpha_b = np.where(both_zero, (1.0 - rho) / s, (a - rho * b) / (b * s))
        alpha_a = np.where((a == 0.0) & ~both_zero, np.copysign(np.inf, b), alpha_a)
        alpha_b = np.where((b == 0.0) & ~both_zero, np.copysign(np.inf, a), alpha_b)
        ab = a * b
        beta = np.where((ab < 0.0) | ((ab == 0.0) & (a + b < 0.0)), 0.5, 0.0)
        value = 0.5 * (pa + pb) - special.owens_t(a, alpha_a) - special.owens_t(b, alpha_b) - beta
    value = np.where(rho == 0.0, pa * pb, value)
    value = np.where(rho >= 1.0 - 1e-12, np.minimum(pa, pb), value)
    value = np.where(rho <= -1.0 + 1e-12, np.maximum(0.0, pa + pb - 1.0), value)
    return np.clip(value, 0.0, 1.0)


def fit_dichotomized_gaussian(stats: BinaryStats) -> DichotomizedGaussianModel:
    """Latent thresholds from the means, latent correlations by bisection.

    Every pair i < j is bisected at once on Phi2 (Owen's T form) over
    [-1 + 1e-9, 1 - 1e-9] down to a width of 1e-6, and the midpoint of the
    last bracket is the latent correlation.

    Raises DegenerateMarginalError for means of 0 or 1 (infinite threshold)
    and InfeasibleCovarianceError when a pairwise joint probability lies
    more than 1e-9 outside its closed-form Frechet bounds. The pairwise
    matrix is repaired to PSD by clipping negative eigenvalues at 1e-9 and
    renormalizing the diagonal.
    """
    means = stats.means
    for idx, mean in enumerate(means):
        if mean <= 0.0 or mean >= 1.0:
            raise DegenerateMarginalError(
                f"requirement index {idx}: mean {mean} is degenerate; drop the row before fitting"
            )
    from scipy import special
    gamma = special.ndtri(means)
    n = stats.n
    iu, ju = np.triu_indices(n, 1)
    gi, gj = gamma[iu], gamma[ju]
    target = means[iu] * means[ju] + stats.covariance[iu, ju]
    cdf = np.array([_std_normal_cdf(g) for g in gamma])
    mi, mj = cdf[iu], cdf[ju]
    floor = np.maximum(0.0, mi + mj - 1.0)
    ceiling = np.minimum(mi, mj)
    infeasible = np.nonzero((target < floor - 1e-9) | (target > ceiling + 1e-9))[0]
    if infeasible.size:
        p = infeasible[0]
        raise InfeasibleCovarianceError(
            f"joint probability {target[p]:.6f} outside the Frechet bounds "
            f"[{floor[p]:.6f}, {ceiling[p]:.6f}]"
        )
    lo = np.full(target.shape, -1.0 + 1e-9)
    hi = np.full(target.shape, 1.0 - 1e-9)
    active = hi - lo > 1e-6
    while active.any():
        mid = 0.5 * (lo + hi)
        below = _phi2(gi, gj, mid, mi, mj) < target
        lo = np.where(active & below, mid, lo)
        hi = np.where(active & ~below, mid, hi)
        active = hi - lo > 1e-6
    lam = np.eye(n)
    lam[iu, ju] = lam[ju, iu] = 0.5 * (lo + hi)

    repaired = False
    shift = 0.0
    if n > 1:
        smallest = float(np.linalg.eigvalsh(lam).min())
        if smallest < -1e-9:
            repaired = True
            shift = -smallest
            w, v = np.linalg.eigh(lam)
            lam = (v * np.clip(w, 1e-9, None)) @ v.T
            scale = np.sqrt(np.diag(lam))
            lam = lam / np.outer(scale, scale)
            lam = (lam + lam.T) / 2.0
            np.fill_diagonal(lam, 1.0)
            off = ~np.eye(n, dtype=bool)
            lam[off] = np.clip(lam[off], -1.0 + 1e-12, 1.0 - 1e-12)
    return DichotomizedGaussianModel(
        thresholds=gamma, latent_correlation=lam, psd_repaired=repaired, repair_shift=shift
    )


def sample_dichotomized_gaussian(
    model: DichotomizedGaussianModel,
    count: int,
    seed: int,
    requirement_ids: tuple[str, ...] | None = None,
) -> PreferenceMatrix:
    """Draw `count` synthetic users; deterministic for a fixed seed.

    Latent draws use the eigenfactorization of Lambda (valid for any PSD
    matrix, including repaired ones). Work may be sharded by splitting count
    and deriving per-shard seeds as seed + shard index; shards concatenate in
    shard order to the same distribution.
    """
    if count < 1:
        raise ValidationError("sample count must be at least 1")
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    n = model.n
    if requirement_ids is None:
        requirement_ids = tuple(f"r{i + 1}" for i in range(n))
    if len(requirement_ids) != n:
        raise ValidationError("requirement id count does not match the model dimension")
    rng = np.random.default_rng(seed)
    w, v = np.linalg.eigh(model.latent_correlation)
    factor = v * np.sqrt(np.clip(w, 0.0, None))
    z = model.thresholds[:, None] + factor @ rng.standard_normal((n, count))
    cells = (z > 0).astype(np.int8)
    user_ids = tuple(f"u{i + 1}" for i in range(count))
    return PreferenceMatrix(requirement_ids, user_ids, cells)


def resampling_report(original: BinaryStats, resampled: BinaryStats) -> ResamplingReport:
    """Largest mean and covariance deviations between source and resample."""
    if original.n != resampled.n:
        raise ValidationError(
            f"stat dimensions disagree: {original.n} vs {resampled.n}"
        )
    return ResamplingReport(
        max_mean_gap=float(np.abs(original.means - resampled.means).max()),
        max_covariance_gap=float(np.abs(original.covariance - resampled.covariance).max()),
    )
