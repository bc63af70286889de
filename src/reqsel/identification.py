"""Eells causal strengths, odds-ratio significance filtering, and value
dependency graph construction from a preference matrix.

For an ordered requirement pair the Eells measure

    eta(i, j) = p(r_i | r_j) - p(r_i | not r_j)

contrasts how often users want r_i when they want r_j against how often they
want r_i while ignoring r_j. Positive eta means r_j's presence supports
r_i's value, negative means it hurts; |eta| is the strength. The conditional
probabilities come from a single tally pass: with u users,

    counts[i, j]     = users wanting both r_i and r_j
    counts[i, j + n] = users wanting r_i while ignoring r_j

so p(r_i | r_j) = counts[i, j] / counts[j, j] and
p(r_i | not r_j) = counts[i, j + n] / (u - counts[j, j]). Pairs without
counterfactual evidence (r_j wanted by all users or by none) get eta = 0 and
are treated as insignificant.

Sampling noise is filtered with the Woolf confidence interval of the odds
ratio

    omega = (p11 * p00) / (p10 * p01),

whose log-scale radius is z' * sqrt(1/n11 + 1/n00 + 1/n10 + 1/n01); a pair
is significant iff the exponentiated interval excludes 1. Zero cells take
the Haldane-Anscombe correction (+0.5 on all four cells). Surviving pairs
map into graph edges with strength membership(|eta|) and quality given by
the sign of eta.

Each `CausalAnalysis` builds one table of corrected cells on first use:
omega, the radius per unit z', and whether the pair is defined, as n x n
arrays. The table does not depend on z', and it serves `build_vdg` and the
per-pair `odds_ratio` and `significance_test` alike. Its products,
quotients, sums and square roots are correctly rounded in numpy as in
Python, so it equals the scalar formulas bit for bit; the logarithm and
exponential stay scalar `math` calls per pair, which keeps the all-pairs
report `repr`-exact. `build_vdg` decides every pair from the signs of
log omega -/+ z' * radius (the interval excludes 1 iff its lower log end is
positive or its upper log end negative). The array logarithm may differ
from `math.log` by an ulp, so a pair with either log end within 1e-9 of 0
is re-decided by the scalar `significance_test`; outside that band both
agree on the sign, and the edge set equals the per-pair filter's exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dependency_graph import NEGATIVE, POSITIVE, ValueDependencyGraph
from .errors import ValidationError
from .preferences import PreferenceMatrix


# Pairs whose log interval end lies this close to 0 are re-decided by the
# scalar significance_test (see the module docstring).
_RECHECK_BAND = 1e-9

# Users per compute_eells tally block.
_EELLS_BLOCK = 4096


@dataclass(frozen=True)
class CausalAnalysis:
    """Tallies and derived matrices for every ordered requirement pair."""

    n: int
    counts: np.ndarray
    eells: np.ndarray
    user_count: int

    def __post_init__(self) -> None:
        if self.counts.shape != (self.n, 2 * self.n):
            raise ValidationError("count matrix must be n x 2n")
        if self.eells.shape != (self.n, self.n):
            raise ValidationError("eells must be n x n")
        if self.user_count < 1:
            raise ValidationError("user count must be positive")

    @functools.cached_property
    def woolf_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(omega, radius per unit z', defined) for every ordered pair, from
        the Haldane-Anscombe corrected cells (+0.5 on all four when any is
        zero); defined: r_j was wanted by some users and ignored by others."""
        n = self.n
        n11 = self.counts[:, :n].astype(np.float64)
        n10 = self.counts[:, n:].astype(np.float64)
        n01 = n10.T
        n00 = float(self.user_count) - n11 - n10 - n01
        zero = (n11 == 0.0) | (n10 == 0.0) | (n01 == 0.0) | (n00 == 0.0)
        half = np.where(zero, 0.5, 0.0)
        n11, n10, n01, n00 = n11 + half, n10 + half, n01 + half, n00 + half
        omega = (n11 * n00) / (n10 * n01)
        root = np.sqrt(1.0 / n11 + 1.0 / n00 + 1.0 / n10 + 1.0 / n01)
        wanted = np.diag(self.counts[:, :n])
        defined = ((wanted > 0) & (wanted < self.user_count))[None, :] & ~np.eye(n, dtype=bool)
        for table in (omega, root, defined):
            table.flags.writeable = False  # shared by every caller
        return omega, root, defined


@dataclass(frozen=True)
class SignificanceConfig:
    z_prime: float = 1.96

    def __post_init__(self) -> None:
        if not (math.isfinite(self.z_prime) and self.z_prime > 0):
            raise ValidationError(f"critical value z' must be finite and > 0, got {self.z_prime}")


@dataclass(frozen=True)
class MembershipConfig:
    lower_cut: float = 0.0
    upper_cut: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.lower_cut <= self.upper_cut <= 1.0:
            raise ValidationError("membership cuts must satisfy 0 <= a <= b <= 1")


def compute_eells(m: PreferenceMatrix) -> CausalAnalysis:
    """One tally pass over the matrix, then element-wise ratios.

    The selected x selected block is a float64 matrix product summed over
    blocks of _EELLS_BLOCK users, so the float64 copy never exceeds
    n x _EELLS_BLOCK and the time stays linear in k (0/1 sums are exact
    below 2^53 in any order). Its diagonal holds the row totals, and
    selected x ignored is those totals minus it, so the whole analysis is
    O(k n^2). Counts are returned as int64.
    """
    k = m.k
    co = np.zeros((m.n, m.n))
    for start in range(0, k, _EELLS_BLOCK):
        x = m.cells[:, start : start + _EELLS_BLOCK].astype(np.float64)
        co += x @ x.T
    wanted = np.diag(co).copy()
    anti = wanted[:, None] - co
    counts = np.hstack([co, anti]).astype(np.int64)

    pos_ok = wanted > 0
    neg_ok = wanted < k
    cond_pos = np.where(pos_ok[None, :], co / np.where(pos_ok, wanted, 1.0)[None, :], 0.0)
    cond_neg = np.where(neg_ok[None, :], anti / np.where(neg_ok, k - wanted, 1.0)[None, :], 0.0)
    eells = np.where((pos_ok & neg_ok)[None, :], cond_pos - cond_neg, 0.0)
    np.fill_diagonal(eells, 0.0)
    return CausalAnalysis(n=m.n, counts=counts, eells=eells, user_count=k)


def odds_ratio(analysis: CausalAnalysis, i: int, j: int) -> float:
    """omega = (n11 * n00) / (n10 * n01); symmetric in (i, j) exactly."""
    if i == j:
        raise ValidationError("odds ratios require two distinct requirements")
    return analysis.woolf_table[0].item(i, j)


def significance_test(
    analysis: CausalAnalysis, i: int, j: int, cfg: SignificanceConfig
) -> tuple[float, float, bool]:
    """Woolf interval for omega(i, j); significant iff it excludes 1.

    The radius written as (z'/sqrt(u)) * sqrt(sum of reciprocal joint
    probabilities) equals z' * sqrt(sum of reciprocal cell counts), which is
    what gets computed (the corrected total cancels the same way). Pairs
    without counterfactual evidence are reported insignificant regardless of
    the interval.
    """
    if i == j:
        raise ValidationError("odds ratios require two distinct requirements")
    omega, root, defined = analysis.woolf_table
    log_omega = math.log(omega.item(i, j))
    radius = cfg.z_prime * root.item(i, j)
    lower = math.exp(log_omega - radius)
    upper = math.exp(log_omega + radius)
    return lower, upper, defined.item(i, j) and not (lower <= 1.0 <= upper)


def _membership(eta: np.ndarray, cfg: MembershipConfig) -> np.ndarray:
    s = np.abs(eta)
    width = cfg.upper_cut - cfg.lower_cut
    # clipped to the cuts first, so a subnormal width cannot overflow the
    # division; the values between the cuts are divided as they are
    linear = (np.clip(s, cfg.lower_cut, cfg.upper_cut) - cfg.lower_cut) / (width if width > 0.0 else 1.0)
    return np.where(s <= cfg.lower_cut, 0.0, np.where(s >= cfg.upper_cut, 1.0, linear))


def membership(eta: float, cfg: MembershipConfig) -> float:
    """Map |eta| through the piecewise-linear membership function.

    With cuts (a, b): 0 at or below a, 1 at or above b, linear in between.
    The defaults (0, 1) reduce to rho = |eta|. `build_vdg` applies the same
    map to the whole eta matrix.
    """
    return float(_membership(eta, cfg))


def build_vdg(
    analysis: CausalAnalysis, sig: SignificanceConfig, mem: MembershipConfig
) -> ValueDependencyGraph:
    """Emit an edge per significant pair with non-zero membership strength.

    Edge (i -> j) states that r_i's value depends on r_j; its quality is the
    sign of eta(i, j). Insignificant pairs and strengths mapped to zero emit
    no edge (absence means strength 0 with non-specified quality).
    """
    omega, root, defined = analysis.woolf_table
    log_omega = np.log(omega)
    radius = sig.z_prime * root
    lower, upper = log_omega - radius, log_omega + radius
    significant = (lower > 0.0) | (upper < 0.0)
    band = defined & ((np.abs(lower) < _RECHECK_BAND) | (np.abs(upper) < _RECHECK_BAND))
    for i, j in zip(*np.nonzero(band)):
        significant[i, j] = significance_test(analysis, int(i), int(j), sig)[2]
    rho = _membership(analysis.eells, mem)
    rows, cols = np.nonzero(defined & significant & (rho > 0.0))
    eta = analysis.eells[rows, cols]
    qualities = np.where(eta > 0, POSITIVE, NEGATIVE).tolist()
    edges = dict(
        zip(zip(rows.tolist(), cols.tolist()), zip(rho[rows, cols].tolist(), qualities))
    )
    return ValueDependencyGraph(n=analysis.n, edges=edges)
