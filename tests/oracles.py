"""Independent reference implementations used by the test suite.

Everything here favors directness over speed: per-user loops and textbook
formulas, sharing no code with the vectorized package internals they check.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
from scipy import integrate
from scipy.stats import multivariate_normal, norm

from reqsel import (
    BK,
    BUDGET_COST,
    DARS,
    PCBK,
    SBK,
    Conflicts,
    ExactlyOne,
    InfluenceMatrix,
    RequiresAll,
    RequiresAny,
    SelectionProblem,
    ValidationError,
    ValueDependencyGraph,
)
from reqsel.dependency_graph import NEGATIVE, POSITIVE
from reqsel.selection_models import INCREASE_DECREASE


def contingency(cells: np.ndarray, i: int, j: int) -> tuple[int, int, int, int]:
    """(n11, n10, n01, n00) over users: first index is r_i, second is r_j."""
    n11 = n10 = n01 = n00 = 0
    for u in range(cells.shape[1]):
        a, b = int(cells[i, u]), int(cells[j, u])
        if a and b:
            n11 += 1
        elif a and not b:
            n10 += 1
        elif not a and b:
            n01 += 1
        else:
            n00 += 1
    return n11, n10, n01, n00


def causal_strength(cells: np.ndarray, i: int, j: int) -> float:
    """p(r_i | r_j) - p(r_i | not r_j), zero when either side is undefined."""
    n11, n10, n01, n00 = contingency(cells, i, j)
    chose_j = n11 + n01
    skipped_j = n10 + n00
    if chose_j == 0 or skipped_j == 0:
        return 0.0
    return n11 / chose_j - n10 / skipped_j


def woolf_interval(
    counts: tuple[int, int, int, int], z: float
) -> tuple[float, float, float]:
    """(omega, lower, upper) of the odds-ratio confidence interval, one scalar
    `math` call per step, 0.5 added to all cells on any zero."""
    n11, n10, n01, n00 = (float(c) for c in counts)
    if min(n11, n10, n01, n00) == 0.0:
        n11, n10, n01, n00 = n11 + 0.5, n10 + 0.5, n01 + 0.5, n00 + 0.5
    omega = (n11 * n00) / (n10 * n01)
    log_omega = math.log(omega)
    radius = z * math.sqrt(1.0 / n11 + 1.0 / n00 + 1.0 / n10 + 1.0 / n01)
    return omega, math.exp(log_omega - radius), math.exp(log_omega + radius)


def woolf_pair(analysis, i: int, j: int, z: float) -> tuple[float, float, float, bool]:
    """(omega, lower, upper, significant) for one ordered pair, from the 2x2
    table read off the analysis tallies; the verdict is False unless r_j was
    wanted by some users and ignored by others."""
    n, u = analysis.n, analysis.user_count
    n11 = int(analysis.counts[i, j])
    n10 = int(analysis.counts[i, j + n])
    n01 = int(analysis.counts[j, i + n])
    omega, lower, upper = woolf_interval((n11, n10, n01, u - n11 - n10 - n01), z)
    defined = i != j and 0 < int(analysis.counts[j, j]) < u
    return omega, lower, upper, defined and not (lower <= 1.0 <= upper)


def phi2(a: float, b: float, rho: float) -> float:
    """Standard bivariate normal CDF via scipy."""
    dist = multivariate_normal(mean=[0.0, 0.0], cov=[[1.0, rho], [rho, 1.0]])
    return float(dist.cdf([a, b]))


def std_normal_cdf(t: float) -> float:
    """Phi(t) through math.erfc."""
    return 0.5 * math.erfc(-t / math.sqrt(2.0))


def quad_phi2(a: float, b: float, rho: float) -> float:
    """Phi2 by adaptive quadrature over the conditional form

        integral_-inf^a  phi(t) * Phi((b - rho t) / sqrt(1 - rho^2)) dt,

    with the product at rho = 0 and the closed-form limits within 1e-12 of
    rho = +-1. Accurate to about 1e-10 except close to |rho| = 1, where the
    integrand becomes a step and quadrature can miss by 1e-3.
    """
    if rho == 0.0:
        return std_normal_cdf(a) * std_normal_cdf(b)
    if rho >= 1.0 - 1e-12:
        return std_normal_cdf(min(a, b))
    if rho <= -1.0 + 1e-12:
        return max(0.0, std_normal_cdf(a) + std_normal_cdf(b) - 1.0)
    denom = math.sqrt(1.0 - rho * rho)

    def integrand(t: float) -> float:
        density = math.exp(-0.5 * t * t) * (1.0 / math.sqrt(2.0 * math.pi))
        return density * std_normal_cdf((b - rho * t) / denom)

    value, _ = integrate.quad(integrand, -np.inf, a, epsabs=1e-12, epsrel=1e-10, limit=200)
    return min(1.0, max(0.0, float(value)))


def bisected_latent_correlation(means: np.ndarray, covariance: np.ndarray) -> np.ndarray:
    """Pairwise latent correlations, one scalar bisection per pair on
    quad_phi2 over [-1 + 1e-9, 1 - 1e-9] down to a width of 1e-6 (no PSD
    repair, no feasibility check)."""
    n = len(means)
    gamma = [float(norm.ppf(m)) for m in means]
    lam = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            target = means[i] * means[j] + covariance[i, j]
            lo, hi = -1.0 + 1e-9, 1.0 - 1e-9
            while hi - lo > 1e-6:
                mid = 0.5 * (lo + hi)
                if quad_phi2(gamma[i], gamma[j], mid) < target:
                    lo = mid
                else:
                    hi = mid
            lam[i, j] = lam[j, i] = 0.5 * (lo + hi)
    return lam


def expanded_closure(g: ValueDependencyGraph) -> tuple[np.ndarray, np.ndarray]:
    """(pos, neg) from a max-min Floyd-Warshall closure of the full 2n x 2n
    parity-expanded adjacency [[P, N], [N, P]], pivots in state order."""
    n = g.n
    p = np.zeros((n, n))
    m = np.zeros((n, n))
    for (i, j), (rho, q) in g.edges.items():
        (p if q == POSITIVE else m)[i, j] = rho
    c = np.block([[p, m], [m, p]])
    for k in range(2 * n):
        np.maximum(c, np.minimum(c[:, k : k + 1], c[k : k + 1, :]), out=c)
    pos = c[:n, :n].copy()
    neg = c[:n, n:].copy()
    np.fill_diagonal(pos, 0.0)
    np.fill_diagonal(neg, 0.0)
    return pos, neg


def alg2_reference(g: ValueDependencyGraph) -> InfluenceMatrix:
    """Verbatim single-pass interleaved Floyd-Warshall (the source method).

    Each node k is processed once, updating the positive and negative
    matrices from each other with the current values. Sound (every produced
    value is realized by some walk) but possibly under-converged on cyclic
    graphs with negative edges; compare against propagate_strengths.
    """
    n = g.n
    pos = np.zeros((n, n))
    neg = np.zeros((n, n))
    for (i, j), (rho, q) in g.edges.items():
        (pos if q == POSITIVE else neg)[i, j] = rho
    for k in range(n):
        for i in range(n):
            for j in range(n):
                cand = min(pos[i, k], pos[k, j])
                if cand > pos[i, j]:
                    pos[i, j] = cand
                cand = min(neg[i, k], neg[k, j])
                if cand > pos[i, j]:
                    pos[i, j] = cand
                cand = min(pos[i, k], neg[k, j])
                if cand > neg[i, j]:
                    neg[i, j] = cand
                cand = min(neg[i, k], pos[k, j])
                if cand > neg[i, j]:
                    neg[i, j] = cand
    np.fill_diagonal(pos, 0.0)
    np.fill_diagonal(neg, 0.0)
    return InfluenceMatrix(pos=pos, neg=neg)


def brute_force_influence(g: ValueDependencyGraph, max_len: int) -> InfluenceMatrix:
    """Oracle: exhaustive DFS over sign-labeled paths up to max_len edges.

    Enumerates state-simple paths in the parity-expanded graph (no repeated
    (node, sign) state), recording per-sign suprema of min strengths. Since
    cutting a repeated-state cycle never lowers a walk's min strength, this
    equals the supremum over all walks once max_len reaches 2n - 1.
    """
    if g.n > 10:
        raise ValidationError("brute-force influence is limited to n <= 10")
    if max_len < 1:
        raise ValidationError("max_len must be at least 1")
    n = g.n
    adj: list[list[tuple[int, float, bool]]] = [[] for _ in range(n)]
    for (i, j), (rho, q) in g.edges.items():
        adj[i].append((j, rho, q == NEGATIVE))
    for neighbors in adj:
        neighbors.sort()

    pos = np.zeros((n, n))
    neg = np.zeros((n, n))

    def walk(start: int, node: int, positive: bool, strength: float, depth: int, seen: int) -> None:
        if depth == max_len:
            return
        for nxt, rho, flips in adj[node]:
            nxt_positive = positive != flips
            state = nxt * 2 + (0 if nxt_positive else 1)
            if seen & (1 << state):
                continue
            s = min(strength, rho)
            target = pos if nxt_positive else neg
            if s > target[start, nxt]:
                target[start, nxt] = s
            walk(start, nxt, nxt_positive, s, depth + 1, seen | (1 << state))

    for start in range(n):
        walk(start, start, True, 1.0, 0, 1 << (start * 2))
    np.fill_diagonal(pos, 0.0)
    np.fill_diagonal(neg, 0.0)
    return InfluenceMatrix(pos=pos, neg=neg)


def per_pair_vdg_edges(analysis, sig, mem) -> dict[tuple[int, int], tuple[float, str]]:
    """The VDG edge dict from one scalar woolf_pair verdict per ordered pair
    and the membership map written out per pair."""
    edges: dict[tuple[int, int], tuple[float, str]] = {}
    for i in range(analysis.n):
        for j in range(analysis.n):
            if i == j or not woolf_pair(analysis, i, j, sig.z_prime)[3]:
                continue
            eta = float(analysis.eells[i, j])
            s = abs(eta)
            if s <= mem.lower_cut:
                continue
            rho = 1.0 if s >= mem.upper_cut else (s - mem.lower_cut) / (mem.upper_cut - mem.lower_cut)
            edges[(i, j)] = (rho, POSITIVE if eta > 0 else NEGATIVE)
    return edges


def binary_moments(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two-pass means and population covariances, plain loops."""
    n, k = cells.shape
    means = np.zeros(n)
    for i in range(n):
        means[i] = sum(int(v) for v in cells[i]) / k
    cov = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for u in range(k):
                acc += (cells[i, u] - means[i]) * (cells[j, u] - means[j])
            cov[i, j] = acc / k
    return means, cov


def penalties(influence: np.ndarray, x) -> list[float]:
    """theta_i = max_j (|I_ij| + (1 - 2 x_j) I_ij) / 2, explicit loops."""
    n = influence.shape[0]
    out = []
    for i in range(n):
        worst = 0.0
        for j in range(n):
            if j == i:
                continue
            w = influence[i, j]
            term = (abs(w) + (1.0 - 2.0 * x[j]) * w) / 2.0
            worst = max(worst, term)
        out.append(worst)
    return out


def is_feasible(problem: SelectionProblem, x) -> bool:
    """Budget and precedence checked straight from the record definitions."""
    weight = 0.0
    for i, r in enumerate(problem.requirements):
        if x[i]:
            weight += r.cost if problem.constraint_mode == BUDGET_COST else r.value
    if weight > problem.budget + 1e-9:
        return False
    for rec in problem.precedence.constraints:
        if isinstance(rec, RequiresAll):
            if x[rec.source] and not x[rec.target]:
                return False
        elif isinstance(rec, RequiresAny):
            if x[rec.source] and not any(x[t] for t in rec.targets):
                return False
        elif isinstance(rec, Conflicts):
            if x[rec.a] and x[rec.b]:
                return False
        elif isinstance(rec, ExactlyOne):
            if sum(x[m] for m in rec.members) != 1:
                return False
    return True


def objective_value(problem: SelectionProblem, method: str, x, subsets=()) -> float:
    """The method's objective at selection x; `subsets` (SubsetEstimate
    records) only shape INCREASE_DECREASE."""
    reqs = problem.requirements
    if method in (BK, PCBK):
        return sum(r.value for i, r in enumerate(reqs) if x[i])
    if method == INCREASE_DECREASE:
        # each fully selected subset swaps its member values for its estimate
        total = sum(r.value for i, r in enumerate(reqs) if x[i])
        for s in subsets:
            if all(x[m] for m in s.members):
                total += s.estimated_value - sum(reqs[m].value for m in s.members)
        return total
    if method == SBK:
        return sum(r.probability * r.value for i, r in enumerate(reqs) if x[i])
    if method == DARS:
        theta = penalties(problem.influence.influence, x)
        return sum(
            (1.0 - theta[i]) * r.probability * r.value
            for i, r in enumerate(reqs)
            if x[i]
        )
    raise ValueError(method)


def enumerate_optimum(
    problem: SelectionProblem, method: str, tie_eps: float = 1e-12, subsets=()
) -> tuple[tuple[int, ...], float] | None:
    """Exhaustive 2^n optimum; ties resolved to the smallest selection
    vector read as a binary string with x1 most significant. None when no
    selection (including the empty one) is feasible. INCREASE_DECREASE
    selections are bound by the budget row only."""
    n = len(problem.requirements)
    if method == INCREASE_DECREASE:
        problem = dataclasses.replace(problem, precedence=None)
    best_obj = -math.inf
    best_x: tuple[int, ...] | None = None
    for bits in itertools.product((0, 1), repeat=n):
        if not is_feasible(problem, bits):
            continue
        obj = objective_value(problem, method, bits, subsets)
        if obj > best_obj + tie_eps:
            best_obj, best_x = obj, bits
        elif obj >= best_obj - tie_eps and best_x is not None and bits < best_x:
            best_x = bits
    if best_x is None:
        return None
    return best_x, best_obj


def row_activities(rows, fixed) -> tuple[list[float], list[float]]:
    """Least and greatest activity of each row under a partial fixing,
    summed from scratch: a fixed entry adds its coefficient times its value,
    a free entry its coefficient's negative part (least) or positive part
    (greatest). `rows` holds (vars, coefs, relation, rhs) tuples and `fixed`
    is an int8 array with -1 for free."""
    minact, maxact = [], []
    for vars_, coefs, _, _ in rows:
        selected = 0.0
        below = above = 0.0
        for u, a in zip(vars_, coefs):
            if fixed[u] == 1:
                selected += a
            elif fixed[u] == -1:
                below += min(a, 0.0)
                above += max(a, 0.0)
        minact.append(selected + below)
        maxact.append(selected + above)
    return minact, maxact


def reference_propagate(rows, fixed, minact, maxact, feas_eps: float = 1e-9):
    """Unit propagation over all-binary rows with a full rescan of every row.

    The solver's kernel before its knapsack-row scan and bytearray state:
    every row is scanned in order, then each queued fixing is folded into
    the activities of its rows, which are rescanned entry by entry.
    `rows` holds (vars, coefs, relation, rhs) tuples, `fixed` is an int8
    array with -1 for free, and `minact`/`maxact` are the float64 row
    activities of `fixed`; all three are updated in place. Returns
    (feasible, queue) with the fixed variables in fixing order.
    """
    occ: list[list[tuple[int, float]]] = [[] for _ in range(len(fixed))]
    for rid, (vars_, coefs, _, _) in enumerate(rows):
        for b, a in zip(vars_, coefs):
            occ[b].append((rid, a))

    def scan(rid: int, queue: list[int]) -> bool:
        vars_, coefs, rel, rhs = rows[rid]
        lo = minact[rid]
        hi = maxact[rid]
        if rel != ">=":
            if lo > rhs + feas_eps:
                return False
            if hi > rhs + feas_eps:
                for u, au in zip(vars_, coefs):
                    if fixed[u] != -1:
                        continue
                    if au > 0:
                        if lo + au > rhs + feas_eps:
                            fixed[u] = 0
                            queue.append(u)
                    elif lo - au > rhs + feas_eps:
                        fixed[u] = 1
                        queue.append(u)
        if rel != "<=":
            if hi < rhs - feas_eps:
                return False
            if lo < rhs - feas_eps:
                for u, au in zip(vars_, coefs):
                    if fixed[u] != -1:
                        continue
                    if au > 0:
                        if hi - au < rhs - feas_eps:
                            fixed[u] = 1
                            queue.append(u)
                    elif hi + au < rhs - feas_eps:
                        fixed[u] = 0
                        queue.append(u)
        return True

    queue: list[int] = []
    if not all(scan(rid, queue) for rid in range(len(rows))):
        return False, queue
    head = 0
    while head < len(queue):
        b = queue[head]
        head += 1
        val = fixed[b]
        for rid, a in occ[b]:
            if val == 1:
                minact[rid] += a - (a if a < 0 else 0.0)
                maxact[rid] += a - (a if a > 0 else 0.0)
            else:
                minact[rid] -= a if a < 0 else 0.0
                maxact[rid] -= a if a > 0 else 0.0
            if not scan(rid, queue):
                return False, queue
    return True, queue
