"""Independent reference implementations used by the test suite.

Everything here favors directness over speed: per-user loops and textbook
formulas, sharing no code with the vectorized package internals they check.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import re

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
    InputFormatError,
    LinearModel,
    PrecedenceGraph,
    RequiresAll,
    RequiresAny,
    Requirement,
    SelectionProblem,
    ValidationError,
    ValueDependencyGraph,
    build_model,
)
from reqsel.dependency_graph import NEGATIVE, POSITIVE
from reqsel.selection_models import BINARY, CONTINUOUS, LinearConstraint, Variable


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


UNSPECIFIED = "±"


def combine_quality(a: str, b: str) -> str:
    """Serial quality composition: like signs give +, unlike give -, and a
    non-specified quality absorbs."""
    if a == UNSPECIFIED or b == UNSPECIFIED:
        return UNSPECIFIED
    return POSITIVE if a == b else NEGATIVE


def path_strength(g: ValueDependencyGraph, path) -> tuple[str, float]:
    """Weakest-edge strength and sign product along an explicit node path."""
    if len(path) < 2:
        raise ValidationError("a dependency path needs at least two nodes")
    strength = 1.0
    quality = POSITIVE
    for a, b in itertools.pairwise(path):
        edge = g.edges.get((a, b))
        if edge is None:
            return UNSPECIFIED, 0.0
        rho, q = edge
        strength = min(strength, rho)
        quality = combine_quality(quality, q)
    return quality, strength


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


def penalty_floor(model: LinearModel, fixed) -> np.ndarray | None:
    """The floor a partial fixing puts on each theta_i of a DARS model, from
    scratch: the largest of 0 and of rhs - w x_j over its penalty rows
    theta_i + w x_j >= rhs whose x_j is fixed. `fixed` is an int8 array over
    model.metadata["x_names"] with -1 for free; None for a model without
    theta variables."""
    x_pos = {name: j for j, name in enumerate(model.metadata.get("x_names", ()))}
    theta_of = {f"theta{i + 1}": i for i in range(len(x_pos))}
    names = {v.name for v in model.variables}
    if not x_pos or not set(theta_of) <= names:
        return None
    floor = np.zeros(len(x_pos))
    for con in model.constraints:
        terms = dict(con.coeffs)
        theta = next((nm for nm in terms if nm in theta_of), None)
        if con.relation != ">=" or len(terms) != 2 or theta is None or terms[theta] != 1.0:
            continue
        del terms[theta]
        ((x, w),) = terms.items()
        if x in x_pos and fixed[x_pos[x]] != -1:
            i = theta_of[theta]
            floor[i] = max(floor[i], con.rhs - w * fixed[x_pos[x]])
    return floor


INCREASE_DECREASE = "INCREASE_DECREASE"


@dataclasses.dataclass(frozen=True)
class SubsetEstimate:
    """A requirement subset whose joint value differs from its member sum."""

    members: tuple[int, ...]
    estimated_value: float


def increase_decrease_model(problem: SelectionProblem, subsets) -> LinearModel:
    """The increase-decrease subset model, written out row by row: BK's
    binaries, budget row and value objective, then per subset j a binary y_j
    that may be 1 only when every member is selected (n_j y_j - sum of member
    x <= 0), with objective coefficient w_j - sum of member values. When that
    is negative the optimizer would leave y_j at 0, so a completeness row
    (sum of member x - y_j <= n_j - 1) forces it to 1 once the subset is
    whole. The package builds no such model; its LP files still reach the
    solver, with objective coefficients of either sign, binaries the budget
    row does not weigh, and ">=" and "=" free rows."""
    base = build_model(problem, BK)
    x_names = base.metadata["x_names"]
    variables = list(base.variables)
    objective = dict(base.objective)
    rows = list(base.constraints)
    for j, subset in enumerate(subsets, start=1):
        y_name = f"y{j}"
        variables.append(Variable(name=y_name, kind=BINARY))
        size = len(subset.members)
        coeffs = {y_name: float(size)}
        coeffs.update({x_names[m]: -1.0 for m in subset.members})
        rows.append(LinearConstraint(name=f"subset{j}_active", coeffs=coeffs, relation="<=", rhs=0.0))
        adjustment = subset.estimated_value - sum(objective[x_names[m]] for m in subset.members)
        if adjustment < 0:
            complete = {x_names[m]: 1.0 for m in subset.members}
            complete[y_name] = -1.0
            rows.append(
                LinearConstraint(
                    name=f"subset{j}_complete", coeffs=complete, relation="<=", rhs=float(size - 1)
                )
            )
        objective[y_name] = adjustment
    metadata = {**base.metadata, "kind": INCREASE_DECREASE}
    return LinearModel(tuple(variables), "max", objective, tuple(rows), metadata)


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


def enumerate_model_optimum(
    model: LinearModel, tie_eps: float = 1e-12, feas_eps: float = 1e-9
) -> tuple[tuple[int, ...], float] | None:
    """Exhaustive 2^n optimum of an all-binary model, read off its rows and
    objective alone: a selection is feasible when every row holds within
    feas_eps, and ties within tie_eps go to the smallest selection read as a
    binary string, the first declared variable most significant. Returns
    (x, objective in the model's sense), or None when no selection is
    feasible."""
    if any(v.kind != BINARY for v in model.variables):
        raise ValidationError("model enumeration needs an all-binary model")
    names = [v.name for v in model.variables]
    sign = 1.0 if model.objective_sense == "max" else -1.0
    best_obj = -math.inf
    best_x: tuple[int, ...] | None = None
    for bits in itertools.product((0, 1), repeat=len(names)):
        value = dict(zip(names, bits))
        feasible = True
        for con in model.constraints:
            act = sum(a * value[name] for name, a in con.coeffs.items())
            if con.relation != ">=" and act > con.rhs + feas_eps:
                feasible = False
            if con.relation != "<=" and act < con.rhs - feas_eps:
                feasible = False
        if not feasible:
            continue
        obj = sign * sum(a * value[name] for name, a in model.objective.items())
        if obj > best_obj + tie_eps:
            best_obj, best_x = obj, bits
        elif obj >= best_obj - tie_eps and best_x is not None and bits < best_x:
            best_x = bits
    if best_x is None:
        return None
    return best_x, sign * best_obj


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


_LP_TOKEN = re.compile(r"<=|>=|=|[+-]|[A-Za-z_][A-Za-z0-9_]*|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")

_LP_SECTIONS = {
    "maximize": "objective",
    "minimize": "objective",
    "max": "objective",
    "min": "objective",
    "subject to": "constraints",
    "such that": "constraints",
    "st": "constraints",
    "s.t.": "constraints",
    "bounds": "bounds",
    "binary": "binary",
    "binaries": "binary",
    "general": "general",
    "end": "end",
}


def _reference_parse_terms(tokens: list[str], where: str) -> dict[str, float]:
    coeffs: dict[str, float] = {}
    sign = 1.0
    pending: float | None = None
    for tok in tokens:
        if tok == "+":
            continue
        if tok == "-":
            sign = -sign
            continue
        try:
            number = float(tok)
        except ValueError:
            number = None
        if number is not None:
            if pending is not None:
                raise InputFormatError(f"{where}: two consecutive numbers")
            pending = number
            continue
        coef = sign * (pending if pending is not None else 1.0)
        coeffs[tok] = coeffs.get(tok, 0.0) + coef
        sign = 1.0
        pending = None
    if pending is not None:
        raise InputFormatError(f"{where}: dangling number without a variable")
    return coeffs


def reference_parse_lp(source) -> LinearModel:
    """The two-pass LP reader `parse_lp` replaced: it collects every row's
    tokens first, then builds the rows, and tells numbers from names by
    probing each token with float(), so a variable named `inf` or `nan`
    reads as a number."""
    sense = "max"
    section = None
    objective_tokens: list[str] = []
    constraint_lines: list[tuple[str, list[str]]] = []
    bounds: dict[str, tuple[float, float]] = {}
    binaries: list[str] = []

    def parse_bound_token(text: str) -> float:
        lowered = text.lower().lstrip("+")
        if lowered in ("-inf", "-infinity"):
            return -math.inf
        if lowered in ("inf", "infinity"):
            return math.inf
        try:
            return float(text)
        except ValueError as exc:
            raise InputFormatError(f"bounds: bad number {text!r}") from exc

    for raw_line in source:
        line = raw_line.split("\\")[0].strip()
        if not line:
            continue
        lowered = line.lower()
        matched_section = _LP_SECTIONS.get(lowered)
        if matched_section is not None:
            section = matched_section
            if lowered in ("minimize", "min"):
                sense = "min"
            if section == "end":
                break
            continue
        if section == "objective":
            body = line.split(":", 1)[1] if ":" in line else line
            objective_tokens.extend(_LP_TOKEN.findall(body))
        elif section == "constraints":
            if ":" in line:
                name, body = line.split(":", 1)
                constraint_lines.append((name.strip(), _LP_TOKEN.findall(body)))
            else:
                if not constraint_lines:
                    raise InputFormatError("constraint continuation before any named row")
                constraint_lines[-1][1].extend(_LP_TOKEN.findall(line))
        elif section == "bounds":
            tokens = []
            for tok in _LP_TOKEN.findall(line):
                if tokens and tokens[-1] in ("+", "-"):
                    tok = tokens.pop() + tok
                tokens.append(tok)
            if len(tokens) == 5 and tokens[1] == "<=" and tokens[3] == "<=":
                bounds[tokens[2]] = (parse_bound_token(tokens[0]), parse_bound_token(tokens[4]))
            elif len(tokens) == 3 and tokens[1] in ("<=", ">=", "="):
                name = tokens[0]
                value = parse_bound_token(tokens[2])
                lo, hi = bounds.get(name, (0.0, math.inf))
                if tokens[1] == "<=":
                    bounds[name] = (lo, value)
                elif tokens[1] == ">=":
                    bounds[name] = (value, hi)
                else:
                    bounds[name] = (value, value)
            else:
                raise InputFormatError(f"bounds: unsupported line {line!r}")
        elif section == "binary":
            binaries.extend(_LP_TOKEN.findall(line))
        elif section == "general":
            raise InputFormatError("general integer variables are not supported")
        else:
            raise InputFormatError(f"content before any section header: {line!r}")

    objective = _reference_parse_terms(objective_tokens, "objective")

    constraints: list[LinearConstraint] = []
    for row_name, tokens in constraint_lines:
        relation = None
        split_at = None
        for pos, tok in enumerate(tokens):
            if tok in ("<=", ">=", "="):
                relation = tok
                split_at = pos
                break
        if relation is None or split_at is None or split_at != len(tokens) - 2:
            raise InputFormatError(f"constraint {row_name}: expected `terms rel rhs`")
        coeffs = _reference_parse_terms(tokens[:split_at], f"constraint {row_name}")
        try:
            rhs = float(tokens[-1])
        except ValueError as exc:
            raise InputFormatError(f"constraint {row_name}: bad right-hand side") from exc
        constraints.append(
            LinearConstraint(name=row_name, coeffs=coeffs, relation=relation, rhs=rhs)
        )

    binary_set = set(binaries)
    declared = itertools.chain(
        binaries, bounds, objective, itertools.chain.from_iterable(c.coeffs for c in constraints)
    )
    variables = []
    for name in dict.fromkeys(declared):
        if name in binary_set:
            variables.append(Variable(name=name, kind=BINARY))
        else:
            lo, hi = bounds.get(name, (0.0, math.inf))
            variables.append(Variable(name=name, kind=CONTINUOUS, lower=lo, upper=hi))
    return LinearModel(
        tuple(variables), sense, objective, tuple(constraints), {"kind": "PARSED"}
    )


# The per-kind dispatch that precedence records replaced with their own
# `check`, `pairs`, `rows` and `to_json`, kept as the reference they are
# compared with.


def reference_check_precedence(n: int, constraints) -> None:
    """Raise the ValidationError PrecedenceGraph raises for these records."""

    def check_index(idx: int) -> None:
        if not 0 <= idx < n:
            raise ValidationError(f"requirement index {idx} out of range for n={n}")

    for rec in constraints:
        if isinstance(rec, RequiresAll):
            check_index(rec.source)
            check_index(rec.target)
            if rec.source == rec.target:
                raise ValidationError("a requirement cannot require itself")
        elif isinstance(rec, RequiresAny):
            check_index(rec.source)
            if not rec.targets:
                raise ValidationError("requires-any needs a non-empty target set")
            for t in rec.targets:
                check_index(t)
            if rec.source in rec.targets:
                raise ValidationError("requires-any source cannot be its own target")
            if len(set(rec.targets)) != len(rec.targets):
                raise ValidationError("requires-any targets must be distinct")
        elif isinstance(rec, Conflicts):
            check_index(rec.a)
            check_index(rec.b)
            if rec.a == rec.b:
                raise ValidationError("a requirement cannot conflict with itself")
        elif isinstance(rec, ExactlyOne):
            if len(rec.members) < 2:
                raise ValidationError("exactly-one needs at least two members")
            if len(set(rec.members)) != len(rec.members):
                raise ValidationError("exactly-one members must be distinct")
            for m in rec.members:
                check_index(m)
        else:
            raise ValidationError(f"unknown precedence record {rec!r}")


def reference_pdl_npdl(p) -> tuple[float, float | None]:
    k = 0
    negative = 0
    for rec in p.constraints:
        if isinstance(rec, RequiresAll):
            k += 1
        elif isinstance(rec, RequiresAny):
            k += len(rec.targets)
        elif isinstance(rec, Conflicts):
            k += 1
            negative += 1
        elif isinstance(rec, ExactlyOne):
            s = len(rec.members)
            k += s * (s - 1) // 2
    pdl = k / (p.n * (p.n - 1))
    if k == 0:
        return pdl, None
    return pdl, negative / k


def reference_save_constraints(p, sink, ids) -> None:
    names = tuple(ids)
    items: list[dict] = []
    for rec in p.constraints:
        if isinstance(rec, RequiresAll):
            items.append({"type": "requires_all", "source": names[rec.source], "targets": [names[rec.target]]})
        elif isinstance(rec, RequiresAny):
            items.append({"type": "requires_any", "source": names[rec.source], "targets": [names[t] for t in rec.targets]})
        elif isinstance(rec, Conflicts):
            items.append({"type": "conflicts", "source": names[rec.a], "targets": [names[rec.b]]})
        else:
            items.append({"type": "exactly_one", "targets": [names[m] for m in rec.members]})
    json.dump(items, sink, indent=2)
    sink.write("\n")


def reference_precedence_rows(p, x_names) -> list[LinearConstraint]:
    rows: list[LinearConstraint] = []
    for ordinal, rec in enumerate(p.constraints, start=1):
        if isinstance(rec, RequiresAll):
            rows.append(
                LinearConstraint(
                    name=f"prec{ordinal}_requires_all",
                    coeffs={x_names[rec.source]: 1.0, x_names[rec.target]: -1.0},
                    relation="<=",
                    rhs=0.0,
                )
            )
        elif isinstance(rec, RequiresAny):
            coeffs = {x_names[rec.source]: 1.0}
            coeffs.update({x_names[t]: -1.0 for t in rec.targets})
            rows.append(
                LinearConstraint(name=f"prec{ordinal}_requires_any", coeffs=coeffs, relation="<=", rhs=0.0)
            )
        elif isinstance(rec, Conflicts):
            pair = {x_names[rec.a]: 1.0, x_names[rec.b]: 1.0}
            rows.append(
                LinearConstraint(name=f"prec{ordinal}_conflict_ab", coeffs=dict(pair), relation="<=", rhs=1.0)
            )
            rows.append(
                LinearConstraint(name=f"prec{ordinal}_conflict_ba", coeffs=dict(pair), relation="<=", rhs=1.0)
            )
        elif isinstance(rec, ExactlyOne):
            rows.append(
                LinearConstraint(
                    name=f"prec{ordinal}_exactly_one",
                    coeffs={x_names[m]: 1.0 for m in rec.members},
                    relation="=",
                    rhs=1.0,
                )
            )
    return rows


# The rows around each DARS link as the solver once accepted them and the
# hand-built case study precedence, from before `link_rows` and the case
# study's constraints-JSON literal replaced them, kept as references.


def reference_accepted_link_rows(links) -> set:
    """The (relation, rhs, entries) rows around the (theta, y, b, x) index
    tuples `links`: the link row, y - b <= 0, and for an echo b the pair
    x - b <= 0, b - x <= 0."""
    allowed = set()
    for t, y, b, x in links:
        allowed.add(("<=", 1.0, frozenset(((t, 1.0), (y, -1.0), (b, 1.0)))))
        allowed.add(("<=", 0.0, frozenset(((y, 1.0), (b, -1.0)))))
        if b != x:
            allowed.add(("<=", 0.0, frozenset(((x, 1.0), (b, -1.0)))))
            allowed.add(("<=", 0.0, frozenset(((b, 1.0), (x, -1.0)))))
    return allowed


def reference_case_study_precedence(ids) -> PrecedenceGraph:
    """The case study's 13 records over the requirement ids `ids`."""
    ix = {rid: i for i, rid in enumerate(ids)}

    def i(rid: str) -> int:
        return ix[rid]

    constraints = (
        ExactlyOne(members=(i("r2"), i("r6"))),
        RequiresAny(source=i("r4"), targets=(i("r1"), i("r2"))),
        RequiresAny(source=i("r5"), targets=(i("r1"), i("r2"))),
        RequiresAny(source=i("r8"), targets=(i("r1"), i("r2"))),
        RequiresAll(source=i("r8"), target=i("r25")),
        Conflicts(a=i("r17"), b=i("r18")),
        RequiresAll(source=i("r19"), target=i("r2")),
        RequiresAll(source=i("r19"), target=i("r6")),
        RequiresAll(source=i("r20"), target=i("r2")),
        RequiresAll(source=i("r20"), target=i("r6")),
        RequiresAll(source=i("r26"), target=i("r27")),
        RequiresAll(source=i("r27"), target=i("r1")),
        RequiresAll(source=i("r27"), target=i("r6")),
    )
    return PrecedenceGraph(n=len(ids), constraints=constraints)


# The synthetic generator before it decoded its pair codes with one divmod,
# kept as the reference it is compared with.


def reference_generate_synthetic(spec, budget_fraction: float = 0.5):
    """(problem, vdg) of `spec`, one pair code and one edge at a time."""
    n = spec.n
    rng = np.random.default_rng(spec.seed)
    npairs = n * (n - 1)

    def pair(code: int) -> tuple[int, int]:
        i, rest = divmod(code, n - 1)
        j = rest + (1 if rest >= i else 0)
        return i, j

    k = round(spec.vdl * npairs)
    edges = {}
    if k:
        chosen = rng.choice(npairs, size=k, replace=False)
        strengths = 1.0 - rng.random(k)
        negatives = round(spec.nvdl * k)
        for pos, (code, s) in enumerate(zip(chosen, strengths)):
            quality = NEGATIVE if pos < negatives else POSITIVE
            edges[pair(int(code))] = (float(s), quality)
    vdg = ValueDependencyGraph(n=n, edges=edges)

    m = round(spec.pdl * npairs)
    records = []
    if m:
        prec_chosen = rng.choice(npairs, size=m, replace=False)
        conflicts = round(spec.npdl * m)
        for pos, code in enumerate(prec_chosen):
            i, j = pair(int(code))
            if pos < conflicts:
                records.append(Conflicts(a=i, b=j))
            else:
                records.append(RequiresAll(source=i, target=j))
    precedence = PrecedenceGraph(n=n, constraints=tuple(records))

    costs = rng.uniform(spec.cost_range[0], spec.cost_range[1], n)
    values = rng.uniform(spec.value_range[0], spec.value_range[1], n)
    probs = rng.uniform(spec.probability_range[0], spec.probability_range[1], n)
    reqs = tuple(
        Requirement(
            id=f"r{i + 1}", cost=float(costs[i]), value=float(values[i]), probability=float(probs[i])
        )
        for i in range(n)
    )

    pos_m = np.zeros((n, n))
    neg_m = np.zeros((n, n))
    for (i, j), (s, quality) in edges.items():
        if quality == POSITIVE:
            pos_m[i, j] = s
        else:
            neg_m[i, j] = s
    problem = SelectionProblem(
        requirements=reqs,
        budget=budget_fraction * float(costs.sum()),
        constraint_mode=BUDGET_COST,
        precedence=precedence,
        influence=InfluenceMatrix(pos=pos_m, neg=neg_m),
    )
    return problem, vdg


# The row builder and LP writer from before models kept their rows by
# column: one LinearConstraint with a coefficient dict per row, and one
# formatted line per row. Kept as the references the row store is compared
# with.


def reference_model_rows(p: SelectionProblem, method: str, simplify: bool = False) -> list[LinearConstraint]:
    """The rows build_model writes for `p`, one dict row at a time."""
    n = p.n
    x_names = [f"x{i + 1}" for i in range(n)]
    if p.constraint_mode == BUDGET_COST:
        coeffs = {x_names[i]: float(r.cost) for i, r in enumerate(p.requirements)}
        rows = [LinearConstraint(name="budget", coeffs=coeffs, relation="<=", rhs=float(p.budget))]
    else:
        coeffs = {x_names[i]: float(r.value) for i, r in enumerate(p.requirements)}
        rows = [LinearConstraint(name="price", coeffs=coeffs, relation="<=", rhs=float(p.budget))]
    if method in (PCBK, SBK, DARS):
        rows += reference_precedence_rows(p.precedence, x_names)
    if method != DARS:
        return rows
    thetas = [f"theta{i + 1}" for i in range(n)]
    ys = [f"y{i + 1}" for i in range(n)]
    gs = x_names if simplify else [f"g{i + 1}" for i in range(n)]
    influence = p.influence.influence
    ii, jj = np.nonzero(influence)
    for i, j, w in zip(ii.tolist(), jj.tolist(), influence[ii, jj].tolist()):
        rows.append(
            LinearConstraint(
                name=f"penalty_{x_names[i]}_{x_names[j]}",
                coeffs={thetas[i]: 1.0, x_names[j]: w},
                relation=">=",
                rhs=(abs(w) + w) / 2.0,
            )
        )
    for i in range(n):
        x, g, t, y = x_names[i], gs[i], thetas[i], ys[i]
        if g != x:
            rows.append(LinearConstraint(f"link_xg_{i + 1}", {x: 1.0, g: -1.0}, "<=", 0.0))
            rows.append(LinearConstraint(f"link_gx_{i + 1}", {g: 1.0, x: -1.0}, "<=", 0.0))
        rows.append(LinearConstraint(f"link_yg_{i + 1}", {y: 1.0, g: -1.0}, "<=", 0.0))
        rows.append(LinearConstraint(f"link_ty_{i + 1}", {t: 1.0, y: -1.0, g: 1.0}, "<=", 1.0))
    return rows


def _reference_lp_terms(coeffs, pos, fallback) -> str:
    parts = []
    for name in sorted(coeffs, key=pos.__getitem__):
        coef = coeffs[name]
        if coef == 0.0:
            continue
        sign = "+" if coef >= 0 else "-"
        parts.append(f"{sign} {abs(coef):.12g} {name}")
    if not parts:
        parts.append(f"+ 0 {fallback}")
    return " ".join(parts)


def reference_export_lp(m: LinearModel) -> str:
    """The LP text export_lp writes for `m`, one row line at a time."""
    pos = {v.name: i for i, v in enumerate(m.variables)}
    first = m.variables[0].name
    lines = ["Maximize" if m.objective_sense == "max" else "Minimize"]
    lines.append(f" obj: {_reference_lp_terms(m.objective, pos, first)}")
    lines.append("Subject To")
    for c in m.constraints:
        lines.append(f" {c.name}: {_reference_lp_terms(c.coeffs, pos, first)} {c.relation} {c.rhs:.12g}")
    continuous = [v for v in m.variables if v.kind == CONTINUOUS]
    if continuous:
        lines.append("Bounds")
        for v in continuous:
            lo = "-inf" if math.isinf(v.lower) else f"{v.lower:.12g}"
            hi = "+inf" if math.isinf(v.upper) else f"{v.upper:.12g}"
            lines.append(f" {lo} <= {v.name} <= {hi}")
    binaries = [v.name for v in m.variables if v.kind == BINARY]
    if binaries:
        lines.append("Binary")
        lines += [f" {name}" for name in binaries]
    lines.append("End")
    return "\n".join(lines) + "\n"
