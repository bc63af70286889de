"""Exact deterministic optimizer for the compiled 0/1 models.

Branch and bound over the binary variables:

  * a dependency-aware (DARS) model is searched on its x core: the x
    binaries and the rows over x alone (budget and precedence). Its g, theta
    and y variables and their penalty and linking rows only linearize the
    penalty, and `build_model` states them in the model's metadata (see
    _Compiled); a continuous variable it does not state is rejected. The
    incumbent is kept as its fixings; `solve` fills every value once from
    that final selection in closed form (g = x, theta = the penalty floor,
    y = theta x). Solution.x holds the search binaries in declaration order
    (for a built model, the x binaries in requirement order), and
    Solution.theta and Solution.y hold one entry per x;
  * node order: best bound first, ties by lowest branching-variable index,
    then by creation order; the child fixing the variable to 1 is created
    first. The root is an ordinary node: once its rows are propagated it is
    scored, pushed and expanded like any other, and each expanded node
    starts one greedy dive to a leaf. Its leaves complete the node, so the
    node is not checked again after the dive;
  * every all-binary row is searched in the form a.x <= b: a ">=" row as
    its negation, an "=" row as its "<=" half followed by its negated half.
    Negation is exact in floating point, so each test on a negated row
    gives the verdict the ">=" test on the row itself would;
  * at every node a unit-propagation pass over these rows fixes implied
    variables (precedence chains, exhausted budget) and detects infeasible
    subtrees early. Each row keeps its entries sorted by |coefficient|,
    largest first, so a scan stops at the first entry that can still move
    without breaking the row; the free entries passed over are fixed in row
    order, so propagation fixes the same variables in the same order as a
    full rescan of the row;
  * node state only grows along a path, so each node carries it from its
    creation, through the heap, to its expansion, and a child adds only
    what it fixed: a bytearray of fixings, one float list of least row
    activities, one scan cursor per row (the entries before it are fixed
    and passed, so a scan resumes there, and a row whose cursor entry
    still fits is not scanned), and the penalty floor. Only the root sums
    its activities from the rows and starts from a zero floor. The
    branching variable is the first free one in branch_order at or after
    the rank just past the parent's;
  * the knapsack row is the first non-">=" all-binary row with non-negative
    coefficients (the budget or price row every builder emits first);
  * bounds are admissible: a fractional knapsack relaxation over the
    knapsack row of the objective still obtainable, each value discounted
    by the penalty floor already implied by the fixed part of the selection.
    The floor tables B0 and B1 are stored once, transposed: row j holds the
    floors that fixing x_j to 0 or 1 imposes, so a child raises its
    parent's floor by the rows of the binaries its propagation fixed (a
    dive raises it once, at its leaf, over every fixing on the way).

Ties between equal-objective optima (within 1e-12) break lexicographically:
the smallest Solution.x read as a binary string, its first entry most
significant.
Nodes are pruned when their bound falls below the incumbent by more than
1e-9, or when they can at best tie but their zero-filled selection string
already loses the tie-break; both rules keep the lexicographic choice
exact. When every objective coefficient is a multiple of a common quantum,
bounds are floored onto that grid first, which collapses the bound plateau
of price-style models whose budget weights equal the objective.

Solutions report proven optimality; node or time limits return the best
incumbent flagged non-proven instead of raising.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .selection_models import BINARY, CONTINUOUS, LinearModel

OPTIMAL = "OPTIMAL"
INFEASIBLE = "INFEASIBLE"
FEASIBLE = "FEASIBLE"
UNKNOWN = "UNKNOWN"

FEAS_EPS = 1e-9
PRUNE_EPS = 1e-9
TIE_EPS = 1e-12

FREE = 255  # an unfixed binary in the bytearray state; an int8 view reads it as -1

@dataclass(frozen=True)
class SolverLimits:
    max_nodes: int | None = None
    max_seconds: float | None = None


@dataclass(frozen=True)
class SolveStats:
    nodes: int
    elapsed_s: float
    root_bound: float | None


@dataclass(frozen=True)
class Solution:
    status: str
    objective: float | None
    values: dict[str, float]
    x: tuple[int, ...]
    theta: tuple[float, ...] | None  # one per x; None for a model without stated links
    y: tuple[float, ...] | None
    proven: bool
    stats: SolveStats
    x_names: tuple[str, ...] = ()  # the variable behind each entry of x

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", dict(self.values))
        object.__setattr__(self, "x", tuple(self.x))


@dataclass(frozen=True)
class VerificationReport:
    max_violation: float
    objective_delta: float
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations and abs(self.objective_delta) <= 1e-6


class _Row:
    """An all-binary row sum(coefs[p] * x[vars[p]]) <= rhs over compact
    binary indices; a ">=" or "=" model row becomes one or two of these."""

    __slots__ = ("vars", "coefs", "rhs", "lim", "order")

    def __init__(self, vars_: list[int], coefs: list[float], rhs: float):
        self.vars = vars_
        self.coefs = coefs
        self.rhs = rhs
        self.lim = rhs + FEAS_EPS
        # (position, |coefficient|) by |coefficient| descending, ties by
        # position, closed by a (len, 0.0) entry that only an infeasible
        # activity passes, so a scan cursor never runs off the end
        self.order = sorted(((p, abs(a)) for p, a in enumerate(coefs)), key=lambda e: -e[1])
        self.order.append((len(coefs), 0.0))


class _Compiled:
    """Model preprocessed for search: compact binary indexing, all-binary
    rows in "<=" form, the knapsack row, penalty-floor table.

    A DARS model's metadata states its linearization: "links" holds one
    (x, g, theta, y) name tuple per requirement, in requirement order (g is
    x in a simplified model), and "influence" the matrix I its penalty rows
    were written from. The stated theta, y and g, and every row over them,
    stay out of the search (the model's x core), and the floor table is read
    off I. Every continuous variable must be a stated theta or y, so a DARS
    model parsed from an LP file, which states nothing, is rejected;
    `verify_solution` is what checks a solution against the penalty rows."""

    def __init__(self, m: LinearModel):
        self.names = [v.name for v in m.variables]
        self.index = {name: i for i, name in enumerate(self.names)}
        self.nvars = len(self.names)
        self.maximize = m.objective_sense == "max"
        c = np.zeros(self.nvars)
        for name, coef in m.objective.items():
            c[self.index[name]] = coef
        self.c = c if self.maximize else -c

        # the linearization build_model states: one (x, g, theta, y) name
        # tuple per requirement (g is x when simplified) and the matrix I its
        # penalty rows were written from
        links = [[self.index[name] for name in link] for link in m.metadata.get("links", ())]
        stated = {i for x, g, t, y in links for i in (g, t, y) if i != x}
        for v in m.variables:
            if v.kind == CONTINUOUS and self.index[v.name] not in stated:
                raise ValidationError(
                    f"variable {v.name}: a continuous variable must be a theta or y that "
                    "build_model states"
                )

        self.bin_vars = [
            i for i, v in enumerate(m.variables) if v.kind == BINARY and i not in stated
        ]
        self.nbin = len(self.bin_vars)
        self.bpos = {v: b for b, v in enumerate(self.bin_vars)}
        self.c_bin = self.c[self.bin_vars] if self.nbin else np.zeros(0)

        # theta_i, y_i and g_i belong to x_i, the i-th search binary
        self.theta_idx = np.array([t for _, _, t, _ in links], dtype=np.intp)
        self.y_idx = np.array([y for _, _, _, y in links], dtype=np.intp)
        echoes = [(g, x) for x, g, *_ in links if g != x]
        self.g_idx = np.array([g for g, _ in echoes], dtype=np.intp)
        self.g_src = np.array([x for _, x in echoes], dtype=np.intp)

        # penalty rows theta_i + I_ij x_j >= max(I_ij, 0) floor theta_i at
        # max(I_ij, 0) while x_j = 0 and at max(-I_ij, 0) once x_j = 1: B0[j, i]
        # and B1[j, i], so row j holds the floors that fixing x_j imposes.
        # Both are views of one table B whose row j + nbin * v is the row of x_j = v.
        self.B = self.B0 = self.B1 = None
        if links:
            infl = m.metadata["influence"]
            self.B = np.concatenate(
                (np.where(infl > 0, infl, 0.0).T, np.where(infl < 0, -infl, 0.0).T)
            )
            self.B0, self.B1 = self.B[: self.nbin], self.B[self.nbin :]
        self.binrows: list[_Row] = []
        self.kn_row: int | None = None
        for con in m.constraints:
            idxs = [self.index[name] for name in con.coeffs]
            if not stated.isdisjoint(idxs):
                continue
            coefs = [float(a) for a in con.coeffs.values()]
            bidx = [self.bpos[i] for i in idxs]
            rhs = float(con.rhs)
            if con.relation != ">=":
                # the first one: every builder emits its budget/price row first
                if self.kn_row is None and all(a >= 0 for a in coefs):
                    self.kn_row = len(self.binrows)
                self.binrows.append(_Row(bidx, coefs, rhs))
            if con.relation != "<=":
                self.binrows.append(_Row(bidx, [-a for a in coefs], -rhs))
        self.nbinrows = len(self.binrows)

        self.occ: list[list[tuple[int, float]]] = [[] for _ in range(self.nbin)]
        for rid, row in enumerate(self.binrows):
            for b, a in zip(row.vars, row.coefs):
                self.occ[b].append((rid, a))

        self.w_bin = np.zeros(self.nbin)
        self.kn_rhs = math.inf
        if self.kn_row is not None:
            kn = self.binrows[self.kn_row]
            self.w_bin[kn.vars] = kn.coefs
            self.kn_rhs = kn.rhs
        self._detect_objective_quantum()

        tiny = 1e-300
        ratio = self.c_bin / np.maximum(self.w_bin, tiny)
        self.branch_order = sorted(range(self.nbin), key=lambda b: (-ratio[b], b))
        self.branch_rank = [0] * self.nbin
        for k, b in enumerate(self.branch_order):
            self.branch_rank[b] = k

    def _detect_objective_quantum(self) -> None:
        """Find a common quantum of the objective coefficients, if any.

        When every coefficient is an integer multiple of some q (whole or
        two-decimal input data, say) every attainable objective lies on the
        q-grid, so fractional bounds can be floored onto it. That is what
        prunes the plateau of a budget row whose weights equal the objective
        (pure price models): the relaxation sticks at the budget while the
        floored bound drops to the best reachable grid point. Models with an
        objective term outside the search binaries get no grid. Quanta tiny
        relative to the coefficient mass are rejected: flooring would then
        sit inside floating-point noise.
        """
        self.obj_quantum: float | None = None
        outside = np.ones(self.nvars, dtype=bool)
        outside[self.bin_vars] = False
        if np.any(self.c[outside] != 0.0):
            return
        nz = np.abs(self.c_bin[self.c_bin != 0.0])
        if nz.size == 0:
            return
        floor_guard = 1e-7 * float(nz.sum())
        for scale in (1.0, 10.0, 100.0, 1e3, 1e4, 1e5):
            scaled = nz * scale
            ints = np.rint(scaled)
            if np.abs(scaled - ints).max() <= 1e-7:
                q = math.gcd(*ints.astype(np.int64).tolist()) / scale
                if q >= floor_guard:
                    self.obj_quantum = q
                return


def _frac_knapsack(w: np.ndarray, p: np.ndarray, cap: float) -> float:
    if p.size == 0 or cap < 0:
        return 0.0
    order = np.argsort(-(p / np.maximum(w, 1e-300)), kind="stable")
    ws = w[order]
    cw = np.cumsum(ws)
    k = int(np.searchsorted(cw, cap + 1e-12, side="right"))
    ps = p[order]
    total = float(ps[:k].sum())
    if k < ws.size:
        prev = float(cw[k - 1]) if k > 0 else 0.0
        room = cap - prev
        if room > 0:
            total += float(ps[k]) * (room / float(ws[k]))
    return total


class _Search:
    def __init__(self, comp: _Compiled, limits: SolverLimits):
        self.comp = comp
        self.limits = limits
        self.nodes = 0
        self.seq = 0
        self.heap: list = []
        self.inc_obj = -math.inf
        self.inc_key: tuple[int, ...] | None = None
        self.inc_fix: np.ndarray | None = None
        self.inc_floor: np.ndarray | None = None  # the penalty floor of inc_fix
        self.hit_limit = False
        self.t0 = time.perf_counter()

    # ---- propagation over all-binary rows ----

    def _scan_row(self, rid: int, fixed, minact, pos, queue) -> bool:
        # entries go by |a| descending and float addition is monotone, so the
        # first entry that fits ends a scan; fixings keep row order. minact
        # only rises along a path and every entry a scan passes is fixed when
        # it ends, so the scan resumes at the row's cursor pos[rid] and forces
        # what a scan from the first entry would
        row = self.comp.binrows[rid]
        lim = row.lim
        lo = minact[rid]
        if lo > lim:
            return False
        order, vars_ = row.order, row.vars
        k = pos[rid]
        forced = []
        while lo + order[k][1] > lim:
            p = order[k][0]
            if fixed[vars_[p]] == FREE:
                forced.append(p)
            k += 1
        pos[rid] = k
        for p in sorted(forced):
            fixed[vars_[p]] = 0 if row.coefs[p] > 0 else 1
            queue.append(vars_[p])
        return True

    def _propagate(self, fixed, minact, pos, queue) -> bool:
        # queue entries are set in `fixed` but not yet folded into activities
        binrows, occ = self.comp.binrows, self.comp.occ
        head = 0
        while head < len(queue):
            b = queue[head]
            head += 1
            val = fixed[b]
            for rid, a in occ[b]:
                if val == 1:
                    lo = minact[rid] = minact[rid] + (a - (a if a < 0 else 0.0))
                else:
                    lo = minact[rid] = minact[rid] - (a if a < 0 else 0.0)
                # while the entry at the cursor fits (|a| >= 0) the row is
                # feasible and a scan would force nothing
                row = binrows[rid]
                if lo + row.order[pos[rid]][1] > row.lim and not self._scan_row(
                    rid, fixed, minact, pos, queue
                ):
                    return False
        return True

    # ---- bounds ----

    def _raise(self, floor, fixed, fixings) -> np.ndarray | None:
        """The penalty floor raised by the floors the given fixed binaries
        impose; None for a model without penalty rows. Floors are never
        written in place, so nodes share them freely."""
        if floor is None or not fixings:
            return floor
        n = self.comp.nbin
        rows = self.comp.B.take([b + n * fixed[b] for b in fixings], axis=0)
        return np.maximum(floor, rows.max(axis=0))

    def _grid_floor(self, bound: float) -> float:
        # attainable objectives sit on the quantum grid, so a fractional
        # bound rounds down to the nearest grid point (small forgiveness
        # absorbs float noise in the bound itself)
        q = self.comp.obj_quantum
        if q is None or not math.isfinite(bound):
            return bound
        return math.floor(bound / q + 1e-5) * q

    def _bound(self, fv, floor) -> float:
        comp = self.comp
        # a selected requirement is worth at most its value past the floor
        v = comp.c_bin if floor is None else comp.c_bin * (1.0 - floor)
        sel = fv == 1
        base = float(v[sel].sum())
        mask = (fv == -1) & (v > 0)
        if comp.kn_row is None:
            return self._grid_floor(base + float(v[mask].sum()))
        cap = comp.kn_rhs - float(comp.w_bin[sel].sum())
        if cap < -FEAS_EPS:
            return -math.inf
        return self._grid_floor(base + _frac_knapsack(comp.w_bin[mask], v[mask], cap))

    # ---- leaves ----

    def _leaf(self, fv, floor) -> float:
        comp = self.comp
        sel = fv == 1
        if floor is not None:
            obj = float(np.dot(comp.c_bin[sel], 1.0 - floor[sel]))
        else:
            obj = float(np.dot(comp.c_bin, sel.astype(np.float64)))
        key = tuple(fv.tolist())
        if self._improves(obj, key):
            self.inc_obj, self.inc_key = obj, key
            self.inc_fix, self.inc_floor = fv.copy(), floor
        return obj

    def _improves(self, obj: float, key: tuple[int, ...]) -> bool:
        if obj > self.inc_obj + TIE_EPS:
            return True
        return obj >= self.inc_obj - TIE_EPS and self.inc_key is not None and key < self.inc_key

    def _pruned(self, bound: float, fv) -> bool:
        if bound < self.inc_obj - PRUNE_EPS:
            return True
        # a subtree that can at best tie the incumbent is useful only for
        # the lexicographic tie-break. Every completion's selection string
        # dominates the zero-filled one bitwise, so when even that floor is
        # not smaller than the incumbent key the subtree cannot win a tie.
        if self.inc_key is None or bound > self.inc_obj + TIE_EPS:
            return False
        zf = tuple((fv == 1).astype(np.int8).tolist())
        return zf >= self.inc_key

    # ---- tree ----

    def _branch_var(self, fixed, k: int) -> int:
        # the variables before rank k of branch_order are fixed on this path
        order = self.comp.branch_order
        for r in range(k, len(order)):
            if fixed[order[r]] == FREE:
                return order[r]
        return -1

    def _try_child(self, fixed, minact, pos, b: int, val: int):
        """The child's fixings, activities and cursors, and the queue of the
        binaries it fixed; None when propagation proves it infeasible."""
        f = fixed[:]
        mi = minact[:]
        ps = pos[:]
        f[b] = val
        self.nodes += 1
        queue = [b]
        if not self._propagate(f, mi, ps, queue):
            return None
        return f, mi, ps, queue

    def _enter(self, f, mi, pos, floor, k: int) -> float:
        """A node's bound, or a leaf's objective; an unpruned non-leaf joins
        the heap with its fixings, row activities, scan cursors and floor."""
        fv = np.frombuffer(f, np.int8)
        bvar = self._branch_var(f, k)
        if bvar == -1:
            return self._leaf(fv, floor)
        bound = self._bound(fv, floor)
        if not self._pruned(bound, fv):
            self.seq += 1
            heapq.heappush(self.heap, (-bound, bvar, self.seq, f, mi, pos, floor))
        return bound

    def _expand(self, bound: float, bvar: int, f: bytearray, mi, pos, floor) -> None:
        fv = np.frombuffer(f, np.int8)
        if self._pruned(bound, fv):
            return
        # plunge: a greedy dive from every expanded node keeps the
        # incumbent close to the best bound instead of waiting for the
        # breadth-dominated heap to reach leaves on its own
        k = self.comp.branch_rank[bvar]
        self._dive(f, mi, pos, floor, k)
        for val in (1, 0):
            child = self._try_child(f, mi, pos, bvar, val)
            if child is not None:
                cf, cmi, cpos, queue = child
                self._enter(cf, cmi, cpos, self._raise(floor, cf, queue), k + 1)

    def _dive(self, f, mi, pos, floor, k: int) -> None:
        # _try_child copies, so the caller's node state is left as it was;
        # the floor is raised once, at the leaf, over every queue on the way
        fixings: list[int] = []
        while True:
            b = self._branch_var(f, k)
            if b == -1:
                self._leaf(np.frombuffer(f, np.int8), self._raise(floor, f, fixings))
                return
            child = self._try_child(f, mi, pos, b, 1)
            if child is None:
                child = self._try_child(f, mi, pos, b, 0)
            if child is None:
                return
            f, mi, pos, queue = child
            fixings += queue
            k = self.comp.branch_rank[b] + 1

    def _over_limit(self, ticks: int) -> bool:
        lim = self.limits
        if lim.max_nodes is not None and self.nodes >= lim.max_nodes:
            return True
        if (
            lim.max_seconds is not None
            and (ticks & 0x7F) == 0
            and time.perf_counter() - self.t0 > lim.max_seconds
        ):
            return True
        return False

    def run(self) -> float | None:
        """The root bound (a leaf root: its objective), or None for an infeasible root."""
        comp = self.comp
        fixed = bytearray([FREE]) * comp.nbin
        minact = [sum(min(a, 0.0) for a in row.coefs) for row in comp.binrows]
        pos = [0] * comp.nbinrows
        queue: list[int] = []
        self.nodes = 1
        ok = all(
            self._scan_row(rid, fixed, minact, pos, queue) for rid in range(comp.nbinrows)
        ) and self._propagate(fixed, minact, pos, queue)
        if not ok:
            return None
        floor = None if comp.B is None else np.zeros(comp.nbin)
        root_bound = self._enter(fixed, minact, pos, self._raise(floor, fixed, queue), 0)
        ticks = 0
        while self.heap:
            negb, bvar, _, *node = heapq.heappop(self.heap)
            self._expand(-negb, bvar, *node)
            ticks += 1
            if self.heap and self._over_limit(ticks):
                self.hit_limit = True
                break
        return root_bound


def solve(m: LinearModel, limits: SolverLimits | None = None) -> Solution:
    """Solve a compiled model to proven optimality (default: no limits)."""
    comp = _Compiled(m)
    search = _Search(comp, limits or SolverLimits())
    root_bound = search.run()
    elapsed = time.perf_counter() - search.t0
    sign = 1.0 if comp.maximize else -1.0
    root = None if root_bound is None or not math.isfinite(root_bound) else sign * root_bound
    stats = SolveStats(nodes=search.nodes, elapsed_s=elapsed, root_bound=root)

    if search.inc_fix is None:
        status = UNKNOWN if search.hit_limit else INFEASIBLE
        return Solution(status, None, {}, (), None, None, not search.hit_limit, stats)

    fv, floor = search.inc_fix, search.inc_floor
    vals = np.zeros(comp.nvars)
    vals[comp.bin_vars] = fv
    # the linearization in closed form: g = x, theta = floor, y = theta x
    vals[comp.g_idx] = vals[comp.g_src]
    theta = y = None
    if floor is not None:
        yy = floor * (fv == 1)
        vals[comp.theta_idx] = floor
        vals[comp.y_idx] = yy
        theta, y = tuple(floor.tolist()), tuple(yy.tolist())
    values = dict(zip(comp.names, vals.tolist()))
    objective = sign * search.inc_obj
    status = FEASIBLE if search.hit_limit else OPTIMAL
    x_names = tuple(comp.names[i] for i in comp.bin_vars)
    return Solution(
        status, objective, values, search.inc_key, theta, y, not search.hit_limit, stats, x_names
    )


def verify_solution(m: LinearModel, s: Solution) -> VerificationReport:
    """Re-evaluate every row, the bounds and the objective of a solution."""
    if not s.values:
        note = () if s.status in (INFEASIBLE, UNKNOWN) else ("no assignment to verify",)
        return VerificationReport(0.0, 0.0, note)
    violations: list[str] = []
    worst = 0.0
    vals: dict[str, float] = {}
    for v in m.variables:
        if v.name not in s.values:
            violations.append(f"variable {v.name}: missing from solution")
            vals[v.name] = 0.0
            continue
        value = float(s.values[v.name])
        vals[v.name] = value
        over = max(v.lower - value, value - v.upper, 0.0)
        if v.kind == BINARY:
            over = max(over, abs(value - round(value)))
        if over > FEAS_EPS:
            violations.append(f"variable {v.name}: bound violation {over:.3g}")
        worst = max(worst, over)
    for c in m.constraints:
        act = sum(a * vals.get(nm, 0.0) for nm, a in c.coeffs.items())
        if c.relation == "<=":
            over = act - c.rhs
        elif c.relation == ">=":
            over = c.rhs - act
        else:
            over = abs(act - c.rhs)
        over = max(over, 0.0)
        if over > FEAS_EPS:
            violations.append(f"constraint {c.name}: violated by {over:.3g}")
        worst = max(worst, over)
    recomputed = sum(coef * vals.get(nm, 0.0) for nm, coef in m.objective.items())
    delta = recomputed - (s.objective if s.objective is not None else 0.0)
    return VerificationReport(worst, float(delta), tuple(violations))


def solution_report(m: LinearModel, s: Solution) -> dict:
    """Solution as a JSON-ready dict keyed by requirement ids, or by the
    names of the x variables when the model carries no ids (a parsed LP)."""
    ids = m.metadata.get("requirement_ids") or s.x_names
    selected = [ids[i] for i, xi in enumerate(s.x) if xi == 1]
    theta = {ids[i]: t for i, t in enumerate(s.theta or ())}
    return {
        "status": s.status,
        "selected": selected,
        "objective": s.objective,
        "theta": theta,
        "proven": s.proven,
        "stats": {"nodes": s.stats.nodes, "root_bound": s.stats.root_bound},
    }
