"""Exact deterministic optimizer for the compiled 0/1 models.

Branch and bound over the binary variables:

  * a dependency-aware (DARS) model is searched on its x core: the x
    binaries and the rows over x alone (budget and precedence). Its g, theta
    and y variables and their penalty and linking rows only linearize the
    penalty. One walk over the rows indexes them and finds the link and pair
    rows by shape, and a second sorts them into search rows, penalty floors
    and linking rows (see _Compiled), so a model parsed from an LP file is
    searched exactly like a built one. A continuous variable or a row over
    theta, y or g that fits no shape is rejected. The incumbent is kept as
    its fixings; `solve` fills every value once from that final selection
    in closed form (g = x, theta = the penalty floor, y = theta x), and
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
    subtrees early. Node state is plain Python: a bytearray of fixings and
    one float list of least row activities. A node carries both from its
    creation, through the heap, to its expansion; only the root's
    activities are summed from the rows. Each row keeps its entries sorted
    by |coefficient|, largest first, so a scan stops at the first entry
    that can still move without breaking the row; the free entries passed
    over are fixed in row order, so propagation fixes the same variables in
    the same order as a full rescan of the row;
  * the knapsack row is the first non-">=" all-binary row with non-negative
    coefficients (the budget or price row every builder emits first);
  * bounds are admissible: a fractional knapsack relaxation over the
    knapsack row of the objective still obtainable, each value discounted
    by the penalty floor already implied by the fixed part of the selection.

Ties between equal-objective optima (within 1e-12) break lexicographically:
the smallest selection vector read as a binary string, x1 most significant.
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

# (kind, coefficient) entries of a link row theta - y + b <= 1 and of a pair row u - v <= 0
_LINK_SHAPE = {(CONTINUOUS, 1.0), (CONTINUOUS, -1.0), (BINARY, 1.0)}
_PAIR_SHAPE = {(BINARY, 1.0), (BINARY, -1.0)}

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
    theta: tuple[float, ...] | None  # one per x; None for a model without link rows
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

    __slots__ = ("vars", "coefs", "rhs", "order")

    def __init__(self, vars_: list[int], coefs: list[float], rhs: float):
        self.vars = vars_
        self.coefs = coefs
        self.rhs = rhs
        # (position, |coefficient|) by |coefficient| descending, ties by position
        self.order = sorted(((p, abs(a)) for p, a in enumerate(coefs)), key=lambda e: -e[1])


class _Compiled:
    """Model preprocessed for search: compact binary indexing, all-binary
    rows in "<=" form, the knapsack row, penalty-floor table.

    The theta, y and g variables of a DARS linearization, and every row over
    them, stay out of the search (the model's x core). A link row
    theta - y + b <= 1 has one continuous entry at +1 (theta), one at -1 (y)
    and one binary at +1 (b). b is the echo g of x when the rows x - b <= 0
    and b - x <= 0 both exist and x owns no link row; otherwise b is x.
    Every continuous variable must be the theta or y of one link row and
    each x may own one link row. The closed form at the leaves needs the
    objective to read E x - E y with E >= 0 and no theta or g term, and
    theta and y to lie in [0, 1]."""

    def __init__(self, m: LinearModel):
        self.names = [v.name for v in m.variables]
        self.index = {name: i for i, name in enumerate(self.names)}
        self.nvars = len(self.names)
        self.maximize = m.objective_sense == "max"
        c = np.zeros(self.nvars)
        for name, coef in m.objective.items():
            c[self.index[name]] = coef
        self.c = c if self.maximize else -c

        # one walk indexes every row and collects the link rows (theta, y, b)
        # and the pair rows u - v <= 0 (below[v] lists u)
        kinds = [v.kind for v in m.variables]
        rows, links, below = [], [], {}
        for con in m.constraints:
            idxs = [self.index[name] for name in con.coeffs]
            coefs = [float(a) for a in con.coeffs.values()]
            rows.append((idxs, coefs))
            if con.relation != "<=" or (len(idxs), con.rhs) not in ((3, 1.0), (2, 0.0)):
                continue
            shape = {(kinds[i], a): i for i, a in zip(idxs, coefs)}
            if shape.keys() == _LINK_SHAPE:
                links.append(
                    (shape[CONTINUOUS, 1.0], shape[CONTINUOUS, -1.0], shape[BINARY, 1.0])
                )
            elif shape.keys() == _PAIR_SHAPE:
                below.setdefault(shape[BINARY, -1.0], []).append(shape[BINARY, 1.0])
        bs = {b for *_, b in links}

        def x_of(b: int) -> int:
            return next((x for x in below.get(b, ()) if x not in bs and b in below.get(x, ())), b)

        links = [(t, y, b, x_of(b)) for t, y, b in links]
        roles = sorted(i for t, y, *_ in links for i in (t, y))
        cont = [i for i, kind in enumerate(kinds) if kind == CONTINUOUS]
        if roles != cont:
            stray = next(i for i in cont if roles.count(i) != 1)
            raise ValidationError(
                f"variable {self.names[stray]}: a continuous variable must be the theta "
                "or y of exactly one link row"
            )
        if len({x for *_, x in links}) != len(links):
            raise ValidationError("a binary owns more than one link row")
        c = self.c.tolist()
        for t, y, b, x in links:
            bounds = [(m.variables[i].lower, m.variables[i].upper) for i in (t, y)]
            if c[y] != -c[x] or c[x] < 0 or c[t] or (b != x and c[b]) or bounds != [(0, 1)] * 2:
                raise ValidationError(
                    f"variables {self.names[t]}, {self.names[y]}: the objective must read "
                    "E x - E y with E >= 0 and no theta or g term, and theta and y must lie "
                    "in [0, 1]"
                )
        linear = {i for t, y, b, x in links for i in (t, y, b) if i != x}

        self.bin_vars = [
            i for i, v in enumerate(m.variables) if v.kind == BINARY and i not in linear
        ]
        self.nbin = len(self.bin_vars)
        self.bpos = {v: b for b, v in enumerate(self.bin_vars)}
        self.c_bin = self.c[self.bin_vars] if self.nbin else np.zeros(0)

        # theta_i, y_i and g_i belong to their owner x_i, in binary order
        links.sort(key=lambda link: self.bpos[link[3]])
        self.theta_idx = np.array([t for t, *_ in links], dtype=np.intp)
        self.y_idx = np.array([y for _, y, *_ in links], dtype=np.intp)
        self.theta_pos = np.array([self.bpos[x] for *_, x in links], dtype=np.intp)
        echoes = [(b, x) for _, _, b, x in links if b != x]
        self.g_idx = np.array([b for b, _ in echoes], dtype=np.intp)
        self.g_src = np.array([x for _, x in echoes], dtype=np.intp)

        # rows a link may carry besides penalty rows: the link row, y - b <= 0,
        # and for an echo g the pair x - g <= 0, g - x <= 0
        allowed = set()
        for t, y, b, x in links:
            allowed.add(("<=", 1.0, frozenset(((t, 1.0), (y, -1.0), (b, 1.0)))))
            allowed.add(("<=", 0.0, frozenset(((y, 1.0), (b, -1.0)))))
            if b != x:
                allowed.add(("<=", 0.0, frozenset(((x, 1.0), (b, -1.0)))))
                allowed.add(("<=", 0.0, frozenset(((b, 1.0), (x, -1.0)))))
        # penalty rows theta_i + w x_j >= rhs floor theta_i at rhs while x_j = 0
        # and at rhs - w once x_j = 1
        owner = dict(zip(self.theta_idx.tolist(), self.theta_pos.tolist()))
        self.B0 = self.B1 = None
        if links:
            self.B0 = np.zeros((self.nbin, self.nbin))
            self.B1 = np.zeros((self.nbin, self.nbin))
        self.binrows: list[_Row] = []
        self.kn_row: int | None = None
        for con, (idxs, coefs) in zip(m.constraints, rows):
            if linear.isdisjoint(idxs):
                bidx = [self.bpos[i] for i in idxs]
                rhs = float(con.rhs)
                if con.relation != ">=":
                    # the first one: every builder emits its budget/price row first
                    if self.kn_row is None and all(a >= 0 for a in coefs):
                        self.kn_row = len(self.binrows)
                    self.binrows.append(_Row(bidx, coefs, rhs))
                if con.relation != "<=":
                    self.binrows.append(_Row(bidx, [-a for a in coefs], -rhs))
                continue
            if con.relation == ">=" and len(idxs) == 2:
                (t, a), (j, w) = sorted(zip(idxs, coefs), key=lambda e: e[0] not in owner)
                if t in owner and a == 1.0 and j in self.bpos:
                    self.B0[owner[t], self.bpos[j]] = con.rhs
                    self.B1[owner[t], self.bpos[j]] = con.rhs - w
                    continue
            if (con.relation, con.rhs, frozenset(zip(idxs, coefs))) not in allowed:
                raise ValidationError(
                    f"constraint {con.name}: a row over theta, y or g must be a link, "
                    "echo or penalty row"
                )
        if links and max(self.B0.max(), self.B1.max()) > 1.0:
            raise ValidationError("penalty rows floor theta above its upper bound 1")
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

        x_names = m.metadata.get("x_names")
        if x_names and all(nm in self.index for nm in x_names):
            self.x_compact = np.array([self.bpos[self.index[nm]] for nm in x_names], dtype=np.intp)
        else:
            self.x_compact = np.arange(self.nbin, dtype=np.intp)

        tiny = 1e-300
        ratio = self.c_bin / np.maximum(self.w_bin, tiny)
        self.branch_order = sorted(range(self.nbin), key=lambda b: (-ratio[b], b))

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
        self.hit_limit = False
        self.t0 = time.perf_counter()

    # ---- propagation over all-binary rows ----

    def _scan_row(self, rid: int, fixed, minact, queue) -> bool:
        # entries go by |a| descending and float addition is monotone, so the
        # first entry that fits ends a scan; fixings keep row order
        row = self.comp.binrows[rid]
        rhs = row.rhs
        lo = minact[rid]
        if lo > rhs + FEAS_EPS:
            return False
        forced = []
        for p, au in row.order:
            if not lo + au > rhs + FEAS_EPS:
                break
            if fixed[row.vars[p]] == FREE:
                forced.append(p)
        for p in sorted(forced):
            fixed[row.vars[p]] = 0 if row.coefs[p] > 0 else 1
            queue.append(row.vars[p])
        return True

    def _propagate(self, fixed, minact, queue) -> bool:
        # queue entries are set in `fixed` but not yet folded into activities
        occ = self.comp.occ
        head = 0
        while head < len(queue):
            b = queue[head]
            head += 1
            val = fixed[b]
            for rid, a in occ[b]:
                if val == 1:
                    minact[rid] += a - (a if a < 0 else 0.0)
                else:
                    minact[rid] -= a if a < 0 else 0.0
                if not self._scan_row(rid, fixed, minact, queue):
                    return False
        return True

    # ---- bounds ----

    def _floor(self, fv) -> np.ndarray | None:
        """Penalty floor of each binary's requirement implied by the fixed
        binaries, or None for a model without penalty rows."""
        comp = self.comp
        if comp.B0 is None:
            return None
        th = np.zeros(comp.nbin)
        m1 = fv == 1
        m0 = fv == 0
        if m1.any():
            np.maximum(th, comp.B1[:, m1].max(axis=1), out=th)
        if m0.any():
            np.maximum(th, comp.B0[:, m0].max(axis=1), out=th)
        return th

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
        key = tuple(fv[comp.x_compact].tolist())
        if self._improves(obj, key):
            self.inc_obj, self.inc_key, self.inc_fix = obj, key, fv.copy()
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
        zf = tuple((fv[self.comp.x_compact] == 1).astype(np.int8).tolist())
        return zf >= self.inc_key

    # ---- tree ----

    def _branch_var(self, fixed) -> int:
        for b in self.comp.branch_order:
            if fixed[b] == FREE:
                return b
        return -1

    def _try_child(self, fixed, minact, b: int, val: int):
        f = fixed[:]
        mi = minact[:]
        f[b] = val
        self.nodes += 1
        if not self._propagate(f, mi, [b]):
            return None
        return f, mi

    def _enter(self, f, mi) -> float:
        """A node's bound, or a leaf's objective; an unpruned non-leaf joins
        the heap with its fixings and row activities."""
        fv = np.frombuffer(f, np.int8)
        floor = self._floor(fv)
        bvar = self._branch_var(f)
        if bvar == -1:
            return self._leaf(fv, floor)
        bound = self._bound(fv, floor)
        if not self._pruned(bound, fv):
            self.seq += 1
            heapq.heappush(self.heap, (-bound, bvar, self.seq, f, mi))
        return bound

    def _expand(self, bound: float, bvar: int, f: bytearray, mi) -> None:
        fv = np.frombuffer(f, np.int8)
        if self._pruned(bound, fv):
            return
        # plunge: a greedy dive from every expanded node keeps the
        # incumbent close to the best bound instead of waiting for the
        # breadth-dominated heap to reach leaves on its own
        self._dive(f, mi)
        for val in (1, 0):
            child = self._try_child(f, mi, bvar, val)
            if child is not None:
                self._enter(*child)

    def _dive(self, f, mi) -> None:
        # _try_child copies, so the caller's node state is left as it was
        while True:
            b = self._branch_var(f)
            if b == -1:
                fv = np.frombuffer(f, np.int8)
                self._leaf(fv, self._floor(fv))
                return
            child = self._try_child(f, mi, b, 1)
            if child is None:
                child = self._try_child(f, mi, b, 0)
            if child is None:
                return
            f, mi = child

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
        queue: list[int] = []
        self.nodes = 1
        ok = all(
            self._scan_row(rid, fixed, minact, queue) for rid in range(comp.nbinrows)
        ) and self._propagate(fixed, minact, queue)
        if not ok:
            return None
        root_bound = self._enter(fixed, minact)
        ticks = 0
        while self.heap:
            negb, bvar, _, f, mi = heapq.heappop(self.heap)
            self._expand(-negb, bvar, f, mi)
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

    fv = search.inc_fix
    floor = search._floor(fv)
    vals = np.zeros(comp.nvars)
    vals[comp.bin_vars] = fv
    # the linearization in closed form: g = x, theta = floor, y = theta x
    vals[comp.g_idx] = vals[comp.g_src]
    theta = y = None
    if floor is not None:
        yy = floor * (fv == 1)
        vals[comp.theta_idx] = floor[comp.theta_pos]
        vals[comp.y_idx] = yy[comp.theta_pos]
        theta, y = tuple(floor[comp.x_compact].tolist()), tuple(yy[comp.x_compact].tolist())
    values = dict(zip(comp.names, vals.tolist()))
    objective = sign * search.inc_obj
    status = FEASIBLE if search.hit_limit else OPTIMAL
    x_names = tuple(comp.names[comp.bin_vars[b]] for b in comp.x_compact)
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
