"""Exact deterministic optimizer for the compiled 0/1 models.

Branch and bound over the binary variables:

  * node order: best bound first, ties by lowest branching-variable index,
    then by creation order; the child fixing the variable to 1 is created
    first;
  * at every node a unit-propagation pass over the all-binary rows fixes
    implied variables (precedence chains, g == x linking, exhausted budget)
    and detects infeasible subtrees early. Node state is plain Python: a
    bytearray of fixings and float lists of row activities;
  * the knapsack row is the first widest non-">=" all-binary row with
    non-negative coefficients (the budget or price row of every builder).
    When it is a "<=" row its entries are kept sorted by weight, heaviest
    first, and a scan stops at the first weight that still fits the
    residual capacity; the free entries passed over are fixed to 0 in row
    order, so propagation fixes the same variables in the same order as a
    full rescan of the row;
  * bounds are admissible: a fractional knapsack relaxation over the
    knapsack row of the objective still obtainable, with the dependency
    model additionally discounting each requirement by the penalty floor
    already implied by the fixed part of the selection;
  * continuous variables never branch. They are minimal-cost slack: theta
    sits at the largest penalty row implication and y at max(0, theta+g-1),
    so leaves resolve in closed form; foreign models parsed from LP files
    fall back to an iterative lower-bound-raising pass.

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
from scipy import sparse

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

_DENSE_PENALTY_LIMIT = 2048


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
    theta: tuple[float, ...] | None
    y: tuple[float, ...] | None
    proven: bool
    stats: SolveStats

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
    __slots__ = ("vars", "coefs", "relation", "rhs", "by_weight")

    def __init__(self, vars_: list[int], coefs: list[float], relation: str, rhs: float):
        self.vars = vars_
        self.coefs = coefs
        self.relation = relation
        self.rhs = rhs
        # (position, weight) by weight descending, set for a <= knapsack row
        self.by_weight: list[tuple[int, float]] | None = None


class _Compiled:
    """Model preprocessed for search: compact binary indexing, row split,
    sparse activity operators, knapsack-row detection, penalty-row tables."""

    def __init__(self, m: LinearModel):
        self.model = m
        self.names = [v.name for v in m.variables]
        self.index = {name: i for i, name in enumerate(self.names)}
        self.nvars = len(self.names)
        self.lower = np.array([v.lower for v in m.variables])
        self.upper = np.array([v.upper for v in m.variables])
        self.maximize = m.objective_sense == "max"
        c = np.zeros(self.nvars)
        for name, coef in m.objective.items():
            c[self.index[name]] = coef
        self.c = c if self.maximize else -c

        self.bin_vars = [i for i, v in enumerate(m.variables) if v.kind == BINARY]
        self.cont_vars = [i for i, v in enumerate(m.variables) if v.kind == CONTINUOUS]
        self.nbin = len(self.bin_vars)
        self.bpos = {v: b for b, v in enumerate(self.bin_vars)}
        self.c_bin = self.c[self.bin_vars] if self.nbin else np.zeros(0)

        binset = set(self.bin_vars)
        self.binrows: list[_Row] = []
        self.cont_rows: list[_Row] = []  # var entries are model indices here
        for con in m.constraints:
            idxs = [self.index[name] for name in con.coeffs]
            coefs = [float(con.coeffs[name]) for name in con.coeffs]
            if all(i in binset for i in idxs):
                self.binrows.append(
                    _Row([self.bpos[i] for i in idxs], coefs, con.relation, float(con.rhs))
                )
            else:
                self.cont_rows.append(_Row(idxs, coefs, con.relation, float(con.rhs)))
        self.nbinrows = len(self.binrows)

        self.occ: list[list[tuple[int, float]]] = [[] for _ in range(self.nbin)]
        for rid, row in enumerate(self.binrows):
            for b, a in zip(row.vars, row.coefs):
                self.occ[b].append((rid, a))

        if self.nbinrows and self.nbin:
            rows_ix, cols_ix, data = [], [], []
            for rid, row in enumerate(self.binrows):
                for b, a in zip(row.vars, row.coefs):
                    rows_ix.append(rid)
                    cols_ix.append(b)
                    data.append(a)
            A = sparse.csr_array(
                (np.array(data), (np.array(rows_ix), np.array(cols_ix))),
                shape=(self.nbinrows, self.nbin),
            )
            self.A = A
            self.A_neg = A.minimum(0)
            self.A_pos = A.maximum(0)
        else:
            self.A = None

        self._detect_knapsack_row()
        self._detect_objective_quantum()
        self._prepare_metadata_tables()

        # best case of the continuous part, constant over the whole tree
        best = 0.0
        for i in self.cont_vars:
            coef = self.c[i]
            if coef > 0:
                best += coef * self.upper[i]
            elif coef < 0:
                best += coef * self.lower[i]
        self.cont_best = best

        tiny = 1e-300
        ratio = self.c_bin / np.maximum(self.w_bin, tiny)
        self.branch_order = sorted(range(self.nbin), key=lambda b: (-ratio[b], b))

    def _detect_knapsack_row(self) -> None:
        self.w_bin = np.zeros(self.nbin)
        self.kn_rhs = math.inf
        self.kn_row: int | None = None
        candidates = [
            rid
            for rid, row in enumerate(self.binrows)
            if row.relation != ">=" and all(a >= 0 for a in row.coefs)
        ]
        if not candidates:
            return
        # the first widest one: every builder emits its budget/price row first
        chosen = max(candidates, key=lambda r: len(self.binrows[r].vars))
        row = self.binrows[chosen]
        for b, a in zip(row.vars, row.coefs):
            self.w_bin[b] = a
        self.kn_rhs = row.rhs
        self.kn_row = chosen
        if row.relation == "<=":
            row.by_weight = sorted(enumerate(row.coefs), key=lambda t: (-t[1], t[0]))

    def _detect_objective_quantum(self) -> None:
        """Find a common quantum of the objective coefficients, if any.

        When every coefficient is an integer multiple of some q (whole or
        two-decimal input data, say) every attainable objective lies on the
        q-grid, so fractional bounds can be floored onto it. That is what
        prunes the plateau of a budget row whose weights equal the objective
        (pure price models): the relaxation sticks at the budget while the
        floored bound drops to the best reachable grid point. Models with an
        objective term on a continuous variable get no grid. Quanta tiny
        relative to the coefficient mass are rejected: flooring would then
        sit inside floating-point noise.
        """
        self.obj_quantum: float | None = None
        if any(self.c[i] != 0.0 for i in self.cont_vars):
            return
        nz = np.abs(self.c_bin[self.c_bin != 0.0])
        if nz.size == 0:
            return
        floor_guard = 1e-7 * float(nz.sum())
        for scale in (1.0, 10.0, 100.0, 1e3, 1e4, 1e5):
            scaled = nz * scale
            ints = np.rint(scaled)
            if np.abs(scaled - ints).max() <= 1e-7:
                g = 0
                for v in ints.astype(np.int64):
                    g = math.gcd(g, int(v))
                    if g == 1:
                        break
                q = g / scale
                if q >= floor_guard:
                    self.obj_quantum = q
                return

    def _prepare_metadata_tables(self) -> None:
        meta = self.model.metadata
        x_names = meta.get("x_names")
        if x_names and all(nm in self.index for nm in x_names):
            self.x_compact = np.array([self.bpos[self.index[nm]] for nm in x_names], dtype=np.intp)
        else:
            self.x_compact = np.arange(self.nbin, dtype=np.intp)
        self.x_var_idx = np.array([self.bin_vars[b] for b in self.x_compact], dtype=np.intp)

        self.dars = meta.get("kind") == "DARS"
        if not self.dars:
            return
        nx = len(self.x_compact)
        self.nx = nx
        self.E = self.c[self.x_var_idx]
        self.w_x = self.w_bin[self.x_compact]
        self.theta_idx = np.array([self.index[nm] for nm in meta["theta_names"]], dtype=np.intp)
        self.y_idx = np.array([self.index[nm] for nm in meta["y_names"]], dtype=np.intp)
        theta_pos = {int(i): k for k, i in enumerate(self.theta_idx)}
        x_pos = {int(self.x_var_idx[k]): k for k in range(nx)}
        entries = []  # (i, j, rhs, w)
        for con in self.model.constraints:
            if not con.name.startswith("penalty_"):
                continue
            ti = xj = None
            w = 0.0
            for nm, a in con.coeffs.items():
                idx = self.index[nm]
                if idx in theta_pos:
                    ti = theta_pos[idx]
                elif idx in x_pos:
                    xj = x_pos[idx]
                    w = a
            if ti is None or xj is None:
                continue
            entries.append((ti, xj, float(con.rhs), w))
        self.pen_dense = nx <= _DENSE_PENALTY_LIMIT
        if self.pen_dense:
            self.B0 = np.zeros((nx, nx))
            self.B1 = np.zeros((nx, nx))
            for i, j, rhs, w in entries:
                self.B0[i, j] = rhs
                self.B1[i, j] = rhs - w
        else:
            by_j: dict[int, list[tuple[int, float, float]]] = {}
            for i, j, rhs, w in entries:
                by_j.setdefault(j, []).append((i, rhs, rhs - w))
            self.pen_by_j = {
                j: (
                    np.array([t[0] for t in lst], dtype=np.intp),
                    np.array([t[1] for t in lst]),
                    np.array([t[2] for t in lst]),
                )
                for j, lst in by_j.items()
            }


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
        self.inc_vals: np.ndarray | None = None
        self.hit_limit = False
        self.t0 = time.perf_counter()

    # ---- propagation over all-binary rows ----

    def _scan_row(self, rid: int, fixed, minact, maxact, queue) -> bool:
        row = self.comp.binrows[rid]
        rel = row.relation
        rhs = row.rhs
        lo = minact[rid]
        hi = maxact[rid]
        if rel != ">=":
            if lo > rhs + FEAS_EPS:
                return False
            if hi > rhs + FEAS_EPS:  # slack rows cannot force anything
                if row.by_weight is not None:
                    # weights descend and float addition is monotone, so the
                    # first weight that fits ends the scan; fixings keep row order
                    forced = []
                    for p, au in row.by_weight:
                        if not lo + au > rhs + FEAS_EPS:
                            break
                        if fixed[row.vars[p]] == FREE:
                            forced.append(p)
                    for p in sorted(forced):
                        fixed[row.vars[p]] = 0
                        queue.append(row.vars[p])
                    return True
                for u, au in zip(row.vars, row.coefs):
                    if fixed[u] != FREE:
                        continue
                    if au > 0:
                        if lo + au > rhs + FEAS_EPS:
                            fixed[u] = 0
                            queue.append(u)
                    elif lo - au > rhs + FEAS_EPS:
                        fixed[u] = 1
                        queue.append(u)
        if rel != "<=":
            if hi < rhs - FEAS_EPS:
                return False
            if lo < rhs - FEAS_EPS:
                for u, au in zip(row.vars, row.coefs):
                    if fixed[u] != FREE:
                        continue
                    if au > 0:
                        if hi - au < rhs - FEAS_EPS:
                            fixed[u] = 1
                            queue.append(u)
                    elif hi + au < rhs - FEAS_EPS:
                        fixed[u] = 0
                        queue.append(u)
        return True

    def _propagate(self, fixed, minact, maxact, queue) -> bool:
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
                    maxact[rid] += a - (a if a > 0 else 0.0)
                else:
                    minact[rid] -= a if a < 0 else 0.0
                    maxact[rid] -= a if a > 0 else 0.0
                if not self._scan_row(rid, fixed, minact, maxact, queue):
                    return False
        return True

    def _activities(self, fv) -> tuple[list[float], list[float]]:
        comp = self.comp
        if comp.A is None:
            return [0.0] * comp.nbinrows, [0.0] * comp.nbinrows
        sel = (fv == 1).astype(np.float64)
        free = (fv == -1).astype(np.float64)
        act = comp.A @ sel
        return (act + comp.A_neg @ free).tolist(), (act + comp.A_pos @ free).tolist()

    # ---- bounds ----

    def _theta_floor(self, fv) -> np.ndarray | None:
        comp = self.comp
        if not comp.dars:
            return None
        fx = fv[comp.x_compact]
        th = np.zeros(comp.nx)
        if comp.pen_dense:
            m1 = fx == 1
            m0 = fx == 0
            if m1.any():
                np.maximum(th, comp.B1[:, m1].max(axis=1), out=th)
            if m0.any():
                np.maximum(th, comp.B0[:, m0].max(axis=1), out=th)
        else:
            for j, (targets, b0, b1) in comp.pen_by_j.items():
                v = fx[j]
                if v == 1:
                    th[targets] = np.maximum(th[targets], b1)
                elif v == 0:
                    th[targets] = np.maximum(th[targets], b0)
        return th

    def _grid_floor(self, bound: float) -> float:
        # attainable objectives sit on the quantum grid, so a fractional
        # bound rounds down to the nearest grid point (small forgiveness
        # absorbs float noise in the bound itself)
        q = self.comp.obj_quantum
        if q is None or not math.isfinite(bound):
            return bound
        return math.floor(bound / q + 1e-5) * q

    def _bound(self, fv, theta_floor) -> float:
        comp = self.comp
        if comp.dars:
            fx = fv[comp.x_compact]
            ehat = comp.E * (1.0 - theta_floor)
            sel = fx == 1
            base = float(ehat[sel].sum())
            cap = comp.kn_rhs - float(comp.w_x[sel].sum())
            if cap < -FEAS_EPS:
                return -math.inf
            mask = (fx == -1) & (ehat > 0)
            return base + _frac_knapsack(comp.w_x[mask], ehat[mask], cap)
        sel = fv == 1
        base = float(comp.c_bin[sel].sum()) + comp.cont_best
        if comp.kn_row is None:
            free_pos = (fv == -1) & (comp.c_bin > 0)
            return self._grid_floor(base + float(comp.c_bin[free_pos].sum()))
        cap = comp.kn_rhs - float(comp.w_bin[sel].sum())
        if cap < -FEAS_EPS:
            return -math.inf
        mask = (fv == -1) & (comp.c_bin > 0)
        return self._grid_floor(
            base + _frac_knapsack(comp.w_bin[mask], comp.c_bin[mask], cap)
        )

    # ---- leaves ----

    def _resolve_continuous(self, fv) -> np.ndarray | None:
        """Raise continuous variables to the lowest feasible point.

        Sound for models whose continuous part is forced only from below
        (every model this package builds); may conservatively report
        infeasible on foreign LP files outside that family.
        """
        comp = self.comp
        vals = comp.lower.copy()
        vals[comp.bin_vars] = fv
        contset = set(comp.cont_vars)
        for _ in range(len(comp.cont_vars) + 3):
            changed = False
            for row in comp.cont_rows:
                act = sum(a * vals[i] for i, a in zip(row.vars, row.coefs))
                targets = ()
                if row.relation in (">=", "=") and act < row.rhs - 1e-12:
                    targets = [(i, a) for i, a in zip(row.vars, row.coefs) if a > 0 and i in contset]
                elif row.relation == "<=" and act > row.rhs + 1e-12:
                    targets = [(i, a) for i, a in zip(row.vars, row.coefs) if a < 0 and i in contset]
                for i, a in targets:
                    # (rhs - act)/a is a positive raise for both target kinds
                    need = (row.rhs - act) / a
                    new = min(comp.upper[i], vals[i] + need)
                    if new > vals[i] + 1e-15:
                        act += a * (new - vals[i])
                        vals[i] = new
                        changed = True
                    if row.relation != "<=" and act >= row.rhs - 1e-12:
                        break
                    if row.relation == "<=" and act <= row.rhs + 1e-12:
                        break
            if not changed:
                break
        for row in comp.cont_rows:
            act = sum(a * vals[i] for i, a in zip(row.vars, row.coefs))
            if row.relation == "<=" and act > row.rhs + FEAS_EPS:
                return None
            if row.relation == ">=" and act < row.rhs - FEAS_EPS:
                return None
            if row.relation == "=" and abs(act - row.rhs) > FEAS_EPS:
                return None
        return vals

    def _leaf(self, fv, theta_floor) -> None:
        comp = self.comp
        if comp.dars:
            fx = fv[comp.x_compact]
            selmask = fx == 1
            obj = float(np.dot(comp.E[selmask], 1.0 - theta_floor[selmask]))
            key = tuple(fx.tolist())
            if not self._improves(obj, key):
                return
            vals = np.zeros(comp.nvars)
            vals[comp.bin_vars] = fv
            vals[comp.theta_idx] = theta_floor
            vals[comp.y_idx] = theta_floor * selmask
        else:
            if comp.cont_vars:
                vals = self._resolve_continuous(fv)
                if vals is None:
                    return
                obj = float(np.dot(comp.c, vals))
            else:
                obj = float(np.dot(comp.c_bin, (fv == 1).astype(np.float64)))
                vals = None
            key = tuple(fv[comp.x_compact].tolist())
            if not self._improves(obj, key):
                return
            if vals is None:
                vals = np.zeros(comp.nvars)
                vals[comp.bin_vars] = fv
        self.inc_obj = obj
        self.inc_key = key
        self.inc_vals = vals

    def _improves(self, obj: float, key: tuple[int, ...]) -> bool:
        if obj > self.inc_obj + TIE_EPS:
            return True
        if obj >= self.inc_obj - TIE_EPS and self.inc_key is not None and key < self.inc_key:
            return True
        return False

    def _tie_dominated(self, bound: float, fv) -> bool:
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

    def _try_child(self, fixed, minact, maxact, b: int, val: int):
        f = fixed[:]
        mi = minact[:]
        ma = maxact[:]
        f[b] = val
        self.nodes += 1
        if not self._propagate(f, mi, ma, [b]):
            return None
        return f, mi, ma

    def _enter(self, f, mi, ma) -> None:
        fv = np.frombuffer(f, np.int8)
        theta = self._theta_floor(fv)
        bvar = self._branch_var(f)
        if bvar == -1:
            self._leaf(fv, theta)
            return
        bound = self._bound(fv, theta)
        if bound < self.inc_obj - PRUNE_EPS or self._tie_dominated(bound, fv):
            return
        self.seq += 1
        heapq.heappush(self.heap, (-bound, self.comp.bin_vars[bvar], self.seq, bvar, bytes(f)))

    def _dive(self, fixed, minact, maxact) -> None:
        f, mi, ma = fixed[:], minact[:], maxact[:]
        while True:
            b = self._branch_var(f)
            if b == -1:
                fv = np.frombuffer(f, np.int8)
                self._leaf(fv, self._theta_floor(fv))
                return
            child = self._try_child(f, mi, ma, b, 1)
            if child is None:
                child = self._try_child(f, mi, ma, b, 0)
            if child is None:
                return
            f, mi, ma = child

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
        comp = self.comp
        fixed = bytearray([FREE]) * comp.nbin
        fv = np.frombuffer(fixed, np.int8)
        minact, maxact = self._activities(fv)
        queue: list[int] = []
        self.nodes = 1
        ok = all(
            self._scan_row(rid, fixed, minact, maxact, queue) for rid in range(comp.nbinrows)
        ) and self._propagate(fixed, minact, maxact, queue)
        if not ok:
            return None
        root_theta = self._theta_floor(fv)
        if self._branch_var(fixed) == -1:
            self._leaf(fv, root_theta)
            return self.inc_obj if self.inc_vals is not None else None
        root_bound = self._bound(fv, root_theta)
        self._dive(fixed, minact, maxact)
        bvar = self._branch_var(fixed)
        self.seq += 1
        heapq.heappush(
            self.heap, (-root_bound, self.comp.bin_vars[bvar], self.seq, bvar, bytes(fixed))
        )
        ticks = 0
        while self.heap:
            ticks += 1
            if self._over_limit(ticks):
                self.hit_limit = True
                break
            negb, _, _, bvar, blob = heapq.heappop(self.heap)
            bound = -negb
            if bound < self.inc_obj - PRUNE_EPS:
                continue
            f = bytearray(blob)
            fv = np.frombuffer(f, np.int8)
            if self._tie_dominated(bound, fv):
                continue
            mi, ma = self._activities(fv)
            # plunge: a greedy dive from every expanded node keeps the
            # incumbent close to the best bound instead of waiting for the
            # breadth-dominated heap to reach leaves on its own
            self._dive(f, mi, ma)
            if bound < self.inc_obj - PRUNE_EPS or self._tie_dominated(bound, fv):
                continue
            for val in (1, 0):
                child = self._try_child(f, mi, ma, bvar, val)
                if child is not None:
                    self._enter(*child)
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

    if search.inc_vals is None:
        status = UNKNOWN if search.hit_limit else INFEASIBLE
        return Solution(status, None, {}, (), None, None, not search.hit_limit, stats)

    vals = search.inc_vals
    values = {comp.names[i]: float(vals[i]) for i in range(comp.nvars)}
    x = tuple(int(round(vals[i])) for i in comp.x_var_idx)
    theta = y = None
    if comp.dars:
        theta = tuple(float(vals[i]) for i in comp.theta_idx)
        y = tuple(float(vals[i]) for i in comp.y_idx)
    objective = sign * search.inc_obj
    status = FEASIBLE if search.hit_limit else OPTIMAL
    return Solution(status, objective, values, x, theta, y, not search.hit_limit, stats)


def verify_solution(m: LinearModel, s: Solution, feas_eps: float = FEAS_EPS) -> VerificationReport:
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
        if over > feas_eps:
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
        if over > feas_eps:
            violations.append(f"constraint {c.name}: violated by {over:.3g}")
        worst = max(worst, over)
    recomputed = sum(coef * vals.get(nm, 0.0) for nm, coef in m.objective.items())
    delta = recomputed - (s.objective if s.objective is not None else 0.0)
    return VerificationReport(worst, float(delta), tuple(violations))


def solution_report(m: LinearModel, s: Solution) -> dict:
    """Solution as a JSON-ready dict keyed by requirement ids."""
    ids = m.metadata.get("requirement_ids") or m.metadata.get("x_names") or []
    selected = [ids[i] for i, xi in enumerate(s.x) if xi == 1 and i < len(ids)]
    theta = {}
    if s.theta is not None:
        theta = {ids[i]: s.theta[i] for i in range(min(len(ids), len(s.theta)))}
    return {
        "status": s.status,
        "selected": selected,
        "objective": s.objective,
        "theta": theta,
        "proven": s.proven,
        "stats": {"nodes": s.stats.nodes, "root_bound": s.stats.root_bound},
    }
