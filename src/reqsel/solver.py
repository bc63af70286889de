"""Exact deterministic optimizer for the 0/1 models `build_model` writes.

Branch and bound over the x binaries:

  * `solve` builds its search from the selection problem and method the
    model states in its metadata ("problem", "kind"), not from the model's
    rows: the x binaries, the rows of `core_rows` over them (the budget or
    price row, then the precedence rows) and, for DARS, the penalty-floor
    table read off the influence matrix I (see _Compiled). A DARS model's g,
    theta and y and their penalty and linking rows only linearize the
    penalty: the incumbent is kept as its fixings, and `solve` fills every
    value once from the final selection in closed form (g = x, theta = the
    penalty floor, y = theta x), by the names in the metadata's "x_names"
    and "links". A parsed or hand-built model states no problem, so `solve`
    rejects it. Solution.x holds the x binaries in requirement order, and
    Solution.theta and Solution.y hold one entry per x;
  * node order: best bound first, ties by lowest branching-variable index,
    then by creation order; the child fixing the variable to 1 is created
    first. The root is an ordinary node: once its rows are propagated it is
    scored, pushed and expanded like any other, and each expanded node
    starts one greedy dive to a leaf. Its leaves complete the node, so the
    node is not checked again after the dive;
  * every row is searched in the form a.x <= b, an "=" row as its "<="
    half followed by its negated half. Negation is exact in floating point,
    so each test on the negated half gives the verdict the ">=" test on the
    row itself would;
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
  * the knapsack row is the budget or price row, which `core_rows` yields
    first;
  * bounds are admissible: a fractional knapsack relaxation over the
    knapsack row of the objective still obtainable, each value discounted
    by the penalty floor already implied by the fixed part of the selection.
    The floor table B is stored once, transposed: rows j and j + n hold the
    floors that fixing x_j to 0 or to 1 imposes, so a child raises its
    parent's floor by the rows of the binaries its propagation fixed (a
    dive raises it once, at its leaf, over every fixing on the way).
    The bound is one walk over the node's bytearray in ratio order (value
    over weight, largest first, ties by index): it skips fixed binaries and
    values <= 0, adds weights in order and stops at the first binary that
    no longer fits, taking that break item in part (Dantzig's bound). A
    model without a floor has fixed values, so its order is fixed too:
    branch_order over the positive values, kept once per solve. Under DARS
    the values depend on the node's floor, so each node sorts all n stably
    and the walk filters that order, which is the stable order of the free
    subset. The sums of the selected values and weights and of the items
    taken are formed in numpy's pairwise order (`_pairwise_sum`), so every
    bound is bit-identical to the array bound over the free subset: heap
    order, node counts, the incumbents of capped solves and the root and
    final bounds do not depend on how the bound is computed;
  * leaves and the tie rule compare selections as bytes: a leaf's key is
    its fixings' bytes, and a node's zero-filled selection is its
    bytearray with every free binary translated to 0.

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
incumbent flagged non-proven instead of raising. The limits are checked
between heap pops, so a solve stops only after the expansion that reaches
them, dive included, and can overrun a node limit by that expansion: its
dive tries at most two children per free binary and its branching adds two
more, so over n search binaries stats.nodes <= max(max_nodes, 2) + 2n + 1
(a 1-node solve of an n = 1000 DARS model counts 573). Before it is
returned, a limit-stopped incumbent is polished by a deterministic
best-improvement local search (a proven solve never runs it, so no proven
answer or node count depends on it):

  * neighbourhood: every single flip, and every swap of a selected binary
    for an unselected one; when there are more than 32 x 32 such pairs,
    only those between the 32 of each side whose own flip scores best;
  * each flip and swap is scored exactly from the floor table: the top
    three floors per requirement say what the floor becomes once one or two
    binaries change, so no move re-reads all rows of the table. A move must
    keep every searched row within the propagation's 1e-9;
  * moves are rescored in order of their score as leaves, so one replaces
    the incumbent only under the tie rule above (better by more than 1e-12,
    or tied and smaller as a binary string);
  * it stops at a local optimum or after as many accepted moves as there
    are search binaries. It does not watch the clock, so a solve stopped by
    its time limit can overrun it by the polish's time (on a 2-core x86
    host, about 35 ms at 100 binaries and about 2 s at 1000 from a first
    dive's leaf).

SolveStats.final_bound is the best bound left open (the largest heap bound,
never below the objective; the objective itself once proven) and
SolveStats.gap its distance from the objective; a solve without an answer
has no gap.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from functools import reduce
from itertools import compress
from operator import add

import numpy as np

from .errors import ValidationError
from .selection_models import BINARY, DARS, LinearModel, SelectionProblem, core_rows, objective_weights

OPTIMAL = "OPTIMAL"
INFEASIBLE = "INFEASIBLE"
FEASIBLE = "FEASIBLE"
UNKNOWN = "UNKNOWN"

FEAS_EPS = 1e-9
PRUNE_EPS = 1e-9
TIE_EPS = 1e-12

FREE = 255  # an unfixed binary in the bytearray state; an int8 view reads it as -1
_SELECTED = bytes(int(v == 1) for v in range(256))  # translate table: 1 where a binary is 1
_ZERO_FILL = bytes.maketrans(bytes([FREE]), b"\0")  # translate table: free binaries to 0
SWAP_SIDE = 32  # polish swap candidates per side, once there are over SWAP_SIDE ** 2 pairs
BLOCK = 1 << 16  # floats in one block of a polish pass's transient arrays

@dataclass(frozen=True)
class SolverLimits:
    max_nodes: int | None = None
    max_seconds: float | None = None


@dataclass(frozen=True)
class SolveStats:
    nodes: int
    elapsed_s: float
    root_bound: float | None
    # the best bound left open (the objective once proven), and how far it
    # lies past the objective; None without an answer
    final_bound: float | None
    gap: float | None


@dataclass(frozen=True)
class Solution:
    status: str
    objective: float | None
    values: dict[str, float]
    x: tuple[int, ...]
    theta: tuple[float, ...] | None  # one per x; None but for DARS
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
    """A row sum(coefs[p] * x[vars[p]]) <= rhs over x indices; an "=" row
    becomes two of these."""

    __slots__ = ("vars", "coefs", "rhs", "lim", "order")

    def __init__(self, vars_: list[int], coefs: list[float], rhs: float):
        self.vars = vars_
        self.coefs = coefs
        self.rhs = rhs
        self.lim = rhs + FEAS_EPS
        # (position, |coefficient|) by |coefficient| descending, ties by
        # position, closed by a (len, 0.0) entry that only an infeasible
        # activity passes, so a scan cursor never runs off the end. When all
        # |coefficients| are equal (every precedence row) that is row order
        mags = [abs(a) for a in coefs]
        self.order = list(enumerate(mags))
        if mags and min(mags) != max(mags):
            self.order.sort(key=lambda e: -e[1])
        self.order.append((len(coefs), 0.0))


class _Compiled:
    """A selection problem preprocessed for search under one method: the x
    binaries' objective weights, the rows of `core_rows` over indices in
    "<=" form (row 0, the budget or price row, is the knapsack row), and for
    DARS the penalty-floor table read off the influence matrix I. A DARS
    model's g, theta and y and every row over them stay out of the search
    (its x core); `verify_solution` is what checks a solution against them."""

    def __init__(self, p: SelectionProblem, method: str):
        self.nbin = p.n
        self.c_bin = np.array(objective_weights(p, method))
        self.binrows: list[_Row] = []
        # every row is "<=" but an exactly-one row, which is "="
        for _, coeffs, relation, rhs in core_rows(p, method, range(self.nbin)):
            vars_, coefs = list(coeffs), list(coeffs.values())
            self.binrows.append(_Row(vars_, coefs, rhs))
            if relation == "=":
                self.binrows.append(_Row(vars_, [-a for a in coefs], -rhs))
        self.nbinrows = len(self.binrows)
        kn = self.binrows[0]
        self.w_bin = np.array(kn.coefs)
        self.kn_rhs = kn.rhs

        self.occ: list[list[tuple[int, float]]] = [[] for _ in range(self.nbin)]
        for rid, row in enumerate(self.binrows):
            for b, a in zip(row.vars, row.coefs):
                self.occ[b].append((rid, a))

        # penalty rows theta_i + I_ij x_j >= max(I_ij, 0) floor theta_i at
        # max(I_ij, 0) while x_j = 0 and at max(-I_ij, 0) once x_j = 1: the
        # table B holds, in row j + nbin * v, the floors that fixing x_j = v
        # imposes (in C order, as every reader takes whole rows)
        self.B = None
        if method == DARS:
            infl = p.influence.influence
            self.B = np.ascontiguousarray(
                np.concatenate((np.where(infl > 0, infl, 0.0).T, np.where(infl < 0, -infl, 0.0).T))
            )
        # the DARS objective less its penalty lies on no grid
        self.obj_quantum = None if method == DARS else _objective_quantum(self.c_bin)

        tiny = 1e-300
        ratio = self.c_bin / np.maximum(self.w_bin, tiny)
        self.branch_order = sorted(range(self.nbin), key=lambda b: (-ratio[b], b))
        self.branch_rank = [0] * self.nbin
        for k, b in enumerate(self.branch_order):
            self.branch_rank[b] = k


def _objective_quantum(c: np.ndarray) -> float | None:
    """A common quantum of the objective coefficients c, if any.

    When every coefficient is an integer multiple of some q (whole or
    two-decimal input data, say) every attainable objective lies on the
    q-grid, so fractional bounds can be floored onto it. That is what
    prunes the plateau of a budget row whose weights equal the objective
    (pure price models): the relaxation sticks at the budget while the
    floored bound drops to the best reachable grid point. Quanta tiny
    relative to the coefficient mass are rejected: flooring would then sit
    inside floating-point noise.
    """
    nz = np.abs(c[c != 0.0])
    if nz.size == 0:
        return None
    floor_guard = 1e-7 * float(nz.sum())
    for scale in (1.0, 10.0, 100.0, 1e3, 1e4, 1e5):
        scaled = nz * scale
        ints = np.rint(scaled)
        if np.abs(scaled - ints).max() <= 1e-7:
            q = math.gcd(*ints.astype(np.int64).tolist()) / scale
            return q if q >= floor_guard else None
    return None


def _pairwise_sum(a: list[float]) -> float:
    """The float64 sum of a as `ndarray.sum()` forms it, bit for bit: 0.0
    plus numpy's pairwise sum, which adds fewer than 8 entries in order, up
    to 128 in 8 interleaved accumulators and splits longer runs in two."""
    return 0.0 + _pairwise(a)


def _pairwise(a: list[float]) -> float:
    n = len(a)
    if n < 8:
        return reduce(add, a, 0.0)
    if n <= 128:
        end = n - n % 8
        r0, r1, r2, r3, r4, r5, r6, r7 = a[:8]
        rest = iter(a[8:end])
        for x0, x1, x2, x3, x4, x5, x6, x7 in zip(*(rest,) * 8):
            r0 += x0
            r1 += x1
            r2 += x2
            r3 += x3
            r4 += x4
            r5 += x5
            r6 += x6
            r7 += x7
        return reduce(add, a[end:], ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)))
    half = n // 2
    half -= half % 8
    return _pairwise(a[:half]) + _pairwise(a[half:])


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """starts[k], ..., starts[k] + counts[k] - 1 for each k, concatenated."""
    first = np.cumsum(counts) - counts
    return np.repeat(starts - first, counts) + np.arange(int(counts.sum()))


class _Search:
    def __init__(self, comp: _Compiled, limits: SolverLimits):
        self.comp = comp
        self.limits = limits
        self.nodes = 0
        self.seq = 0
        self.heap: list = []
        self.inc_obj = -math.inf
        self.inc_key: bytes | None = None
        self.inc_fix: np.ndarray | None = None
        self.inc_floor: np.ndarray | None = None  # the penalty floor of inc_fix
        self.hit_limit = False
        self.t0 = time.perf_counter()
        # the knapsack bound walks plain lists. Without a floor the values
        # never change, so its ratio order is branch_order's over the
        # positive values; under a floor each node sorts by -(c / w), formed
        # as c / -w (the same float), with weights kept off zero
        self.c, self.w = comp.c_bin.tolist(), comp.w_bin.tolist()
        self.order = [b for b in comp.branch_order if self.c[b] > 0]
        self.w_neg = -np.maximum(comp.w_bin, 1e-300)

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

    def _bound(self, f: bytearray, floor) -> float:
        """The fractional knapsack bound of a node's fixings f: the values
        selected so far, then the free ones worth taking in ratio order up to
        the room the knapsack row has left, the break item in part; -inf once
        the selection alone overfills the row."""
        sel = f.translate(_SELECTED)
        cap = self.comp.kn_rhs - _pairwise_sum(list(compress(self.w, sel)))
        if cap < -FEAS_EPS:
            return -math.inf
        if floor is None:
            v, order = self.c, self.order
        else:
            # a selected requirement is worth at most its value past the floor
            va = self.comp.c_bin * (1.0 - floor)
            v = va.tolist()
            order = np.argsort(va / self.w_neg, kind="stable").tolist()
        base = _pairwise_sum(list(compress(v, sel)))
        # running weights add in order, as numpy's cumsum does, so the walk
        # breaks where searchsorted over them would; a row overfilled within
        # FEAS_EPS has no room
        w, lim = self.w, cap + 1e-12
        used, taken, part = 0.0, [], 0.0
        for b in () if cap < 0 else order:
            if f[b] != FREE or v[b] <= 0:
                continue
            if used + w[b] > lim:
                room = cap - used
                if room > 0:
                    part = v[b] * (room / w[b])
                break
            used += w[b]
            taken.append(v[b])
        return self._grid_floor(base + (_pairwise_sum(taken) + part))

    # ---- leaves ----

    def _leaf(self, fv, floor) -> float:
        comp = self.comp
        sel = fv == 1
        if floor is not None:
            obj = float(np.dot(comp.c_bin[sel], 1.0 - floor[sel]))
        else:
            obj = float(np.dot(comp.c_bin, sel.astype(np.float64)))
        key = fv.tobytes()
        if self._improves(obj, key):
            self.inc_obj, self.inc_key = obj, key
            self.inc_fix, self.inc_floor = fv.copy(), floor
        return obj

    def _improves(self, obj: float, key: bytes) -> bool:
        if obj > self.inc_obj + TIE_EPS:
            return True
        return obj >= self.inc_obj - TIE_EPS and self.inc_key is not None and key < self.inc_key

    def _pruned(self, bound: float, f: bytearray) -> bool:
        if bound < self.inc_obj - PRUNE_EPS:
            return True
        # a subtree that can at best tie the incumbent is useful only for
        # the lexicographic tie-break. Every completion's selection string
        # dominates the zero-filled one bitwise, so when even that floor is
        # not smaller than the incumbent key the subtree cannot win a tie.
        if self.inc_key is None or bound > self.inc_obj + TIE_EPS:
            return False
        return f.translate(_ZERO_FILL) >= self.inc_key

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
        bvar = self._branch_var(f, k)
        if bvar == -1:
            return self._leaf(np.frombuffer(f, np.int8), floor)
        bound = self._bound(f, floor)
        if not self._pruned(bound, f):
            self.seq += 1
            heapq.heappush(self.heap, (-bound, bvar, self.seq, f, mi, pos, floor))
        return bound

    def _expand(self, bound: float, bvar: int, f: bytearray, mi, pos, floor) -> None:
        if self._pruned(bound, f):
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
        if self.hit_limit and self.inc_fix is not None:
            self._polish()
        return root_bound

    # ---- polish ----

    def _polish(self) -> None:
        """Best-improvement flip/swap local search on a limit-stopped
        incumbent (see the module docstring): each move whose estimate comes
        near the incumbent and that keeps every searched row is rescored as
        a leaf, best estimate first."""
        comp = self.comp
        n = comp.nbin
        # the searched rows' entries, grouped by binary
        lens = np.array([len(o) for o in comp.occ], dtype=np.intp)
        start = np.concatenate(([0], np.cumsum(lens)))
        e_row = np.fromiter((r for o in comp.occ for r, _ in o), np.intp, start[-1])
        e_coef = np.fromiter((a for o in comp.occ for _, a in o), np.float64, start[-1])
        lim = np.array([row.lim for row in comp.binrows])
        flips = np.arange(n)[:, None]

        def near() -> float:
            # estimates err far less than this, so a move estimated lower
            # cannot tie the incumbent
            return self.inc_obj - 1e-9 * (1.0 + abs(self.inc_obj))

        for _ in range(n):
            base, key = self.inc_fix, self.inc_key
            x = base.astype(np.intp)
            act = np.bincount(e_row, e_coef * np.repeat(x, lens), comp.nbinrows)
            top = None if comp.B is None else self._top3(x)
            flip_val = self._move_values(flips, x, top)
            sel, uns = np.flatnonzero(x == 1), np.flatnonzero(x == 0)
            if sel.size * uns.size > SWAP_SIDE**2:
                sel = sel[np.argsort(-flip_val[sel], kind="stable")[:SWAP_SIDE]]
                uns = uns[np.argsort(-flip_val[uns], kind="stable")[:SWAP_SIDE]]
            swaps = np.stack(np.meshgrid(sel, uns, indexing="ij"), axis=-1).reshape(-1, 2)
            cands = []
            for moves, val in ((flips, flip_val), (swaps, self._move_values(swaps, x, top))):
                ok = np.flatnonzero(val >= near())
                ok = ok[self._keeps_rows(moves[ok], x, act, lim, (e_row, e_coef, start, lens))]
                cands += zip((-val[ok]).tolist(), moves[ok])
            cands.sort(key=lambda cand: cand[0])
            for neg_val, moved in cands:
                if -neg_val < near():
                    break
                fv = base.copy()
                fv[moved] = 1 - fv[moved]
                self._leaf(fv, None if top is None else self._move_floors(top, moved[None], x)[0])
            if self.inc_key is key:
                return

    def _top3(self, x):
        """The three largest floors the fixings in x impose on each
        requirement, largest first (vals, 3 x n), the binary behind each
        (owner; n and above for the zero floor every requirement starts
        from), and the requirements grouped by the owner of their floor:
        those of binary b are by_owner[at[b]:at[b + 1]]."""
        n = self.comp.nbin
        rows = np.arange(n) + n * x
        vals, owner = np.empty((3, n)), np.empty((3, n), dtype=np.intp)
        step = max(1, BLOCK // (n + 3))
        for s in range(0, n, step):
            blk = np.zeros((min(step, n - s), n + 3))
            blk[:, :n] = self.comp.B[rows, s : s + step].T
            pick = np.argpartition(blk, (-1, -2, -3), axis=1)[:, :-4:-1]
            vals[:, s : s + step] = np.take_along_axis(blk, pick, 1).T
            owner[:, s : s + step] = pick.T
        # a zero floor is the starting one, whichever binary also imposes it
        owner[vals == 0.0] = n
        by_owner = np.argsort(owner[0], kind="stable")
        at = np.searchsorted(owner[0][by_owner], np.arange(n + 1))
        return vals, owner, by_owner, at

    def _move_floors(self, top, moved, x) -> np.ndarray:
        """The penalty floor after flipping each row of moved (k, m <= 2)
        binaries in x: the largest floor a binary left alone imposes, from
        the top m + 1, raised by the floors of the flipped ones' new values."""
        vals, owner, by_owner, at = top
        n, (k, m) = self.comp.nbin, moved.shape
        out = np.repeat(vals[0][None, :], k, axis=0)
        # only a requirement whose largest floor a flipped binary imposed
        # falls back to the next one down
        v = moved.ravel()
        cnt = at[v + 1] - at[v]
        r = np.repeat(np.arange(v.size) // m, cnt)
        i = by_owner[_ranges(at[v], cnt)]
        fallback = vals[m][i]
        for t in range(m - 1, 0, -1):
            keep = np.ones(i.size, dtype=bool)
            for q in range(m):
                keep &= owner[t][i] != moved[r, q]
            fallback = np.where(keep, vals[t][i], fallback)
        out[r, i] = fallback
        for b in moved.T:
            np.maximum(out, self.comp.B.take(b + n * (1 - x[b]), axis=0), out=out)
        return out

    def _move_values(self, moved, x, top) -> np.ndarray:
        """Estimated objectives after flipping each row of moved (k, m)."""
        c = self.comp.c_bin
        kept = c * x  # the objective before any floor
        total = kept.sum()
        gain = (1 - 2 * x[moved]) * c[moved]
        out = np.empty(len(moved))
        step = max(1, BLOCK // len(c))
        for s in range(0, len(moved), step):
            mv, g = moved[s : s + step], gain[s : s + step]
            if top is None:
                out[s : s + step] = total + g.sum(axis=1)
                continue
            floor = self._move_floors(top, mv, x)
            own = np.take_along_axis(floor, mv, 1)
            out[s : s + step] = total - floor @ kept + (g * (1.0 - own)).sum(axis=1)
        return out

    def _keeps_rows(self, moved, x, act, lim, entries) -> np.ndarray:
        """Whether flipping each row of moved (k, m) binaries in x keeps
        every searched row within FEAS_EPS; act holds x's row activities."""
        e_row, e_coef, start, lens = entries
        v = moved.ravel()
        cnt = lens[v]
        at = _ranges(start[v], cnt)
        move = np.repeat(np.arange(v.size) // moved.shape[1], cnt)
        delta = e_coef[at] * np.repeat(1 - 2 * x[v], cnt)
        nrows = len(act)
        cell, inv = np.unique(move * nrows + e_row[at], return_inverse=True)
        r = cell % nrows
        ok = np.ones(len(moved), dtype=bool)
        ok[cell[act[r] + np.bincount(inv, delta) > lim[r]] // nrows] = False
        return ok


def solve(m: LinearModel, limits: SolverLimits | None = None) -> Solution:
    """Solve a model `build_model` wrote to proven optimality (default: no
    limits). The search is built from the selection problem and method the
    model states in its metadata, not from its rows, so a parsed or
    hand-built model, which states none, is rejected."""
    p = m.metadata.get("problem")
    if p is None:
        raise ValidationError(
            "solve takes a model build_model wrote: this one states no selection problem "
            "(a parsed LP file or a hand-built model)"
        )
    comp = _Compiled(p, m.metadata["kind"])
    search = _Search(comp, limits or SolverLimits())
    root_bound = search.run()
    elapsed = time.perf_counter() - search.t0
    root = None if root_bound is None or not math.isfinite(root_bound) else root_bound
    # what the search left open: the best heap bound (already on the
    # objective grid), never below the incumbent
    open_bound = max(-search.heap[0][0], search.inc_obj) if search.hit_limit else search.inc_obj
    final = open_bound if math.isfinite(open_bound) else None
    gap = None if search.inc_fix is None else open_bound - search.inc_obj
    stats = SolveStats(search.nodes, elapsed, root, final, gap)

    if search.inc_fix is None:
        status = UNKNOWN if search.hit_limit else INFEASIBLE
        return Solution(status, None, {}, (), None, None, not search.hit_limit, stats)

    fv, floor = search.inc_fix, search.inc_floor
    x = fv.astype(np.float64).tolist()
    values = dict(zip(m.metadata["x_names"], x))
    theta = y = None
    if floor is not None:
        # the linearization in closed form: g = x, theta = floor, y = theta x
        _, gs, thetas, ys = zip(*m.metadata["links"])
        theta, y = tuple(floor.tolist()), tuple((floor * (fv == 1)).tolist())
        values.update(zip(gs, x))
        values.update(zip(thetas, theta))
        values.update(zip(ys, y))
    status = FEASIBLE if search.hit_limit else OPTIMAL
    return Solution(status, search.inc_obj, values, tuple(search.inc_key), theta, y, not search.hit_limit, stats)


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
    rows = m.constraints
    starts = rows.starts
    # each row's activity summed left to right over its terms in row order
    products = [a * vals.get(nm, 0.0) for nm, a in zip(rows.terms, rows.coefs)]
    for r, (name, relation, rhs) in enumerate(zip(rows.names, rows.relations, rows.rhs)):
        act = sum(products[starts[r] : starts[r + 1]])
        if relation == "<=":
            over = act - rhs
        elif relation == ">=":
            over = rhs - act
        else:
            over = abs(act - rhs)
        over = max(over, 0.0)
        if over > FEAS_EPS:
            violations.append(f"constraint {name}: violated by {over:.3g}")
        worst = max(worst, over)
    recomputed = sum(coef * vals.get(nm, 0.0) for nm, coef in m.objective.items())
    delta = recomputed - (s.objective if s.objective is not None else 0.0)
    return VerificationReport(worst, float(delta), tuple(violations))


def solution_report(m: LinearModel, s: Solution) -> dict:
    """Solution as a JSON-ready dict keyed by requirement ids."""
    ids = m.metadata["problem"].ids
    selected = [ids[i] for i, xi in enumerate(s.x) if xi == 1]
    theta = {ids[i]: t for i, t in enumerate(s.theta or ())}
    return {
        "status": s.status,
        "selected": selected,
        "objective": s.objective,
        "theta": theta,
        "proven": s.proven,
        "stats": {
            "nodes": s.stats.nodes,
            "root_bound": s.stats.root_bound,
            "final_bound": s.stats.final_bound,
            "gap": s.stats.gap,
        },
    }
