"""Experiment drivers: price sweeps, method comparison metrics, synthetic
instance generation, and runtime benchmarking.

Sweeps mirror the study design: one solve per (price percent, method) under
the price constraint price = percent/100 * total value, with AV/EV/OV always
recomputed by `evaluate_selection` so that methods optimizing different
objectives are compared on identical footing. All percentage metrics
normalize by the total estimated value.

Synthetic instances target the density metrics directly: exactly
round(VDL*n*(n-1)) value dependencies of which round(NVDL*k) are negative,
and round(PDL*n*(n-1)) precedence pairs of which round(NPDL*m) are conflicts
(the negative precedence kind) and the rest requires-all records. The
returned influence matrix holds the explicit (one-hop) dependencies only;
run propagate_strengths on the returned graph when transitive influences are
wanted at small n.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import asdict, dataclass, fields, replace
from typing import IO, Sequence

import numpy as np

from . import solver
from .dependency_graph import (
    NEGATIVE,
    POSITIVE,
    Conflicts,
    InfluenceMatrix,
    PrecedenceGraph,
    RequiresAll,
    ValueDependencyGraph,
)
from .errors import ValidationError
from .selection_models import (
    BUDGET_COST,
    DARS,
    PRICE_VALUE,
    SelectionProblem,
    build_model,
)
from .solver import SolverLimits, solve
from .valuation import Requirement, SelectionEvaluation, evaluate_selection


@dataclass(frozen=True)
class SweepRow:
    percent: float
    method: str
    status: str
    av: float
    ev: float
    ov: float
    pct_av: float
    pct_ev: float
    pct_ov: float
    selection: tuple[int, ...]


@dataclass(frozen=True)
class SweepReport:
    total_value: float
    requirement_ids: tuple[str, ...]
    rows: tuple[SweepRow, ...]

    def rows_for(self, method: str) -> tuple[SweepRow, ...]:
        return tuple(r for r in self.rows if r.method == method)

    def to_csv(self, sink: IO[str]) -> None:
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(f.name for f in fields(SweepRow))
        for r in self.rows:
            writer.writerow(
                [
                    f"{r.percent:g}",
                    r.method,
                    r.status,
                    f"{r.av:.6f}",
                    f"{r.ev:.6f}",
                    f"{r.ov:.6f}",
                    f"{r.pct_av:.6f}",
                    f"{r.pct_ev:.6f}",
                    f"{r.pct_ov:.6f}",
                    "".join(str(b) for b in r.selection),
                ]
            )

    def to_long_csv(self, sink: IO[str]) -> None:
        """Plot-ready long format: level,method,metric,value."""
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(["level", "method", "metric", "value"])
        for r in self.rows:
            for metric, value in (("pct_av", r.pct_av), ("pct_ev", r.pct_ev), ("pct_ov", r.pct_ov)):
                writer.writerow([f"{r.percent:g}", r.method, metric, f"{value:.6f}"])

    def to_json_obj(self) -> dict:
        return asdict(self)


def sweep(
    p: SelectionProblem,
    percents: Sequence[float],
    methods: Sequence[str],
    limits: SolverLimits | None = None,
) -> SweepReport:
    """One solve per (percent, method) under the price constraint.

    A cell stopped by a solver limit (status FEASIBLE) records its incumbent
    selection and metrics under that status. Infeasible cells, and cells
    stopped before any incumbent (UNKNOWN), are recorded with empty
    selections and zero metrics; the sweep continues. The total value must
    be positive: every percentage metric divides by it.
    """
    total = float(sum(r.value for r in p.requirements))
    if total == 0.0:
        raise ValidationError("a price sweep needs a positive total value")
    inf = p.influence if p.influence is not None else InfluenceMatrix.zeros(p.n)
    rows = []
    for percent in percents:
        level = replace(
            p,
            budget=percent / 100.0 * total,
            constraint_mode=PRICE_VALUE,
            influence=inf,
        )
        for method in methods:
            model = build_model(level, method)
            sol = solve(model, limits)
            # a cell without an incumbent scores the empty selection: all zero
            x = sol.x if sol.status in (solver.OPTIMAL, solver.FEASIBLE) else (0,) * p.n
            ev = evaluate_selection(p.requirements, inf, x)
            rows.append(
                SweepRow(
                    percent=float(percent),
                    method=method,
                    status=sol.status,
                    av=ev.av,
                    ev=ev.ev,
                    ov=ev.ov,
                    pct_av=100.0 * ev.av / total,
                    pct_ev=100.0 * ev.ev / total,
                    pct_ov=100.0 * ev.ov / total,
                    selection=ev.selection,
                )
            )
    return SweepReport(
        total_value=total, requirement_ids=p.ids, rows=tuple(rows)
    )


def compare_selections(
    a: Sequence[int], b: Sequence[int]
) -> tuple[float, int]:
    """(euclidean distance, hamming count) between two selection vectors."""
    va = np.asarray(a, dtype=np.float64)
    vb = np.asarray(b, dtype=np.float64)
    if va.shape != vb.shape:
        raise ValidationError(f"selection lengths differ: {va.shape} vs {vb.shape}")
    diff = va - vb
    return float(math.sqrt(float(diff @ diff))), int(np.count_nonzero(diff))


def _frequencies(report: SweepReport, method: str) -> np.ndarray:
    rows = report.rows_for(method)
    if not rows:
        raise ValidationError(f"method {method!r} not present in the sweep report")
    counts = np.zeros(len(report.requirement_ids))
    for r in rows:
        counts += np.asarray(r.selection, dtype=np.float64)
    return 100.0 * counts / len(rows)


def frequency_profile(report: SweepReport, method_a: str, method_b: str) -> dict[str, float]:
    """Per-requirement selection-frequency gap dF_i = F_i(a) - F_i(b).

    F_i(m) is the percentage of sweep levels at which method m selects r_i;
    infeasible levels count as not selecting anything.
    """
    delta = _frequencies(report, method_a) - _frequencies(report, method_b)
    return {rid: float(d) for rid, d in zip(report.requirement_ids, delta)}


def risk_of_value_loss(e: SelectionEvaluation, total_value: float) -> float:
    """%EV - %OV: percentage points of value at stake from dependencies."""
    if total_value <= 0:
        raise ValidationError("total value must be positive")
    return 100.0 * (e.ev - e.ov) / total_value


@dataclass(frozen=True)
class SyntheticSpec:
    n: int
    vdl: float
    nvdl: float = 0.0
    pdl: float = 0.0
    npdl: float = 0.0
    cost_range: tuple[float, float] = (1.0, 10.0)
    value_range: tuple[float, float] = (1.0, 20.0)
    probability_range: tuple[float, float] = (0.0, 1.0)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValidationError("synthetic instances need n >= 2")
        if self.seed < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed}")
        for nm in ("vdl", "nvdl", "pdl", "npdl"):
            t = getattr(self, nm)
            if not 0.0 <= t <= 1.0:
                raise ValidationError(f"{nm} target must lie in [0, 1], got {t}")
        if self.nvdl > 0 and self.vdl == 0:
            raise ValidationError("nvdl > 0 requires vdl > 0")
        if self.npdl > 0 and self.pdl == 0:
            raise ValidationError("npdl > 0 requires pdl > 0")
        for nm in ("cost_range", "value_range", "probability_range"):
            lo, hi = getattr(self, nm)
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValidationError(f"{nm} must be finite: ({lo}, {hi})")
            if lo > hi:
                raise ValidationError(f"{nm} is empty: ({lo}, {hi})")
        plo, phi = self.probability_range
        if plo < 0 or phi > 1:
            raise ValidationError("probability range must lie within [0, 1]")
        if self.cost_range[0] < 0 or self.value_range[0] < 0:
            raise ValidationError("cost and value ranges must be non-negative")


def generate_synthetic(
    spec: SyntheticSpec, budget_fraction: float = 0.5
) -> tuple[SelectionProblem, ValueDependencyGraph]:
    """Random instance hitting the density targets exactly (up to rounding).

    Budget is budget_fraction * total cost under BUDGET_COST mode; sweeps
    re-budget per level anyway. Deterministic per seed.
    """
    if not (math.isfinite(budget_fraction) and budget_fraction >= 0):
        raise ValidationError(f"budget fraction must be finite and non-negative, got {budget_fraction}")
    n = spec.n
    rng = np.random.default_rng(spec.seed)
    npairs = n * (n - 1)

    def pairs(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # code c is the ordered pair (i, j), i != j, at rank c in row-major order
        i, rest = np.divmod(codes, n - 1)
        return i, rest + (rest >= i)

    pos_m = np.zeros((n, n))
    neg_m = np.zeros((n, n))
    k = round(spec.vdl * npairs)
    edges = {}
    if k:
        ei, ej = pairs(rng.choice(npairs, size=k, replace=False))
        strengths = 1.0 - rng.random(k)  # uniform in (0, 1]
        negatives = round(spec.nvdl * k)
        qualities = [NEGATIVE] * negatives + [POSITIVE] * (k - negatives)
        edges = dict(zip(zip(ei.tolist(), ej.tolist()), zip(strengths.tolist(), qualities)))
        neg_m[ei[:negatives], ej[:negatives]] = strengths[:negatives]
        pos_m[ei[negatives:], ej[negatives:]] = strengths[negatives:]
    vdg = ValueDependencyGraph(n=n, edges=edges)

    m = round(spec.pdl * npairs)
    records = []
    if m:
        pi, pj = (a.tolist() for a in pairs(rng.choice(npairs, size=m, replace=False)))
        conflicts = round(spec.npdl * m)
        records = [Conflicts(a=i, b=j) for i, j in zip(pi[:conflicts], pj[:conflicts])]
        records += [RequiresAll(source=i, target=j) for i, j in zip(pi[conflicts:], pj[conflicts:])]
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

    influence = InfluenceMatrix(pos=pos_m, neg=neg_m)

    problem = SelectionProblem(
        requirements=reqs,
        budget=budget_fraction * float(costs.sum()),
        constraint_mode=BUDGET_COST,
        precedence=precedence,
        influence=influence,
    )
    return problem, vdg


@dataclass(frozen=True)
class BenchmarkRow:
    n: int
    seed: int
    vdl: float
    nvdl: float
    pdl: float
    npdl: float
    budget_fraction: float
    elapsed_s: float
    nodes: int
    status: str
    objective: float | None


@dataclass(frozen=True)
class BenchmarkReport:
    method: str
    rows: tuple[BenchmarkRow, ...]

    def to_csv(self, sink: IO[str]) -> None:
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(f.name for f in fields(BenchmarkRow))
        for r in self.rows:
            writer.writerow(
                [
                    r.n,
                    r.seed,
                    f"{r.vdl:g}",
                    f"{r.nvdl:g}",
                    f"{r.pdl:g}",
                    f"{r.npdl:g}",
                    f"{r.budget_fraction:g}",
                    f"{r.elapsed_s:.3f}",
                    r.nodes,
                    r.status,
                    "" if r.objective is None else f"{r.objective:.6f}",
                ]
            )


def benchmark(
    specs: Sequence[SyntheticSpec],
    method: str = DARS,
    budget_fraction: float = 0.5,
    max_seconds: float = 60.0,
) -> BenchmarkReport:
    """Solve one instance per spec under a per-instance time limit.

    Timeouts are recorded in the status column, never raised.
    """
    if not max_seconds > 0:
        raise ValidationError(f"the time limit must be positive, got {max_seconds}")
    limits = SolverLimits(max_seconds=max_seconds)
    rows = []
    for spec in specs:
        problem, _ = generate_synthetic(spec, budget_fraction=budget_fraction)
        model = build_model(problem, method)
        t0 = time.perf_counter()
        sol = solve(model, limits)
        elapsed = time.perf_counter() - t0
        rows.append(
            BenchmarkRow(
                n=spec.n,
                seed=spec.seed,
                vdl=spec.vdl,
                nvdl=spec.nvdl,
                pdl=spec.pdl,
                npdl=spec.npdl,
                budget_fraction=budget_fraction,
                elapsed_s=elapsed,
                nodes=sol.stats.nodes,
                status=sol.status,
                objective=sol.objective,
            )
        )
    return BenchmarkReport(method=method, rows=tuple(rows))
