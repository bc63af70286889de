"""The four workloads: setup, one timed repetition, and the output checks.

Every workload is closed-loop: one caller, the next call starts when the
previous one returned. A repetition does a fixed amount of work; node caps
(never time limits) bound every solve, so a repetition does the same work on
any machine. Checks run outside the timed region.

Seeds. Solver effort on these instance families is heavy-tailed in the
instance seed (on a 2-vCPU host the DARS half of the price sweep takes 1.7 s
to 28.6 s over VDG seeds 0..11), so a run-to-run spread taken over benchmark seeds would be
dominated by instance choice. The solver workloads therefore pin their
instances (the ROADMAP baseline suite, instance seeds 0..2) and the benchmark
seed only orders the solves. `identify` and `model-io` do size-determined
work, so the seed reaches their data: it permutes the users of the
preference matrix (every identification output is invariant to user order,
which the recorded checksums then verify) and picks the resample source, and
it seeds the n=2000 model-io instance.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import norm

import reqsel
from reqsel import (
    DARS,
    PCBK,
    SBK,
    MembershipConfig,
    PreferenceMatrix,
    SignificanceConfig,
    SolverLimits,
    SyntheticSpec,
    analysis,
    dependency_graph,
    identification,
    preferences,
    selection_models,
    solver,
)
from reqsel.dependency_graph import save_influence_matrix
from reqsel.preferences import DichotomizedGaussianModel

import reference
from speed import Speed, kernel_for

# Safety cap for solves that must prove optimality. The largest proof here
# takes about 35k nodes; a solve that reaches this cap is counted as failed.
SAFETY_NODES = 1_000_000
OBJ_TOL = 1e-6


class Context:
    """Timings of one repetition, plus the tracer when tracing.

    `parts` partition the repetition into the finest pieces the benchmark
    can time (wall_s sums them); `calls` are the user-facing calls whose
    latency is reported. A solve is both; an `identify` stage is a call made
    of several parts. Intervals are recorded while the repetition runs and
    turned into reference seconds (speed.py) by `finish`.
    """

    def __init__(self, tracer=None, speed: Speed | None = None):
        self.tracer = tracer
        self.speed = speed
        self.parts: list[float] = []
        self.calls: list[float] = []
        # (sinks, start, end, index of the first interval nested in it or
        # None, calibration kernel); a nested-first index makes the entry the
        # interval's time minus the time of the intervals nested in it
        self._intervals: list[tuple] = []

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def tag(self, **tags) -> None:
        if self.tracer:
            for key, value in tags.items():
                if value is None:
                    self.tracer.tags.pop(key, None)
                else:
                    self.tracer.tags[key] = value

    def _timed(self, sinks, fn, args, residual: bool = False):
        first = len(self._intervals)
        kernel = kernel_for(f"{fn.__module__.removeprefix('reqsel.')}.{fn.__name__}")
        t0 = time.perf_counter()
        result = fn(*args)
        self._intervals.append((sinks, t0, time.perf_counter(), first if residual else None, kernel))
        return result

    def part(self, fn, *args):
        return self._timed((self.parts,), fn, args)

    def call(self, fn, *args):
        return self._timed((self.calls,), fn, args)

    def call_part(self, fn, *args):
        return self._timed((self.parts, self.calls), fn, args)

    def residual_part(self, fn, *args):
        """A part: fn's time minus that of the calls timed inside it."""
        return self._timed((self.parts,), fn, args, residual=True)

    def finish(self) -> None:
        seconds = [self.speed.reference_seconds(t0, t1, kernel) for _, t0, t1, _, kernel in self._intervals]
        for k, (sinks, _, _, first, _) in enumerate(self._intervals):
            value = seconds[k] - (sum(seconds[first:k]) if first is not None else 0.0)
            for sink in sinks:
                sink.append(value)


@dataclass
class Outcome:
    """Checked operations of one repetition and the solver-quality tallies."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)
    solves: int = 0
    proven: int = 0
    gap_pct_sum: float = 0.0

    def add(self, other: "Outcome") -> None:
        for key in ("attempted", "failed", "solves", "proven", "gap_pct_sum"):
            setattr(self, key, getattr(self, key) + getattr(other, key))
        self.messages.extend(other.messages)

    def check(self, ok: bool, message: str, ops: int = 1) -> None:
        self.attempted += ops
        if not ok:
            self.failed += ops
            self.messages.append(message)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---- select: single DARS solves -------------------------------------------

# (family, n, pdl, npdl, instance seed, node cap). vdl=.05, nvdl=.2 and a
# budget of half the total cost throughout. `acc` is the acceptance family
# (bound by propagation), `light` the precedence-free family the solver still
# proves, `capped` the two instances it cannot prove today (kept as they are:
# they are the known defect later solver work must move).
SELECT_SUITE = (
    ("acc", 100, 0.02, 0.2, 0, None),
    ("acc", 100, 0.02, 0.2, 1, None),
    ("acc", 100, 0.02, 0.2, 2, None),
    ("light", 30, 0.0, 0.0, 0, None),
    ("light", 30, 0.0, 0.0, 1, None),
    ("light", 30, 0.0, 0.0, 2, None),
    ("capped", 60, 0.0, 0.0, 0, 40_000),
    ("capped", 100, 0.0, 0.0, 0, 40_000),
)


@dataclass
class SelectItem:
    key: str
    family: str
    problem: object
    model: object
    limits: SolverLimits


def select_instances() -> list[SelectItem]:
    items = []
    for family, n, pdl, npdl, seed, cap in SELECT_SUITE:
        spec = SyntheticSpec(n=n, vdl=0.05, nvdl=0.2, pdl=pdl, npdl=npdl, seed=seed)
        problem, _ = analysis.generate_synthetic(spec, budget_fraction=0.5)
        model = selection_models.build_model(problem, DARS)
        limits = SolverLimits(max_nodes=cap or SAFETY_NODES)
        items.append(SelectItem(f"{family}-n{n}-s{seed}", family, problem, model, limits))
    return items


def setup_select(seed: int):
    items = select_instances()
    order = np.random.default_rng(seed).permutation(len(items))
    solver.solve(items[4].model)  # warm-up: first-call imports and caches
    return [items[i] for i in order]


def run_select(items, ctx: Context):
    out = []
    for it in items:
        ctx.tag(family=it.family, instance=it.key)
        out.append(ctx.call_part(solver.solve, it.model, it.limits))
    ctx.tag(family=None, instance=None)
    return out


def check_select(items, sols, expected: dict) -> Outcome:
    refs = expected["select"]
    res = Outcome()
    for it, sol in zip(items, sols):
        ref = refs.get(it.key)
        if ref is None:
            ref = reference.highs_optimum(it.model, it.problem)
        obj = sol.objective
        ok = obj is not None and solver.verify_solution(it.model, sol).ok
        if it.family == "capped":
            ok = ok and obj <= ref + OBJ_TOL and (not sol.proven or abs(obj - ref) <= OBJ_TOL)
        else:
            ok = ok and sol.proven and abs(obj - ref) <= OBJ_TOL
        res.check(ok, f"{it.key}: {sol.status} objective {obj!r}, reference {ref!r}")
        res.solves += 1
        res.proven += sol.proven
        if not sol.proven:
            res.gap_pct_sum += 100.0 * (ref - (obj if obj is not None else 0.0)) / ref
    return res


# ---- sweep: price sweep on the case study -----------------------------------

SWEEP_LEVELS = tuple(float(p) for p in range(1, 101))
SWEEP_METHODS = (PCBK, SBK, DARS)


def sweep_problem():
    """Case study with a synthetic 27-node VDG (density .1, negative share .3)."""
    _, vdg = analysis.generate_synthetic(SyntheticSpec(n=27, vdl=0.1, nvdl=0.3, seed=0))
    return reqsel.case_study_problem(influence=dependency_graph.propagate_strengths(vdg))


def setup_sweep(seed: int):
    problem = sweep_problem()
    order = tuple(SWEEP_METHODS[i] for i in np.random.default_rng(seed).permutation(3))
    analysis.sweep(problem, (10.0,), SWEEP_METHODS)  # warm-up
    return problem, order


def run_sweep(state, ctx: Context):
    problem, order = state
    inner = analysis.solve

    def timed_solve(*args):
        return ctx.call_part(inner, *args)

    analysis.solve = timed_solve
    try:
        limits = SolverLimits(max_nodes=SAFETY_NODES)
        reports = {}
        for method in order:
            # the sweep's own work around its solves (build_model,
            # evaluate_selection) is a part of its own
            reports[method] = ctx.residual_part(analysis.sweep, problem, SWEEP_LEVELS, (method,), limits)
        return reports
    finally:
        analysis.solve = inner


def sweep_csv(report) -> str:
    buf = io.StringIO()
    report.to_csv(buf)
    return buf.getvalue()


def check_sweep(state, reports, expected: dict) -> Outcome:
    res = Outcome()
    for method, report in reports.items():
        same = sha256(sweep_csv(report)) == expected["sweep"][method]
        for row in report.rows:
            proven = row.status in (solver.OPTIMAL, solver.INFEASIBLE)
            res.check(same and proven, f"{method} at {row.percent:g}%: {row.status}, csv match {same}")
            res.solves += 1
            res.proven += proven
    return res


# ---- identify: DG resampling and the identification chain -------------------

ID_REQS, ID_USERS, ID_BLOCK, ID_DATA_SEED = 600, 2000, 75, 0
SRC_REQS, SRC_USERS, RESAMPLE_USERS = 32, 500, 20_000
SIG = SignificanceConfig()
MEM = MembershipConfig()


def latent_model() -> DichotomizedGaussianModel:
    """Block-correlated latent Gaussian: one signed factor per block of 75."""
    rng = np.random.default_rng(ID_DATA_SEED)
    block = np.arange(ID_REQS) // ID_BLOCK
    load = rng.uniform(0.2, 0.7, ID_REQS) * np.where(rng.random(ID_REQS) < 0.3, -1.0, 1.0)
    lam = np.where(block[:, None] == block[None, :], np.outer(load, load), 0.0)
    np.fill_diagonal(lam, 1.0)
    thresholds = norm.ppf(rng.uniform(0.2, 0.8, ID_REQS))
    return DichotomizedGaussianModel(thresholds=thresholds, latent_correlation=lam)


def setup_identify(seed: int):
    base = preferences.sample_dichotomized_gaussian(latent_model(), ID_USERS, ID_DATA_SEED)
    perm = np.random.default_rng(seed).permutation(ID_USERS)
    prefs = PreferenceMatrix(
        base.requirement_ids, tuple(base.user_ids[i] for i in perm),
        np.ascontiguousarray(base.cells[:, perm]),
    )
    source = PreferenceMatrix(
        prefs.requirement_ids[:SRC_REQS], prefs.user_ids[:SRC_USERS],
        prefs.cells[:SRC_REQS, :SRC_USERS],
    )
    small = PreferenceMatrix(source.requirement_ids[:4], source.user_ids, source.cells[:4])
    run_identify((small, small, seed), Context())  # warm-up
    return prefs, source, seed


def eells_report(an, ids) -> str:
    """The all-pairs table `reqsel identify` writes as eells_report.csv."""
    buf = io.StringIO()
    buf.write("from,to,eta,odds_ratio,ci_lower,ci_upper,significant\n")
    for i in range(an.n):
        for j in range(an.n):
            if i == j:
                continue
            omega = identification.odds_ratio(an, i, j)
            lower, upper, significant = identification.significance_test(an, i, j, SIG)
            buf.write(
                f"{ids[i]},{ids[j]},{float(an.eells[i, j])!r},{float(omega)!r},"
                f"{float(lower)!r},{float(upper)!r},{int(significant)}\n"
            )
    return buf.getvalue()


def run_identify(state, ctx: Context):
    prefs, source, seed = state

    def resample():
        stats = ctx.part(preferences.binary_stats, source)
        model = ctx.part(preferences.fit_dichotomized_gaussian, stats)
        return stats, ctx.part(preferences.sample_dichotomized_gaussian, model, RESAMPLE_USERS, seed)

    def identify():
        an = ctx.part(identification.compute_eells, prefs)
        vdg = ctx.part(identification.build_vdg, an, SIG, MEM)
        with ctx.span("identification.report"):
            report = ctx.part(eells_report, an, prefs.requirement_ids)
        return vdg, report

    stats, resampled = ctx.call(resample)
    vdg, report = ctx.call(identify)
    influence = ctx.call_part(dependency_graph.propagate_strengths, vdg)
    return stats, resampled, vdg, report, influence


def check_identify(state, out, expected: dict) -> Outcome:
    prefs = state[0]
    stats, resampled, vdg, report, influence = out
    exp = expected["identify"]
    res = Outcome()
    x = resampled.cells.astype(np.float64)
    means = x.mean(axis=1)
    cov = x @ x.T / x.shape[1] - np.outer(means, means)
    mean_gap = float(np.abs(means - stats.means).max())
    cov_gap = float(np.abs(cov - stats.covariance).max())
    res.check(mean_gap <= 0.02 and cov_gap <= 0.03,
              f"resample: mean gap {mean_gap:.4f}, covariance gap {cov_gap:.4f}")
    res.check(vdg.edge_count == exp["edges"] and sha256(report) == exp["report_sha256"],
              f"identify: {vdg.edge_count} edges (recorded {exp['edges']}), report checksum")
    buf = io.StringIO()
    save_influence_matrix(influence, buf, ids=prefs.requirement_ids)
    res.check(sha256(buf.getvalue()) == exp["influence_sha256"], "influence: checksum differs")
    return res


# ---- model-io: build, LP export and LP parse at n=2000 ----------------------

def setup_model_io(seed: int):
    spec = SyntheticSpec(n=2000, vdl=0.05, pdl=0.02, seed=seed + 5)
    problem, _ = analysis.generate_synthetic(spec, budget_fraction=0.5)
    small, _ = analysis.generate_synthetic(SyntheticSpec(n=10, vdl=0.1, pdl=0.1, seed=seed))
    run_model_io(small, Context())  # warm-up
    return problem


def run_model_io(problem, ctx: Context):
    model = ctx.call_part(selection_models.build_model, problem, DARS)
    sink = io.StringIO()
    ctx.call_part(selection_models.export_lp, model, sink)
    parsed = ctx.call_part(selection_models.parse_lp, io.StringIO(sink.getvalue()))
    return model, parsed


def _close(a: float, b: float) -> bool:
    # export_lp writes 12 significant digits
    return math.isclose(a, b, rel_tol=1e-11, abs_tol=0.0)


def _same_terms(a: dict, b: dict) -> bool:
    a = {k: v for k, v in a.items() if v != 0.0}
    b = {k: v for k, v in b.items() if v != 0.0}
    return a.keys() == b.keys() and all(_close(v, b[k]) for k, v in a.items())


def model_differences(built, parsed) -> list[str]:
    diffs = []
    var_a = {v.name: (v.kind, v.lower, v.upper) for v in built.variables}
    var_b = {v.name: (v.kind, v.lower, v.upper) for v in parsed.variables}
    if var_a != var_b:
        diffs.append("variables, kinds or bounds differ")
    if built.objective_sense != parsed.objective_sense or not _same_terms(built.objective, parsed.objective):
        diffs.append("objective differs")
    rows_b = {c.name: c for c in parsed.constraints}
    if len(rows_b) != len(built.constraints):
        diffs.append(f"{len(rows_b)} rows parsed, {len(built.constraints)} built")
    for c in built.constraints:
        d = rows_b.get(c.name)
        if d is None or d.relation != c.relation or not _close(d.rhs, c.rhs) or not _same_terms(c.coeffs, d.coeffs):
            diffs.append(f"row {c.name} differs")
            break
    return diffs


def check_model_io(problem, out, expected: dict) -> Outcome:
    res = Outcome()
    diffs = model_differences(*out)
    # three calls: build, export and parse; the round trip checks all three
    res.check(not diffs, "model-io: " + "; ".join(diffs), ops=3)
    return res


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    run: object
    check: object


WORKLOADS = {
    w.name: w
    for w in (
        Workload("select", setup_select, run_select, check_select),
        Workload("sweep", setup_sweep, run_sweep, check_sweep),
        Workload("identify", setup_identify, run_identify, check_identify),
        Workload("model-io", setup_model_io, run_model_io, check_model_io),
    )
}
