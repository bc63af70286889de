"""Acceptance gate: one test per release criterion, each at its stated
tolerance and time budget.

Every test prints a single summary line (visible with `pytest -rP` or `-s`)
so a run of this module doubles as the acceptance report. Random content is
seeded, so the gate is deterministic.
"""

import dataclasses
import io
import math
import time

import numpy as np
import pytest
from scipy.stats import norm

from oracles import brute_force_influence, causal_strength, enumerate_optimum
from reqsel import (
    InfluenceMatrix,
    MembershipConfig,
    SignificanceConfig,
    ValueDependencyGraph,
    compute_eells,
    evaluate_selection,
    penalties,
    significance_test,
)
from reqsel.analysis import SyntheticSpec, generate_synthetic, sweep
from reqsel.casestudy import (
    case_study_precedence,
    case_study_problem,
    case_study_requirements,
)
from reqsel.dependency_graph import (
    NEGATIVE,
    POSITIVE,
    propagate_strengths,
    vdl_nvdl,
)
from reqsel.identification import odds_ratio
from reqsel.preferences import (
    PreferenceMatrix,
    binary_stats,
    fit_dichotomized_gaussian,
    sample_dichotomized_gaussian,
)
from reqsel.selection_models import DARS, PCBK, SBK, build_model, export_lp, parse_lp
from reqsel.solver import INFEASIBLE, OPTIMAL, solve


def report(number, text):
    print(f"criterion {number:2d} PASS: {text}")


def random_vdg(n, density, negative_share, rng):
    """Exact edge and negative-edge counts, like the synthetic generator."""
    npairs = n * (n - 1)
    k = round(density * npairs)
    codes = rng.permutation(npairs)[:k]
    m = round(negative_share * k)
    edges = {}
    for rank, code in enumerate(codes):
        i, rest = divmod(int(code), n - 1)
        j = rest + (rest >= i)
        edges[(i, j)] = (float(1.0 - rng.random()), NEGATIVE if rank < m else POSITIVE)
    return ValueDependencyGraph(n=n, edges=edges)


def preference_fixture(cells):
    n, k = cells.shape
    return PreferenceMatrix(
        tuple(f"r{i + 1}" for i in range(n)),
        tuple(f"u{j + 1}" for j in range(k)),
        cells,
    )


def test_01_worked_examples():
    start = time.perf_counter()

    # four requirements, two positive chains and one direct negative edge
    chain = ValueDependencyGraph(
        n=4,
        edges={
            (0, 1): (0.4, POSITIVE),
            (1, 3): (0.3, POSITIVE),
            (0, 2): (0.8, POSITIVE),
            (2, 3): (0.8, POSITIVE),
            (0, 3): (0.1, NEGATIVE),
        },
    )
    influence = propagate_strengths(chain)
    assert float(influence.pos[0, 3]) == 0.8
    assert float(influence.neg[0, 3]) == 0.1
    assert float(influence.influence[0, 3]) == 0.8 - 0.1

    # the same graph with three more positive edges: 8 of 12 pairs linked,
    # one negative edge among the eight
    dense = dict(chain.edges)
    dense[(1, 0)] = (0.2, POSITIVE)
    dense[(2, 0)] = (0.2, POSITIVE)
    dense[(3, 0)] = (0.2, POSITIVE)
    vdl, nvdl = vdl_nvdl(ValueDependencyGraph(n=4, edges=dense))
    assert vdl == 8 / 12
    assert nvdl == 0.125

    # dropping the fourth requirement exposes each kept one to its strongest
    # uncovered influence
    net = np.array(
        [
            [0.0, 0.5, 0.7, 0.7],
            [0.2, 0.0, 0.2, 0.3],
            [0.6, 0.5, 0.0, 0.7],
            [0.0, 0.0, 0.0, 0.0],
        ]
    )
    table = InfluenceMatrix(pos=np.clip(net, 0.0, None), neg=np.clip(-net, 0.0, None))
    theta = penalties(table, (1, 1, 1, 0))
    assert float(theta[0]) == 0.7
    assert float(theta[1]) == 0.3
    assert float(theta[2]) == 0.7

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"worked examples exact in {elapsed:.3f}s")


def test_02_closure_matches_exhaustive_paths():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    for idx in range(200):
        n = int(rng.integers(2, 9))
        density = float(rng.uniform(0.05, 0.5))
        share = (0.0, 0.25, 0.5)[idx % 3]
        g = random_vdg(n, density, share, rng)
        closure = propagate_strengths(g)
        brute = brute_force_influence(g, 2 * n)
        assert np.array_equal(closure.pos, brute.pos), idx
        assert np.array_equal(closure.neg, brute.neg), idx
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(2, f"200 closures equal exhaustive path search in {elapsed:.2f}s")


def test_03_solver_matches_exhaustive_enumeration():
    start = time.perf_counter()
    infeasible = 0
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(4, 13))
        spec = SyntheticSpec(n=n, vdl=0.25, nvdl=0.4, pdl=0.08, npdl=0.25, seed=2000 + seed)
        problem, _ = generate_synthetic(spec, budget_fraction=float(rng.uniform(0.2, 0.8)))
        solution = solve(build_model(problem, DARS))
        expected = enumerate_optimum(problem, DARS)
        if expected is None:
            assert solution.status == INFEASIBLE, seed
            infeasible += 1
            continue
        best_x, best_obj = expected
        assert solution.status == OPTIMAL and solution.proven, seed
        # the enumeration visits selections in ascending binary order, so its
        # winner is also the lexicographic tie-break the solver must return
        assert solution.x == best_x, seed
        assert solution.objective == pytest.approx(best_obj, abs=1e-9)
        worst = max(worst, abs(solution.objective - best_obj))
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(
        3,
        f"100 instances match 2^n enumeration (worst objective gap {worst:.1e}, "
        f"{infeasible} infeasible) in {elapsed:.2f}s",
    )


def test_04_objective_equals_selection_evaluation():
    checked = 0
    for seed in range(30):
        rng = np.random.default_rng(500 + seed)
        n = int(rng.integers(4, 13))
        spec = SyntheticSpec(n=n, vdl=0.3, nvdl=0.4, pdl=0.05, npdl=0.25, seed=7000 + seed)
        problem, _ = generate_synthetic(spec, budget_fraction=float(rng.uniform(0.3, 0.8)))
        solution = solve(build_model(problem, DARS))
        if solution.status != OPTIMAL:
            continue
        evaluation = evaluate_selection(problem.requirements, problem.influence, solution.x)
        assert solution.objective == pytest.approx(evaluation.ov, abs=1e-6)
        for i in range(1, n + 1):
            assert solution.values[f"g{i}"] == solution.values[f"x{i}"]
        checked += 1
    assert checked >= 20
    report(4, f"objective equals evaluated overall value and g == x on {checked} optima")


def test_05_penalty_aware_selection_dominates():
    start = time.perf_counter()
    levels = [float(v) for v in range(10, 101, 10)]

    def gaps(problem):
        table = sweep(problem, levels, [PCBK, SBK, DARS])
        by = {(row.percent, row.method): row.ov for row in table.rows}
        return [by[(lv, DARS)] - max(by[(lv, PCBK)], by[(lv, SBK)]) for lv in levels]

    strict = 0
    for seed in range(50):
        n = 6 + seed % 9
        spec = SyntheticSpec(n=n, vdl=0.25, nvdl=0.5, pdl=0.05, npdl=0.25, seed=4000 + seed)
        problem, vdg = generate_synthetic(spec, budget_fraction=0.5)
        per_level = gaps(problem)
        assert min(per_level) >= -1e-9, seed
        _, nvdl = vdl_nvdl(vdg)
        if np.any(problem.influence.influence != 0.0) and nvdl and nvdl > 0.0:
            assert max(per_level) > 1e-9, seed
            strict += 1

    # the bundled dataset with synthetic dependency graphs on its 27 items
    for seed in (7, 8):
        rng = np.random.default_rng(seed)
        vdg = random_vdg(27, 0.1, 0.3, rng)
        problem = dataclasses.replace(
            case_study_problem(percent=50.0), influence=propagate_strengths(vdg)
        )
        per_level = gaps(problem)
        assert min(per_level) >= -1e-9, seed
        assert max(per_level) > 1e-9, seed

    elapsed = time.perf_counter() - start
    report(
        5,
        f"dependency-aware optimum dominates at every level "
        f"({strict} random instances strict somewhere, case study strict) in {elapsed:.2f}s",
    )


def test_06_causal_strength_correct_and_linear_in_users():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(3000 + seed)
        n = int(rng.integers(2, 11))
        k = int(rng.integers(3, 501))
        cells = (rng.random((n, k)) < rng.uniform(0.2, 0.8, (n, 1))).astype(np.uint8)
        analysis = compute_eells(preference_fixture(cells))
        for i in range(n):
            for j in range(n):
                if i != j:
                    gap = abs(float(analysis.eells[i, j]) - causal_strength(cells, i, j))
                    worst = max(worst, gap)
    assert worst <= 1e-12

    rng = np.random.default_rng(99)
    n = 10
    small = (rng.random((n, 60000)) < 0.5).astype(np.uint8)
    large = np.concatenate([small, (rng.random((n, 60000)) < 0.5).astype(np.uint8)], axis=1)

    # best of 15, the two sizes timed in turn so that a slow phase of a
    # shared host hits both sides of the ratio; a call takes 1-4 ms and its
    # time is bimodal, so 7 repeats could catch the fast mode of one side only
    fixtures = (preference_fixture(small), preference_fixture(large))
    best = [math.inf, math.inf]
    for _ in range(15):
        for side, fixture in enumerate(fixtures):
            t = time.perf_counter()
            compute_eells(fixture)
            best[side] = min(best[side], time.perf_counter() - t)
    ratio = best[1] / best[0]
    assert ratio <= 2.5
    report(
        6,
        f"causal strengths match the oracle (worst gap {worst:.1e}); "
        f"doubling users scales x{ratio:.2f}",
    )


def test_07_significance_filter():
    def pair_matrix(n11, n10, n01, n00):
        first = [1] * (n11 + n10) + [0] * (n01 + n00)
        second = [1] * n11 + [0] * n10 + [1] * n01 + [0] * n00
        return preference_fixture(np.array([first, second], dtype=np.uint8))

    analysis = compute_eells(pair_matrix(40, 10, 10, 40))
    assert float(odds_ratio(analysis, 0, 1)) == pytest.approx(16.0)
    lower, upper, significant = significance_test(analysis, 0, 1, SignificanceConfig())
    # half-width 1.96 * sqrt(1/40 + 1/10 + 1/10 + 1/40) = 0.98, so the
    # interval is exp(ln 16 -+ 0.98) = (6.005, 42.631)
    assert lower == pytest.approx(6.01, abs=0.01)
    assert upper == pytest.approx(42.63, abs=0.01)
    assert significant

    for counts in ((25, 25, 25, 25), (30, 30, 20, 20), (8, 2, 32, 8)):
        independent = compute_eells(pair_matrix(*counts))
        for z_prime in (0.1, 1.96, 10.0):
            config = SignificanceConfig(z_prime=z_prime)
            _, _, significant = significance_test(independent, 0, 1, config)
            assert not significant, (counts, z_prime)
    report(7, "interval (6.01, 42.63) +/- 0.01 significant; exact independence never is")


def test_08_resampling_reproduces_source_moments():
    start = time.perf_counter()
    rng = np.random.default_rng(8)
    correlation = np.full((4, 4), 0.35)
    np.fill_diagonal(correlation, 1.0)
    cuts = norm.ppf([0.3, 0.45, 0.55, 0.7])
    latent = np.linalg.cholesky(correlation) @ rng.standard_normal((4, 200))
    source = preference_fixture((latent < cuts[:, None]).astype(np.uint8))

    stats = binary_stats(source)
    model = fit_dichotomized_gaussian(stats)
    samples = sample_dichotomized_gaussian(model, 100_000, 123)
    resampled = binary_stats(samples)
    mean_gap = float(np.abs(resampled.means - stats.means).max())
    cov_gap = float(np.abs(resampled.covariance - stats.covariance).max())
    assert mean_gap <= 0.01
    assert cov_gap <= 0.02

    again = sample_dichotomized_gaussian(model, 100_000, 123)
    assert np.array_equal(samples.cells, again.cells)

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(
        8,
        f"10^5 samples reproduce a 4x200 source (means {mean_gap:.4f}, "
        f"covariances {cov_gap:.4f}) in {elapsed:.2f}s",
    )


def test_09_case_study_table():
    reqs = case_study_requirements()
    assert sum(r.value for r in reqs) == 342.0
    assert sum(r.expected_value for r in reqs) == pytest.approx(232.99, abs=0.01)
    for r in reqs:
        assert r.probability * r.value == pytest.approx(r.expected_value, abs=0.05)
    for percent in (0.0, 10.0, 45.5, 60.0, 100.0):
        problem = case_study_problem(percent=percent)
        assert problem.budget == pytest.approx(percent / 100.0 * 342.0, abs=1e-9)
    report(9, "values sum to 342.00, expected values to 232.99; price grid is percent of 342")


def test_10_scale():
    solve_times = []
    for seed in (0, 1, 2):
        spec = SyntheticSpec(n=100, vdl=0.05, nvdl=0.2, pdl=0.02, npdl=0.2, seed=seed)
        problem, _ = generate_synthetic(spec)
        t0 = time.perf_counter()
        solution = solve(build_model(problem, DARS))
        solve_times.append(time.perf_counter() - t0)
        assert solution.status == OPTIMAL and solution.proven, seed
        assert solve_times[-1] < 60.0

    spec = SyntheticSpec(n=3000, vdl=0.05, nvdl=0.2, pdl=0.02, npdl=0.2, seed=5)
    problem, _ = generate_synthetic(spec)
    model = build_model(problem, DARS)
    buffer = io.StringIO()
    t0 = time.perf_counter()
    export_lp(model, buffer)
    emit = time.perf_counter() - t0
    assert emit < 10.0
    parsed = parse_lp(io.StringIO(buffer.getvalue()))
    assert len(parsed.variables) == len(model.variables)
    assert len(parsed.constraints) == len(model.constraints)
    report(
        10,
        f"n=100 proven optima in {max(solve_times):.2f}s worst case; "
        f"n=3000 model emitted in {emit:.2f}s and parsed back",
    )
