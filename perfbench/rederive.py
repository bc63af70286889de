"""Recompute perfbench/expected.json.

Select references and every cell of the price sweep are checked against
HiGHS optima; the sweep CSV checksums are recorded only after every cell
matches. The identify values (edge count and checksums) record this
commit's output of the identification chain, which is invariant to the
user permutation each benchmark seed applies.
"""

from __future__ import annotations

import io
import json
import time
from dataclasses import replace

from reqsel import PCBK, PRICE_VALUE, SBK, build_model
from reqsel.dependency_graph import save_influence_matrix

import reference
import workloads as wl


def select_refs() -> dict[str, float]:
    refs = {}
    for it in wl.select_instances():
        t0 = time.perf_counter()
        refs[it.key] = reference.highs_optimum(it.model, it.problem)
        print(f"select {it.key}: HiGHS {refs[it.key]!r} in {time.perf_counter() - t0:.2f}s")
    return refs


def sweep_checksums() -> dict[str, str]:
    problem = wl.sweep_problem()
    total = sum(r.value for r in problem.requirements)
    reports = wl.run_sweep((problem, wl.SWEEP_METHODS), wl.Context())
    sums = {}
    for method, report in reports.items():
        for row in report.rows:
            level = replace(problem, budget=row.percent / 100.0 * total, constraint_mode=PRICE_VALUE)
            ref = reference.highs_optimum(build_model(level, method), level)
            got = {PCBK: row.av, SBK: row.ev}.get(method, row.ov)
            if (ref is None) != (row.status == "INFEASIBLE") or (ref is not None and abs(got - ref) > wl.OBJ_TOL):
                raise SystemExit(f"sweep {method} at {row.percent:g}%: {row.status} {got!r}, HiGHS {ref!r}")
        sums[method] = wl.sha256(wl.sweep_csv(report))
        print(f"sweep {method}: {len(report.rows)} cells match HiGHS")
    return sums


def identify_values() -> dict:
    state = wl.setup_identify(0)
    _, _, vdg, report, influence = wl.run_identify(state, wl.Context())
    buf = io.StringIO()
    save_influence_matrix(influence, buf, ids=state[0].requirement_ids)
    print(f"identify: {vdg.edge_count} edges")
    return {
        "edges": vdg.edge_count,
        "report_sha256": wl.sha256(report),
        "influence_sha256": wl.sha256(buf.getvalue()),
    }


def main(path) -> None:
    expected = {"select": select_refs(), "sweep": sweep_checksums(), "identify": identify_values()}
    path.write_text(json.dumps(expected, indent=1) + "\n")
    print(f"wrote {path}")
