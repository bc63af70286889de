"""Per-layer metrics from the spans of a traced run.

Times are sums over one repetition in reference seconds (speed.py), and the
reported value is the median over the traced repetitions; counts are per
repetition. A family or layer the workload does not call reports 0.
"""

from __future__ import annotations

import statistics

from spans import LAYERS, self_times
from speed import kernel_for

SOLVE_FAMILIES = ("acc", "light", "capped", "pcbk", "sbk", "dars")
ROOT_GAP_FAMILIES = ("light", "capped")

# metric name -> span name whose durations it sums
SPAN_TIMES = {
    "selection_models.build_s": "selection_models.build_model",
    "selection_models.export_s": "selection_models.export_lp",
    "selection_models.parse_s": "selection_models.parse_lp",
    "valuation.evaluate_s": "valuation.evaluate_selection",
    "preferences.stats_s": "preferences.binary_stats",
    "preferences.fit_s": "preferences.fit_dichotomized_gaussian",
    "preferences.sample_s": "preferences.sample_dichotomized_gaussian",
    "identification.eells_s": "identification.compute_eells",
    "identification.vdg_s": "identification.build_vdg",
    "identification.report_s": "identification.report",
    "dependency_graph.closure_s": "dependency_graph.propagate_strengths",
}

PER_LAYER_UNITS = {
    **{f"solver.search_s.{f}": "s" for f in SOLVE_FAMILIES},
    **{f"solver.nodes.{f}": "count" for f in SOLVE_FAMILIES},
    "solver.nodes_per_s": "1/s",
    **{f"solver.root_gap_pct.{f}": "%" for f in ROOT_GAP_FAMILIES},
    "solver.compile_s": "s",
    **{name: "s" for name in SPAN_TIMES},
    "selection_models.rows": "count",
    "selection_models.lp_bytes": "B",
    "identification.edges": "count",
    "analysis.generate_s": "s",
    **{f"self_s.{layer}": "s" for layer in LAYERS},
    "trace.overhead_s": "s",
}


def add_reference_times(spans: list[dict], speed) -> None:
    """Give each span `ref_s`, and each solve `ref_search_s`, in reference seconds.

    A solve's search is the last `elapsed_s` seconds of its span: the
    solver compiles the model first, and its own clock runs on through any
    probe, which reference_seconds then takes out.
    """
    for s in spans:
        s["ref_s"] = speed.reference_seconds(s["start"], s["end"], kernel_for(s["name"]))
        if s["name"] == "solver.solve":
            start = s["end"] - s["elapsed_s"]
            s["ref_search_s"] = speed.reference_seconds(max(start, s["start"]), s["end"])


def _dur(s: dict) -> float:
    return s["ref_s"]


def _family(s: dict) -> str:
    return s.get("family") or s["kind"].lower()


def _rep_metrics(spans: list[dict], refs: dict) -> dict[str, float]:
    out: dict[str, float] = {}
    solves = [s for s in spans if s["name"] == "solver.solve"]
    for fam in SOLVE_FAMILIES:
        mine = [s for s in solves if _family(s) == fam]
        out[f"solver.search_s.{fam}"] = sum(s["ref_search_s"] for s in mine)
        out[f"solver.nodes.{fam}"] = sum(s["nodes"] for s in mine)
    search = sum(s["ref_search_s"] for s in solves)
    out["solver.nodes_per_s"] = sum(s["nodes"] for s in solves) / search if search else 0.0
    for fam in ROOT_GAP_FAMILIES:
        gaps = [
            100.0 * (s["root_bound"] - refs[s["instance"]]) / refs[s["instance"]]
            for s in solves
            if s.get("family") == fam and s["root_bound"] is not None
        ]
        out[f"solver.root_gap_pct.{fam}"] = statistics.fmean(gaps) if gaps else 0.0
    out["solver.compile_s"] = sum(_dur(s) - s["ref_search_s"] for s in solves)
    for metric, span_name in SPAN_TIMES.items():
        out[metric] = sum(_dur(s) for s in spans if s["name"] == span_name)
    out["selection_models.rows"] = sum(s["rows"] for s in spans if s["name"] == "selection_models.build_model")
    out["selection_models.lp_bytes"] = sum(s["chars"] for s in spans if s["name"] == "selection_models.export_lp")
    out["identification.edges"] = sum(s["edges"] for s in spans if s["name"] == "identification.build_vdg")
    for layer, seconds in self_times(spans, _dur).items():
        out[f"self_s.{layer}"] = seconds
    return out


def _by_rep(spans: list[dict]) -> list[list[dict]]:
    reps: dict[int, list[dict]] = {}
    for s in spans:
        reps.setdefault(s["rep"], []).append(s)
    return [reps[r] for r in sorted(reps)]


def per_layer(spans: list[dict], expected: dict, walls: list[float], traced_walls: list[float]) -> dict[str, float]:
    refs = expected["select"]
    run = _by_rep([s for s in spans if s["phase"] == "run"])
    setup = _by_rep([s for s in spans if s["phase"] == "setup"])
    per_rep = [_rep_metrics(rep, refs) for rep in run]
    metrics = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
    metrics["analysis.generate_s"] = statistics.median(
        sum(_dur(s) for s in rep if s["name"] == "analysis.generate_synthetic") for rep in setup
    ) if setup else 0.0
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    return {name: metrics[name] for name in PER_LAYER_UNITS}
