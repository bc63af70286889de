"""In-memory spans around the public functions of each reqsel layer.

The tracer rebinds a fixed list of public functions in their defining module
and in every reqsel module that imported the same function object (so
`analysis.sweep` reaches the wrapped `build_model`, `solve` and
`evaluate_selection`). Nothing in the package is edited; `uninstall` restores
every original binding. Spans are kept in a list and written as JSONL once
the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from pathlib import Path

import reqsel

# (module, function) pairs that get a span each, with the attributes read off
# the call. Helpers called in tight loops (membership, significance_test,
# penalties) are deliberately absent: a span per pair would dominate the run.
TRACED = (
    ("preferences", "binary_stats"),
    ("preferences", "fit_dichotomized_gaussian"),
    ("preferences", "sample_dichotomized_gaussian"),
    ("identification", "compute_eells"),
    ("identification", "build_vdg"),
    ("dependency_graph", "propagate_strengths"),
    ("selection_models", "build_model"),
    ("selection_models", "export_lp"),
    ("selection_models", "parse_lp"),
    ("solver", "solve"),
    ("valuation", "evaluate_selection"),
    ("analysis", "generate_synthetic"),
    ("analysis", "sweep"),
)

LAYERS = tuple(dict.fromkeys(mod for mod, _ in TRACED))


def _attrs(name: str, args: tuple, result) -> dict:
    if name == "solver.solve":
        st = result.stats
        return {
            "kind": args[0].metadata.get("kind"),
            "nodes": st.nodes,
            "elapsed_s": st.elapsed_s,
            "root_bound": st.root_bound,
            "status": result.status,
        }
    if name == "selection_models.build_model":
        return {"rows": len(result.constraints)}
    if name == "selection_models.export_lp":
        return {"chars": args[1].tell()}
    if name == "identification.build_vdg":
        return {"edges": result.edge_count}
    return {}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.tags: dict = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = {
            "run": self.run_id,
            "id": sid,
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            **self.tags,
        }
        self.spans.append(rec)
        self._stack.append(sid)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                rec.update(_attrs(name, args, result))
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key.startswith("reqsel") and m is not None]
        for mod_name, fn_name in TRACED:
            original = getattr(getattr(reqsel, mod_name), fn_name)
            wrapped = self._wrap(original, f"{mod_name}.{fn_name}")
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    self._undo.append((mod, fn_name, original))
                    setattr(mod, fn_name, wrapped)

    def uninstall(self) -> None:
        for mod, fn_name, original in reversed(self._undo):
            setattr(mod, fn_name, original)
        self._undo.clear()

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def self_times(spans: list[dict], duration) -> dict[str, float]:
    """Seconds per layer spent in its own spans, minus time in child spans."""
    child = [0.0] * len(spans)
    by_id = {s["id"]: i for i, s in enumerate(spans)}
    for s in spans:
        if s["parent"] in by_id:
            child[by_id[s["parent"]]] += duration(s)
    out = dict.fromkeys(LAYERS, 0.0)
    for i, s in enumerate(spans):
        layer = s["name"].split(".", 1)[0]
        if layer in out:
            out[layer] += duration(s) - child[i]
    return out
