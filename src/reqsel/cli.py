"""Command-line front door wiring the pipeline: identify -> model -> solve
-> analyze.

Every subcommand is a pure function of its declared inputs plus the seed;
re-running a command produces byte-identical output files. The one
exception is `bench`: its `bench.csv` records each solve's wall-clock
`elapsed_s`, and the status, node count and objective of a solve stopped by
`--time-limit` depend on the machine. File outputs carry a provenance line
(tool version, subcommand, config hash): a leading `#` comment in CSV
files, a `\\` comment in LP files, a "_provenance" key in JSON documents.
The config hash covers the flags and the contents of the input files, not
the paths they were given by, so a run from another directory with
relative or absolute paths writes the same bytes.
Every other wall-clock timing goes to stderr only.

Exit status: 0 on success, 1 when the model is infeasible, 2 on input
errors (unknown flags, missing files, schema violations, non-finite
numbers), 3 when a node or time limit stopped a solve before it proved its
answer, 4 when `select`'s solution breaks its own model.

`select` and `sweep` bound every solve by `--node-limit` and `--time-limit`;
a limit-stopped solve keeps its incumbent, polished by a flip/swap local
search (see `reqsel.solver`), and reports status FEASIBLE (or UNKNOWN
without one) with `proven: false`. `select`'s `solution.json` gives the
search's `final_bound` and the `gap` between it and the objective (0.0 once
proven, null without an answer).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import re
import sys
import time
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from . import __version__
from .analysis import SyntheticSpec, benchmark, generate_synthetic, sweep
from .casestudy import case_study_precedence, case_study_requirements
from .dependency_graph import (
    InfluenceMatrix,
    load_constraints,
    load_influence_matrix,
    load_vdg,
    pdl_npdl,
    propagate_strengths,
    save_constraints,
    save_influence_matrix,
    save_vdg,
    vdl_nvdl,
)
from .errors import InputFormatError, ReqselError
from .identification import (
    MembershipConfig,
    SignificanceConfig,
    build_vdg,
    compute_eells,
    odds_ratio,
    significance_test,
)
from .preferences import (
    binary_stats,
    fit_dichotomized_gaussian,
    load_preference_matrix,
    resampling_report,
    sample_dichotomized_gaussian,
    save_preference_matrix,
)
from .selection_models import (
    BK,
    BUDGET_COST,
    DARS,
    PCBK,
    PRICE_VALUE,
    SBK,
    SelectionProblem,
    build_model,
    export_lp,
)
from .solver import FEASIBLE, INFEASIBLE, UNKNOWN, SolverLimits, solution_report, solve, verify_solution
from .valuation import load_requirements, save_requirements

_METHOD_CHOICES = ("bk", "pcbk", "sbk", "dars")
# the deterministic node limit binds first on ordinary hardware (20-30k
# nodes/s on price-mode BK), so a limit-stopped run keeps byte-identical
# outputs; the time limit is a backstop for slow nodes
DEFAULT_NODE_LIMIT = 1_000_000
DEFAULT_TIME_LIMIT = 600.0
EXIT_LIMIT = 3
EXIT_UNVERIFIED = 4
# flags naming an input file: the file's bytes enter the config hash, not the path
_INPUT_FILE_FLAGS = ("preferences", "requirements", "constraints", "vdg", "influence")


def _config_hash(ns: argparse.Namespace) -> str:
    # the output directory does not shape content, so it stays out of the hash
    payload = {k: v for k, v in vars(ns).items() if k not in ("func", "out")}
    for flag in _INPUT_FILE_FLAGS:
        if payload.get(flag) is not None:
            payload[flag] = hashlib.sha256(Path(payload[flag]).read_bytes()).hexdigest()
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def _load(path: str, loader: Callable[..., Any], *args: object) -> Any:
    """`loader` applied to an input file read as UTF-8 text; a byte that does
    not decode is an input error naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return loader(fh, *args)
        except UnicodeDecodeError as exc:
            byte = exc.object[exc.start]
            raise InputFormatError(f"{path}: not UTF-8 text (byte {byte:#04x}: {exc.reason})") from exc


def _provenance_comment(ns: argparse.Namespace) -> str:
    return f"# reqsel {__version__} {ns.command} config={_config_hash(ns)}\n"


def _provenance_obj(ns: argparse.Namespace) -> dict:
    return {
        "tool": f"reqsel {__version__}",
        "subcommand": ns.command,
        "config": _config_hash(ns),
    }


def _write(path: Path, content: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content, encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)


def _write_json(path: Path, obj: dict) -> None:
    _write(path, json.dumps(obj, indent=2, sort_keys=False) + "\n")


def _write_csv(ns: argparse.Namespace, path: Path, save: Callable[[io.StringIO], object]) -> None:
    """Write what `save` puts into a buffer, after the provenance line."""
    buf = io.StringIO()
    buf.write(_provenance_comment(ns))
    save(buf)
    _write(path, buf.getvalue())


def _parse_percents(text: str) -> list[float]:
    levels: list[float] = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "-" in item[1:]:  # allow a leading minus to fail float() below instead
            lo_text, hi_text = item.split("-", 1)
            try:
                lo, hi = int(lo_text), int(hi_text)
            except ValueError as exc:
                raise InputFormatError(f"bad percent range {item!r}") from exc
            if lo > hi:
                raise InputFormatError(f"empty percent range {item!r}")
            levels.extend(float(v) for v in range(lo, hi + 1))
        else:
            try:
                level = float(item)
            except ValueError as exc:
                raise InputFormatError(f"bad percent level {item!r}") from exc
            if not math.isfinite(level):
                raise InputFormatError(f"percent level {item!r} is not finite")
            if level < 0:
                raise InputFormatError(f"percent level {item!r} is negative")
            levels.append(level)
    if not levels:
        raise InputFormatError("no percent levels given")
    return levels


def _parse_pair(text: str, flag: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise InputFormatError(f"{flag} expects two comma-separated numbers, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise InputFormatError(f"{flag}: bad number in {text!r}") from exc


def _parse_list(text: str, flag: str, kind: type = float) -> list:
    try:
        return [kind(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        what = "integer" if kind is int else "number"
        raise InputFormatError(f"{flag}: bad {what} in {text!r}") from exc


def _load_instance(ns: argparse.Namespace, need_budget: bool) -> SelectionProblem:
    if ns.dataset is not None and ns.requirements is not None:
        raise InputFormatError("give either --dataset casestudy or --requirements, not both")
    if ns.dataset is not None:
        if ns.constraints is not None:
            raise InputFormatError("the bundled dataset ships its own constraints")
        reqs = case_study_requirements()
        precedence = case_study_precedence()
    elif ns.requirements is not None:
        reqs = _load(ns.requirements, load_requirements)
        precedence = None
        if ns.constraints is not None:
            precedence = _load(ns.constraints, load_constraints, [r.id for r in reqs])
    else:
        raise InputFormatError("an instance needs --dataset casestudy or --requirements FILE")

    # neither --vdg nor --influence: no dependencies, as `sweep` assumes
    influence = InfluenceMatrix.zeros(len(reqs))
    req_ids = tuple(r.id for r in reqs)
    if ns.vdg is not None and ns.influence is not None:
        raise InputFormatError("give either --vdg or --influence, not both")
    if ns.vdg is not None:
        graph, _ = _load(ns.vdg, load_vdg, req_ids)
        influence = propagate_strengths(graph)
    elif ns.influence is not None:
        influence, names = _load(ns.influence, load_influence_matrix)
        if names != req_ids:
            raise InputFormatError(
                "influence matrix ids do not match the instance requirement ids"
            )

    budget = 0.0
    mode = PRICE_VALUE
    if need_budget:
        if (ns.budget is None) == (ns.percent is None):
            raise InputFormatError("give exactly one of --budget or --percent")
        if ns.budget is not None:
            if ns.dataset == "casestudy":
                raise InputFormatError(
                    "the bundled dataset has no published costs; use --percent"
                )
            flag, budget, mode = "--budget", ns.budget, BUDGET_COST
        else:
            total = sum(r.value for r in reqs)
            flag, budget, mode = "--percent", ns.percent / 100.0 * total, PRICE_VALUE
        # SelectionProblem rejects a nan budget but keeps inf, which an LP row
        # or a JSON output cannot hold; a negative one is named by its flag
        if math.isinf(budget):
            raise InputFormatError(f"{flag} gives an infinite budget")
        if budget < 0:
            raise InputFormatError(f"{flag} gives a negative budget")

    return SelectionProblem(
        requirements=tuple(reqs),
        budget=budget,
        constraint_mode=mode,
        precedence=precedence,
        influence=influence,
    )


def _warn_bk(ns: argparse.Namespace, p: SelectionProblem) -> None:
    if ns.method == "bk" and p.precedence is not None and p.precedence.constraints:
        print(
            "warning: BK ignores precedence constraints; the selection may violate them",
            file=sys.stderr,
        )


def _cmd_identify(ns: argparse.Namespace) -> int:
    prefs = _load(ns.preferences, load_preference_matrix)
    analysis = compute_eells(prefs)
    sig = SignificanceConfig(z_prime=ns.z)
    a, b = _parse_pair(ns.cuts, "--cuts")
    mem = MembershipConfig(lower_cut=a, upper_cut=b)
    vdg = build_vdg(analysis, sig, mem)
    ids = prefs.requirement_ids

    def save_report(fh: io.StringIO) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["from", "to", "eta", "odds_ratio", "ci_lower", "ci_upper", "significant"])
        for i in range(analysis.n):
            for j in range(analysis.n):
                if i == j:
                    continue
                omega = odds_ratio(analysis, i, j)
                lower, upper, significant = significance_test(analysis, i, j, sig)
                numbers = (analysis.eells[i, j], omega, lower, upper)
                writer.writerow([ids[i], ids[j], *(repr(float(v)) for v in numbers), int(significant)])

    out = Path(ns.out)
    _write_csv(ns, out / "vdg.csv", lambda fh: save_vdg(vdg, fh, ids=ids))
    _write_csv(ns, out / "eells_report.csv", save_report)
    return 0


def _cmd_resample(ns: argparse.Namespace) -> int:
    prefs = _load(ns.preferences, load_preference_matrix)
    stats = binary_stats(prefs)
    model = fit_dichotomized_gaussian(stats)
    samples = sample_dichotomized_gaussian(
        model, ns.count, ns.seed, requirement_ids=prefs.requirement_ids
    )
    report = resampling_report(stats, binary_stats(samples))

    out = Path(ns.out)
    _write_csv(ns, out / "samples.csv", lambda fh: save_preference_matrix(samples, fh))
    _write_json(
        out / "resample.json",
        {
            "_provenance": _provenance_obj(ns),
            "source_users": prefs.k,
            "sampled_users": samples.k,
            "seed": ns.seed,
            "max_mean_gap": report.max_mean_gap,
            "max_covariance_gap": report.max_covariance_gap,
            "psd_repaired": model.psd_repaired,
            "repair_shift": model.repair_shift,
        },
    )
    return 0


def _cmd_influence(ns: argparse.Namespace) -> int:
    graph, names = _load(ns.vdg, load_vdg)
    influence = propagate_strengths(graph)
    out = Path(ns.out)
    _write_csv(ns, out / "influence.csv", lambda fh: save_influence_matrix(influence, fh, ids=names))
    return 0


def _solver_limits(ns: argparse.Namespace) -> SolverLimits:
    nodes = getattr(ns, "node_limit", DEFAULT_NODE_LIMIT)
    seconds = getattr(ns, "time_limit", DEFAULT_TIME_LIMIT)
    if nodes < 1:
        raise InputFormatError(f"--node-limit must be at least 1, got {nodes}")
    if not seconds > 0.0:
        raise InputFormatError(f"--time-limit must be positive, got {seconds}")
    return SolverLimits(max_nodes=nodes, max_seconds=seconds)


def _exit_code(statuses: Iterable[str]) -> int:
    """1 when every solve is infeasible, 3 when a limit stopped any, else 0."""
    found = set(statuses)
    if found == {INFEASIBLE}:
        return 1
    return EXIT_LIMIT if found & {FEASIBLE, UNKNOWN} else 0


def _cmd_select(ns: argparse.Namespace) -> int:
    problem = _load_instance(ns, need_budget=True)
    _warn_bk(ns, problem)
    limits = _solver_limits(ns)
    model = build_model(problem, ns.method.upper())
    t0 = time.perf_counter()
    solution = solve(model, limits)
    print(f"solved in {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    check = verify_solution(model, solution)
    if not check.ok:
        # a selection that breaks its model is a solver fault: no output file
        for line in check.violations:
            print(f"error: {line}", file=sys.stderr)
        print(f"error: objective off by {check.objective_delta:.3g}", file=sys.stderr)
        return EXIT_UNVERIFIED
    report = solution_report(model, solution)
    report["_provenance"] = _provenance_obj(ns)
    _write_json(Path(ns.out) / "solution.json", report)
    return _exit_code([solution.status])


def _cmd_sweep(ns: argparse.Namespace) -> int:
    problem = _load_instance(ns, need_budget=False)
    levels = _parse_percents(ns.percents)
    methods = []
    for raw in ns.methods.split(","):
        name = raw.strip().lower()
        if name not in _METHOD_CHOICES:
            raise InputFormatError(f"unknown method {raw!r}")
        methods.append(name.upper())
    limits = _solver_limits(ns)
    t0 = time.perf_counter()
    report = sweep(problem, levels, methods, limits)
    print(
        f"{len(levels) * len(methods)} solves in {time.perf_counter() - t0:.3f}s",
        file=sys.stderr,
    )
    out = Path(ns.out)
    if ns.format == "json":
        obj = report.to_json_obj()
        obj["_provenance"] = _provenance_obj(ns)
        _write_json(out / "sweep.json", obj)
    else:
        _write_csv(ns, out / "sweep.csv", report.to_csv)
        _write_csv(ns, out / "sweep_long.csv", report.to_long_csv)
    return _exit_code(row.status for row in report.rows)


def _cmd_simulate(ns: argparse.Namespace) -> int:
    spec = SyntheticSpec(
        n=ns.n,
        vdl=ns.vdl,
        nvdl=ns.nvdl,
        pdl=ns.pdl,
        npdl=ns.npdl,
        cost_range=_parse_pair(ns.cost_range, "--cost-range"),
        value_range=_parse_pair(ns.value_range, "--value-range"),
        probability_range=_parse_pair(ns.prob_range, "--prob-range"),
        seed=ns.seed,
    )
    problem, vdg = generate_synthetic(spec, budget_fraction=ns.budget_fraction)
    ids = [r.id for r in problem.requirements]
    out = Path(ns.out)

    _write_csv(ns, out / "requirements.csv", lambda fh: save_requirements(problem.requirements, fh))
    _write_csv(ns, out / "vdg.csv", lambda fh: save_vdg(vdg, fh, ids=ids))

    buf = io.StringIO()
    save_constraints(problem.precedence, buf, ids)
    _write_json(
        out / "constraints.json",
        {"_provenance": _provenance_obj(ns), "records": json.loads(buf.getvalue())},
    )

    influence = problem.influence
    _write_csv(ns, out / "influence.csv", lambda fh: save_influence_matrix(influence, fh, ids=ids))

    vdl, nvdl = vdl_nvdl(vdg)
    pdl, npdl = pdl_npdl(problem.precedence)
    _write_json(
        out / "instance.json",
        {
            "_provenance": _provenance_obj(ns),
            "n": ns.n,
            "seed": ns.seed,
            "targets": {"vdl": ns.vdl, "nvdl": ns.nvdl, "pdl": ns.pdl, "npdl": ns.npdl},
            "measured": {"vdl": vdl, "nvdl": nvdl, "pdl": pdl, "npdl": npdl},
            "budget": problem.budget,
            "budget_fraction": ns.budget_fraction,
            "constraint_mode": problem.constraint_mode,
        },
    )
    return 0


def _cmd_bench(ns: argparse.Namespace) -> int:
    specs = [
        SyntheticSpec(n=n, vdl=vdl, nvdl=nvdl, pdl=pdl, npdl=npdl, seed=seed)
        for n in _parse_list(ns.n, "--n", int)
        for vdl in _parse_list(ns.vdl, "--vdl")
        for nvdl in _parse_list(ns.nvdl, "--nvdl")
        for pdl in _parse_list(ns.pdl, "--pdl")
        for npdl in _parse_list(ns.npdl, "--npdl")
        for seed in _parse_list(ns.seeds, "--seeds", int)
    ]
    report = benchmark(
        specs,
        method=ns.method.upper(),
        budget_fraction=ns.budget_fraction,
        max_seconds=ns.time_limit,
    )
    _write_csv(ns, Path(ns.out) / "bench.csv", report.to_csv)
    return _exit_code(row.status for row in report.rows)


def _cmd_export_lp(ns: argparse.Namespace) -> int:
    problem = _load_instance(ns, need_budget=True)
    _warn_bk(ns, problem)
    model = build_model(problem, ns.method.upper(), simplify=ns.simplify)
    buf = io.StringIO()
    buf.write("\\ " + _provenance_comment(ns)[2:])
    export_lp(model, buf)
    _write(Path(ns.out) / "model.lp", buf.getvalue())
    return 0


def _add_instance_flags(sub: argparse.ArgumentParser, budget_flags: bool) -> None:
    sub.add_argument("--dataset", choices=["casestudy"], default=None, help="bundled dataset")
    sub.add_argument("--requirements", metavar="FILE", help="requirements CSV")
    sub.add_argument("--constraints", metavar="FILE", help="precedence constraints JSON")
    sub.add_argument("--vdg", metavar="FILE", help="value dependency graph CSV (propagated to influences)")
    sub.add_argument("--influence", metavar="FILE", help="precomputed influence matrix CSV")
    if budget_flags:
        sub.add_argument("--budget", type=float, default=None, help="cost budget (BUDGET_COST mode)")
        sub.add_argument("--percent", type=float, default=None, help="price level as percent of total value")


def _add_limit_flags(sub: argparse.ArgumentParser) -> None:
    # SUPPRESS keeps a limit left at its default out of the namespace, and so
    # out of the config hash: only an explicit limit changes the stamp
    sub.add_argument(
        "--node-limit", type=int, default=argparse.SUPPRESS, metavar="N",
        help=f"branch-and-bound nodes per solve (default {DEFAULT_NODE_LIMIT}), checked "
        "between expansions, so a solve can overrun it by the expansion that reaches it "
        "(its dive and two children: at most 2n + 2 nodes over n requirements); a solve "
        "stopped here returns its best plan after a flip/swap local search",
    )
    sub.add_argument(
        "--time-limit", type=float, default=argparse.SUPPRESS, metavar="SECONDS",
        help=f"seconds per solve (default {DEFAULT_TIME_LIMIT:g}); the flip/swap local "
        "search on a stopped solve's plan runs after it, so the solve can overrun it",
    )


class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser that reads a token starting with a minus and a
    digit, such as -0.5,10, as a value rather than an unknown option, so that
    each comma-list flag hands a list that starts with a negative number to
    its own parser (Python 3.13 argparse does this by itself)."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="reqsel",
        description="Dependency-aware software requirements selection toolkit.",
    )
    parser.add_argument("--version", action="version", version=f"reqsel {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("identify", help="preference matrix -> value dependency graph")
    p.add_argument("--preferences", required=True, metavar="FILE")
    p.add_argument("--z", type=float, default=1.96, help="z' for the odds-ratio interval")
    p.add_argument("--cuts", default="0,1", help="membership cuts a,b")
    p.add_argument("--out", default=".", metavar="DIR")
    p.set_defaults(func=_cmd_identify)

    p = commands.add_parser("resample", help="fit the latent model and draw synthetic users")
    p.add_argument("--preferences", required=True, metavar="FILE")
    p.add_argument("--count", type=int, required=True, help="number of synthetic users")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=".", metavar="DIR")
    p.set_defaults(func=_cmd_resample)

    p = commands.add_parser("influence", help="VDG -> propagated influence matrix")
    p.add_argument("--vdg", required=True, metavar="FILE")
    p.add_argument("--out", default=".", metavar="DIR")
    p.set_defaults(func=_cmd_influence)

    p = commands.add_parser("select", help="solve one selection instance")
    _add_instance_flags(p, budget_flags=True)
    p.add_argument("--method", choices=_METHOD_CHOICES, required=True)
    _add_limit_flags(p)
    p.add_argument("--out", default=".", metavar="DIR")
    p.set_defaults(func=_cmd_select)

    p = commands.add_parser("sweep", help="price sweep over levels and methods")
    _add_instance_flags(p, budget_flags=False)
    p.add_argument("--percents", default="1-100", help="levels, e.g. 1-100 or 25,50,75")
    p.add_argument("--methods", default="pcbk,sbk,dars", help="comma list of methods")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    _add_limit_flags(p)
    p.add_argument("--out", default=".", metavar="DIR")
    p.set_defaults(func=_cmd_sweep)

    p = commands.add_parser("simulate", help="generate a synthetic instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--vdl", type=float, default=0.0)
    p.add_argument("--nvdl", type=float, default=0.0)
    p.add_argument("--pdl", type=float, default=0.0)
    p.add_argument("--npdl", type=float, default=0.0)
    p.add_argument("--cost-range", default="1,10")
    p.add_argument("--value-range", default="1,20")
    p.add_argument("--prob-range", default="0,1")
    p.add_argument("--budget-fraction", type=float, default=0.5)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=".", metavar="DIR")
    p.set_defaults(func=_cmd_simulate)

    p = commands.add_parser("bench", help="runtime grid over synthetic instances")
    p.add_argument("--n", default="10", help="comma list")
    p.add_argument("--vdl", default="0.05", help="comma list")
    p.add_argument("--nvdl", default="0.2", help="comma list")
    p.add_argument("--pdl", default="0.02", help="comma list")
    p.add_argument("--npdl", default="0.2", help="comma list")
    p.add_argument("--seeds", default="0", help="comma list")
    p.add_argument("--budget-fraction", type=float, default=0.5)
    p.add_argument("--time-limit", type=float, default=60.0, help="seconds per instance")
    p.add_argument("--method", choices=_METHOD_CHOICES, default="dars")
    p.add_argument("--out", default=".", metavar="DIR")
    p.set_defaults(func=_cmd_bench)

    p = commands.add_parser("export-lp", help="write the compiled model as an LP file")
    _add_instance_flags(p, budget_flags=True)
    p.add_argument("--method", choices=_METHOD_CHOICES, required=True)
    p.add_argument("--simplify", action="store_true", help="substitute g := x in the dependency model")
    p.add_argument("--out", default=".", metavar="DIR")
    p.set_defaults(func=_cmd_export_lp)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Parse arguments, dispatch, and map failures to exit codes."""
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except ReqselError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
