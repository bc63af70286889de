"""One-command benchmark for the identify -> influence -> select chain.

    python3 perfbench/run.py --workload select --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one child process each
    python3 perfbench/run.py --workload all --record LABEL   # append a row to trajectory.json
    python3 perfbench/run.py --rederive                # recompute expected.json

Run from the repository root: the package is imported from ./src, never from
an installed copy. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. See perfbench/README.md.
"""

from __future__ import annotations

import os
import sys
import time

NPROC = len(os.sched_getaffinity(0))
THREADS = min(NPROC, 2)
# pin the BLAS/OpenMP pools before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
TRAJECTORY = HERE / "trajectory.json"
SPANS_DIR = HERE / "out"
WORKLOAD_NAMES = ("select", "sweep", "identify", "model-io")
MIN_REPS = 2
SETUP_REPS = 3
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "proven_share": "share",
    "opt_pct": "%",
}


def import_package():
    if not (SRC / "reqsel" / "__init__.py").is_file():
        sys.exit(f"error: no reqsel package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import numpy  # the first import of NumPy: run_one times it
    import scipy

    import reqsel

    if Path(reqsel.__file__).resolve().parent != SRC / "reqsel":
        sys.exit(f"error: reqsel imported from {reqsel.__file__}, not from {SRC}")
    return numpy.__version__, scipy.__version__


def env_line(versions) -> str:
    return (
        f"# env nproc={NPROC} threads={THREADS} python={platform.python_version()} "
        f"numpy={versions[0]} scipy={versions[1]}"
    )


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def run_one(args) -> int:
    from speed import Speed

    # the import of numpy, scipy and reqsel, timed against the NumPy-free kernel
    startup = Speed(("startup",))
    with startup.sampling():
        t0 = time.perf_counter()
        versions = import_package()
        t1 = time.perf_counter()
    import_s = startup.reference_seconds(t0, t1, "startup")
    import layers
    from spans import Tracer
    from workloads import WORKLOADS, Context, Outcome

    speed = Speed()

    wl = WORKLOADS[args.workload]
    expected = json.loads(EXPECTED.read_text())
    tracer = Tracer(f"{args.workload}-s{args.seed}") if args.trace else None
    if tracer:
        tracer.install()
        tracer.tags["phase"] = "setup"

    setup_times, state = [], None
    for rep in range(SETUP_REPS):
        state = None
        if tracer:
            tracer.tags["rep"] = rep
        with speed.sampling():
            t0 = time.perf_counter()
            state = wl.setup(args.seed)
            t1 = time.perf_counter()
        setup_times.append(speed.reference_seconds(t0, t1))
    if tracer:
        tracer.uninstall()

    # Timed repetitions. With tracing, untraced and traced repetitions
    # alternate so the tracing overhead can be reported. The end-to-end times
    # are each part's and each call's median over the repetitions of the run,
    # in reference seconds (speed.py), as are the span times of the traced
    # repetitions; rep_walls are wall times without probe time.
    walls, traced_walls, traced_parts, parts, calls = [], [], [], [], []
    total = Outcome()
    while True:
        traced = tracer is not None and len(walls) > len(traced_walls)
        if traced:
            tracer.install()
            tracer.tags.update(phase="run", rep=len(traced_walls))
        ctx = Context(tracer if traced else None, speed)
        gc.collect()  # every repetition starts from the same collector state
        with speed.sampling():
            t0 = time.perf_counter()
            out = wl.run(state, ctx)
            t1 = time.perf_counter()
        wall = speed.measured_seconds(t0, t1)
        ctx.finish()
        if traced:
            tracer.uninstall()
            traced_walls.append(wall)
            traced_parts.append(ctx.parts)
        else:
            walls.append(wall)
            parts.append(ctx.parts)
            calls.append(ctx.calls)
        total.add(wl.check(state, out, expected))
        del out
        # at least two repetitions (one of each kind when tracing), then only
        # while the next one fits in the measured time budget
        if len(walls) + len(traced_walls) >= MIN_REPS and (traced_walls or tracer is None):
            if sum(walls) + sum(traced_walls) + wall > args.seconds:
                break

    for msg in total.messages[:20]:
        print(f"CHECK FAILED {args.workload}: {msg}", file=sys.stderr)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    med_calls = [statistics.median(c) for c in zip(*calls)]
    print(env_line(versions))
    print(f"# workload={args.workload} seed={args.seed} reps={len(walls)} traced_reps={len(traced_walls)} "
          f"calls_per_rep={len(med_calls)} setup_reps={len(setup_times)} import_s={import_s:.3f}")
    print("# rep_walls " + " ".join(f"{w:.3f}" for w in walls)
          + " traced " + " ".join(f"{w:.3f}" for w in traced_walls)
          + " setups " + " ".join(f"{t:.3f}" for t in setup_times))
    print(f"# speed {speed.summary()}")

    if tracer:
        layers.add_reference_times(tracer.spans, speed)
        tracer.write_jsonl(SPANS_DIR / f"spans-{args.workload}-s{args.seed}.jsonl")
        metrics = layers.per_layer(tracer.spans, expected, [sum(p) for p in parts], [sum(p) for p in traced_parts])
        names = layers.PER_LAYER_UNITS
    else:
        gap = total.gap_pct_sum / total.solves if total.solves else 0.0
        metrics = {
            "setup_s": import_s + statistics.median(setup_times),
            "wall_s": sum(statistics.median(p) for p in zip(*parts)),
            "peak_rss_mb": rss_mb,
            "call_p50_ms": 1e3 * statistics.median(med_calls),
            "call_p90_ms": 1e3 * percentile(med_calls, 90),
            "proven_share": total.proven / total.solves if total.solves else 1.0,
            "opt_pct": 100.0 - gap,
        }
        names = END_TO_END_UNITS
        print(f"# fail_share={total.failed / total.attempted:g} ({total.failed}/{total.attempted}) "
              f"gap_pct={gap:.4f} solves={total.solves}")
    for name, value in metrics.items():
        print(f"{args.workload:9s} {name:34s} {value:16.6f} {names[name]}")
    result = {
        "correct": total.failed == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {k: {"value": v, "unit": names[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if total.failed == 0 else 1


def run_child(workload: str, args, trace: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if not lines or not lines[-1].startswith("{"):
        sys.exit(f"error: workload {workload} printed no result (exit {proc.returncode})")
    return json.loads(lines[-1])


def run_all(args) -> int:
    """Each workload in its own process, so each peak RSS is its own."""
    traces = (0, 1) if args.record else (args.trace,)
    results = {(w, t): run_child(w, args, t) for t in traces for w in WORKLOAD_NAMES}
    ok = all(r["correct"] for r in results.values())
    if args.record:
        versions = import_package()
        rows = json.loads(TRAJECTORY.read_text())["rows"] if TRAJECTORY.exists() else []
        spans_file = SPANS_DIR / f"spans-select-s{args.seed}.jsonl"
        select_nodes = dict(sorted(
            (rec["instance"], rec["nodes"])
            for rec in map(json.loads, spans_file.read_text().splitlines())
            if rec["name"] == "solver.solve" and rec["phase"] == "run" and rec["rep"] == 0
        ))
        rows.append({
            "label": args.record,
            "select_nodes": select_nodes,
            "env": env_line(versions)[len("# env "):],
            "seed": args.seed,
            "seconds": args.seconds,
            "workloads": {
                w: {
                    "correct": results[(w, 0)]["correct"] and results[(w, 1)]["correct"],
                    "attempted": results[(w, 0)]["attempted"],
                    "failed": results[(w, 0)]["failed"],
                    "fail_share": results[(w, 0)]["failed"] / results[(w, 0)]["attempted"],
                    "gap_pct": 100.0 - results[(w, 0)]["metrics"]["opt_pct"]["value"],
                    "end_to_end": {k: v["value"] for k, v in results[(w, 0)]["metrics"].items()},
                    "per_layer": {k: v["value"] for k, v in results[(w, 1)]["metrics"].items()},
                }
                for w in WORKLOAD_NAMES
            },
        })
        TRAJECTORY.write_text(json.dumps({"rows": rows}, indent=1) + "\n")
    print(json.dumps({
        "correct": ok,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for (w, t), r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0, help="measured time budget per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", metavar="LABEL", help="with --workload all: append a trajectory row")
    ap.add_argument("--rederive", action="store_true", help="recompute expected.json and exit")
    args = ap.parse_args()
    if args.rederive:
        import_package()
        import rederive

        rederive.main(EXPECTED)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
