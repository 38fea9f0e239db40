"""fluxbus benchmark: one workload, one closed-loop client, one process.

    python3 bench/run.py --workload circuit_sim --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; fluxbus is imported from ``src/``.
The seed makes every input; fluxbus receives only the generated circuit
texts, config dicts and parameter objects.  Items run back to back, one at a
time, with BLAS pinned to one thread.

``--trace 0`` measures whole passes of the workload until ``--seconds`` of
item time has passed (and at least the workload's minimum number of passes),
then prints the end-to-end metrics.  ``--trace 1`` runs a fixed number of
passes, each first untraced and then traced on the same inputs, and prints
the per-layer metrics; its counts repeat exactly for a given workload and
``--tiny``.

Every output is checked after the timed section against an independent
reference (``reference.py``); failed checks count toward ``failed``.  The
last line of standard output is one JSON object; a run record and the trace
spans go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
sys.dont_write_bytecode = True

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 6
# A run stops at this multiple of --seconds even if the minimum number of
# passes is not complete, so a much slower commit still ends in time.
MAX_STRETCH = 4.0

END_TO_END = (
    ("throughput_items_per_s", "items/s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("circuit_sim", "design_sweep", "gate_verification"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke size for the self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def setup(args):
    """Import the stack, make the first inputs, run one warm-up item.  Returns (state, seconds)."""
    start = perf_counter()
    import numpy as np
    import scipy.linalg  # noqa: F401  (part of the measured import cost)

    sys.path.insert(0, str(ROOT / "src"))
    import fluxbus  # noqa: F401

    import workloads

    sizes = workloads.Sizes.tiny() if args.tiny else workloads.Sizes()
    workload = workloads.WORKLOADS[args.workload](sizes)
    if args.tiny:
        workload.passes_min = workload.trace_passes = 1
    first = workload.make_pass(np.random.default_rng([args.seed, 1, 0]))
    warm = workload.warmup_item(np.random.default_rng([args.seed, 0]))
    warm.output = workload.run(warm)
    return (np, workload, first), perf_counter() - start


def probe_setup(args):
    """Setup time of fresh processes, each importing the whole stack anew."""
    cmd = [sys.executable, "-B", str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def run_items(workload, items, latencies, tracer=None, first_id=0):
    """Closed loop: each item starts when the previous one has finished."""
    for offset, item in enumerate(items):
        if tracer is not None:
            tracer.item = first_id + offset
        start = perf_counter()
        try:
            item.output = workload.run(item)
        except Exception:  # an item that raises is a failed item; the loop goes on
            item.error = traceback.format_exc(limit=4)
        latencies.append(perf_counter() - start)


def measure_timed(np, workload, first, seconds, seed):
    """Whole passes until `seconds` of item time and the minimum passes are done."""
    items, latencies = [], []
    batch, index = first, 0
    wall = perf_counter()
    while True:
        run_items(workload, batch, latencies)
        items += batch
        index += 1
        busy = sum(latencies)
        if index >= workload.passes_min and busy >= seconds:
            break
        if perf_counter() - wall >= MAX_STRETCH * seconds:
            print(f"warning: stopped after {index} passes at {MAX_STRETCH:g}x --seconds", file=sys.stderr)
            break
        batch = workload.make_pass(np.random.default_rng([seed, 1, index]))
    return items, latencies, index


def tail_percentile(n_min):
    """Highest whole percentile with at least 10 samples beyond it at the run's minimum item count."""
    if n_min < 20:
        return 50
    return math.floor(100 * (n_min - 10) / n_min)


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all order statistics.

    Item latencies on a shared VM are often bimodal within a run (two machine
    speed states); the plain sample quantile snaps to whichever mode holds the
    rank, while this estimate moves smoothly with the share of each mode.
    """
    import numpy as np
    from scipy.special import betainc

    x = np.sort(np.asarray(values))
    n = len(x)
    weights = np.diff(betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ x)


def check_items(workload, items):
    for item in items:
        if item.error is not None:
            continue
        try:
            workload.check(item)
        except Exception:  # a check that cannot run counts the item as failed
            item.problems.append("check raised: " + traceback.format_exc(limit=4))


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_record(np, args, workload, extra):
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": np.__config__.CONFIG["Build Dependencies"]["blas"].get("version"),
        "openblas_scipy": scipy.__config__.CONFIG["Build Dependencies"]["blas"].get("version"),
        "blas_threads_pinned": BLAS_THREADS,
        "client": "closed loop, 1 client, 1 process",
        "why": workload.why,
        "input_size": workload.input_size,
        **extra,
    }


def emit(result, summary, record, args):
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")
    for line in summary:
        print(line)
    print(json.dumps(result))


def end_to_end(args, np, workload, first, setups):
    """Timed whole passes, tracing off.  Returns (items, metrics, units, notes)."""
    items, latencies, passes = measure_timed(np, workload, first, args.seconds, args.seed)
    check_items(workload, items)
    pct = tail_percentile(workload.passes_min * len(first))
    tail = quantile(latencies, pct / 100)
    busy = sum(latencies)
    metrics = {
        "throughput_items_per_s": len(items) / busy,
        "item_p50_ms": quantile(latencies, 0.5) * 1e3,
        "item_tail_ms": tail * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    beyond = sum(1 for x in latencies if x > tail)
    notes = {"passes": passes, "tail_percentile": pct, "tail_samples_beyond": beyond, "timed_seconds": busy,
             "quantile_estimator": "Harrell-Davis", "setup_samples_s": setups,
             "latencies_ms": [x * 1e3 for x in latencies]}
    lines = [f"item_tail_ms is p{pct} of {len(items)} items ({beyond} beyond) over {passes} passes"]
    return items, metrics, dict(END_TO_END), notes, lines


def per_layer(args, np, workload, first):
    """Fixed passes, each run untraced and then traced on the same inputs."""
    import tracing

    # Alternating the two phases pass by pass keeps drift in the machine's
    # speed from landing on one side of the overhead ratio.
    tracer = tracing.Tracer()
    items, plain_lat, traced_lat = [], [], []
    origin = perf_counter()
    for k in range(workload.trace_passes):
        plain = first if k == 0 else workload.make_pass(np.random.default_rng([args.seed, 1, k]))
        run_items(workload, plain, plain_lat)
        traced = workload.make_pass(np.random.default_rng([args.seed, 1, k]))
        with tracer.active():
            run_items(workload, traced, traced_lat, tracer=tracer, first_id=k * len(traced))
        items += plain + traced
    check_items(workload, items)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl", origin)
    metrics = tracer.layer_metrics()
    metrics["trace.untraced_items_per_s"] = len(plain_lat) / sum(plain_lat)
    metrics["trace.traced_items_per_s"] = len(traced_lat) / sum(traced_lat)
    metrics["trace.throughput_ratio"] = metrics["trace.traced_items_per_s"] / metrics["trace.untraced_items_per_s"]
    lines = [f"tracing overhead: traced/untraced throughput = {metrics['trace.throughput_ratio']:.4f}"]
    return items, metrics, dict(tracing.PER_LAYER), {"passes": workload.trace_passes}, lines


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "fluxbus" / "__init__.py").is_file():
        print(f"error: no fluxbus sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    (np, workload, first), setup_s = setup(args)
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    # circuit_sim re-propagates a seeded subset of its first pass by expm.
    if workload.name == "circuit_sim":
        for i in np.random.default_rng([args.seed, 2]).choice(len(first), workload.deep_checks, replace=False):
            first[i].deep = True
    if args.trace == 0:
        setups = [setup_s] + ([] if args.tiny else probe_setup(args))
        items, metrics, units, notes, lines = end_to_end(args, np, workload, first, setups)
    else:
        items, metrics, units, notes, lines = per_layer(args, np, workload, first)

    bad = [it for it in items if it.error is not None or it.problems]
    failures = [{"kind": it.kind, "args": repr(it.args)[:300], "error": it.error, "problems": it.problems}
                for it in bad[:5]]
    for f in failures:
        print(f"failed item: {json.dumps(f, default=str)[:2000]}", file=sys.stderr)
    result = {
        "correct": not bad,
        "attempted": len(items),
        "failed": len(bad),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    summary = [f"{name} = {metrics[name]:.6g} {units[name]}" for name in units]
    summary += [f"failed_ratio = {len(bad) / len(items):.6g} ratio"] + lines
    record = run_record(np, args, workload, {**notes, "items": len(items), "failed_ratio": len(bad) / len(items),
                                             "metrics": result["metrics"], "failures": failures})
    emit(result, summary, record, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
