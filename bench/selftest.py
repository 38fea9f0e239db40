"""Smoke test of the benchmark at its tiny seeded size.

    python3 bench/selftest.py

Runs every workload (those in BENCHMARK.json and the ungated
gate_verification) once untraced and once traced with ``--tiny``, and checks
that:

* the last output line is the result object with exactly the agreed keys,
  ``correct`` true and no failed item;
* every end-to-end and per-layer metric is emitted with its unit, and the
  names and units match BENCHMARK.json and the lists below;
* ``failed_ratio`` is printed (it is 0 on a healthy run, so it travels as the
  result's ``failed``/``attempted`` rather than as a gated metric);
* layers that do no work on a workload record zero calls, and the ones that
  work record some;
* without the program's sources the benchmark exits non-zero and prints no
  result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import END_TO_END  # noqa: E402
from tracing import PER_LAYER  # noqa: E402

# Layers that must show work (first) and no work (second), by workload.
LAYER_WORK = {
    "circuit_sim": (
        ("spin.build_hamiltonian.calls", "evolve.evolve_segment.calls", "evolve.run_schedule.calls"),
        ("squid.solve_levels.calls", "squid.extract_two_level.calls", "bus.solve_currents.calls"),
    ),
    "gate_verification": (
        ("spin.build_hamiltonian.calls", "evolve.logical_process_fidelity.calls", "compiler.segments.ideal"),
        ("squid.solve_levels.calls", "squid.extract_two_level.calls", "bus.solve_currents.calls"),
    ),
    "design_sweep": (
        ("squid.solve_levels.calls", "squid.extract_two_level.calls", "bus.solve_currents.calls"),
        ("spin.build_hamiltonian.calls", "evolve.evolve_segment.calls", "evolve.run_schedule.calls",
         "evolve.logical_process_fidelity.calls"),
    ),
}


def run(cwd, workload, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def main():
    errors = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {"end_to_end": [(m["name"], m["unit"]) for m in spec["end_to_end"]],
                "per_layer": [(m["name"], m["unit"]) for m in spec["per_layer"]]}
    if declared["end_to_end"] != list(END_TO_END):
        errors.append(f"BENCHMARK.json end_to_end {declared['end_to_end']} != emitted {list(END_TO_END)}")
    if declared["per_layer"] != list(PER_LAYER):
        errors.append("BENCHMARK.json per_layer differs from tracing.PER_LAYER")

    gated = [w["name"] for w in spec["workloads"]]
    if not set(gated) <= set(LAYER_WORK):
        errors.append(f"BENCHMARK.json workloads {gated} are not all known to the self-test")
    for workload in LAYER_WORK:
        for trace, expected in ((0, END_TO_END), (1, PER_LAYER)):
            proc = run(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                errors.append(f"{label}: exit {proc.returncode}: {proc.stderr[-800:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                errors.append(f"{label}: result keys {sorted(result)}")
            if not (result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1):
                errors.append(f"{label}: correct={result['correct']} failed={result['failed']}")
            emitted = [(name, m["unit"]) for name, m in result["metrics"].items()]
            if emitted != list(expected):
                errors.append(f"{label}: metrics {emitted} != {list(expected)}")
            if trace == 0 and not any(line.startswith("failed_ratio = 0 ratio") for line in lines):
                errors.append(f"{label}: no failed_ratio line")
            if trace == 1:
                values = {name: m["value"] for name, m in result["metrics"].items()}
                busy, idle = LAYER_WORK[workload]
                errors += [f"{label}: {name} is 0" for name in busy if not values[name] > 0]
                errors += [f"{label}: {name} is {values[name]}" for name in idle if values[name] != 0]
            print(f"{label}: {len(result['metrics'])} metrics, {result['attempted']} items")

    bare = BENCH / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, bare / "bench")
    proc = run(bare, "design_sweep", 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        errors.append(f"bare checkout: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")

    for error in errors:
        print("FAIL", error)
    print("selftest:", "PASS" if not errors else f"{len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
