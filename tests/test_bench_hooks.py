"""The benchmark tracer patches functions by (module, attribute); each must
exist, and the layers a workload exercises must be seen doing work."""

import importlib
import importlib.util
from pathlib import Path

from fluxbus import cli

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"
DEMOS = ROOT / "demos"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_hook_resolves():
    targets = _tracing().TARGETS
    missing = [
        (module, attr)
        for module, attr, _ in targets
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert targets and missing == []


def test_traced_simulate_reaches_the_dynamics_layers():
    tracer = _tracing().Tracer()
    with tracer.active():
        cli.cmd_simulate({"n_logical": 2}, "H 0\nCNOT 0,1\n", mode="physical")
    metrics = tracer.layer_metrics()
    busy = ("spin.build_hamiltonian", "evolve.evolve_segment", "evolve.run_schedule")
    idle = ("squid.solve_levels", "squid.extract_two_level", "bus.solve_currents")
    assert [metrics[f"{name}.calls"] > 0 for name in busy] == [True] * len(busy)
    assert [metrics[f"{name}.calls"] for name in idle] == [0] * len(idle)


def test_traced_simulate_builds_a_repeated_flip_once():
    # CNOT is a CPHASE between basis changes of its target.  The CPHASE flips
    # the same two qubits twice under the same bias for the same time, so its
    # drive block is built once; the basis changes' one-qubit drives go
    # through evolve_segment.  Only the last flip's block is kept: a CPHASE
    # that repeats an earlier, not the previous, one builds its block again.
    cases = [("CNOT 0,1\n", 2, 2, 1, 8), ("CPHASE 0,1\nCPHASE 0,2\nCPHASE 0,1\n", 3, 6, 3, 0)]
    for text, n_logical, flips, builds, one_qubit_drives in cases:
        tracer = _tracing().Tracer()
        with tracer.active():
            cli.cmd_simulate({"n_logical": n_logical}, text, mode="physical")
        metrics = tracer.layer_metrics()
        assert metrics["spin.build_hamiltonian.calls"] == builds, text
        drives = metrics["compiler.segments.driven"] - flips
        assert metrics["evolve.evolve_segment.calls"] == drives == one_qubit_drives, text


def test_traced_calibration_reaches_the_squid_layer():
    # Every eigensolve goes through the traced name: one for the two-level
    # reduction plus those the Ic calibration makes, and no dynamics work.
    tracer = _tracing().Tracer()
    with tracer.active():
        cli.cmd_calibrate(cli.parse_config(DEMOS / "squid.cfg"))
    metrics = tracer.layer_metrics()
    calibration_solves = metrics["squid.eigensolves_per_calibration"]
    assert calibration_solves >= 2
    assert metrics["squid.solve_levels.calls"] == 1 + calibration_solves
    assert metrics["squid.extract_two_level.calls"] == 1
    idle = ("spin.build_hamiltonian", "evolve.evolve_segment", "evolve.run_schedule", "evolve.logical_process_fidelity")
    assert [metrics[f"{name}.calls"] for name in idle] == [0] * len(idle)
