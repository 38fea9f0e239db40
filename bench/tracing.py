"""Spans around the public functions of fluxbus, recorded from outside.

Each traced function is replaced, for the traced phase only, in the module
namespace where its caller looks it up (``fluxbus.evolve.build_hamiltonian``
is what ``evolve_segment`` calls; ``fluxbus.cli.run_schedule`` is what
``cmd_simulate`` calls).  A span records name, start, end, parent span and
item id; spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import importlib
import json
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (module, attribute, span name).  A name appears once per namespace that a
# caller reaches it through.
TARGETS = (
    ("fluxbus.squid", "solve_levels", "squid.solve_levels"),
    ("fluxbus.squid", "extract_two_level", "squid.extract_two_level"),
    ("fluxbus.squid", "calibrate_critical_current", "squid.calibrate_critical_current"),
    ("fluxbus.bus", "solve_currents", "bus.solve_currents"),
    ("fluxbus.bus", "pairwise_inductive_energy", "bus.pairwise_inductive_energy"),
    ("fluxbus.evolve", "build_hamiltonian", "spin.build_hamiltonian"),
    ("fluxbus.evolve", "evolve_segment", "evolve.evolve_segment"),
    ("fluxbus.evolve", "run_schedule", "evolve.run_schedule"),
    ("fluxbus.cli", "run_schedule", "evolve.run_schedule"),
    ("fluxbus.evolve", "logical_process_fidelity", "evolve.logical_process_fidelity"),
    ("fluxbus.compiler", "compile_circuit", "compiler.compile_circuit"),
    ("fluxbus.cli", "compile_circuit", "compiler.compile_circuit"),
    ("fluxbus.compiler", "ideal_circuit_unitary", "compiler.ideal_circuit_unitary"),
    ("fluxbus.cli", "ideal_circuit_unitary", "compiler.ideal_circuit_unitary"),
    ("fluxbus.cli", "cmd_simulate", "cli.cmd_simulate"),
    ("fluxbus.cli", "cmd_calibrate", "cli.cmd_calibrate"),
    ("fluxbus.cli", "cmd_design", "cli.cmd_design"),
    ("fluxbus.cli", "cmd_reproduce_paper", "cli.cmd_reproduce_paper"),
)

# Per-layer metrics: (name, unit).  Calls and self time are read from spans;
# the rest are counts and ratios measured at the same boundaries.
CALLS = (
    "squid.solve_levels", "squid.extract_two_level", "bus.solve_currents", "spin.build_hamiltonian",
    "evolve.evolve_segment", "evolve.run_schedule", "evolve.logical_process_fidelity",
)
SELF = (
    "squid.solve_levels", "squid.calibrate_critical_current", "squid.extract_two_level", "bus.solve_currents",
    "bus.pairwise_inductive_energy", "spin.build_hamiltonian", "evolve.evolve_segment", "evolve.run_schedule",
    "evolve.logical_process_fidelity", "compiler.compile_circuit", "compiler.ideal_circuit_unitary",
    "cli.cmd_simulate", "cli.cmd_calibrate", "cli.cmd_design", "cli.cmd_reproduce_paper",
)
PER_LAYER = (
    [(f"{name}.calls", "count") for name in CALLS]
    + [(f"{name}.self_s", "s") for name in SELF]
    + [
        ("squid.eigensolves_per_calibration", "ratio"),
        ("spin.build_hamiltonian.computed_bytes", "B"),
        ("evolve.run_schedule_per_verification", "ratio"),
        ("compiler.segments.ideal", "count"),
        ("compiler.segments.diagonal", "count"),
        ("compiler.segments.driven", "count"),
        ("trace.spans", "count"),
        ("trace.untraced_items_per_s", "items/s"),
        ("trace.traced_items_per_s", "items/s"),
        ("trace.throughput_ratio", "ratio"),
    ]
)


def _count_hamiltonian(tracer, args, result):
    # A dense 2^N x 2^N complex128 operator: 16 * 4^N bytes, computed, not measured.
    tracer.counts["spin.build_hamiltonian.computed_bytes"] += 16 * 4 ** args[0].n_qubits


def _count_segments(tracer, args, schedule):
    for seg in schedule.segments:
        if seg.mode == "ideal":
            kind = "ideal"
        elif seg.delta_ghz is not None and np.any(seg.delta_ghz != 0.0):
            kind = "driven"
        else:
            kind = "diagonal"
        tracer.counts[f"compiler.segments.{kind}"] += 1


OBSERVERS = {"spin.build_hamiltonian": _count_hamiltonian, "compiler.compile_circuit": _count_segments}


class Tracer:
    """Span collector.  ``spans`` rows are [name, start, end, parent, item]."""

    def __init__(self):
        self.spans = []
        self.counts = {
            "spin.build_hamiltonian.computed_bytes": 0,
            "compiler.segments.ideal": 0,
            "compiler.segments.diagonal": 0,
            "compiler.segments.driven": 0,
        }
        self.item = None
        self._stack = []

    def _wrap(self, name, fn):
        observe = OBSERVERS.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, self.item])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = perf_counter()
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    @contextmanager
    def active(self):
        """Install the wrappers for the duration of the block, then restore."""
        saved = []
        try:
            for module_name, attr, span in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(span, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layer_metrics(self):
        """Calls, self time (span minus the time its child spans cover), counts, ratios."""
        n = len(self.spans)
        child_time = [0.0] * n
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls, self_s = {}, {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]

        def under(index, ancestor):
            parent = self.spans[index][3]
            while parent >= 0:
                if self.spans[parent][0] == ancestor:
                    return True
                parent = self.spans[parent][3]
            return False

        def per(child, ancestor):
            count = sum(1 for i in range(n) if self.spans[i][0] == child and under(i, ancestor))
            return count / calls[ancestor] if calls.get(ancestor) else 0.0

        out = {f"{name}.calls": calls.get(name, 0) for name in CALLS}
        out.update({f"{name}.self_s": self_s.get(name, 0.0) for name in SELF})
        out["squid.eigensolves_per_calibration"] = per("squid.solve_levels", "squid.calibrate_critical_current")
        out["evolve.run_schedule_per_verification"] = per("evolve.run_schedule", "evolve.logical_process_fidelity")
        out.update(self.counts)
        out["trace.spans"] = n
        return out

    def write(self, path, origin):
        with open(path, "w") as fh:
            for name, start, end, parent, item in self.spans:
                row = {"name": name, "start": start - origin, "end": end - origin, "parent": parent, "item": item}
                fh.write(json.dumps(row) + "\n")
