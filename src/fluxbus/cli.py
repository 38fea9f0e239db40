"""Command-line front end: calibration, design arithmetic, simulation, and
the design-number reproduction table.

Subcommands: ``calibrate``, ``design``, ``simulate``, ``compile``,
``reproduce-paper``.  Configuration is a flat text file of ``key = value``
lines with units spelled out in the key names (``L_pH``, ``C_fF``, ...);
output comes as an aligned text report or line-delimited JSON records
(``--format records``).  Exit codes: 0 ok, 2 config error, 3 numerical
failure, 4 reproduction-table failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import bus as busmod
from . import squid as squidmod
from .bus import BusParams
from .compiler import (
    ControlParams,
    LogicalRegister,
    compile_circuit,
    encode,
    ideal_circuit_unitary,
    parse_circuit,
)
from .evolve import QuantumState, fidelity, reduced_density_matrix, run_schedule, trace_distance
from .squid import FluxGrid, NumericalError, SquidParams

__all__ = [
    "DesignReport",
    "parse_config",
    "cmd_calibrate",
    "cmd_design",
    "cmd_simulate",
    "cmd_compile",
    "cmd_reproduce_paper",
    "main",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_ACCEPTANCE = 4

def parse_config(path: str | Path) -> dict:
    """Read a flat `key = value` config file (# starts a comment); a key set
    on two lines is refused."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    cfg, lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected `key = value`, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ValueError(f"{path}:{lineno}: empty key or value")
        if key in lines:
            raise ValueError(f"{path}:{lineno}: config key {key} is already set on line {lines[key]}")
        cfg[key], lines[key] = _parse_value(value), lineno
    return cfg


def _parse_value(value: str):
    lowered = value.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        return value


def _require(cfg: dict, *keys: str) -> None:
    missing = [k for k in keys if k not in cfg]
    if missing:
        raise ValueError(f"missing config key(s): {', '.join(missing)}")


def _number(cfg: dict, key: str, default=None):
    if key not in cfg:
        return default
    value = cfg[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"config key {key} must be a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"config key {key} must be finite, got {value!r}")
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ValueError(f"config key {key} must fit in a float, got an integer of {len(str(abs(value)))} digits")
    return value


def _integer(cfg: dict, key: str, count: bool = False) -> int:
    """A config number that must be an integer (an integral float such as
    4097.0 is accepted), and non-negative if it is a ``count`` that no library
    type bounds."""
    value = _number(cfg, key)
    if value != int(value):
        raise ValueError(f"config key {key} must be an integer, got {value!r}")
    if count and value < 0:
        raise ValueError(f"config key {key} must be non-negative, got {value!r}")
    return int(value)


def _from_config(cfg: dict, build, keys: dict, **args):
    """``build(**args)``, also passing the number of each config key in
    ``keys`` (parameter -> key) that the config sets and ``args`` does not.

    ``build`` states its own rules as ``ValueError("<param> must <rule>, got
    <value>")``; such an error is re-raised with each parameter it names
    replaced by its config key.  ``LinAlgError``, a ``ValueError`` from a
    failed solve, passes through unchanged.
    """
    values = {name: _number(cfg, key) for name, key in keys.items() if key in cfg and name not in args}
    try:
        return build(**values, **args)
    except ValueError as exc:
        names = re.compile(rf"\b({'|'.join(keys)})\b")
        if isinstance(exc, np.linalg.LinAlgError) or not names.match(str(exc)):
            raise
        raise ValueError("config key " + names.sub(lambda m: keys[m[1]], str(exc))) from exc


# Library parameters and their config keys; the Ic bracket is built from two.
_SQUID_KEYS = {"l_ph": "L_pH", "c_ff": "C_fF", "ic_ua": "Ic_uA", "phi_x": "phi_x_Phi0"}
_GRID_KEYS = {"half_width": "phi_half_width_Phi0", "n_points": "grid_points"}
_CALIBRATION_KEYS = {"target_delta_ghz": "target_delta_GHz", "bracket": "(bracket_lo_uA, bracket_hi_uA)"}
_BUS_KEYS = {"l_b_nh": "L_b_nH", "m_ph": "M_pH", "n_qubits": "N", "k_geom": "k_geom"}
_CONTROL_KEYS = {"delta_ghz": "delta_GHz", "epsilon_ghz": "epsilon_GHz", "j_mhz": "J_MHz", "mode": "mode"}

# The keys each command reads.  Any other key is refused, so a misspelt key
# cannot silently leave a default in place.  ``design`` takes J from i_p at
# Phi0/2, so it reads no flux bias.
_COMMAND_KEYS = {
    "calibrate": {*_SQUID_KEYS.values(), *_GRID_KEYS.values(), "target_delta_GHz", "bracket_lo_uA", "bracket_hi_uA",
                  "sweep_Ic_lo_uA", "sweep_Ic_hi_uA", "sweep_points"},
    "design": {"L_pH", "C_fF", "Ic_uA", *_GRID_KEYS.values(), *_BUS_KEYS.values(), "R_uOhm"},
    "simulate": {*_CONTROL_KEYS.values(), "n_logical", "initial_bits"},
}
_COMMAND_KEYS["compile"] = _COMMAND_KEYS["simulate"]
# Keys read only when another key is set: the bracket belongs to the Ic
# calibration and the sweep's end and size to its start.
_READ_ONLY_WITH = {"bracket_lo_uA": "target_delta_GHz", "bracket_hi_uA": "target_delta_GHz",
                   "sweep_Ic_hi_uA": "sweep_Ic_lo_uA", "sweep_points": "sweep_Ic_lo_uA"}


def _refuse_unread(cfg: dict, command: str) -> None:
    for key in cfg:
        if key not in _COMMAND_KEYS[command]:
            raise ValueError(f"config key {key} is not read by {command}")
        gate = _READ_ONLY_WITH.get(key)
        if gate is not None and gate not in cfg:
            raise ValueError(f"config key {key} is not read by {command} without {gate}")


@dataclass
class DesignReport:
    """One command's inputs, derived quantities, and pass/warn flags."""

    kind: str
    inputs: dict = field(default_factory=dict)
    derived: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def to_text(self) -> str:
        lines = [f"fluxbus {self.kind} report", "=" * (len(self.kind) + 16)]
        for title, mapping in (("inputs", self.inputs), ("derived", self.derived), ("flags", self.flags)):
            if not mapping:
                continue
            lines.append(title)
            for key, value in mapping.items():
                lines.append(f"  {key:<28} {_format_value(value)}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines) + "\n"

    def to_records(self) -> str:
        rows = []
        for section, mapping in (("input", self.inputs), ("derived", self.derived), ("flag", self.flags)):
            for key, value in mapping.items():
                rows.append({"kind": self.kind, "section": section, "key": key, "value": value})
        for note in self.notes:
            rows.append({"kind": self.kind, "section": "note", "key": "note", "value": note})
        return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


# At its peak the flux solver holds about 16 float64 arrays of grid_points
# entries (grid, potential, operator, LAPACK work space and eigenvectors; 108 B
# per point measured at k = 2); a 1 GiB budget bounds grid_points at 2^23.
_MAX_GRID_POINTS = 2**30 // (16 * 8)


def _grid_from_config(cfg: dict) -> FluxGrid:
    points = {"n_points": _integer(cfg, "grid_points")} if "grid_points" in cfg else {}
    if points.get("n_points", 0) > _MAX_GRID_POINTS:
        raise ValueError(
            f"grid_points = {points['n_points']} exceeds {_MAX_GRID_POINTS}: the flux solver's ~16 float64 arrays "
            "of grid_points entries must fit in 1 GiB"
        )
    return _from_config(cfg, FluxGrid, _GRID_KEYS, **points)


def _squid_from_config(cfg: dict) -> SquidParams:
    _require(cfg, "L_pH", "C_fF", "Ic_uA")
    return _from_config(cfg, SquidParams, _SQUID_KEYS)


# Each sweep point adds two report entries; the report and its output text
# peak at ~1.1 kB per point (tracemalloc, eigensolves stubbed out), so a 1 GiB
# budget at 1.2 kB per point bounds sweep_points before any Ic is allocated.
_MAX_SWEEP_POINTS = 2**30 // 1200


def _sweep_from_config(cfg: dict) -> np.ndarray | None:
    if "sweep_Ic_lo_uA" not in cfg:
        return None
    _require(cfg, "sweep_Ic_hi_uA", "sweep_points")
    points = _integer(cfg, "sweep_points", count=True)
    if points > _MAX_SWEEP_POINTS:
        raise ValueError(
            f"sweep_points = {points} exceeds {_MAX_SWEEP_POINTS}: the report's two entries per point "
            "must fit in 1 GiB"
        )
    lo, hi = _number(cfg, "sweep_Ic_lo_uA"), _number(cfg, "sweep_Ic_hi_uA")
    if lo < 0 or hi < 0:
        raise ValueError(f"config keys sweep_Ic_lo_uA = {lo!r}, sweep_Ic_hi_uA = {hi!r} must be non-negative")
    return np.linspace(lo, hi, points)


def cmd_calibrate(cfg: dict) -> DesignReport:
    """Two-level parameters at the configured bias; optional inverse
    calibration of Ic against a target tunneling splitting and Ic sweep."""
    _refuse_unread(cfg, "calibrate")
    params = _squid_from_config(cfg)
    grid = _grid_from_config(cfg)
    sweep = _sweep_from_config(cfg)
    # The calibration refuses a bad target or bracket value before its first
    # solve, so it runs before any other level is solved.  Whether the bracket
    # encloses the target is found by its bisection.
    if "target_delta_GHz" in cfg:
        lo, hi = squidmod.IC_BRACKET_UA
        bracket = (_number(cfg, "bracket_lo_uA", lo), _number(cfg, "bracket_hi_uA", hi))
        calibrate = squidmod.calibrate_critical_current
        calibrated_ic = _from_config(cfg, calibrate, _CALIBRATION_KEYS, params=params, bracket=bracket, grid=grid)
    report = DesignReport(kind="calibrate")
    report.inputs = {
        "L_pH": params.l_ph,
        "C_fF": params.c_ff,
        "Ic_uA": params.ic_ua,
        "phi_x_Phi0": params.phi_x,
    }
    beta = squidmod.beta_l(params)
    report.derived["beta_L"] = beta

    if beta <= 1.0:
        report.flags["double_well"] = False
        sol = squidmod.solve_levels(params, grid=grid)
        lc_s2 = params.l_ph * 1e-12 * params.c_ff * 1e-15
        if lc_s2 > 0.0:
            report.derived["harmonic_spacing_GHz"] = 1.0 / (2.0 * math.pi * math.sqrt(lc_s2)) / 1e9
        else:
            report.notes.append("L C underflows to 0 s^2: no harmonic spacing")
        report.derived["level_gap_GHz"] = sol.gap
        report.notes.append("no double well (beta_L <= 1): harmonic-limit report")
    else:
        tlp = squidmod.extract_two_level(params, grid=grid)
        report.derived["delta_GHz"] = tlp.delta_ghz
        report.flags["double_well"] = tlp.epsilon_ghz is not None
        if tlp.epsilon_ghz is not None:
            report.derived["epsilon_GHz"] = tlp.epsilon_ghz
        else:
            report.notes.append(f"phi_x_Phi0 = {params.phi_x} has one well: no epsilon; delta, i_p, pi pulse at Phi0/2")
        report.derived["i_p_uA"] = tlp.i_p_ua
        if tlp.delta_ghz > 0.0:
            report.derived["pi_pulse_ns"] = 1.0 / (2.0 * tlp.delta_ghz)
        else:
            report.notes.append("splitting underflows to 0 in double precision: no pi pulse")

    if "target_delta_GHz" in cfg:
        report.derived["target_delta_GHz"] = cfg["target_delta_GHz"]
        report.derived["calibrated_Ic_uA"] = calibrated_ic

    if sweep is not None:
        for idx, ic in enumerate(sweep):
            sol = squidmod.solve_levels(replace(params, ic_ua=float(ic), phi_x=0.5), grid=grid)
            report.derived[f"sweep[{idx}].Ic_uA"] = float(ic)
            report.derived[f"sweep[{idx}].delta_GHz"] = sol.gap
    return report


def cmd_design(cfg: dict) -> DesignReport:
    """Bus design arithmetic: effective mutual, coupling strength, weak
    coupling ratio, geometric qubit bound, residual decay time."""
    _refuse_unread(cfg, "design")
    _require(cfg, "M_pH", "L_b_nH", "N")
    bus = _from_config(cfg, BusParams, _BUS_KEYS, n_qubits=_integer(cfg, "N"))
    squid = _squid_from_config(cfg)
    grid = _grid_from_config(cfg)
    # The decay time checks R before any level is solved.
    if "R_uOhm" in cfg:
        decay_ms = _from_config(cfg, busmod.residual_decay_time, {"r_uohm": "R_uOhm"}, l_b_nh=bus.l_b_nh)
    renorm = 1.0 + bus.m_ph**2 / (squid.l_ph * bus.l_b_ph)
    busmod.passive_schur_complement(squid, bus)

    report = DesignReport(kind="design")
    report.inputs = {
        "L_pH": squid.l_ph,
        "C_fF": squid.c_ff,
        "Ic_uA": squid.ic_ua,
        "M_pH": bus.m_ph,
        "L_b_nH": bus.l_b_nh,
        "N": bus.n_qubits,
        "k_geom": bus.k_geom,
    }

    m_eff = busmod.effective_mutual(bus)
    report.derived["M_eff_fH"] = m_eff
    report.derived["L_renorm_factor"] = renorm

    if bus.m_ph == 0.0:
        report.derived["J_MHz"] = 0.0
    else:
        tlp = squidmod.extract_two_level(replace(squid, l_ph=squid.l_ph / renorm), grid=grid)
        j_mhz = busmod.coupling_strength(tlp, bus)
        report.derived["i_p_uA"] = tlp.i_p_ua
        report.derived["J_MHz"] = j_mhz
        if j_mhz > 0.0:
            report.derived["cphase_wait_ns"] = 1.0 / (32.0 * j_mhz * 1e-3)
        else:
            report.notes.append("coupling underflows to 0: no CPHASE wait")

    ratio = busmod.weak_coupling_ratio(squid, bus)
    report.derived["weak_coupling_ratio"] = ratio
    report.flags["weak_coupling_warn"] = ratio >= busmod.WEAK_COUPLING_WARN_AT
    if bus.m_ph > 0.0:
        n_max = busmod.max_qubits(bus)
        report.derived["N_max"] = n_max
        report.flags["N_exceeds_max"] = bus.n_qubits > n_max

    if "R_uOhm" in cfg:
        report.derived["residual_decay_ms"] = decay_ms
    return report


# A simulation holds its states, the logical unitary and run_schedule's working
# arrays, 4^n_logical amplitudes each.  Their tracemalloc peak over 200 random
# circuits at n_logical 7 is at most 228 B per amplitude, reached while a
# two-qubit flip's blocks are diagonalised with the previous flip's still
# kept; _BYTES_PER_AMPLITUDE allows over twice that for numpy's temporaries
# (tests/test_cli.py checks it).  A 1 GiB budget bounds n_logical at 10.
_BYTES_PER_AMPLITUDE = 512
_MAX_LOGICAL = int(math.log(2**30 / _BYTES_PER_AMPLITUDE, 4))


def _circuit_inputs(cfg: dict, circuit_text: str, mode: str | None) -> tuple:
    """Register, controls and circuit shared by ``simulate`` and ``compile``."""
    _require(cfg, "n_logical")
    n_logical = _integer(cfg, "n_logical", count=True)
    if n_logical > _MAX_LOGICAL:
        raise ValueError(
            f"n_logical = {n_logical} exceeds {_MAX_LOGICAL}: the simulation's {_BYTES_PER_AMPLITUDE} B "
            "for each of its 4^n_logical amplitudes must fit in 1 GiB"
        )
    # --mode wins over the config's mode, which defaults to ideal on the
    # command line (ControlParams itself defaults to physical).
    params = _from_config(cfg, ControlParams, _CONTROL_KEYS, mode=mode or cfg.get("mode", "ideal"))
    return LogicalRegister.default(n_logical), params, parse_circuit(circuit_text)


@functools.lru_cache(maxsize=None)
def _bitstrings(n_logical: int) -> tuple:
    """The 2^n logical labels "0...0" .. "1...1" in ``code_indices`` order,
    shared by every record (one cached tuple per n_logical <= _MAX_LOGICAL)."""
    return tuple(format(ell, f"0{n_logical}b") if n_logical else "" for ell in range(2**n_logical))


def cmd_simulate(cfg: dict, circuit_text: str, mode: str | None = None) -> dict:
    """Compile and run a logical circuit; report fidelity against the exact
    logical unitary, code-space leakage, and spectator disturbance."""
    _refuse_unread(cfg, "simulate")
    reg, params, circuit = _circuit_inputs(cfg, circuit_text, mode)
    n_logical = reg.n_logical
    schedule = compile_circuit(circuit, reg, params)

    # bitstrings of 0/1 digits survive the int round trip except for leading
    # zeros, which zfill restores
    initial_bits = str(cfg.get("initial_bits", "0" * n_logical)).zfill(n_logical)
    state0 = _from_config(cfg, encode, {"bits": "initial_bits"}, bits=initial_bits, reg=reg)
    final = run_schedule(state0, schedule)

    idx = reg.code_indices()
    u = ideal_circuit_unitary(circuit, n_logical)
    ideal = np.zeros(2**reg.n_physical, dtype=complex)
    ideal[idx] = u[:, int(initial_bits or "0", 2)]
    fidelity_value = fidelity(QuantumState(ideal), final)
    code_amp = final.amplitudes[idx]
    leakage = max(0.0, 1.0 - float(np.linalg.norm(code_amp) ** 2))

    touched = {q for gate in circuit for q in gate.qubits}
    spectators = {}
    for ell in range(n_logical):
        if ell in touched:
            continue
        rho0 = reduced_density_matrix(state0, list(reg.pairs[ell]))
        rho1 = reduced_density_matrix(final, list(reg.pairs[ell]))
        spectators[str(ell)] = trace_distance(rho0, rho1)

    # Code words the state never reaches have amplitude exactly 0 and share
    # one 0.0, which keeps a record small.
    probabilities = {
        key: float(abs(amp) ** 2) if amp else 0.0 for key, amp in zip(_bitstrings(n_logical), code_amp)
    }
    record = {
        "command": "simulate",
        "mode": params.mode,
        "n_logical": n_logical,
        "initial_bits": initial_bits,
        "gates": len(circuit),
        "segments": len(schedule.segments),
        "duration_ns": schedule.duration_ns,
        "fidelity": fidelity_value,
        "leakage": leakage,
        "spectator_trace_distance": spectators,
        "logical_probabilities": probabilities,
    }
    return record


def cmd_compile(cfg: dict, circuit_text: str, mode: str | None = None) -> dict:
    """Compile a circuit to its pulse schedule without running it."""
    _refuse_unread(cfg, "compile")
    reg, params, circuit = _circuit_inputs(cfg, circuit_text, mode)
    schedule = compile_circuit(circuit, reg, params)

    segments = []
    for seg in schedule.segments:
        if seg.mode == "ideal":
            op = seg.ideal_op
            segments.append(
                {"kind": "ideal", "op": op[0], "qubit": op[1], "angle": op[2] if len(op) > 2 else None}
            )
        else:
            driven_x = [] if seg.delta_ghz is None else [int(q) for q in np.nonzero(seg.delta_ghz)[0]]
            driven_z = [] if seg.epsilon_ghz is None else [int(q) for q in np.nonzero(seg.epsilon_ghz)[0]]
            kind = "wait" if not driven_x and not driven_z else "drive"
            segments.append(
                {"kind": kind, "duration_ns": seg.duration_ns, "x_drive": driven_x, "z_drive": driven_z}
            )
    return {
        "command": "compile",
        "mode": params.mode,
        "n_logical": reg.n_logical,
        "gates": len(circuit),
        "segments": segments,
        "duration_ns": schedule.duration_ns,
    }


# The paper's design point, as demos/design.cfg states it, and the two
# variants of its SQUID that the splitting rows read.
_DESIGN_POINT = {"L_pH": 150, "C_fF": 80, "Ic_uA": 3.0, "M_pH": 2, "L_b_nH": 2, "N": 1000, "k_geom": 1.0, "R_uOhm": 1.0}
_IC_SUPPRESSED = 2.375
_BIAS_OFFSET = 0.15e-3
# Quoted design values of the reproduced parameter study.
_QUOTED = {
    "tunneling_unsuppressed_Hz": 30.0,
    "tunneling_suppressed_GHz": 2.6,
    "bias_splitting_GHz": 2.7,
    "effective_mutual_fH": 2.0,
    "coupling_J_MHz": 25.0,
    "N_max": 1000,
    "pi_pulse_ns": 0.4,
}


def cmd_reproduce_paper() -> tuple[list, bool]:
    """Compare the quoted design numbers, at their tolerances, with the
    ``calibrate`` and ``design`` reports of the design point; returns the rows
    and the overall verdict.

    The splittings and the pi pulse come from ``calibrate`` (the design SQUID
    0.15 mPhi0 off Phi0/2, and at the suppressed Ic), M_eff, J and N_max from
    ``design``.  The pi-pulse row compares 2 x (1/(2 delta)) against the
    quoted 0.4 ns: the quoted time corresponds to 1/delta, a factor-2
    convention gap that is flagged, not hidden.
    """
    squid = {key: _DESIGN_POINT[key] for key in ("L_pH", "C_fF", "Ic_uA")}
    biased = cmd_calibrate({**squid, "phi_x_Phi0": 0.5 + _BIAS_OFFSET}).derived
    suppressed = cmd_calibrate({**squid, "Ic_uA": _IC_SUPPRESSED}).derived
    design = cmd_design(_DESIGN_POINT).derived

    def ratio_within(factor):
        return lambda c, q: c > 0 and 1.0 / factor <= c / q <= factor

    def compare(name, computed, tolerance, ok, note=""):
        quoted = _QUOTED[name]
        ok = ok(computed, quoted)
        return {"name": name, "computed": computed, "quoted": quoted, "tolerance": tolerance, "ok": ok, "note": note}

    rows = [
        compare("tunneling_unsuppressed_Hz", biased["delta_GHz"] * 1e9, "x/3 to x3", ratio_within(3.0)),
        compare("tunneling_suppressed_GHz", suppressed["delta_GHz"], "+-20%", lambda c, q: abs(c - q) <= 0.2 * q,
                f"Ic = {_IC_SUPPRESSED} uA"),
        compare("bias_splitting_GHz", biased["epsilon_GHz"], "x/2 to x2", ratio_within(2.0),
                "0.15 mPhi0 offset, barrier up"),
        compare("effective_mutual_fH", design["M_eff_fH"], "exact", lambda c, q: abs(c - q) <= 1e-9),
        compare("coupling_J_MHz", design["J_MHz"], "x/2 to x2", ratio_within(2.0), f"i_p = {design['i_p_uA']:.4g} uA"),
        compare("N_max", design["N_max"], "exact", lambda c, q: c == q),
        compare("pi_pulse_ns", suppressed["pi_pulse_ns"], "+-25% after x2", lambda c, q: abs(2.0 * c - q) <= 0.25 * q,
                "convention factor <= 2"),
    ]
    return rows, all(row["ok"] for row in rows)


def _reproduce_text(rows: list, overall: bool) -> str:
    lines = ["design-number reproduction", "-" * 78]
    header = f"{'name':<28} {'computed':>14} {'quoted':>10} {'tolerance':>14} {'status':>7}"
    lines.append(header)
    for row in rows:
        status = "PASS" if row["ok"] else "FAIL"
        computed = f"{row['computed']:.6g}" if isinstance(row["computed"], float) else str(row["computed"])
        lines.append(
            f"{row['name']:<28} {computed:>14} {row['quoted']:>10} {row['tolerance']:>14} {status:>7}"
            + (f"  [{row['note']}]" if row["note"] else "")
        )
    lines.append("-" * 78)
    lines.append(f"rows: {len(rows)}  overall: {'PASS' if overall else 'FAIL'}")
    return "\n".join(lines) + "\n"


def _reproduce_records(rows: list, overall: bool) -> str:
    out = [json.dumps(row, sort_keys=True) for row in rows]
    out.append(json.dumps({"overall": overall, "rows": len(rows)}, sort_keys=True))
    return "\n".join(out) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    sys.stdout.write(text)
    if out_path:
        try:
            Path(out_path).write_text(text)
        except OSError as exc:
            raise ValueError(f"cannot write output {out_path}: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fluxbus", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_config=True, needs_circuit=False):
        if needs_config:
            p.add_argument("--config", required=True, help="key = value config file")
        if needs_circuit:
            p.add_argument("--circuit", required=True, help="circuit file (GATE q[,q2][,angle])")
            p.add_argument("--mode", choices=("ideal", "physical"), default=None)
        p.add_argument("--out", default=None, help="also write the output to this path")
        p.add_argument("--format", choices=("text", "records"), default="text")

    add_common(sub.add_parser("calibrate", help="two-level parameters and Ic calibration"))
    add_common(sub.add_parser("design", help="bus design arithmetic"))
    add_common(sub.add_parser("simulate", help="compile and run a circuit"), needs_circuit=True)
    add_common(sub.add_parser("compile", help="compile a circuit to a pulse schedule"), needs_circuit=True)
    add_common(sub.add_parser("reproduce-paper", help="reproduce the quoted design numbers"), needs_config=False)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "calibrate":
            report = cmd_calibrate(parse_config(args.config))
            _emit(report.to_text() if args.format == "text" else report.to_records(), args.out)
        elif args.command == "design":
            report = cmd_design(parse_config(args.config))
            _emit(report.to_text() if args.format == "text" else report.to_records(), args.out)
        elif args.command in ("simulate", "compile"):
            cfg = parse_config(args.config)
            try:
                circuit_text = Path(args.circuit).read_text()
            except OSError as exc:
                raise ValueError(f"cannot read circuit {args.circuit}: {exc}") from exc
            handler = cmd_simulate if args.command == "simulate" else cmd_compile
            record = handler(cfg, circuit_text, mode=args.mode)
            if args.format == "records":
                _emit(json.dumps(record, sort_keys=True) + "\n", args.out)
            else:
                _emit(_record_text(record), args.out)
        elif args.command == "reproduce-paper":
            rows, overall = cmd_reproduce_paper()
            text = _reproduce_text(rows, overall) if args.format == "text" else _reproduce_records(rows, overall)
            _emit(text, args.out)
            if not overall:
                sys.stderr.write("error[acceptance]: reproduction table has failing rows\n")
                return EXIT_ACCEPTANCE
    # LinAlgError is a ValueError, so this clause comes first.
    except (NumericalError, np.linalg.LinAlgError) as exc:
        sys.stderr.write(f"error[numerical]: {exc}\n")
        return EXIT_NUMERICAL
    except ValueError as exc:
        sys.stderr.write(f"error[config]: {exc}\n")
        return EXIT_CONFIG
    return EXIT_OK


def _record_text(record: dict) -> str:
    lines = [f"fluxbus {record['command']} record", "=" * 24]

    def walk(prefix: str, value):
        if isinstance(value, dict):
            for key, sub in value.items():
                walk(f"{prefix}.{key}" if prefix else str(key), sub)
        elif isinstance(value, list):
            for idx, sub in enumerate(value):
                walk(f"{prefix}[{idx}]", sub)
        else:
            lines.append(f"  {prefix:<34} {_format_value(value)}")

    for key, value in record.items():
        walk(key, value)
    return "\n".join(lines) + "\n"


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
