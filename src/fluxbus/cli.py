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
import sys
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import bus as busmod
from . import squid as squidmod
from .bus import BusParams, WeakCouplingWarning
from .compiler import (
    ControlParams,
    LogicalRegister,
    _check_operands,
    compile_circuit,
    encode,
    ideal_circuit_unitary,
    parse_circuit,
)
from .evolve import QuantumState, fidelity, reduced_density_matrix, run_schedule, trace_distance
from .squid import FluxGrid, SquidParams

__all__ = [
    "ConfigError",
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

_NUMERICAL_ERRORS = (
    squidmod.WindowTooSmallError,
    squidmod.NoDoubleWellError,
    squidmod.BracketError,
    squidmod.ConvergenceError,
    busmod.SingularSystemError,
    np.linalg.LinAlgError,
)


class ConfigError(ValueError):
    """Configuration file missing, unparsable, or inconsistent."""


def parse_config(path: str | Path) -> dict:
    """Read a flat `key = value` config file (# starts a comment); a key set
    on two lines is refused."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    cfg, lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}: empty key or value")
        if key in lines:
            raise ConfigError(f"{path}:{lineno}: config key {key} is already set on line {lines[key]}")
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
        raise ConfigError(f"missing config key(s): {', '.join(missing)}")


def _number(cfg: dict, key: str, default=None):
    if key not in cfg:
        return default
    value = cfg[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key {key} must be a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"config key {key} must be finite, got {value!r}")
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ConfigError(f"config key {key} must fit in a float, got an integer of {len(str(abs(value)))} digits")
    return value


def _checked(cfg: dict, key: str, ok, rule: str):
    """A config number that must satisfy ``ok``; the error names the key and
    states the ``rule``, so a bad value is refused before any solve."""
    value = _number(cfg, key)
    if value is not None and not ok(value):
        raise ConfigError(f"config key {key} must {rule}, got {value!r}")
    return value


def _positive(cfg: dict, key: str):
    return _checked(cfg, key, lambda v: v > 0, "be positive")


def _non_negative(cfg: dict, key: str):
    return _checked(cfg, key, lambda v: v >= 0, "be non-negative")


def _set(**values) -> dict:
    """The keyword arguments whose config key is set (read as not None); the
    others are left out, so they keep the library's defaults."""
    return {name: value for name, value in values.items() if value is not None}


def _integer(cfg: dict, key: str, default=None) -> int:
    """A config number that must be a non-negative integer (an integral
    float such as 4097.0 is accepted)."""
    value = _number(cfg, key, default)
    if value != int(value):
        raise ConfigError(f"config key {key} must be an integer, got {value!r}")
    if value < 0:
        raise ConfigError(f"config key {key} must be non-negative, got {value!r}")
    return int(value)


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
    default = FluxGrid()
    n_points = _integer(cfg, "grid_points", default.n_points)
    if n_points > _MAX_GRID_POINTS:
        raise ConfigError(
            f"grid_points = {n_points} exceeds {_MAX_GRID_POINTS}: the flux solver's ~16 float64 arrays "
            "of grid_points entries must fit in 1 GiB"
        )
    if n_points < squidmod.MIN_GRID_POINTS:
        raise ConfigError(f"config key grid_points must be at least {squidmod.MIN_GRID_POINTS}, got {n_points}")
    lo, hi = _number(cfg, "phi_window_lo", default.phi_min), _number(cfg, "phi_window_hi", default.phi_max)
    if not lo < hi:
        raise ConfigError(
            f"config keys phi_window_lo = {lo!r}, phi_window_hi = {hi!r} "
            "must satisfy phi_window_lo < phi_window_hi"
        )
    return FluxGrid(phi_min=lo, phi_max=hi, n_points=n_points)


def _squid_from_config(cfg: dict) -> SquidParams:
    _require(cfg, "L_pH", "C_fF", "Ic_uA")
    return SquidParams(
        l_ph=_positive(cfg, "L_pH"),
        c_ff=_positive(cfg, "C_fF"),
        ic_ua=_non_negative(cfg, "Ic_uA"),
        **_set(phi_x=_checked(cfg, "phi_x_Phi0", lambda v: 0.0 <= v < 1.0, "lie in [0, 1) flux quanta")),
    )


# Each sweep point adds two report entries; the report and its output text
# peak at ~1.1 kB per point (tracemalloc, eigensolves stubbed out), so a 1 GiB
# budget at 1.2 kB per point bounds sweep_points before any Ic is allocated.
_MAX_SWEEP_POINTS = 2**30 // 1200


def _sweep_from_config(cfg: dict) -> np.ndarray | None:
    if "sweep_Ic_lo_uA" not in cfg:
        return None
    _require(cfg, "sweep_Ic_hi_uA", "sweep_points")
    points = _integer(cfg, "sweep_points")
    if points > _MAX_SWEEP_POINTS:
        raise ConfigError(
            f"sweep_points = {points} exceeds {_MAX_SWEEP_POINTS}: the report's two entries per point "
            "must fit in 1 GiB"
        )
    lo, hi = _number(cfg, "sweep_Ic_lo_uA"), _number(cfg, "sweep_Ic_hi_uA")
    if lo < 0 or hi < 0:
        raise ConfigError(f"config keys sweep_Ic_lo_uA = {lo!r}, sweep_Ic_hi_uA = {hi!r} must be non-negative")
    return np.linspace(lo, hi, points)


def cmd_calibrate(cfg: dict) -> DesignReport:
    """Two-level parameters at the configured bias; optional inverse
    calibration of Ic against a target tunneling splitting and Ic sweep."""
    params = _squid_from_config(cfg)
    grid = _grid_from_config(cfg)
    target = _positive(cfg, "target_delta_GHz")
    if target is not None:
        lo, hi = squidmod.IC_BRACKET_UA
        bracket = (_number(cfg, "bracket_lo_uA", lo), _number(cfg, "bracket_hi_uA", hi))
        if not 0 <= bracket[0] < bracket[1]:
            raise ConfigError(
                f"config keys bracket_lo_uA = {bracket[0]!r}, bracket_hi_uA = {bracket[1]!r} "
                "must satisfy 0 <= bracket_lo_uA < bracket_hi_uA"
            )
    sweep = _sweep_from_config(cfg)
    report = DesignReport(kind="calibrate")
    report.inputs = {
        "L_pH": params.l_ph,
        "C_fF": params.c_ff,
        "Ic_uA": params.ic_ua,
        "phi_x_Phi0": params.phi_x,
    }
    beta = squidmod.beta_l(params)
    report.derived["beta_L"] = beta
    report.flags["double_well"] = beta > 1.0

    if beta <= 1.0:
        harmonic = 1.0 / (2.0 * math.pi * math.sqrt(params.l_ph * 1e-12 * params.c_ff * 1e-15)) / 1e9
        sol = squidmod.solve_levels(params, grid=grid)
        report.derived["harmonic_spacing_GHz"] = harmonic
        report.derived["level_gap_GHz"] = sol.gap
        report.notes.append("no double well (beta_L <= 1): harmonic-limit report")
    else:
        tlp = squidmod.extract_two_level(params, grid=grid)
        report.derived["delta_GHz"] = tlp.delta_ghz
        report.derived["epsilon_GHz"] = tlp.epsilon_ghz
        report.derived["i_p_uA"] = tlp.i_p_ua
        if tlp.delta_ghz > 0.0:
            report.derived["pi_pulse_ns"] = 1.0 / (2.0 * tlp.delta_ghz)
        else:
            report.notes.append("splitting underflows to 0 at the solver floor: no pi pulse")
        report.flags["delta_at_solver_floor"] = tlp.at_solver_floor

    if target is not None:
        ic = squidmod.calibrate_critical_current(params, target, bracket=bracket, grid=grid)
        report.derived["target_delta_GHz"] = target
        report.derived["calibrated_Ic_uA"] = ic

    if sweep is not None:
        for idx, ic in enumerate(sweep):
            sol = squidmod.solve_levels(replace(params, ic_ua=float(ic), phi_x=0.5), grid=grid)
            report.derived[f"sweep[{idx}].Ic_uA"] = float(ic)
            report.derived[f"sweep[{idx}].delta_GHz"] = sol.gap
    return report


def cmd_design(cfg: dict) -> DesignReport:
    """Bus design arithmetic: effective mutual, coupling strength, weak
    coupling ratio, geometric qubit bound, residual decay time."""
    _require(cfg, "M_pH", "L_b_nH", "N")
    r_uohm = _positive(cfg, "R_uOhm")
    try:
        bus = BusParams(
            l_b_nh=_positive(cfg, "L_b_nH"),
            m_ph=_non_negative(cfg, "M_pH"),
            n_qubits=_integer(cfg, "N"),
            **_set(k_geom=_number(cfg, "k_geom")),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    squid = _squid_from_config(cfg)
    renorm = 1.0 + bus.m_ph**2 / (squid.l_ph * bus.l_b_ph)
    squid = replace(squid, l_renorm_factor=renorm)
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
        tlp = squidmod.extract_two_level(squid)
        j_mhz = busmod.coupling_strength(tlp, bus)
        report.derived["i_p_uA"] = tlp.i_p_ua
        report.derived["J_MHz"] = j_mhz
        report.derived["cphase_wait_ns"] = 1.0 / (32.0 * j_mhz * 1e-3)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", WeakCouplingWarning)
        ratio = busmod.weak_coupling_ratio(squid, bus)
    report.derived["weak_coupling_ratio"] = ratio
    report.flags["weak_coupling_warn"] = ratio >= busmod.WEAK_COUPLING_WARN_AT
    if bus.m_ph > 0.0:
        n_max = busmod.max_qubits(bus)
        report.derived["N_max"] = n_max
        report.flags["N_exceeds_max"] = bus.n_qubits > n_max

    if r_uohm is not None:
        report.derived["residual_decay_ms"] = busmod.residual_decay_time(bus.l_b_nh, r_uohm)
    return report


def _control_from_config(cfg: dict, mode: str | None) -> ControlParams:
    strengths = _set(
        delta_ghz=_positive(cfg, "delta_GHz"),
        epsilon_ghz=_positive(cfg, "epsilon_GHz"),
        j_mhz=_positive(cfg, "J_MHz"),
    )
    if not mode:
        mode = cfg.get("mode", "ideal")
        if mode not in ("ideal", "physical"):
            raise ConfigError(f"config key mode must be ideal or physical, got {mode!r}")
    return ControlParams(**strengths, mode=mode)


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
    n_logical = _integer(cfg, "n_logical")
    if n_logical > _MAX_LOGICAL:
        raise ConfigError(
            f"n_logical = {n_logical} exceeds {_MAX_LOGICAL}: the simulation's {_BYTES_PER_AMPLITUDE} B "
            "for each of its 4^n_logical amplitudes must fit in 1 GiB"
        )
    params = _control_from_config(cfg, mode)
    circuit = parse_circuit(circuit_text)
    try:
        _check_operands(circuit, n_logical)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return LogicalRegister.default(n_logical), params, circuit


@functools.lru_cache(maxsize=None)
def _bitstrings(n_logical: int) -> tuple:
    """The 2^n logical labels "0...0" .. "1...1" in ``code_indices`` order,
    shared by every record (one cached tuple per n_logical <= _MAX_LOGICAL)."""
    return tuple(format(ell, f"0{n_logical}b") if n_logical else "" for ell in range(2**n_logical))


def cmd_simulate(cfg: dict, circuit_text: str, mode: str | None = None) -> dict:
    """Compile and run a logical circuit; report fidelity against the exact
    logical unitary, code-space leakage, and spectator disturbance."""
    reg, params, circuit = _circuit_inputs(cfg, circuit_text, mode)
    n_logical = reg.n_logical

    # bitstrings of 0/1 digits survive the int round trip except for leading
    # zeros, which zfill restores
    initial_bits = str(cfg.get("initial_bits", "0" * n_logical)).zfill(n_logical)
    if len(initial_bits) != n_logical or (initial_bits and set(initial_bits) - {"0", "1"}):
        raise ConfigError(f"initial_bits must be a {n_logical}-bit string of 0s and 1s")
    schedule = compile_circuit(circuit, reg, params)
    state0 = encode(initial_bits, reg)
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
    if "seed" in cfg:
        record["seed"] = cfg["seed"]
    return record


def cmd_compile(cfg: dict, circuit_text: str, mode: str | None = None) -> dict:
    """Compile a circuit to its pulse schedule without running it."""
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


# Quoted design values of the reproduced parameter study, with tolerances.
_DESIGN_SQUID = {"L_pH": 150.0, "C_fF": 80.0, "Ic_uA": 3.0}
_IC_SUPPRESSED = 2.375
_BIAS_OFFSET = 0.15e-3
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
    """Recompute the quoted design numbers and compare at their tolerances.

    Returns the rows and the overall verdict.  The pi-pulse row compares
    2 x (1/(2 delta)) against the quoted 0.4 ns: the quoted time corresponds
    to 1/delta, a factor-2 convention gap that is flagged, not hidden.
    """
    squid = SquidParams(_DESIGN_SQUID["L_pH"], _DESIGN_SQUID["C_fF"], _DESIGN_SQUID["Ic_uA"])
    bus = BusParams(l_b_nh=2.0, m_ph=2.0, n_qubits=1000)

    tlp_unsuppressed = squidmod.extract_two_level(squid)
    suppressed = replace(squid, ic_ua=_IC_SUPPRESSED)
    tlp_suppressed = squidmod.extract_two_level(suppressed)
    biased = replace(squid, phi_x=0.5 + _BIAS_OFFSET)
    tlp_biased = squidmod.extract_two_level(biased)

    m_eff = busmod.effective_mutual(bus)
    j_mhz = busmod.coupling_strength(tlp_unsuppressed, bus)
    n_max = busmod.max_qubits(bus)
    pi_pulse = 1.0 / (2.0 * tlp_suppressed.delta_ghz)

    def ratio_within(factor):
        return lambda c, q: c > 0 and 1.0 / factor <= c / q <= factor

    def compare(name, computed, tolerance, ok, note=""):
        quoted = _QUOTED[name]
        ok = ok(computed, quoted)
        return {"name": name, "computed": computed, "quoted": quoted, "tolerance": tolerance, "ok": ok, "note": note}

    floor_note = "at solver floor" if tlp_unsuppressed.at_solver_floor else ""
    rows = [
        compare("tunneling_unsuppressed_Hz", tlp_unsuppressed.delta_ghz * 1e9, "x/3 to x3", ratio_within(3.0),
                floor_note),
        compare("tunneling_suppressed_GHz", tlp_suppressed.delta_ghz, "+-20%", lambda c, q: abs(c - q) <= 0.2 * q,
                f"Ic = {_IC_SUPPRESSED} uA"),
        compare("bias_splitting_GHz", tlp_biased.epsilon_ghz, "x/2 to x2", ratio_within(2.0),
                "0.15 mPhi0 offset, barrier up"),
        compare("effective_mutual_fH", m_eff, "exact", lambda c, q: abs(c - q) <= 1e-9),
        compare("coupling_J_MHz", j_mhz, "x/2 to x2", ratio_within(2.0), f"i_p = {tlp_unsuppressed.i_p_ua:.4g} uA"),
        compare("N_max", n_max, "exact", lambda c, q: c == q),
        compare("pi_pulse_ns", pi_pulse, "+-25% after x2", lambda c, q: abs(2.0 * c - q) <= 0.25 * q,
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
        Path(out_path).write_text(text)


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
                raise ConfigError(f"cannot read circuit {args.circuit}: {exc}") from exc
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
    except _NUMERICAL_ERRORS as exc:
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
