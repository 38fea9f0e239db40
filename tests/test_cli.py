"""Command-line harness: configs, reports, exit codes, determinism."""

import dataclasses
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fluxbus import cli
from fluxbus import squid as squidmod
from fluxbus.cli import (
    cmd_calibrate,
    cmd_design,
    cmd_reproduce_paper,
    cmd_simulate,
    main,
    parse_config,
)
from fluxbus import bus as busmod
from fluxbus.bus import BusParams
from fluxbus.compiler import ControlParams, LogicalRegister
from fluxbus.constants import PHI0_PH_UA
from fluxbus.squid import FluxGrid, NumericalError, SquidParams, TwoLevelParams

DEMOS = Path(__file__).resolve().parents[1] / "demos"

SQUID_CFG = """
# design-point rf-SQUID
L_pH = 150
C_fF = 80
Ic_uA = 3.0
phi_x_Phi0 = 0.5
"""

# design takes J from i_p at Phi0/2 and reads no flux bias.
DESIGN_SQUID_CFG = SQUID_CFG.replace("phi_x_Phi0 = 0.5\n", "")

DESIGN_CFG = DESIGN_SQUID_CFG + """
M_pH = 2
L_b_nH = 2
N = 1000
k_geom = 1.0
R_uOhm = 1.0
"""

SIM_CFG = """
n_logical = 2
J_MHz = 25
delta_GHz = 2.6
epsilon_GHz = 2.7
mode = ideal
initial_bits = 00
"""

SWEEP_CFG = SQUID_CFG + "sweep_Ic_lo_uA = 2.0\nsweep_Ic_hi_uA = 3.0\n"

BELL_CIRCUIT = "H 0\nCNOT 0,1\n"


@pytest.fixture
def cfg_file(tmp_path):
    def write(text, name="run.cfg"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


class TestConfigParsing:
    def test_types_and_comments(self, cfg_file):
        path = cfg_file("a = 1\nb = 2.5\nc = text\nd = true\n# comment\ne = false\n")
        cfg = parse_config(path)
        assert cfg == {"a": 1, "b": 2.5, "c": "text", "d": True, "e": False}

    def test_missing_file(self):
        with pytest.raises(ValueError, match="^cannot read config /nonexistent/path.cfg: "):
            parse_config("/nonexistent/path.cfg")

    def test_bad_line(self, cfg_file):
        with pytest.raises(ValueError, match="1: expected `key = value`, got 'just words'"):
            parse_config(cfg_file("just words\n"))

    def test_missing_key_reported(self):
        with pytest.raises(ValueError, match=r"^missing config key\(s\): L_pH$"):
            cmd_calibrate({"C_fF": 80.0, "Ic_uA": 3.0})


class TestCalibrate:
    def test_design_point_report(self):
        cfg = {
            "L_pH": 150.0,
            "C_fF": 80.0,
            "Ic_uA": 2.375,
            "target_delta_GHz": 2.6,
            "bracket_lo_uA": 1.5,
            "bracket_hi_uA": 3.0,
        }
        report = cmd_calibrate(cfg)
        assert abs(report.derived["delta_GHz"] - 2.6) <= 0.52
        assert abs(report.derived["calibrated_Ic_uA"] - 2.375) <= 0.24
        assert report.flags == {"double_well": True}

    def test_unsuppressed_reports_its_pi_pulse(self):
        # The 32 Hz splitting is exact, so it is reported like any other.
        report = cmd_calibrate({"L_pH": 150.0, "C_fF": 80.0, "Ic_uA": 3.0})
        assert report.derived["delta_GHz"] == pytest.approx(3.2265624686e-08, rel=1e-9)
        assert report.derived["pi_pulse_ns"] == 1.0 / (2.0 * report.derived["delta_GHz"])
        assert report.flags == {"double_well": True} and report.notes == []

    def test_harmonic_branch(self):
        report = cmd_calibrate({"L_pH": 150.0, "C_fF": 80.0, "Ic_uA": 0.0})
        assert not report.flags["double_well"]
        assert report.derived["harmonic_spacing_GHz"] == pytest.approx(45.944, abs=0.01)
        assert report.derived["level_gap_GHz"] == pytest.approx(45.944, rel=1e-3)
        assert "delta_GHz" not in report.derived

    def test_deep_well_sweep_strictly_decreasing(self):
        # Ic 3.1-3.5 uA takes the splitting from ~1 nGHz to ~3e-16 GHz, far
        # below the rounding of the ~1300 GHz level energies.
        cfg = {"L_pH": 150.0, "C_fF": 80.0, "Ic_uA": 3.0, "sweep_Ic_lo_uA": 3.1, "sweep_Ic_hi_uA": 3.5,
               "sweep_points": 41}
        report = cmd_calibrate(cfg)
        deltas = np.array([report.derived[f"sweep[{i}].delta_GHz"] for i in range(41)])
        assert np.all(deltas > 0.0) and np.all(np.diff(deltas) < 0.0)

    def test_sweep_monotone(self):
        cfg = {
            "L_pH": 150.0,
            "C_fF": 80.0,
            "Ic_uA": 3.0,
            "sweep_Ic_lo_uA": 2.0,
            "sweep_Ic_hi_uA": 3.0,
            "sweep_points": 5,
        }
        report = cmd_calibrate(cfg)
        deltas = [report.derived[f"sweep[{i}].delta_GHz"] for i in range(5)]
        assert all(a > b for a, b in zip(deltas, deltas[1:]))

    def test_report_formats(self):
        report = cmd_calibrate({"L_pH": 150.0, "C_fF": 80.0, "Ic_uA": 2.375})
        text = report.to_text()
        assert "delta_GHz" in text and "beta_L" in text
        records = [json.loads(line) for line in report.to_records().splitlines()]
        keys = {r["key"] for r in records}
        assert {"delta_GHz", "beta_L", "i_p_uA"} <= keys

    def test_biased_squid_solves_once(self, monkeypatch):
        # epsilon is 2 i_p dPhi, from the one symmetric solve
        cfg = {"L_pH": 150, "C_fF": 80, "Ic_uA": 3.0, "phi_x_Phi0": 0.50015}
        assert _count_solves(monkeypatch, cmd_calibrate, cfg).derived["epsilon_GHz"] > 0.0

    @pytest.mark.parametrize("phi_x, wells", [(0.45, 1), (0.47, 1), (0.48, 2), (0.50015, 2)])
    def test_double_well_off_symmetry_counts_wells(self, phi_x, wells):
        # Off Phi0/2 the bias can tilt one well away, though beta_L > 1; the
        # flag follows the wells of the biased potential on the grid.
        report = cmd_calibrate({"L_pH": 150, "C_fF": 80, "Ic_uA": 3.0, "phi_x_Phi0": phi_x})
        u = squidmod.potential(SquidParams(150.0, 80.0, 3.0, phi_x), FluxGrid().points)
        assert np.count_nonzero((u[1:-1] < u[:-2]) & (u[1:-1] < u[2:])) == wells
        symmetric = cmd_calibrate({"L_pH": 150, "C_fF": 80, "Ic_uA": 3.0})
        for key in ("delta_GHz", "i_p_uA", "pi_pulse_ns"):  # properties at Phi0/2
            assert report.derived[key] == symmetric.derived[key]
        assert report.flags == {"double_well": wells == 2}
        if wells == 2:
            assert report.notes == [] and report.derived["epsilon_GHz"] > 0.0
        else:
            assert "epsilon_GHz" not in report.derived
            assert report.notes == [f"phi_x_Phi0 = {phi_x} has one well: no epsilon; delta, i_p, pi pulse at Phi0/2"]
        if phi_x == 0.50015:
            assert report.derived["epsilon_GHz"] == 2.670569555568895


class TestDesign:
    def test_design_point(self):
        cfg = parse_config_text(DESIGN_CFG)
        report = cmd_design(cfg)
        assert report.derived["M_eff_fH"] == pytest.approx(2.0, abs=1e-9)
        assert 12.5 <= report.derived["J_MHz"] <= 50.0
        assert report.derived["N_max"] == 1000
        assert report.derived["weak_coupling_ratio"] == pytest.approx(0.0133333, rel=1e-4)
        assert report.derived["residual_decay_ms"] == pytest.approx(2.0)
        assert not report.flags["weak_coupling_warn"]
        assert not report.flags["N_exceeds_max"]

    def test_zero_mutual(self):
        cfg = parse_config_text(DESIGN_SQUID_CFG) | {"M_pH": 0.0, "L_b_nH": 2.0, "N": 4}
        report = cmd_design(cfg)
        assert report.derived["J_MHz"] == 0.0
        assert report.derived["M_eff_fH"] == 0.0
        assert "N_max" not in report.derived

    def test_overloaded_bus_warns(self):
        # N M^2/(L L_b) = 0.133: past the weak-coupling warning, still passive
        cfg = parse_config_text(DESIGN_CFG) | {"N": 10000}
        report = cmd_design(cfg)
        assert report.flags["weak_coupling_warn"]
        assert report.flags["N_exceeds_max"]

    def test_bus_that_is_not_passive_rejected(self, tmp_path, capsys):
        # N M^2/(L L_b) = 200 * 100 / (150 * 100) = 1.33: the same bus that
        # solve_currents refuses
        path = tmp_path / "bus.cfg"
        path.write_text(DESIGN_SQUID_CFG + "M_pH = 10\nL_b_nH = 0.1\nN = 200\n")
        assert main(["design", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error[numerical]:") and "not passive" in err and "N = 200" in err

    def test_loaded_single_well_refused(self, cfg_file, capsys):
        # The bus lowers the loop inductance to L/(1 + M^2/(L L_b)), and
        # beta_L with it: at beta_L = 1 + 5e-6 bare, the loaded SQUID (factor
        # 1 + 1.33e-5) has a single well, so it has no i_p and no J.
        ic_ua = (1.0 + 5e-6) * PHI0_PH_UA / (2.0 * math.pi * 150.0)
        assert squidmod.beta_l(SquidParams(150.0, 80.0, ic_ua)) > 1.0
        text = DESIGN_CFG.replace("Ic_uA = 3.0", f"Ic_uA = {ic_ua!r}")
        with pytest.raises(NumericalError, match=r"^beta_L = 1\.000 <= 1: potential has a single well$"):
            cmd_design(parse_config_text(text))
        assert main(["design", "--config", cfg_file(text)]) == 3
        assert capsys.readouterr().err.startswith("error[numerical]: beta_L = 1.000 <= 1")

    def test_biased_design_solves_once(self, monkeypatch):
        # design reads no bias: its one solve is the SQUID's at Phi0/2.
        _count_solves(monkeypatch, cmd_design, parse_config(DEMOS / "design.cfg"))


def _count_solves(monkeypatch, command, cfg):
    """``command(cfg)``, asserting that it makes exactly one eigensolve."""
    solves, solve = [], squidmod.solve_levels
    monkeypatch.setattr(squidmod, "solve_levels", lambda *args, **kw: solves.append(1) or solve(*args, **kw))
    report = command(cfg)
    assert len(solves) == 1
    return report


def parse_config_text(text):
    from fluxbus.cli import _parse_value

    cfg = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, _, value = line.partition("=")
            cfg[key.strip()] = _parse_value(value.strip())
    return cfg


class TestSimulate:
    def test_bell_circuit_ideal(self):
        record = cmd_simulate(parse_config_text(SIM_CFG), BELL_CIRCUIT)
        assert record["fidelity"] >= 1.0 - 1e-6
        assert record["leakage"] < 1e-9
        assert record["logical_probabilities"]["00"] == pytest.approx(0.5, abs=1e-9)
        assert record["logical_probabilities"]["11"] == pytest.approx(0.5, abs=1e-9)

    def test_empty_circuit_identity(self):
        record = cmd_simulate(parse_config_text(SIM_CFG), "")
        assert record["fidelity"] == pytest.approx(1.0, abs=1e-12)
        assert record["gates"] == 0 and record["segments"] == 0
        assert isinstance(record["duration_ns"], float) and record["duration_ns"] == 0.0

    def test_spectator_metric_physical(self):
        cfg = parse_config_text(SIM_CFG) | {"n_logical": 3, "mode": "physical"}
        record = cmd_simulate(cfg, "CPHASE 0,1\n")
        assert record["spectator_trace_distance"]["2"] < 1e-3

    def test_mode_override(self):
        record = cmd_simulate(parse_config_text(SIM_CFG), "X 0\n", mode="physical")
        assert record["mode"] == "physical"

    def test_circuit_out_of_range(self):
        with pytest.raises(ValueError, match="^circuit addresses a logical qubit outside the register$"):
            cmd_simulate(parse_config_text(SIM_CFG), "X 5\n")


class TestMainExitCodes:
    def test_calibrate_ok(self, cfg_file, capsys):
        assert main(["calibrate", "--config", cfg_file(SQUID_CFG)]) == 0
        out = capsys.readouterr().out
        assert "beta_L" in out

    def test_missing_config_file(self, tmp_path, capsys):
        path = tmp_path / "missing.cfg"
        assert main(["calibrate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error[config]: cannot read config {path}: [Errno 2] No such file or directory: '{path}'\n"
        )

    def test_bad_config_value(self, cfg_file, capsys):
        path = cfg_file("L_pH = -5\nC_fF = 80\nIc_uA = 3\n")
        assert main(["calibrate", "--config", path]) == 2

    def test_numerical_failure_exit(self, cfg_file, capsys):
        # target splitting far outside the reachable bracket
        path = cfg_file(SQUID_CFG + "target_delta_GHz = 500\n")
        assert main(["calibrate", "--config", path]) == 3
        assert capsys.readouterr().err.startswith("error[numerical]:")

    def test_fine_grid_calibrates(self, cfg_file, capsys):
        # The eigen-residual bound scales with the operator norm (~1/dphi^2),
        # so a 30001-point grid passes.  Its delta at the suppressed current
        # agrees with the default grid's to that grid's discretisation error
        # (3-point differences, O(dphi^2): ~7e-6 relative at 4097 points).
        text = "L_pH = 150\nC_fF = 80\nIc_uA = 2.375\ntarget_delta_GHz = 2.6\n"
        derived = []
        for extra in ("", "grid_points = 30001\n"):
            assert main(["calibrate", "--config", cfg_file(text + extra), "--format", "records"]) == 0
            records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
            derived.append({r["key"]: r["value"] for r in records if r["section"] == "derived"})
        default, fine = derived
        assert fine["delta_GHz"] == pytest.approx(default["delta_GHz"], rel=2e-5)
        assert fine["calibrated_Ic_uA"] == pytest.approx(default["calibrated_Ic_uA"], rel=1e-3)

    def test_any_grid_key_builds_the_grid(self, cfg_file, capsys):
        # grid_points alone coarsens the grid like it does next to the window key.
        deltas = []
        window = "phi_half_width_Phi0 = 0.75\n"
        for extra in ("", "grid_points = 2049\n", "grid_points = 2049\n" + window):
            assert main(["calibrate", "--config", cfg_file(SQUID_CFG + extra), "--format", "records"]) == 0
            records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
            deltas.append(next(r["value"] for r in records if r["section"] == "derived" and r["key"] == "delta_GHz"))
        default, points, points_and_window = deltas
        assert points == points_and_window == pytest.approx(3.2310218992245635e-08, rel=1e-12)
        assert points != default

    def test_simulate_and_compile(self, cfg_file, tmp_path, capsys):
        cfg = cfg_file(SIM_CFG)
        circuit = tmp_path / "bell.circuit"
        circuit.write_text(BELL_CIRCUIT)
        assert main(["simulate", "--config", cfg, "--circuit", str(circuit), "--format", "records"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["fidelity"] >= 1.0 - 1e-6
        # compile reads the key list of simulate, initial_bits included
        assert main(["compile", "--config", cfg, "--circuit", str(circuit)]) == 0
        assert "segments" in capsys.readouterr().out

    def test_bad_circuit_exit(self, cfg_file, tmp_path, capsys):
        cfg = cfg_file(SIM_CFG)
        circuit = tmp_path / "bad.circuit"
        circuit.write_text("WIBBLE 0\n")
        assert main(["simulate", "--config", cfg, "--circuit", str(circuit)]) == 2

    def test_out_file(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "report.txt"
        assert main(["calibrate", "--config", cfg_file(SQUID_CFG), "--out", str(out)]) == 0
        assert out.read_text() == capsys.readouterr().out

    @pytest.mark.parametrize("key, value", [("L_pH", "nan"), ("Ic_uA", "inf")])
    def test_non_finite_config_number(self, cfg_file, capsys, key, value):
        text = SQUID_CFG.replace(f"{key} = ", f"{key} = {value}  # was ")
        assert main(["calibrate", "--config", cfg_file(text)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[config]:") and key in err

    @pytest.mark.parametrize("line", ["RX 0,nan", "RZ 0,inf"])
    def test_non_finite_circuit_angle(self, cfg_file, tmp_path, capsys, line):
        circuit = tmp_path / "angle.circuit"
        circuit.write_text(f"H 0\n{line}\n")
        assert main(["simulate", "--config", cfg_file(SIM_CFG), "--circuit", str(circuit)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[config]: line 2:") and "finite" in err

    @pytest.mark.parametrize("command", ["simulate", "compile"])
    @pytest.mark.parametrize("value, shown", [("Physical", "'Physical'"), ("3", "3")])
    def test_bad_mode_names_the_key(self, cfg_file, tmp_path, capsys, command, value, shown):
        circuit = tmp_path / "x.circuit"
        circuit.write_text("X 0\n")
        cfg = cfg_file(SIM_CFG.replace("mode = ideal", f"mode = {value}"))
        assert main([command, "--config", cfg, "--circuit", str(circuit)]) == 2
        assert capsys.readouterr().err == f"error[config]: config key mode must be ideal or physical, got {shown}\n"

    @pytest.mark.parametrize("command", ["simulate", "compile"])
    def test_negative_n_logical(self, cfg_file, tmp_path, capsys, command):
        circuit = tmp_path / "empty.circuit"
        circuit.write_text("")
        cfg = cfg_file(SIM_CFG.replace("n_logical = 2", "n_logical = -1"))
        assert main([command, "--config", cfg, "--circuit", str(circuit)]) == 2
        assert capsys.readouterr().err == "error[config]: config key n_logical must be non-negative, got -1\n"

    def test_largest_n_logical_runs(self, cfg_file, tmp_path, capsys):
        # 16 physical qubits through main (criterion 11 simulates 18); idle
        # encoded pairs leave the gate figures unchanged
        circuit = tmp_path / "bell.circuit"
        circuit.write_text(BELL_CIRCUIT)
        records = []
        for n_logical in (2, 8):
            text = SIM_CFG.replace("n_logical = 2", f"n_logical = {n_logical}").replace("initial_bits = 00", "")
            args = ["simulate", "--config", cfg_file(text), "--circuit", str(circuit), "--mode", "physical"]
            assert main(args + ["--format", "records"]) == 0
            records.append(json.loads(capsys.readouterr().out))
        small, large = records
        assert abs(large["fidelity"] - small["fidelity"]) <= 1e-10
        assert abs(large["leakage"] - small["leakage"]) <= 1e-10

    @pytest.mark.parametrize(
        "circuit",
        ["CPHASE 0,1\n", "CNOT 0,1\n", "CNOT 6,4\nCPHASE 0,1\nH 4\nCNOT 5,6\nX 5\nX 0\nCPHASE 5,6\nCNOT 6,0\nH 4\n"],
    )
    def test_memory_per_amplitude_within_bound(self, circuit):
        # The bound behind n_logical <= 10: the traced peak of a physical
        # simulation per amplitude, here at n_logical = 7 (the last circuit
        # diagonalises new flip blocks while it keeps an earlier flip's).
        tracemalloc.start()
        try:
            cmd_simulate({"n_logical": 7}, circuit, mode="physical")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 4**7 <= cli._BYTES_PER_AMPLITUDE
        assert cli._MAX_LOGICAL == 10

    @pytest.mark.parametrize("command", ["simulate", "compile"])
    @pytest.mark.parametrize("n_logical", [11, 10**9])
    def test_oversize_n_logical(self, cfg_file, tmp_path, capsys, monkeypatch, command, n_logical):
        # rejected before the register is built or anything is allocated
        def unreachable(*args, **kwargs):
            raise AssertionError("register built")

        monkeypatch.setattr(LogicalRegister, "default", unreachable)
        circuit = tmp_path / "empty.circuit"
        circuit.write_text("")
        cfg = cfg_file(SIM_CFG.replace("n_logical = 2", f"n_logical = {n_logical}"))
        assert main([command, "--config", cfg, "--circuit", str(circuit)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error[config]: n_logical = {n_logical} exceeds 10")

    def test_no_double_well_is_numerical(self, cfg_file, capsys):
        # Ic = 1 uA gives beta_L = 0.456: a single well, so no two-level qubit to couple
        path = cfg_file(DESIGN_CFG.replace("Ic_uA = 3.0", "Ic_uA = 1.0"))
        assert main(["design", "--config", path]) == 3
        assert capsys.readouterr().err.startswith("error[numerical]:")

    def test_deep_well_calibrate(self, cfg_file, capsys):
        # a ~2.4e-11 GHz splitting: exit 0 and valid JSON, with its pi pulse
        path = cfg_file("L_pH = 135.6\nC_fF = 99.9\nIc_uA = 3.4\n")
        assert main(["calibrate", "--config", path, "--format", "records"]) == 0

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        lines = capsys.readouterr().out.splitlines()
        records = {r["key"]: r["value"] for r in (json.loads(line, parse_constant=reject) for line in lines)}
        assert 1e-11 < records["delta_GHz"] < 1e-10
        assert records["pi_pulse_ns"] == 1.0 / (2.0 * records["delta_GHz"])

    def test_zero_splitting_calibrate(self, cfg_file, capsys, monkeypatch):
        # a splitting that underflows to exactly 0: no pi pulse, still exit 0
        def underflowed(params, grid=None):
            return TwoLevelParams(delta_ghz=0.0, epsilon_ghz=0.0, i_p_ua=2.9)

        monkeypatch.setattr(squidmod, "extract_two_level", underflowed)
        assert main(["calibrate", "--config", cfg_file(SQUID_CFG), "--format", "records"]) == 0
        records = {r["key"]: r["value"] for r in map(json.loads, capsys.readouterr().out.splitlines())}
        assert records["delta_GHz"] == 0.0
        assert "pi_pulse_ns" not in records
        assert "no pi pulse" in records["note"]

    def test_zero_coupling_design(self, cfg_file, capsys):
        # M > 0 whose J underflows to exactly 0: no CPHASE wait, still exit 0
        path = cfg_file(DESIGN_CFG.replace("M_pH = 2", "M_pH = 1e-200"))
        assert main(["design", "--config", path, "--format", "records"]) == 0
        records = {r["key"]: r["value"] for r in map(json.loads, capsys.readouterr().out.splitlines())}
        assert records["J_MHz"] == 0.0
        assert "cphase_wait_ns" not in records
        assert records["note"] == "coupling underflows to 0: no CPHASE wait"

    def test_harmonic_spacing_underflow(self, cfg_file, capsys):
        # L C underflows to 0 s^2 while the scaled solve still succeeds: the
        # level gap is reported and the harmonic spacing is left out
        path = cfg_file("L_pH = 1e-150\nC_fF = 1e-150\nIc_uA = 0\n")
        assert main(["calibrate", "--config", path, "--format", "records"]) == 0
        rows = list(map(json.loads, capsys.readouterr().out.splitlines()))
        derived = {r["key"]: r["value"] for r in rows if r["section"] == "derived"}
        assert "harmonic_spacing_GHz" not in derived
        assert derived["level_gap_GHz"] == pytest.approx(5.0328e153, rel=1e-4)
        assert [r["value"] for r in rows if r["section"] == "note"][0] == "L C underflows to 0 s^2: no harmonic spacing"

    @pytest.mark.parametrize("value, reason", [("1000000000000", "exceeds"), ("4097.5", "must be an integer")])
    def test_grid_points_bound(self, cfg_file, capsys, monkeypatch, value, reason):
        # rejected before any grid array is allocated or any level solved
        def unreachable(*args, **kwargs):
            raise AssertionError("solve_levels reached")

        monkeypatch.setattr(squidmod, "solve_levels", unreachable)
        assert main(["calibrate", "--config", cfg_file(SQUID_CFG + f"grid_points = {value}\n")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[config]:") and "grid_points" in err and reason in err

    @pytest.mark.parametrize(
        "command, text, reason",
        [
            pytest.param("calibrate", SWEEP_CFG + "sweep_points = 2.5\n", "config key sweep_points must be an integer",
                         id="sweep_points-fraction"),
            pytest.param("calibrate", SWEEP_CFG + "sweep_points = -3\n", "sweep_points must be non-negative",
                         id="sweep_points-negative"),
            pytest.param("calibrate", SWEEP_CFG + "sweep_points = 1000000000000\n",
                         "sweep_points = 1000000000000 exceeds", id="sweep_points-oversize"),
            pytest.param("design", DESIGN_CFG.replace("N = 1000", "N = 1000.7"), "config key N must be an integer",
                         id="N-fraction"),
            pytest.param("design", DESIGN_CFG.replace("N = 1000", "N = -2"),
                         "config key N must be even and at least 2, got -2", id="N-negative"),
            pytest.param("design", DESIGN_CFG.replace("N = 1000", "N = 3"),
                         "config key N must be even and at least 2, got 3", id="N-odd"),
            pytest.param("design", DESIGN_CFG.replace("k_geom = 1.0", "k_geom = 2"),
                         "config key k_geom must lie in (0, 1], got 2", id="k_geom-outside"),
            pytest.param("simulate", SIM_CFG.replace("mode = ideal", "mode = fast"),
                         "config key mode must be ideal or physical, got 'fast'", id="mode-unknown"),
            pytest.param("simulate", SIM_CFG.replace("initial_bits = 00", "initial_bits = 0x"),
                         "config key initial_bits must be a 2-bit string of 0s and 1s, got '0x'",
                         id="initial_bits-digit"),
            pytest.param("simulate", SIM_CFG.replace("n_logical = 2", "n_logical = 2.5"),
                         "config key n_logical must be an integer", id="n_logical-fraction"),
            pytest.param("calibrate", SQUID_CFG + "target_delta_GHz = -1\n",
                         "config key target_delta_GHz must be positive", id="target-negative"),
            pytest.param("calibrate", SQUID_CFG + "target_delta_GHz = 2.6\nbracket_lo_uA = 3.0\nbracket_hi_uA = 1.5\n",
                         "config key (bracket_lo_uA, bracket_hi_uA) must satisfy 0 <= lo < hi, got (3.0, 1.5)",
                         id="bracket-reversed"),
            pytest.param("calibrate", SQUID_CFG + "target_delta_GHz = 2.6\nbracket_lo_uA = -1\n",
                         "config key (bracket_lo_uA, bracket_hi_uA) must satisfy 0 <= lo < hi, got (-1, 3.0)",
                         id="bracket-negative"),
            pytest.param("calibrate", SWEEP_CFG.replace("sweep_Ic_lo_uA = 2.0", "sweep_Ic_lo_uA = -1")
                         + "sweep_points = 3\n", "sweep_Ic_lo_uA = -1", id="sweep_Ic-negative"),
            pytest.param("calibrate", SQUID_CFG + "phi_half_width_Phi0 = -0.75\n",
                         "config key phi_half_width_Phi0 must be positive and finite, got -0.75",
                         id="phi_window-reversed"),
            # a window is centred on Phi0/2 by construction: an end of it is
            # not a key
            pytest.param("calibrate", SQUID_CFG + "phi_window_hi = 0.9\n",
                         "config key phi_window_hi is not read by calibrate", id="phi_window-off-centre"),
            pytest.param("calibrate", SQUID_CFG + "phi_half_width_Phi0 = 0\n",
                         "config key phi_half_width_Phi0 must be positive and finite, got 0",
                         id="phi_window-empty"),
            pytest.param("calibrate", SQUID_CFG + "grid_points = 100\n", "config key grid_points must be at least 257",
                         id="grid_points-small"),
            pytest.param("calibrate", SQUID_CFG + "grid_points = 4096\n",
                         "config key grid_points must be odd, got 4096", id="grid_points-even"),
            pytest.param("calibrate", SQUID_CFG.replace("L_pH = 150", "L_pH = -1"), "config key L_pH must be positive",
                         id="L_pH-negative"),
            pytest.param("calibrate", SQUID_CFG.replace("phi_x_Phi0 = 0.5", "phi_x_Phi0 = 1.5"),
                         "config key phi_x_Phi0 must lie in [0, 1)", id="phi_x-outside"),
            pytest.param("design", DESIGN_CFG.replace("M_pH = 2", "M_pH = -2"), "config key M_pH must be non-negative",
                         id="M_pH-negative"),
            pytest.param("design", DESIGN_CFG.replace("R_uOhm = 1.0", "R_uOhm = 0"), "config key R_uOhm must be positive",
                         id="R_uOhm-zero"),
            pytest.param("simulate", SIM_CFG.replace("delta_GHz = 2.6", "delta_GHz = 0"),
                         "config key delta_GHz must be positive", id="delta_GHz-zero"),
            # an integer a float cannot hold is refused where it is read, not
            # as an OverflowError where the library first converts it
            pytest.param("calibrate", SQUID_CFG.replace("L_pH = 150", "L_pH = 1" + "0" * 400),
                         "config key L_pH must fit in a float, got an integer of 401 digits", id="L_pH-huge"),
            pytest.param("compile", SIM_CFG.replace("J_MHz = 25", "J_MHz = 1" + "0" * 400),
                         "config key J_MHz must fit in a float, got an integer of 401 digits", id="J_MHz-huge"),
        ],
    )
    def test_bad_config_key_named(self, cfg_file, tmp_path, capsys, monkeypatch, command, text, reason):
        # rejected at the boundary, before any level is solved
        def unreachable(*args, **kwargs):
            raise AssertionError("solve_levels reached")

        monkeypatch.setattr(squidmod, "solve_levels", unreachable)
        circuit = tmp_path / "bell.circuit"
        circuit.write_text(BELL_CIRCUIT)
        needs_circuit = command in ("simulate", "compile")
        args = [command, "--config", cfg_file(text)] + (["--circuit", str(circuit)] if needs_circuit else [])
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[config]:") and reason in err

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("calibrate", "L_pH", "-1"),
            ("calibrate", "C_fF", "0"),
            ("calibrate", "Ic_uA", "-0.1"),
            ("calibrate", "phi_x_Phi0", "1"),
            ("calibrate", "grid_points", "100"),
            ("calibrate", "grid_points", "-5"),
            ("calibrate", "grid_points", "4096"),
            ("calibrate", "phi_half_width_Phi0", "0"),
            ("calibrate", "phi_half_width_Phi0", "-1"),
            ("calibrate", "target_delta_GHz", "0"),
            ("calibrate", "bracket_lo_uA", "-1"),
            ("calibrate", "bracket_hi_uA", "1"),
            ("design", "L_pH", "0"),
            ("design", "C_fF", "-80"),
            ("design", "Ic_uA", "-3"),
            ("design", "grid_points", "256"),
            ("design", "grid_points", "4098"),
            ("design", "phi_half_width_Phi0", "-0.75"),
            ("design", "phi_half_width_Phi0", "inf"),
            ("design", "M_pH", "-2"),
            ("design", "L_b_nH", "0"),
            ("design", "N", "1"),
            ("design", "k_geom", "0"),
            ("design", "R_uOhm", "-1"),
            ("simulate", "delta_GHz", "-2.6"),
            ("simulate", "epsilon_GHz", "0"),
            ("compile", "J_MHz", "-25"),
            ("compile", "mode", "Ideal"),
            ("simulate", "initial_bits", "21"),
        ],
    )
    def test_every_library_key_named(self, cfg_file, tmp_path, capsys, monkeypatch, command, key, value):
        # A value that breaks a rule of the type or function it reaches exits 2
        # with the config key leading the message, before any level is solved
        # or any state evolved.
        def unreachable(*args, **kwargs):
            raise AssertionError("solve reached")

        monkeypatch.setattr(squidmod, "solve_levels", unreachable)
        monkeypatch.setattr(cli, "run_schedule", unreachable)
        base = {"calibrate": SQUID_CFG + "target_delta_GHz = 2.6\n", "design": DESIGN_CFG, "simulate": SIM_CFG}
        cfg = parse_config_text(base.get(command, SIM_CFG)) | {key: value}
        args = [command, "--config", cfg_file("".join(f"{k} = {v}\n" for k, v in cfg.items()))]
        if command in ("simulate", "compile"):
            (tmp_path / "bell.circuit").write_text(BELL_CIRCUIT)
            args += ["--circuit", str(tmp_path / "bell.circuit")]
        assert main(args) == 2
        err = capsys.readouterr().err
        subject, _, _ = err.partition(" must ")
        assert subject.startswith("error[config]: config key ") and key in subject, err

    @pytest.mark.parametrize(
        "command, text, key",
        [
            ("calibrate", SQUID_CFG + "target_delta_GHZ = 2.6\n", "target_delta_GHZ"),
            ("calibrate", SQUID_CFG + "grid_point = 257\n", "grid_point"),
            ("calibrate", DESIGN_CFG, "M_pH"),
            ("design", DESIGN_CFG + "target_delta_GHz = 2.6\n", "target_delta_GHz"),
            # J comes from i_p at Phi0/2, whatever the bias
            pytest.param("design", DESIGN_CFG + "phi_x_Phi0 = 0.5\n", "phi_x_Phi0", id="design-phi_x_Phi0"),
            ("simulate", SIM_CFG + "L_pH = 150\n", "L_pH"),
            ("compile", SIM_CFG.replace("J_MHz", "J_mhz"), "J_mhz"),
            # the window's two ends are one key, phi_half_width_Phi0
            ("design", DESIGN_CFG + "phi_window_lo = -0.25\n", "phi_window_lo"),
        ],
    )
    def test_unread_key_refused(self, cfg_file, tmp_path, capsys, command, text, key):
        # A key the command never reads (a misspelt one would otherwise leave
        # its default silently in place) is refused by name, first in the file.
        args = [command, "--config", cfg_file(text)]
        if command in ("simulate", "compile"):
            (tmp_path / "bell.circuit").write_text(BELL_CIRCUIT)
            args += ["--circuit", str(tmp_path / "bell.circuit")]
        assert main(args) == 2
        assert capsys.readouterr().err == f"error[config]: config key {key} is not read by {command}\n"

    @pytest.mark.parametrize(
        "text, key, gate",
        [
            ("bracket_lo_uA = -5\nsweep_points = 3\n", "bracket_lo_uA", "target_delta_GHz"),
            ("bracket_hi_uA = 3.0\n", "bracket_hi_uA", "target_delta_GHz"),
            ("sweep_points = 3\nbracket_lo_uA = -5\n", "sweep_points", "sweep_Ic_lo_uA"),
            ("sweep_Ic_hi_uA = 3.0\nsweep_points = 3\ntarget_delta_GHz = 2.6\n", "sweep_Ic_hi_uA", "sweep_Ic_lo_uA"),
        ],
    )
    def test_key_read_only_with_another_refused(self, cfg_file, capsys, monkeypatch, text, key, gate):
        # A bracket without a target, or a sweep end or size without its
        # start, would be ignored, whatever its value: it is refused by name,
        # first in the file, before any level is solved.
        def unreachable(*args, **kwargs):
            raise AssertionError("solve reached")

        monkeypatch.setattr(squidmod, "solve_levels", unreachable)
        assert main(["calibrate", "--config", cfg_file(SQUID_CFG + text)]) == 2
        assert capsys.readouterr().err == f"error[config]: config key {key} is not read by calibrate without {gate}\n"

    def test_design_reads_the_grid_keys(self, cfg_file, capsys):
        # design solves its SQUID on the configured grid, as calibrate does
        records = []
        for extra in ("", "grid_points = 257\n", "phi_half_width_Phi0 = 0.7\n"):
            assert main(["design", "--config", cfg_file(DESIGN_CFG + extra), "--format", "records"]) == 0
            records.append({r["key"]: r["value"] for r in map(json.loads, capsys.readouterr().out.splitlines())})
        default, coarse, narrow = records
        assert coarse["i_p_uA"] != default["i_p_uA"] and narrow["i_p_uA"] != default["i_p_uA"]
        assert coarse["i_p_uA"] == pytest.approx(default["i_p_uA"], rel=1e-2)
        assert coarse["M_eff_fH"] == default["M_eff_fH"]

    def test_linalg_error_in_calibration_is_numerical(self, cfg_file, capsys, monkeypatch):
        # LinAlgError is a ValueError, but it comes from a failed solve: it
        # exits 3 with its message as raised, even one that leads with a
        # parameter name the CLI maps to a config key.
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("target_delta_ghz must be solved, got a singular matrix")

        monkeypatch.setattr(squidmod, "solve_levels", failing)
        assert main(["calibrate", "--config", cfg_file(SQUID_CFG + "target_delta_GHz = 2.6\n")]) == 3
        assert capsys.readouterr().err == "error[numerical]: target_delta_ghz must be solved, got a singular matrix\n"

    def test_duplicate_config_key_refused(self, cfg_file, capsys):
        # Two values for one key are refused, naming both lines, so the later
        # line cannot silently replace the earlier one.
        path = cfg_file(SQUID_CFG + "L_pH = 999\n")
        assert main(["calibrate", "--config", path]) == 2
        assert capsys.readouterr().err == f"error[config]: {path}:7: config key L_pH is already set on line 3\n"

    def test_inverse_iteration_failure_is_numerical(self, cfg_file, capsys, monkeypatch):
        monkeypatch.setattr(squidmod, "_INVERSE_ITERATIONS", 1)
        assert main(["calibrate", "--config", cfg_file(SQUID_CFG)]) == 3
        assert capsys.readouterr().err == "error[numerical]: inverse iteration did not converge in 1 steps\n"

    @pytest.mark.parametrize(
        "command, text, circuit, code, err",
        [
            pytest.param("calibrate", SQUID_CFG + "phi_half_width_Phi0 = 0.05\n", None, 3,
                         "error[numerical]: potential minimum at the grid edge; widen the window", id="window-edge"),
            pytest.param("design", DESIGN_CFG.replace("Ic_uA = 3.0", "Ic_uA = 0.5"), None, 3,
                         "error[numerical]: beta_L = 0.228 <= 1: potential has a single well", id="no-double-well"),
            pytest.param("calibrate", SQUID_CFG + "target_delta_GHz = 100\n", None, 3,
                         "error[numerical]: target 100 GHz outside [3.227e-08, 26.34] GHz reachable on Ic bracket "
                         "[1.5, 3.0] uA", id="bracket"),
            pytest.param("design", DESIGN_SQUID_CFG + "M_pH = 10\nL_b_nH = 0.1\nN = 200\n", None, 3,
                         "error[numerical]: L_b - N M^2/L = -33.33 pH with N = 200: the bus is not passive "
                         "(N M^2 must stay below L*L_b = 1.5e+04 pH^2)", id="not-passive"),
            pytest.param("design", DESIGN_CFG.replace("N = 1000", "N = 3"), None, 2,
                         "error[config]: config key N must be even and at least 2, got 3", id="bus-params"),
            pytest.param("simulate", SIM_CFG, "X 5\n", 2,
                         "error[config]: circuit addresses a logical qubit outside the register",
                         id="operand-simulate"),
            pytest.param("compile", SIM_CFG, "X 5\n", 2,
                         "error[config]: circuit addresses a logical qubit outside the register", id="operand-compile"),
            pytest.param("simulate", SIM_CFG.replace("initial_bits = 00", "initial_bits = 0x"), "X 5\n", 2,
                         "error[config]: circuit addresses a logical qubit outside the register",
                         id="operand-before-bits"),
            pytest.param("simulate", SIM_CFG, "X 0,1,2\n", 2, "error[config]: line 1: X takes 1 operand(s)",
                         id="circuit-line"),
            pytest.param("calibrate", SQUID_CFG.replace("C_fF = 80", "C_fF = 1e-300"), None, 3,
                         "error[numerical]: inverse iteration step 1 gave an iterate of norm 0.0: "
                         "the levels are out of double-precision range", id="iterate-underflow"),
            pytest.param("calibrate", "L_pH = 1e-300\nC_fF = 80\nIc_uA = 2.0\n", None, 3,
                         "error[numerical]: inverse iteration step 1 gave an iterate of norm 0.0: "
                         "the levels are out of double-precision range", id="harmonic-underflow"),
            pytest.param("design", DESIGN_CFG.replace("M_pH = 2", "M_pH = 1e-200"), None, 0, "",
                         id="coupling-underflow"),
            pytest.param("design", DESIGN_CFG.replace("M_pH = 2", "M_pH = 1e-320"), None, 3,
                         "error[numerical]: k L_b / M overflows double precision at M = 1e-320 pH: "
                         "no geometric bound", id="geometric-bound-overflow"),
        ],
    )
    def test_failure_model(self, cfg_file, tmp_path, capsys, command, text, circuit, code, err):
        # One trigger per kind of failure: a solve that fails on valid input
        # exits 3 (NumericalError), bad input exits 2 (ValueError), each with
        # its message unchanged; a value that underflows to 0 only drops what
        # it would divide (exit 0, nothing on stderr).
        args = [command, "--config", cfg_file(text)]
        if circuit is not None:
            (tmp_path / "c.circuit").write_text(circuit)
            args += ["--circuit", str(tmp_path / "c.circuit")]
        assert main(args) == code
        assert capsys.readouterr().err == (err and err + "\n")

    def test_unwritable_out_is_a_config_error(self, tmp_path, capsys):
        # The output is printed first; a path that cannot be written is then
        # refused like an unreadable config, not raised as an OSError.
        assert main(["reproduce-paper"]) == 0
        table = capsys.readouterr().out
        path = tmp_path / "missing" / "table.txt"
        assert main(["reproduce-paper", "--out", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == table
        assert err == f"error[config]: cannot write output {path}: [Errno 2] No such file or directory: '{path}'\n"


def _field_default(cls, name):
    return next(f.default for f in dataclasses.fields(cls) if f.name == name)


_SQUID = {"L_pH": 150, "C_fF": 80, "Ic_uA": 2.375}
_GRID = FluxGrid()
_CONTROL = ControlParams()


class TestLibraryDefaults:
    """A config that omits an optional key reads the library's default."""

    @pytest.mark.parametrize(
        "command, cfg, defaults",
        [
            (
                cmd_calibrate,
                _SQUID,
                {"grid_points": _GRID.n_points, "phi_half_width_Phi0": _GRID.half_width},
            ),
            (
                cmd_calibrate,
                {**_SQUID, "target_delta_GHz": 2.6},
                dict(zip(("bracket_lo_uA", "bracket_hi_uA"), squidmod.IC_BRACKET_UA)),
            ),
            (cmd_calibrate, _SQUID, {"phi_x_Phi0": _field_default(SquidParams, "phi_x")}),
            (cmd_design, {**_SQUID, "M_pH": 2, "L_b_nH": 2, "N": 1000}, {"k_geom": _field_default(BusParams, "k_geom")}),
            (
                cmd_design,
                {**_SQUID, "M_pH": 2, "L_b_nH": 2, "N": 1000},
                {"grid_points": _GRID.n_points, "phi_half_width_Phi0": _GRID.half_width},
            ),
            (
                lambda cfg: cmd_simulate(cfg, BELL_CIRCUIT, mode="physical"),
                {"n_logical": 2},
                {"delta_GHz": _CONTROL.delta_ghz, "epsilon_GHz": _CONTROL.epsilon_ghz, "J_MHz": _CONTROL.j_mhz},
            ),
        ],
        ids=["grid", "bracket", "phi_x", "k_geom", "design-grid", "controls"],
    )
    def test_omitted_key_gives_the_default_output(self, command, cfg, defaults):
        def output(config):
            result = command(config)
            return result.to_records() if isinstance(result, cli.DesignReport) else json.dumps(result, sort_keys=True)

        assert output(cfg) == output({**cfg, **defaults})


def _readme_key_table() -> dict:
    """README's per-command key table: each command's required keys, its
    optional keys and, for a key in parentheses, the key it is read with."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = text.split("| command | required | optional |\n|---|---|---|\n", 1)[1].split("\n\n", 1)[0]
    table = {}
    for row in rows.splitlines():
        commands, required, optional = row.strip("|").split("|")
        entries = re.findall(r"`(\w+)`(?: \(with ([^)]*)\))?", optional)
        gates = {key: gate for gate, inner in entries for key in re.findall(r"`(\w+)`", inner)}
        for command in re.findall(r"`(\w+)`", commands):
            table[command] = (set(re.findall(r"`(\w+)`", required)), {key for key, _ in entries} | set(gates), gates)
    return table


_REQUIRED_VALUES = {"L_pH": 150, "C_fF": 80, "Ic_uA": 3.0, "M_pH": 2, "L_b_nH": 2, "N": 1000, "n_logical": 1}
_COMMANDS = {"calibrate": cmd_calibrate, "design": cmd_design,
             "simulate": lambda cfg: cmd_simulate(cfg, ""), "compile": lambda cfg: cli.cmd_compile(cfg, "")}


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_readme_key_table_matches_the_cli(command):
    # A key added to a command, or made required or read only with another
    # key, without its README entry fails here.
    table = _readme_key_table()
    assert set(table) == set(cli._COMMAND_KEYS) == set(_COMMANDS)
    required, optional, gates = table[command]
    assert required | optional == cli._COMMAND_KEYS[command] and not required & optional
    assert gates == {key: gate for key, gate in cli._READ_ONLY_WITH.items() if key in optional}
    run = _COMMANDS[command]
    run({key: _REQUIRED_VALUES[key] for key in required})
    for missing in required:
        with pytest.raises(ValueError, match=rf"^missing config key\(s\): {missing}$"):
            run({key: _REQUIRED_VALUES[key] for key in required - {missing}})


def _at_printed_precision(value, printed: str) -> str:
    """``value`` rounded to as many decimals as ``printed`` shows."""
    return f"{value:.{len(printed.partition('.')[2])}f}"


# README's design-point table: quantity -> cmd_reproduce_paper row name.
_README_ROWS = {
    "tunneling, barrier up": "tunneling_unsuppressed_Hz",
    "tunneling, Ic = 2.375 uA": "tunneling_suppressed_GHz",
    "bias splitting at 0.15 mPhi0": "bias_splitting_GHz",
    "effective mutual M^2/L_b": "effective_mutual_fH",
    "coupling strength J": "coupling_J_MHz",
    "geometric bound N_max": "N_max",
    "pi-pulse time": "pi_pulse_ns",
}


def test_readme_design_point_matches_the_commands():
    # README's "The design point, reproduced" prints the table and the J
    # sentence; each number is the code's at the precision printed.
    section = (Path(__file__).resolve().parents[1] / "README.md").read_text().split(
        "## The design point, reproduced", 1)[1]
    prose, table = section.split("| quantity | computed | quoted |", 1)
    rows = {row["name"]: row for row in cmd_reproduce_paper()[0]}
    printed = {}
    for line in table.split("\n\n", 1)[0].splitlines()[2:]:
        quantity, computed, quoted = (cell.strip() for cell in line.strip("|").split("|"))
        printed[quantity] = (computed.split()[0], re.search(r"[\d.]+", quoted).group())
    assert set(printed) == set(_README_ROWS)
    for quantity, (computed, quoted) in printed.items():
        row = rows[_README_ROWS[quantity]]
        assert _at_printed_precision(row["computed"], computed) == computed, quantity
        assert float(quoted) == row["quoted"], quantity

    sentence = re.search(
        r"1 \+ M\^2/\(L L_b\) = ([\d.]+), gives ([\d.]+) MHz, where the bare SQUID would give ([\d.]+) MHz",
        " ".join(prose.split()),
    )
    factor, loaded_j, bare_j = sentence.groups()
    design = cmd_design(parse_config(DEMOS / "design.cfg")).derived
    bare_squid = squidmod.extract_two_level(SquidParams(150.0, 80.0, 3.0))
    bare = busmod.coupling_strength(bare_squid, BusParams(2.0, 2.0, 1000))
    assert _at_printed_precision(design["L_renorm_factor"], factor) == factor == "1.0000133"
    assert _at_printed_precision(design["J_MHz"], loaded_j) == loaded_j == "24.559140"
    assert _at_printed_precision(bare, bare_j) == bare_j == "24.559528"


class TestReproducePaper:
    def test_rows_and_verdict(self):
        rows, overall = cmd_reproduce_paper()
        assert len(rows) == 7
        assert overall
        by_name = {r["name"]: r for r in rows}
        assert by_name["effective_mutual_fH"]["computed"] == pytest.approx(2.0, abs=1e-9)
        assert by_name["N_max"]["computed"] == 1000
        assert by_name["tunneling_unsuppressed_Hz"]["computed"] == pytest.approx(32.2656, rel=1e-5)
        assert by_name["tunneling_unsuppressed_Hz"]["note"] == ""
        assert all(r["ok"] for r in rows)

    def test_rows_are_the_calibrate_and_design_values(self):
        # The table runs the commands users run: calibrate on the design SQUID
        # 0.15 mPhi0 off Phi0/2 and at the suppressed Ic, and design on
        # demos/design.cfg, whose J includes the bus loading of the SQUID.
        design_cfg = parse_config(DEMOS / "design.cfg")
        squid = {key: design_cfg[key] for key in ("L_pH", "C_fF", "Ic_uA")}
        biased = cmd_calibrate({**squid, "phi_x_Phi0": 0.5 + 0.15e-3}).derived
        suppressed = cmd_calibrate({**squid, "Ic_uA": 2.375}).derived
        design = cmd_design(design_cfg).derived
        rows = {row["name"]: row for row in cmd_reproduce_paper()[0]}
        computed = {name: row["computed"] for name, row in rows.items()}
        assert computed == {
            "tunneling_unsuppressed_Hz": biased["delta_GHz"] * 1e9,
            "tunneling_suppressed_GHz": suppressed["delta_GHz"],
            "bias_splitting_GHz": biased["epsilon_GHz"],
            "effective_mutual_fH": design["M_eff_fH"],
            "coupling_J_MHz": design["J_MHz"],
            "N_max": design["N_max"],
            "pi_pulse_ns": suppressed["pi_pulse_ns"],
        }
        assert rows["coupling_J_MHz"]["note"] == f"i_p = {design['i_p_uA']:.4g} uA"
        assert cli._DESIGN_POINT == design_cfg

    def test_three_symmetric_eigensolves(self, monkeypatch):
        # Ic 3.0 uA, 2.375 uA and the bus-loaded 3.0 uA: the biased row's
        # epsilon is 2 i_p dPhi, from its symmetric solve.
        biases, solve = [], squidmod.solve_levels

        def spy(params, **kw):
            biases.append(params.phi_x)
            return solve(params, **kw)

        monkeypatch.setattr(squidmod, "solve_levels", spy)
        cmd_reproduce_paper()
        assert biases == [0.5, 0.5, 0.5]

    def test_cli_exit_zero_and_table(self, capsys):
        assert main(["reproduce-paper"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") >= 8  # 7 rows + overall
        assert "rows: 7" in out

    def test_records_match_table_values(self, capsys):
        assert main(["reproduce-paper", "--format", "records"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[-1]["overall"] is True and records[-1]["rows"] == 7
        rows, _ = cmd_reproduce_paper()
        for rec, row in zip(records[:-1], rows):
            assert rec["computed"] == row["computed"]

    def test_byte_identical_reruns(self, capsys):
        main(["reproduce-paper", "--format", "records"])
        first = capsys.readouterr().out
        main(["reproduce-paper", "--format", "records"])
        second = capsys.readouterr().out
        assert first == second
