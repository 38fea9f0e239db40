"""Command-line harness: configs, reports, exit codes, determinism."""

import dataclasses
import json
import tracemalloc

import pytest

from fluxbus import cli
from fluxbus import squid as squidmod
from fluxbus.cli import (
    ConfigError,
    cmd_calibrate,
    cmd_design,
    cmd_reproduce_paper,
    cmd_simulate,
    main,
    parse_config,
)
from fluxbus.bus import BusParams
from fluxbus.compiler import ControlParams, LogicalRegister
from fluxbus.squid import FluxGrid, SquidParams, TwoLevelParams

SQUID_CFG = """
# design-point rf-SQUID
L_pH = 150
C_fF = 80
Ic_uA = 3.0
phi_x_Phi0 = 0.5
"""

DESIGN_CFG = SQUID_CFG + """
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
        with pytest.raises(ConfigError):
            parse_config("/nonexistent/path.cfg")

    def test_bad_line(self, cfg_file):
        with pytest.raises(ConfigError):
            parse_config(cfg_file("just words\n"))

    def test_missing_key_reported(self):
        with pytest.raises(ConfigError, match="L_pH"):
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
        assert report.flags["double_well"]
        assert not report.flags["delta_at_solver_floor"]

    def test_unsuppressed_flags_floor(self):
        report = cmd_calibrate({"L_pH": 150.0, "C_fF": 80.0, "Ic_uA": 3.0})
        assert report.flags["delta_at_solver_floor"]

    def test_harmonic_branch(self):
        report = cmd_calibrate({"L_pH": 150.0, "C_fF": 80.0, "Ic_uA": 0.0})
        assert not report.flags["double_well"]
        assert report.derived["harmonic_spacing_GHz"] == pytest.approx(45.944, abs=0.01)
        assert report.derived["level_gap_GHz"] == pytest.approx(45.944, rel=1e-3)
        assert "delta_GHz" not in report.derived

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
        cfg = parse_config_text(SQUID_CFG) | {"M_pH": 0.0, "L_b_nH": 2.0, "N": 4}
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
        path.write_text(SQUID_CFG + "M_pH = 10\nL_b_nH = 0.1\nN = 200\n")
        assert main(["design", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error[numerical]:") and "not passive" in err and "N = 200" in err


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
        assert record["duration_ns"] == 0.0

    def test_spectator_metric_physical(self):
        cfg = parse_config_text(SIM_CFG) | {"n_logical": 3, "mode": "physical"}
        record = cmd_simulate(cfg, "CPHASE 0,1\n")
        assert record["spectator_trace_distance"]["2"] < 1e-3

    def test_mode_override(self):
        record = cmd_simulate(parse_config_text(SIM_CFG), "X 0\n", mode="physical")
        assert record["mode"] == "physical"

    def test_circuit_out_of_range(self):
        with pytest.raises(ConfigError):
            cmd_simulate(parse_config_text(SIM_CFG), "X 5\n")


class TestMainExitCodes:
    def test_calibrate_ok(self, cfg_file, capsys):
        assert main(["calibrate", "--config", cfg_file(SQUID_CFG)]) == 0
        out = capsys.readouterr().out
        assert "beta_L" in out

    def test_missing_config_file(self, capsys):
        assert main(["calibrate", "--config", "/nope.cfg"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[config]:")

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
        # so a 30000-point grid passes.  Its delta at the suppressed current
        # agrees with the default grid's to that grid's discretisation error
        # (3-point differences, O(dphi^2): ~7e-6 relative at 4097 points).
        text = "L_pH = 150\nC_fF = 80\nIc_uA = 2.375\ntarget_delta_GHz = 2.6\n"
        derived = []
        for extra in ("", "grid_points = 30000\n"):
            assert main(["calibrate", "--config", cfg_file(text + extra), "--format", "records"]) == 0
            records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
            derived.append({r["key"]: r["value"] for r in records if r["section"] == "derived"})
        default, fine = derived
        assert fine["delta_GHz"] == pytest.approx(default["delta_GHz"], rel=2e-5)
        assert fine["calibrated_Ic_uA"] == pytest.approx(default["calibrated_Ic_uA"], rel=1e-3)

    def test_any_grid_key_builds_the_grid(self, cfg_file, capsys):
        # phi_window_hi alone narrows the window like it does next to grid_points.
        deltas = []
        for extra in ("", "phi_window_hi = 0.9\n", "phi_window_hi = 0.9\ngrid_points = 4097\n"):
            assert main(["calibrate", "--config", cfg_file(SQUID_CFG + extra), "--format", "records"]) == 0
            records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
            deltas.append(next(r["value"] for r in records if r["section"] == "derived" and r["key"] == "delta_GHz"))
        default, window, window_and_points = deltas
        assert window == window_and_points == pytest.approx(3.206309884262737e-08, rel=1e-12)
        assert window != default

    def test_simulate_and_compile(self, cfg_file, tmp_path, capsys):
        cfg = cfg_file(SIM_CFG)
        circuit = tmp_path / "bell.circuit"
        circuit.write_text(BELL_CIRCUIT)
        assert main(["simulate", "--config", cfg, "--circuit", str(circuit), "--format", "records"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["fidelity"] >= 1.0 - 1e-6
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

    def test_solver_floor_calibrate(self, cfg_file, capsys):
        # a ~5e-11 GHz splitting: flagged at the solver floor, still exit 0 and valid JSON
        path = cfg_file("L_pH = 135.6\nC_fF = 99.9\nIc_uA = 3.4\n")
        assert main(["calibrate", "--config", path, "--format", "records"]) == 0

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        lines = capsys.readouterr().out.splitlines()
        records = {r["key"]: r["value"] for r in (json.loads(line, parse_constant=reject) for line in lines)}
        assert records["delta_at_solver_floor"] is True

    def test_zero_splitting_calibrate(self, cfg_file, capsys, monkeypatch):
        # a splitting that underflows to exactly 0: no pi pulse, still exit 0
        def underflowed(params, grid=None):
            return TwoLevelParams(delta_ghz=0.0, epsilon_ghz=0.0, i_p_ua=2.9, at_solver_floor=True)

        monkeypatch.setattr(squidmod, "extract_two_level", underflowed)
        assert main(["calibrate", "--config", cfg_file(SQUID_CFG), "--format", "records"]) == 0
        records = {r["key"]: r["value"] for r in map(json.loads, capsys.readouterr().out.splitlines())}
        assert records["delta_GHz"] == 0.0
        assert "pi_pulse_ns" not in records
        assert "no pi pulse" in records["note"]

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
                         "config key N must be non-negative, got -2", id="N-negative"),
            pytest.param("simulate", SIM_CFG.replace("n_logical = 2", "n_logical = 2.5"),
                         "config key n_logical must be an integer", id="n_logical-fraction"),
            pytest.param("calibrate", SQUID_CFG + "target_delta_GHz = -1\n",
                         "config key target_delta_GHz must be positive", id="target-negative"),
            pytest.param("calibrate", SQUID_CFG + "target_delta_GHz = 2.6\nbracket_lo_uA = 3.0\nbracket_hi_uA = 1.5\n",
                         "bracket_lo_uA = 3.0, bracket_hi_uA = 1.5", id="bracket-reversed"),
            pytest.param("calibrate", SQUID_CFG + "target_delta_GHz = 2.6\nbracket_lo_uA = -1\n",
                         "bracket_lo_uA = -1", id="bracket-negative"),
            pytest.param("calibrate", SWEEP_CFG.replace("sweep_Ic_lo_uA = 2.0", "sweep_Ic_lo_uA = -1")
                         + "sweep_points = 3\n", "sweep_Ic_lo_uA = -1", id="sweep_Ic-negative"),
            pytest.param("calibrate", SQUID_CFG + "phi_window_lo = 1.25\nphi_window_hi = -0.25\n",
                         "phi_window_lo = 1.25, phi_window_hi = -0.25", id="phi_window-reversed"),
            pytest.param("calibrate", SQUID_CFG + "grid_points = 100\n", "config key grid_points must be at least 257",
                         id="grid_points-small"),
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

    def test_duplicate_config_key_refused(self, cfg_file, capsys):
        # Two values for one key are refused, naming both lines, so the later
        # line cannot silently replace the earlier one.
        path = cfg_file(SQUID_CFG + "L_pH = 999\n")
        assert main(["calibrate", "--config", path]) == 2
        assert capsys.readouterr().err == f"error[config]: {path}:7: config key L_pH is already set on line 3\n"

    def test_inverse_iteration_failure_is_numerical(self, cfg_file, capsys, monkeypatch):
        monkeypatch.setattr(squidmod, "_INVERSE_ITERATIONS", 1)
        assert main(["calibrate", "--config", cfg_file(SQUID_CFG)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error[numerical]:") and "inverse iteration did not converge" in err


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
                {"grid_points": _GRID.n_points, "phi_window_lo": _GRID.phi_min, "phi_window_hi": _GRID.phi_max},
            ),
            (
                cmd_calibrate,
                {**_SQUID, "target_delta_GHz": 2.6},
                dict(zip(("bracket_lo_uA", "bracket_hi_uA"), squidmod.IC_BRACKET_UA)),
            ),
            (cmd_calibrate, _SQUID, {"phi_x_Phi0": _field_default(SquidParams, "phi_x")}),
            (cmd_design, {**_SQUID, "M_pH": 2, "L_b_nH": 2, "N": 1000}, {"k_geom": _field_default(BusParams, "k_geom")}),
            (
                lambda cfg: cmd_simulate(cfg, BELL_CIRCUIT, mode="physical"),
                {"n_logical": 2},
                {"delta_GHz": _CONTROL.delta_ghz, "epsilon_GHz": _CONTROL.epsilon_ghz, "J_MHz": _CONTROL.j_mhz},
            ),
        ],
        ids=["grid", "bracket", "phi_x", "k_geom", "controls"],
    )
    def test_omitted_key_gives_the_default_output(self, command, cfg, defaults):
        def output(config):
            result = command(config)
            return result.to_records() if isinstance(result, cli.DesignReport) else json.dumps(result, sort_keys=True)

        assert output(cfg) == output({**cfg, **defaults})


class TestReproducePaper:
    def test_rows_and_verdict(self):
        rows, overall = cmd_reproduce_paper()
        assert len(rows) == 7
        assert overall
        by_name = {r["name"]: r for r in rows}
        assert by_name["effective_mutual_fH"]["computed"] == pytest.approx(2.0, abs=1e-9)
        assert by_name["N_max"]["computed"] == 1000
        assert by_name["tunneling_unsuppressed_Hz"]["note"] == "at solver floor"
        assert all(r["ok"] for r in rows)

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
