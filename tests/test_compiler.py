"""Encoding, gate compilation, and schedule-level gate verification."""

import math
from dataclasses import replace

import numpy as np
import pytest

from fluxbus.cli import cmd_simulate
from fluxbus.compiler import (
    CircuitParseError,
    ControlParams,
    Gate,
    LogicalRegister,
    _moment,
    compile_circuit,
    encode,
    ideal_circuit_unitary,
    init_schedule,
    parse_circuit,
    verify_ifs,
)
from fluxbus.evolve import (
    PulseSchedule,
    QuantumState,
    fidelity,
    logical_process_fidelity,
    reduced_density_matrix,
    run_schedule,
    trace_distance,
)
from fluxbus.spin import SpinHamiltonianSpec, bus_all_to_all, linear_chain_encoded

from code_space_oracle import dense_isometry

IDEAL = ControlParams(mode="ideal")
PHYSICAL = ControlParams(mode="physical")
REG2 = LogicalRegister.default(2)
CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)


def compile_gate(gate, params, reg=REG2, base=None):
    return compile_circuit((gate,), reg, params, base=base)


def gate_fidelity(gate, params, target, reg=REG2, base=None):
    return logical_process_fidelity(compile_gate(gate, params, reg, base), target, reg)


def pi_flip(qubit, delta_ghz, n_qubits, mode="physical"):
    (segment,) = _moment([("x_flip", qubit)], ControlParams(delta_ghz=delta_ghz, mode=mode), n_qubits)
    return segment


class TestEncoding:
    def test_code_words(self):
        reg = LogicalRegister.default(1)
        # |0_L> = up-down = |01>, |1_L> = down-up = |10>
        assert encode("0", reg).amplitudes[0b01] == 1.0
        assert encode("1", reg).amplitudes[0b10] == 1.0

    def test_two_pair_product(self):
        assert encode("01", REG2).amplitudes[0b0110] == 1.0

    def test_bad_bits_rejected(self):
        with pytest.raises(ValueError):
            encode("0", REG2)
        with pytest.raises(ValueError):
            encode("02", REG2)

    def test_register_validation(self):
        with pytest.raises(ValueError):
            LogicalRegister(((0, 1), (1, 2)))
        with pytest.raises(ValueError):
            LogicalRegister(((0, 3),))

    def test_isometry_columns_are_code_words(self):
        iso = dense_isometry(REG2)
        assert iso.shape == (16, 4)
        assert np.allclose(iso.conj().T @ iso, np.eye(4), atol=1e-15)
        assert iso[0b0110, 0b01] == 1.0
        assert REG2.code_indices().tolist() == [0b0101, 0b0110, 0b1001, 0b1010]

    def test_custom_pairing(self):
        reg = LogicalRegister(((1, 0), (3, 2)))
        # pair 0 has a = qubit 1, b = qubit 0: |0_L> puts the down spin on 0
        assert encode("00", reg).amplitudes[0b1010] == 1.0


class TestControlParams:
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["delta_ghz", "epsilon_ghz", "j_mhz"])
    def test_non_finite_strengths_rejected(self, field, value):
        # nan <= 0 is False, so the positivity check alone lets NaN and inf
        # through to the first segment that carries them.
        with pytest.raises(ValueError, match=rf"^{field} must be finite"):
            ControlParams(**{field: value})


class TestPiPulse:
    def test_duration_at_design_tunneling(self):
        seg = pi_flip(0, 2.6, n_qubits=2)
        assert seg.duration_ns == pytest.approx(0.1923, abs=1e-4)
        assert seg.delta_ghz[0] == 2.6 and seg.delta_ghz[1] == 0.0

    def test_duration_vanishes_for_fast_tunneling(self):
        assert pi_flip(0, 1e6, n_qubits=1).duration_ns == pytest.approx(0.0, abs=1e-6)

    def test_double_flip_is_identity_up_to_phase(self):
        spec = bus_all_to_all(2, 25.0)
        seg = pi_flip(0, 2.6, n_qubits=2)
        sched = PulseSchedule((seg, seg), spec)
        state = QuantumState(np.array([0.6, 0.0, 0.8j, 0.0]))
        out = run_schedule(state, sched)
        assert fidelity(state, out) == pytest.approx(1.0, abs=1e-3)

    def test_ideal_variant(self):
        seg = pi_flip(1, 2.6, n_qubits=2, mode="ideal")
        assert seg.ideal_op == ("x_flip", 1)


class TestSingleQubitGates:
    def test_rz_zero_is_empty(self):
        assert compile_gate(Gate("RZ", (0,), 0.0), IDEAL).segments == ()

    @pytest.mark.parametrize("mode,tol", [("ideal", 1e-6), ("physical", 2e-2)])
    def test_logical_x_maps_code_words(self, mode, tol):
        params = ControlParams(mode=mode)
        out = run_schedule(encode("00", REG2), compile_gate(Gate("X", (0,)), params))
        assert fidelity(encode("10", REG2), out) >= 1.0 - tol

    def test_logical_x_ideal_process_fidelity(self):
        x = np.kron(np.array([[0, 1], [1, 0]]), np.eye(2)).astype(complex)
        res = gate_fidelity(Gate("X", (0,)), IDEAL, x)
        assert res.fidelity >= 1.0 - 1e-6

    def test_rz_phases_one_state(self):
        # Rz(pi/2) phases |1_L> by e^{i pi/2} relative to |0_L>.
        sched = compile_gate(Gate("RZ", (0,), math.pi / 2), IDEAL)
        plus = QuantumState(
            (encode("00", REG2).amplitudes + encode("10", REG2).amplitudes) / math.sqrt(2)
        )
        out = run_schedule(plus, sched)
        amp0 = out.amplitudes[REG2.code_indices()[0b00]]
        amp1 = out.amplitudes[REG2.code_indices()[0b10]]
        assert amp1 / amp0 == pytest.approx(np.exp(1j * math.pi / 2), abs=1e-12)

    @pytest.mark.parametrize("name,angle", [("RX", 0.7), ("RZ", 1.1), ("H", None), ("Z", None)])
    def test_ideal_gates_exact(self, name, angle):
        gate = Gate(name, (0,), angle)
        target = ideal_circuit_unitary((gate,), 2)
        res = gate_fidelity(gate, IDEAL, target)
        assert res.fidelity >= 1.0 - 1e-9
        assert res.max_leakage < 1e-9

    @pytest.mark.parametrize("name,angle,leak_tol", [
        ("X", None, 1e-3),
        ("Z", None, 1e-9),
        ("RZ", 1.1, 1e-9),
        ("H", None, 1.5e-2),
        ("RX", 0.7, 1.5e-2),
    ])
    def test_physical_gates_fidelity_and_leakage(self, name, angle, leak_tol):
        gate = Gate(name, (0,), angle)
        target = ideal_circuit_unitary((gate,), 2)
        res = gate_fidelity(gate, PHYSICAL, target)
        assert res.fidelity >= 0.98
        assert res.max_leakage < leak_tol

    def test_physical_rz_is_exact(self):
        gate = Gate("RZ", (0,), 1.1)
        target = ideal_circuit_unitary((gate,), 2)
        res = gate_fidelity(gate, PHYSICAL, target)
        assert res.fidelity >= 1.0 - 1e-9

    @pytest.mark.parametrize("mode", ["physical", "ideal"])
    @pytest.mark.parametrize("turns", [1, -1, 1000, -1000])
    def test_rz_angle_reduced_by_its_period(self, mode, turns):
        # exp(-i theta/4 (Z_a - Z_b)) has period 4 pi on the full register,
        # so theta + 4 pi m compiles to the pulse of theta.
        params = ControlParams(mode=mode)
        angles = (0.7, 0.7 + 4.0 * math.pi * turns)
        durations = [
            [s.duration_ns for s in compile_gate(Gate("RZ", (0,), theta), params).segments]
            for theta in angles
        ]
        assert durations[1] == pytest.approx(durations[0], abs=1e-9)
        base, shifted = (cmd_simulate({"n_logical": 2}, f"H 0\nRZ 0,{theta!r}\nH 0\n", mode=mode) for theta in angles)
        assert shifted["segments"] == base["segments"]
        for key in ("duration_ns", "fidelity", "leakage", "spectator_trace_distance", "logical_probabilities"):
            assert shifted[key] == pytest.approx(base[key], abs=1e-9)

    def test_unsupported_gate(self):
        with pytest.raises(ValueError):
            Gate("SWAP", (0, 1))

    def test_out_of_range_operand(self):
        with pytest.raises(ValueError):
            compile_gate(Gate("X", (5,)), IDEAL)
        with pytest.raises(ValueError, match="non-negative"):
            Gate("X", (-1,))


class TestCphase:
    def test_interaction_wait_duration(self):
        segs = compile_gate(Gate("CPHASE", (0, 1)), IDEAL).segments
        waits = [s for s in segs if s.mode == "physical" and s.delta_ghz is None and s.epsilon_ghz is None]
        assert len(waits) == 1
        assert waits[0].duration_ns == pytest.approx(1.25, rel=1e-12)  # 1/(32 J)

    def test_ideal_logical_action(self):
        res = gate_fidelity(Gate("CPHASE", (0, 1)), IDEAL, CZ)
        assert res.fidelity >= 1.0 - 1e-9
        assert res.max_leakage < 1e-9

    def test_phases_basis_states(self):
        sched = compile_gate(Gate("CPHASE", (0, 1)), IDEAL)
        iso = dense_isometry(REG2)
        logical = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
        out = run_schedule(QuantumState(iso @ logical), sched)
        code = iso.conj().T @ out.amplitudes
        ratios = code / code[0]
        assert np.allclose(ratios, [1.0, 1.0, 1.0, -1.0], atol=1e-12)

    def test_physical_mode_meets_design_fidelity(self):
        res = gate_fidelity(Gate("CPHASE", (0, 1)), PHYSICAL, CZ)
        assert res.fidelity >= 0.99
        assert res.max_leakage < 1e-2

    def test_spectator_pair_untouched(self):
        reg = LogicalRegister.default(3)
        iso = dense_isometry(reg)
        logical = np.kron(np.kron([1, 0], [0, 1]), [1 / math.sqrt(2), 1j / math.sqrt(2)])
        psi0 = QuantumState(iso @ logical.astype(complex))
        for mode, tol in (("ideal", 1e-10), ("physical", 1e-3)):
            out = run_schedule(psi0, compile_gate(Gate("CPHASE", (0, 1)), ControlParams(mode=mode), reg))
            rho0 = reduced_density_matrix(psi0, list(reg.pairs[2]))
            rho1 = reduced_density_matrix(out, list(reg.pairs[2]))
            assert trace_distance(rho0, rho1) <= tol

    def test_compiled_cphase_is_diagonal_on_code_space(self):
        sched = compile_gate(Gate("CPHASE", (0, 1)), IDEAL)
        iso = dense_isometry(REG2)
        action = np.zeros((4, 4), dtype=complex)
        for col in range(4):
            out = run_schedule(QuantumState(iso[:, col]), sched)
            action[:, col] = iso.conj().T @ out.amplitudes
        off_diag = action - np.diag(np.diag(action))
        assert np.max(np.abs(off_diag)) < 1e-9
        zz = np.diag([1.0, -1.0, -1.0, 1.0])
        assert np.max(np.abs(action @ zz - zz @ action)) < 1e-9

    def test_overlapping_operands_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            Gate("CPHASE", (0, 0))

    def test_pairing_arbitrariness(self):
        for pairs in (((0, 1), (2, 3)), ((1, 0), (3, 2)), ((0, 2), (1, 3))):
            reg = LogicalRegister(pairs)
            res = gate_fidelity(Gate("CPHASE", (0, 1)), IDEAL, CZ, reg)
            assert res.fidelity >= 1.0 - 1e-9


class TestCompileCircuit:
    def test_empty_circuit(self):
        sched = compile_circuit((), REG2, IDEAL)
        assert sched.segments == ()
        out = run_schedule(encode("00", REG2), sched)
        assert fidelity(encode("00", REG2), out) == pytest.approx(1.0, abs=1e-14)

    def test_cnot_flips_target_when_control_set(self):
        circuit = (Gate("CNOT", (0, 1)),)
        sched = compile_circuit(circuit, REG2, IDEAL)
        out = run_schedule(encode("10", REG2), sched)
        assert fidelity(encode("11", REG2), out) >= 1.0 - 1e-6

    def test_cnot_process_fidelity(self):
        circuit = (Gate("CNOT", (0, 1)),)
        sched = compile_circuit(circuit, REG2, IDEAL)
        res = logical_process_fidelity(sched, ideal_circuit_unitary(circuit, 2), REG2)
        assert res.fidelity >= 1.0 - 1e-9

    def test_bell_state_preparation(self):
        circuit = parse_circuit("H 0\nCNOT 0,1\n")
        sched = compile_circuit(circuit, REG2, IDEAL)
        out = run_schedule(encode("00", REG2), sched)
        bell = (encode("00", REG2).amplitudes + encode("11", REG2).amplitudes) / math.sqrt(2)
        assert fidelity(QuantumState(bell), out) >= 1.0 - 1e-6

    def test_out_of_range_circuit(self):
        with pytest.raises(ValueError):
            compile_circuit((Gate("X", (7,)),), REG2, IDEAL)

    def test_ifs_closure_after_each_gate(self):
        # Starting from a code-space superposition, every compiled gate must
        # return (almost) all amplitude to the code space.  The physical
        # bound reflects the measured square-pulse flip error at the design
        # J/delta ratio; see the x-rotation tilt analysis in the module docs.
        gates = [
            Gate("H", (0,)),
            Gate("RX", (0,), 0.6),
            Gate("CPHASE", (0, 1)),
            Gate("X", (1,)),
            Gate("CNOT", (0, 1)),
        ]
        iso = dense_isometry(REG2)
        logical = np.array([0.5, 0.5j, -0.5, 0.5], dtype=complex)
        for mode, tol in (("ideal", 1e-9), ("physical", 2e-2)):
            params = ControlParams(mode=mode)
            for gate in gates:
                sched = compile_circuit((gate,), REG2, params)
                state = run_schedule(QuantumState(iso @ logical), sched)
                leak = 1.0 - float(np.linalg.norm(iso.conj().T @ state.amplitudes) ** 2)
                assert leak < tol


class TestChainTopology:
    def test_gates_on_encoded_linear_chain(self):
        # Alternate coupling graph: intra-pair J_Q = 40 MHz, cross links 25 MHz.
        # Every wait is timed from the graph, so no control parameter names J_Q.
        base = linear_chain_encoded(2, 40.0, 25.0)
        circuit = parse_circuit("H 0\nCNOT 0,1\n")
        sched = compile_circuit(circuit, REG2, IDEAL, base=base)
        res = logical_process_fidelity(sched, ideal_circuit_unitary(circuit, 2), REG2)
        assert res.fidelity >= 1.0 - 1e-9
        assert res.max_leakage < 1e-9

    def test_base_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compile_circuit((), REG2, IDEAL, base=linear_chain_encoded(3, 40.0, 25.0))

    def test_cphase_between_uncoupled_pairs_rejected(self):
        # Pairs 0 and 2 of the chain share no coupling, so no wait makes a CPHASE.
        reg = LogicalRegister.default(3)
        with pytest.raises(ValueError, match=r"\(0, 1\) and \(4, 5\)"):
            compile_gate(Gate("CPHASE", (0, 2)), IDEAL, reg, linear_chain_encoded(3, 40.0, 25.0))

    def test_unequal_cross_couplings_rejected(self):
        coupling = bus_all_to_all(4, 25.0).coupling_mhz.copy()
        coupling[0, 3] = coupling[3, 0] = 30.0
        base = SpinHamiltonianSpec(coupling)
        with pytest.raises(ValueError, match=r"qubit 0 couples unequally to pair \(2, 3\)"):
            compile_gate(Gate("CPHASE", (0, 1)), IDEAL, base=base)

    @pytest.mark.parametrize("gate", [Gate("CPHASE", (0, 1)), Gate("RX", (0,), 0.7)])
    def test_spectator_seeing_a_pair_unequally_rejected(self, gate):
        # Qubit 0 couples to spectator pair (4, 5) with 30 and 25 MHz, so that
        # pair is not hidden in its code space: ideal CPHASE 0,1 would reach
        # only F = 0.99884 and RX 0,0.7 F = 0.99511 with 4.9e-3 leakage.
        coupling = bus_all_to_all(6, 25.0).coupling_mhz.copy()
        coupling[0, 4] = coupling[4, 0] = 30.0
        base = SpinHamiltonianSpec(coupling)
        with pytest.raises(ValueError, match=r"qubit 0 couples unequally to pair \(4, 5\) \(30.0 and 25.0 MHz\)"):
            compile_gate(gate, IDEAL, LogicalRegister.default(3), base)

    @pytest.mark.parametrize("gate", [Gate("RX", (0,), 0.7), Gate("H", (0,)), Gate("CNOT", (1, 0))])
    def test_zero_intra_pair_coupling_rejected(self, gate):
        with pytest.raises(ValueError, match=r"pair \(0, 1\)"):
            compile_gate(gate, IDEAL, base=linear_chain_encoded(2, 0.0, 25.0))

    @pytest.mark.parametrize("text", ["CPHASE 0,1", "RX 0,0.7"])
    def test_bus_coupling_read_from_base(self, text):
        # A 40 MHz bus compiled with the default 25 MHz controls: J comes from the base.
        circuit = parse_circuit(text)
        sched = compile_circuit(circuit, REG2, IDEAL, base=bus_all_to_all(4, 40.0))
        res = logical_process_fidelity(sched, ideal_circuit_unitary(circuit, 2), REG2)
        assert abs(res.fidelity - 1.0) < 1e-12


class TestInitSchedule:
    def test_zero_pairs_empty_schedule(self):
        reg = LogicalRegister(())
        sched = init_schedule(reg)
        assert sched.segments == ()

    def test_one_pair_single_pulse(self):
        sched = init_schedule(LogicalRegister.default(1), PHYSICAL)
        assert len(sched.segments) == 1
        seg = sched.segments[0]
        assert seg.duration_ns == pytest.approx(1.0 / (2 * 2.6), rel=1e-12)
        assert np.nonzero(seg.delta_ghz)[0].tolist() == [1]  # the b qubit

    @pytest.mark.parametrize("n_pairs", [1, 2, 3])
    def test_physical_initialization_fidelity(self, n_pairs):
        reg = LogicalRegister.default(n_pairs)
        sched = init_schedule(reg, PHYSICAL)
        out = run_schedule(QuantumState.basis(reg.n_physical, 0), sched)
        assert fidelity(encode("0" * n_pairs, reg), out) >= 0.999

    def test_uncompensated_initialization_degrades(self):
        # The same flips without their counter-biases drift off resonance.
        reg = LogicalRegister.default(3)
        sched = init_schedule(reg, PHYSICAL)
        uncompensated = PulseSchedule(tuple(replace(seg, epsilon_ghz=None) for seg in sched.segments), sched.base)
        out = run_schedule(QuantumState.basis(reg.n_physical, 0), uncompensated)
        f = fidelity(encode("000", reg), out)
        assert 0.95 < f < 0.999

    def test_bus_neutral_after_init(self):
        # collective sigma_z (net flux on the bus) is zero on the code space
        reg = LogicalRegister.default(2)
        out = run_schedule(
            QuantumState.basis(4, 0), init_schedule(reg, ControlParams(mode="ideal"))
        )
        # sum_q z_q = 4 - 2 (number of 1 bits) on each basis state
        collective = np.array([4.0 - 2.0 * bin(i).count("1") for i in range(16)])
        assert abs(np.vdot(out.amplitudes, collective * out.amplitudes)) < 1e-12


class TestVerifyIfs:
    def test_code_space_product_states_exact_zero(self):
        spec = bus_all_to_all(4, 25.0)
        rng = np.random.default_rng(12)
        for _ in range(20):
            amps = []
            for _ in range(2):
                v = rng.normal(size=2) + 1j * rng.normal(size=2)
                v /= np.linalg.norm(v)
                pair = np.zeros(4, dtype=complex)
                pair[0b01], pair[0b10] = v
                amps.append(pair)
            state = QuantumState(np.kron(amps[0], amps[1]))
            assert verify_ifs(state, spec) == 0.0

    def test_two_flipped_pairs(self):
        spec = bus_all_to_all(4, 25.0)
        assert verify_ifs(QuantumState.basis(4, 0), spec) == pytest.approx(4.0, abs=1e-12)

    def test_flipped_pair_with_code_spectator(self):
        spec = bus_all_to_all(4, 25.0)
        state = QuantumState.basis(4, 0b0001)  # pair 0 flipped, pair 1 encoded
        assert verify_ifs(state, spec) == 0.0

    def test_mixed_direction_product_state_positive(self):
        spec = bus_all_to_all(4, 25.0)
        plus = QuantumState(np.full(16, 0.25, dtype=complex))
        assert verify_ifs(plus, spec) > 0.0

    def test_zero_coupling(self):
        spec = SpinHamiltonianSpec(np.zeros((4, 4)))
        assert verify_ifs(QuantumState.basis(4, 0), spec) == 0.0


class TestCircuitText:
    def test_round_trip_grammar(self):
        text = """
        # Bell pair then a rotation
        H 0
        CNOT 0,1
        RZ 1,0.785398
        X 0        # flip back
        CPHASE 0,1
        """
        circuit = parse_circuit(text)
        names = [g.name for g in circuit]
        assert names == ["H", "CNOT", "RZ", "X", "CPHASE"]
        assert circuit[2].angle == pytest.approx(0.785398)

    def test_bad_lines_rejected(self):
        for text in ("FOO 0", "H", "H 0,1", "RZ 0", "CNOT 0", "CNOT 0,0", "RX 0,abc"):
            with pytest.raises(CircuitParseError):
                parse_circuit(text)

    @pytest.mark.parametrize(
        "line, reason",
        [
            ("X 0,1,2", "X takes 1 operand(s)"),
            ("CNOT 0", "CNOT takes 2 operand(s)"),
            ("CNOT 0,1,2", "CNOT takes 2 operand(s)"),
            ("RX 0", "RX takes 1 operand(s)"),
            ("RX 0,1,0.5", "RX takes 1 operand(s)"),
            ("H 0,0.5", "H takes 1 operand(s)"),
            ("FOO 0", "unsupported gate 'FOO'"),
            ("RX 0,abc", "could not convert string to float: 'abc'"),
            ("X 0,", "X takes 1 operand(s)"),
        ],
    )
    def test_malformed_line_names_its_line(self, line, reason):
        # Gate's rule, reported against the line that broke it
        with pytest.raises(CircuitParseError) as info:
            parse_circuit(f"H 0\n# comment\n{line}\nX 1\n")
        assert str(info.value) == f"line 3: {reason}"

    def test_unsupported_gate_is_a_value_error(self):
        with pytest.raises(ValueError, match="unsupported gate 'FOO'"):
            Gate("FOO", (0,))

    def test_parse_returns_a_tuple_of_gates(self):
        circuit = parse_circuit("h 0\ncnot 0, 1  # entangle\n\nrz 1, -0.5\nCPHASE 1,0\n")
        assert circuit == (
            Gate("H", (0,)),
            Gate("CNOT", (0, 1)),
            Gate("RZ", (1,), -0.5),
            Gate("CPHASE", (1, 0)),
        )
        assert type(circuit) is tuple

    def test_ideal_unitary_refuses_qubit_outside_register(self):
        with pytest.raises(ValueError, match="outside the register"):
            ideal_circuit_unitary(parse_circuit("X 5"), 2)

    def test_ideal_circuit_unitary_composition(self):
        circuit = parse_circuit("H 0\nCNOT 0,1\n")
        u = ideal_circuit_unitary(circuit, 2)
        bell = u @ np.array([1, 0, 0, 0], dtype=complex)
        assert np.allclose(np.abs(bell), [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)], atol=1e-14)
