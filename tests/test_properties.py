"""Invariants checked over generated circuits, states and couplings."""

import math
from functools import reduce

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxbus.compiler import (
    ControlParams,
    Gate,
    GateCircuit,
    LogicalRegister,
    compile_circuit,
    ideal_circuit_unitary,
    verify_ifs,
)
from fluxbus.evolve import (
    PulseSchedule,
    PulseSegment,
    QuantumState,
    evolve_segment,
    logical_process_fidelity,
    run_schedule,
)
from fluxbus.spin import SpinHamiltonianSpec, build_hamiltonian

# Fixed example sequence: the suite gives the same verdict on every run.
PROPERTY = settings(deadline=None, derandomize=True)

_ANGLES = st.floats(-4.0 * math.pi, 4.0 * math.pi, allow_nan=False)


@st.composite
def circuits(draw, max_logical, max_gates):
    n = draw(st.integers(1, max_logical))
    names = ["RX", "RZ", "X", "Z", "H"] + (["CPHASE", "CNOT"] if n >= 2 else [])
    gates = []
    for _ in range(draw(st.integers(0, max_gates))):
        name = draw(st.sampled_from(names))
        if name in ("CPHASE", "CNOT"):
            qubits = tuple(draw(st.permutations(range(n)))[:2])
        else:
            qubits = (draw(st.integers(0, n - 1)),)
        angle = draw(_ANGLES) if name in ("RX", "RZ") else None
        gates.append(Gate(name, qubits, angle))
    return n, GateCircuit(tuple(gates))


def _reference_matrix(gate: Gate) -> np.ndarray:
    if gate.name == "RX":
        c, s = math.cos(gate.angle / 2.0), math.sin(gate.angle / 2.0)
        return np.array([[c, -1j * s], [-1j * s, c]])
    if gate.name == "RZ":
        return np.diag(np.exp([-0.5j * gate.angle, 0.5j * gate.angle]))
    return {
        "X": np.array([[0, 1], [1, 0]]),
        "Z": np.diag([1, -1]),
        "H": np.array([[1, 1], [1, -1]]) / math.sqrt(2.0),
        "CPHASE": np.diag([1, 1, 1, -1]),
        "CNOT": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
    }[gate.name]


def _kron_lift(mat: np.ndarray, qubits: tuple, n: int) -> np.ndarray:
    """sum_{r,c} mat[r, c] (x)_q (|r_q><c_q| on operand q, identity elsewhere)."""
    k = len(qubits)
    full = np.zeros((2**n, 2**n), dtype=complex)
    for r in range(2**k):
        for c in range(2**k):
            factors = [np.eye(2)] * n
            for pos, q in enumerate(qubits):
                unit = np.zeros((2, 2))
                unit[(r >> (k - 1 - pos)) & 1, (c >> (k - 1 - pos)) & 1] = 1.0
                factors[q] = unit
            full += mat[r, c] * reduce(np.kron, factors)
    return full


@PROPERTY
@given(circuits(max_logical=4, max_gates=6))
def test_ideal_unitary_matches_kron_product(case):
    n, circuit = case
    expected = np.eye(2**n, dtype=complex)
    for gate in circuit.gates:
        expected = _kron_lift(_reference_matrix(gate), gate.qubits, n) @ expected
    assert np.max(np.abs(ideal_circuit_unitary(circuit, n) - expected)) <= 1e-12


@settings(PROPERTY, max_examples=25)
@given(circuits(max_logical=3, max_gates=3))
def test_ideal_mode_schedules_reach_the_logical_unitary(case):
    n, circuit = case
    reg = LogicalRegister.default(n)
    schedule = compile_circuit(circuit, reg, ControlParams(mode="ideal"))
    result = logical_process_fidelity(schedule, ideal_circuit_unitary(circuit, n), reg)
    assert result.fidelity >= 1.0 - 1e-12
    assert result.max_leakage <= 1e-12


@st.composite
def block_uniform_couplings(draw):
    """Couplings (MHz) constant on each pair-pair block, as on the bus and the
    encoded chain; intra-pair links are free.  Returns the spec and register."""
    n_logical = draw(st.integers(1, 4))
    n = 2 * n_logical
    strength = st.floats(-100.0, 100.0, allow_nan=False)
    coupling = np.zeros((n, n))
    for p in range(n_logical):
        coupling[2 * p + 1, 2 * p] = draw(strength)
        for q in range(p):
            coupling[2 * p : 2 * p + 2, 2 * q : 2 * q + 2] = draw(strength)
    coupling = np.tril(coupling, -1) + np.tril(coupling, -1).T
    spec = SpinHamiltonianSpec(n, np.zeros(n), np.zeros(n), coupling)
    return spec, LogicalRegister.default(n_logical)


@PROPERTY
@given(block_uniform_couplings(), st.data())
def test_code_space_is_interaction_free(case, data):
    spec, reg = case
    weights = data.draw(
        st.lists(
            st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
            min_size=2**reg.n_logical,
            max_size=2**reg.n_logical,
        ).filter(lambda w: np.linalg.norm(w) > 1e-3)
    )
    logical = np.asarray(weights, dtype=complex)
    state = QuantumState(reg.isometry() @ (logical / np.linalg.norm(logical)))
    assert verify_ifs(state, spec, reg) == 0.0


_DRIVES = st.floats(-5.0, 5.0, allow_nan=False)


@st.composite
def segment_specs(draw, max_qubits):
    """Any driven subset (k = 0..N), random biases, random symmetric
    couplings (MHz) under a random topology tag."""
    n = draw(st.integers(1, max_qubits))
    driven = draw(st.permutations(range(n)))[: draw(st.integers(0, n))]
    delta = np.zeros(n)
    for q in driven:
        delta[q] = draw(_DRIVES.filter(lambda d: d != 0.0))
    epsilon = np.array([draw(_DRIVES) for _ in range(n)])
    lower = np.zeros((n, n))
    for i in range(n):
        for j in range(i):
            lower[i, j] = draw(st.floats(-100.0, 100.0, allow_nan=False))
    topology = draw(st.sampled_from(["custom", "bus_all_to_all", "linear_chain_encoded"]))
    return SpinHamiltonianSpec(n, delta, epsilon, lower + lower.T, topology)


def _random_state(data, n):
    parts = st.floats(-1.0, 1.0, allow_nan=False)
    amp = np.array([complex(data.draw(parts), data.draw(parts)) for _ in range(2**n)])
    amp[0] += 2.0  # keeps the norm away from 0
    return QuantumState(amp / np.linalg.norm(amp))


@settings(PROPERTY, max_examples=60)
@given(segment_specs(max_qubits=8), st.floats(0.0, 10.0, allow_nan=False), st.data())
def test_evolve_segment_matches_dense_oracle(spec, t_ns, data):
    state = _random_state(data, spec.n_qubits)
    w, v = np.linalg.eigh(build_hamiltonian(spec).matrix)
    expected = v @ (np.exp(-2j * math.pi * w * t_ns) * (v.conj().T @ state.amplitudes))
    assert np.max(np.abs(evolve_segment(state, spec, t_ns).amplitudes - expected)) <= 1e-12


@st.composite
def physical_schedules(draw, max_qubits, max_segments):
    """Physical segments over a random base: each keeps or overrides the
    drives, as the compiler's pulses and waits do."""
    base = draw(segment_specs(max_qubits))
    n = base.n_qubits
    segments = []
    for _ in range(draw(st.integers(0, max_segments))):
        delta = epsilon = None
        if draw(st.booleans()):
            delta = np.zeros(n)
            for q in draw(st.sets(st.integers(0, n - 1), max_size=2)):
                delta[q] = draw(_DRIVES)
        if draw(st.booleans()):
            epsilon = np.array([draw(_DRIVES) for _ in range(n)])
        duration = draw(st.floats(0.0, 5.0, allow_nan=False))
        segments.append(PulseSegment(duration, delta, epsilon))
    return PulseSchedule(tuple(segments), base)


@settings(PROPERTY, max_examples=40)
@given(physical_schedules(max_qubits=5, max_segments=6), st.data())
def test_physical_schedules_are_unitary(schedule, data):
    n = schedule.base.n_qubits
    state = _random_state(data, n)
    assert abs(np.linalg.norm(run_schedule(state, schedule).amplitudes) - 1.0) <= 1e-12
    columns = [run_schedule(QuantumState.basis(n, i), schedule).amplitudes for i in range(2**n)]
    u = np.column_stack(columns)
    assert np.max(np.abs(u.conj().T @ u - np.eye(2**n))) <= 1e-12
