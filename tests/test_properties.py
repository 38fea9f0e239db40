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
from fluxbus.evolve import QuantumState, logical_process_fidelity
from fluxbus.spin import SpinHamiltonianSpec

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
