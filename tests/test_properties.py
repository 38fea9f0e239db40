"""Invariants checked over generated circuits, states and couplings."""

import math
from dataclasses import replace
from functools import reduce

import numpy as np
from scipy.linalg import eigh_tridiagonal
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fluxbus.bus import BusParams, inductive_energy, pairwise_inductive_energy, solve_currents
from fluxbus.compiler import (
    ControlParams,
    Gate,
    LogicalRegister,
    compile_circuit,
    encode,
    ideal_circuit_unitary,
    verify_ifs,
)
from fluxbus.evolve import (
    PulseSchedule,
    PulseSegment,
    QuantumState,
    _block_propagator,
    _gather,
    apply_on_qubits,
    evolve_segment,
    logical_process_fidelity,
    run_schedule,
)
from fluxbus.constants import (
    ENERGY_GHZ_PER_PH_UA2,
    FLUX_ENERGY_GHZ_PH,
    JOSEPHSON_GHZ_PER_UA,
    KINETIC_GHZ_FF,
    PHI0_PH_UA,
)
from fluxbus.spin import (
    SpinHamiltonianSpec,
    add_biases,
    build_hamiltonian,
    coupling_diagonal,
    inter_pair_mask,
)
from fluxbus.squid import FluxGrid, SquidParams, potential, solve_levels

from code_space_oracle import dense_isometry
from hamiltonian_oracle import kron_hamiltonian

# Fixed example sequence: the suite gives the same verdict on every run.
PROPERTY = settings(deadline=None, derandomize=True)

_ANGLES = st.floats(-4.0 * math.pi, 4.0 * math.pi, allow_nan=False)


@st.composite
def circuits(draw, max_logical, max_gates, angles=_ANGLES):
    n = draw(st.integers(1, max_logical))
    names = ["RX", "RZ", "X", "Z", "H"] + (["CPHASE", "CNOT"] if n >= 2 else [])
    gates = []
    for _ in range(draw(st.integers(0, max_gates))):
        name = draw(st.sampled_from(names))
        if name in ("CPHASE", "CNOT"):
            qubits = tuple(draw(st.permutations(range(n)))[:2])
        else:
            qubits = (draw(st.integers(0, n - 1)),)
        angle = draw(angles) if name in ("RX", "RZ") else None
        gates.append(Gate(name, qubits, angle))
    return n, tuple(gates)


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
    for gate in circuit:
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


# Angles at which a rotation's reduction (period 4 pi) or its wait (period
# 2 pi) lands on zero, mixed with generic ones.
_SPECIAL_ANGLES = (0.0, 2.0 * math.pi, -2.0 * math.pi, 4.0 * math.pi, -4.0 * math.pi)
_EVERY_GATE = tuple(
    [Gate("RX", (0,), a) for a in _SPECIAL_ANGLES + (1.0, -1.0)]
    + [Gate("RZ", (1,), a) for a in _SPECIAL_ANGLES + (1.0, -1.0)]
    + [Gate("X", (0,)), Gate("Z", (1,)), Gate("H", (0,)), Gate("CPHASE", (0, 1)), Gate("CNOT", (1, 0))]
)


def _op_duration(op, params):
    """Closed-form physical duration of one ideal op's pulse."""
    if op[0] == "z_rot":
        return abs(op[2]) / (2.0 * math.pi * params.epsilon_ghz)
    turns = 0.5 if op[0] == "x_flip" else (-op[2] / (2.0 * math.pi)) % 2.0
    return turns / params.delta_ghz


@PROPERTY
@given(circuits(max_logical=4, max_gates=8, angles=st.one_of(st.sampled_from(_SPECIAL_ANGLES), _ANGLES)))
@example((2, _EVERY_GATE))
def test_physical_and_ideal_compiles_list_the_same_moments(case):
    n, circuit = case
    reg = LogicalRegister.default(n)
    physical_params = ControlParams(mode="physical")
    physical = compile_circuit(circuit, reg, physical_params).segments
    ideal = iter(compile_circuit(circuit, reg, ControlParams(mode="ideal")).segments)
    for seg in physical:
        x_qubits = set() if seg.delta_ghz is None else set(np.flatnonzero(seg.delta_ghz).tolist())
        z_qubits = set() if seg.epsilon_ghz is None else set(np.flatnonzero(seg.epsilon_ghz).tolist())
        if not x_qubits and not z_qubits:
            wait = next(ideal)
            assert wait.mode == "physical" and wait.delta_ghz is None and wait.epsilon_ghz is None
            assert wait.duration_ns == seg.duration_ns
            continue
        # A drive moment is of one kind: flips and x rotations, or z rotations.
        assert not (x_qubits and z_qubits)
        ops = [next(ideal) for _ in x_qubits | z_qubits]
        assert all(op.mode == "ideal" for op in ops)
        assert {op.ideal_op[1] for op in ops} == x_qubits | z_qubits
        kinds = {"z_rot"} if z_qubits else {"x_flip", "x_rot"}
        for op in ops:
            assert op.ideal_op[0] in kinds
            assert _op_duration(op.ideal_op, physical_params) == seg.duration_ns
            if z_qubits:
                expected = -math.copysign(physical_params.epsilon_ghz, op.ideal_op[2])
                assert seg.epsilon_ghz[op.ideal_op[1]] == expected
    assert next(ideal, None) is None


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
    return SpinHamiltonianSpec(coupling), LogicalRegister.default(n_logical)


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
    state = QuantumState(dense_isometry(reg) @ (logical / np.linalg.norm(logical)))
    assert verify_ifs(state, spec, reg) == 0.0


@st.composite
def tilings(draw):
    """Any register of 0..5 pairs: a random permutation of the physical
    qubits, taken two at a time."""
    n_logical = draw(st.integers(0, 5))
    qubits = draw(st.permutations(range(2 * n_logical)))
    return LogicalRegister(tuple(zip(qubits[::2], qubits[1::2])))


@PROPERTY
@given(tilings())
def test_code_indices_match_dense_isometry(reg):
    iso = dense_isometry(reg)
    cols, rows = np.nonzero(iso.T)  # ordered by column
    assert cols.tolist() == list(range(2**reg.n_logical))
    assert reg.code_indices().tolist() == rows.tolist()
    for ell in range(2**reg.n_logical):
        bits = format(ell, f"0{reg.n_logical}b") if reg.n_logical else ""
        assert np.array_equal(encode(bits, reg).amplitudes, iso[:, ell])


_DRIVES = st.floats(-5.0, 5.0, allow_nan=False)


def _drives(draw, n):
    """Non-zero drives on any subset (k = 0..n) of n qubits."""
    delta = np.zeros(n)
    for q in draw(st.permutations(range(n)))[: draw(st.integers(0, n))]:
        delta[q] = draw(_DRIVES.filter(lambda d: d != 0.0))
    return delta


def _couplings(draw, n):
    """Random symmetric couplings (MHz) with zero diagonal."""
    lower = np.zeros((n, n))
    for i in range(n):
        for j in range(i):
            lower[i, j] = draw(st.floats(-100.0, 100.0, allow_nan=False))
    return lower + lower.T


@st.composite
def segment_specs(draw, max_qubits):
    """The arguments of ``build_hamiltonian``: random symmetric couplings
    (MHz), drives on any subset (k = 0..N) and random biases."""
    n = draw(st.integers(1, max_qubits))
    delta = _drives(draw, n)
    epsilon = np.array([draw(_DRIVES) for _ in range(n)])
    return SpinHamiltonianSpec(_couplings(draw, n)), delta, epsilon


@st.composite
def one_drive_specs(draw, max_qubits):
    """``segment_specs`` with one driven qubit, the case ``evolve_segment``
    takes; ``run_schedule`` is checked at every drive count below."""
    n = draw(st.integers(1, max_qubits))
    delta = np.zeros(n)
    delta[draw(st.integers(0, n - 1))] = draw(_DRIVES.filter(lambda d: d != 0.0))
    epsilon = np.array([draw(_DRIVES) for _ in range(n)])
    return SpinHamiltonianSpec(_couplings(draw, n)), delta, epsilon


@st.composite
def coupling_specs(draw, max_qubits):
    """A schedule's base: random symmetric couplings (MHz)."""
    n = draw(st.integers(1, max_qubits))
    return SpinHamiltonianSpec(_couplings(draw, n))


def _random_state(data, n):
    parts = st.floats(-1.0, 1.0, allow_nan=False)
    amp = np.array([complex(data.draw(parts), data.draw(parts)) for _ in range(2**n)])
    amp[0] += 2.0  # keeps the norm away from 0
    return QuantumState(amp / np.linalg.norm(amp))


@settings(PROPERTY, max_examples=60)
@given(one_drive_specs(max_qubits=8), st.floats(0.0, 10.0, allow_nan=False), st.data())
def test_evolve_segment_matches_dense_oracle(case, t_ns, data):
    spec, delta, epsilon = case
    state = _random_state(data, spec.n_qubits)
    w, v = np.linalg.eigh(build_hamiltonian(spec, delta, epsilon))
    expected = v @ (np.exp(-2j * math.pi * w * t_ns) * (v.conj().T @ state.amplitudes))
    out = QuantumState(evolve_segment(state.amplitudes, add_biases(coupling_diagonal(spec), epsilon), delta, t_ns))
    assert np.max(np.abs(out.amplitudes - expected)) <= 1e-12


def _all_blocks_propagator(diag, delta_ghz, t_ns):
    """The k >= 2 block propagator with no grouping: one ``eigh`` over all
    2^(N-k) blocks, the drive operator from Kronecker products."""
    driven = np.flatnonzero(delta_ghz)
    k = driven.size
    drive = kron_hamiltonian(SpinHamiltonianSpec(np.zeros((k, k))), delta_ghz[driven], np.zeros(k))
    w, v = np.linalg.eigh(drive + _gather(diag, driven)[:, :, None] * np.eye(2**k))
    phases = np.exp(-2j * math.pi * w * t_ns)[:, :, None]
    return lambda blocks: (v @ (phases * (v.conj().transpose(0, 2, 1) @ blocks[:, :, None])))[:, :, 0]


@st.composite
def repeated_block_diagonals(draw, max_qubits):
    """A drive on k = 2..4 of N <= max_qubits qubits and a diagonal whose
    blocks repeat a few rows.  The rows differ from one another in one or two
    entries, or only in the sign of a zero."""
    k = draw(st.integers(2, 4))
    n = draw(st.integers(k, max_qubits))
    delta = np.zeros(n)
    for q in draw(st.permutations(range(n)))[:k]:
        delta[q] = draw(_DRIVES.filter(lambda d: d != 0.0))
    values = draw(st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=1, max_size=3)) + [0.0, -0.0]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.repeat(rng.choice(values, size=(1, 2**k)), draw(st.integers(1, 8)), axis=0)
    for row in pool[1:]:
        row[rng.integers(2**k)] = rng.choice(values)
    pool = np.concatenate([pool, np.where(pool == 0.0, -pool, pool)])
    rows = pool[rng.integers(0, len(pool), size=2 ** (n - k))]
    diag = apply_on_qubits(np.zeros(2**n), np.flatnonzero(delta), lambda _: rows)
    return diag, delta


@settings(PROPERTY, max_examples=60)
@given(repeated_block_diagonals(max_qubits=10), st.floats(0.0, 5.0, allow_nan=False), st.integers(0, 2**32 - 1))
def test_grouped_block_propagator_equals_all_blocks_eigh(case, t_ns, seed):
    # Equal block diagonals give equal blocks, so diagonalising each distinct
    # one once and gathering its eigenpairs changes no bit of the output.
    diag, delta = case
    rng = np.random.default_rng(seed)
    k = np.count_nonzero(delta)
    shape = (diag.size >> k, 2**k)
    blocks = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    out = _block_propagator(diag, delta, t_ns)(blocks)
    assert np.array_equal(out, _all_blocks_propagator(diag, delta, t_ns)(blocks))


@st.composite
def physical_schedules(draw, max_qubits, max_segments):
    """Physical segments over a random coupling-only base: each carries its
    own drives (any subset) and biases, or None for off, as the compiler's
    pulses and waits do."""
    base = draw(coupling_specs(max_qubits))
    n = base.n_qubits
    segments = []
    for _ in range(draw(st.integers(0, max_segments))):
        delta = _drives(draw, n) if draw(st.booleans()) else None
        epsilon = np.array([draw(_DRIVES) for _ in range(n)]) if draw(st.booleans()) else None
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


def _segment_hamiltonian(base, seg):
    """The dense H/h of a physical segment: the coupling graph ``base``
    under the segment's drives and biases (None is zero)."""
    off = np.zeros(base.n_qubits)
    return build_hamiltonian(
        base,
        off if seg.delta_ghz is None else seg.delta_ghz,
        off if seg.epsilon_ghz is None else seg.epsilon_ghz,
    )


@settings(PROPERTY, max_examples=40)
@given(physical_schedules(max_qubits=6, max_segments=6), st.data())
def test_schedule_matches_per_segment_dense_oracle(schedule, data):
    # The coupling diagonal is shared by every segment of a schedule; each
    # segment's own Hamiltonian, assembled densely, must give the same
    # propagation.
    state = _random_state(data, schedule.base.n_qubits)
    expected = state.amplitudes
    for seg in schedule.segments:
        w, v = np.linalg.eigh(_segment_hamiltonian(schedule.base, seg))
        expected = v @ (np.exp(-2j * math.pi * w * seg.duration_ns) * (v.conj().T @ expected))
    assert np.max(np.abs(run_schedule(state, schedule).amplitudes - expected)) <= 1e-12


_IDEAL_GATES = {"x_flip": "X", "x_rot": "RX", "z_rot": "RZ"}


@st.composite
def mixed_schedules(draw, max_qubits, max_runs):
    """Runs of two or more undriven segments (waits and bias pulses, biases
    random or None) separated by ideal ops and driven segments (biased or
    not), over a coupling-only base; the schedule ends on an undriven run."""
    base = draw(coupling_specs(max_qubits))
    n = base.n_qubits
    biases = st.lists(_DRIVES, min_size=n, max_size=n).map(np.array)
    segments = []
    for _ in range(draw(st.integers(1, max_runs))):
        for _ in range(draw(st.integers(1, 2))):
            q = draw(st.integers(0, n - 1))
            kind = draw(st.sampled_from(("x_flip", "x_rot", "z_rot", "driven")))
            if kind == "driven":
                delta = np.zeros(n)
                for p in draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=2)):
                    delta[p] = draw(_DRIVES.filter(lambda d: d != 0.0))
                segments.append(PulseSegment(draw(st.floats(0.0, 5.0)), delta, draw(st.none() | biases)))
            elif kind == "x_flip":
                segments.append(PulseSegment(ideal_op=(kind, q)))
            else:
                segments.append(PulseSegment(ideal_op=(kind, q, draw(_ANGLES))))
        for _ in range(draw(st.integers(2, 4))):
            delta = draw(st.sampled_from((None, np.zeros(n))))
            epsilon = draw(st.none() | biases)
            segments.append(PulseSegment(draw(st.floats(0.0, 5.0)), delta, epsilon))
    return PulseSchedule(tuple(segments), base)


@settings(PROPERTY, max_examples=40)
@given(mixed_schedules(max_qubits=5, max_runs=3), st.data())
def test_undriven_runs_between_ideal_ops_match_dense_oracle(schedule, data):
    n = schedule.base.n_qubits
    state = _random_state(data, n)
    expected = state.amplitudes
    for seg in schedule.segments:
        if seg.mode == "ideal":
            kind, q, *angle = seg.ideal_op
            gate = _reference_matrix(Gate(_IDEAL_GATES[kind], (q,), *angle))
            expected = _kron_lift(gate, (q,), n) @ expected
        else:
            w, v = np.linalg.eigh(_segment_hamiltonian(schedule.base, seg))
            expected = v @ (np.exp(-2j * math.pi * w * seg.duration_ns) * (v.conj().T @ expected))
    assert np.max(np.abs(run_schedule(state, schedule).amplitudes - expected)) <= 1e-12


@st.composite
def repeating_schedules(draw, max_qubits, max_segments):
    """Schedules drawn from a pool of at most four segments, so (drive, bias,
    duration) keys repeat: a k = 2 flip that appears at least twice (and
    maybe the same flip under another bias), other physical segments whose
    biases mix zero and non-zero entries (or are None), and ideal ops
    between them, over a coupling-only base.  Returns the schedule and the
    pool index of each segment."""
    base = draw(coupling_specs(max_qubits))
    n = base.n_qubits
    biases = st.lists(st.sampled_from((0.0, 2.7, -1.3)) | _DRIVES, min_size=n, max_size=n).map(np.array)
    pool = []
    if n >= 2:
        delta = np.zeros(n)
        delta[list(draw(st.permutations(range(n)))[:2])] = draw(_DRIVES.filter(lambda d: d != 0.0))
        pool.append(PulseSegment(draw(st.floats(0.0, 5.0)), delta, draw(st.none() | biases)))
        if draw(st.booleans()):
            pool.append(replace(pool[0], epsilon_ghz=draw(biases)))
    for _ in range(draw(st.integers(1, 4 - len(pool)))):
        q = draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(("physical", "x_flip", "x_rot", "z_rot")))
        if kind == "physical":
            delta = draw(st.sampled_from((None, np.zeros(n))))
            if draw(st.booleans()):  # one, two or all qubits driven
                delta = np.zeros(n)
                for p in draw(st.permutations(range(n)))[: draw(st.sampled_from((1, 2, n)))]:
                    delta[p] = draw(_DRIVES.filter(lambda d: d != 0.0))
            pool.append(PulseSegment(draw(st.floats(0.0, 5.0)), delta, draw(st.none() | biases)))
        elif kind == "x_flip":
            pool.append(PulseSegment(ideal_op=(kind, q)))
        else:
            pool.append(PulseSegment(ideal_op=(kind, q, draw(_ANGLES))))
    order = draw(st.lists(st.integers(0, len(pool) - 1), max_size=max_segments - 2)) + [0, 0]
    order = draw(st.permutations(order))
    return PulseSchedule(tuple(pool[i] for i in order), base), order


@settings(PROPERTY, max_examples=30)
@given(repeating_schedules(max_qubits=8, max_segments=8), st.data())
def test_repeated_segments_match_per_segment_dense_oracle(case, data):
    schedule, order = case
    n = schedule.base.n_qubits
    state = _random_state(data, n)
    oracle = {}  # one dense propagator per pool entry
    for i, seg in zip(order, schedule.segments):
        if i in oracle:
            continue
        if seg.mode == "ideal":
            kind, q, *angle = seg.ideal_op
            oracle[i] = _kron_lift(_reference_matrix(Gate(_IDEAL_GATES[kind], (q,), *angle)), (q,), n)
        else:
            w, v = np.linalg.eigh(_segment_hamiltonian(schedule.base, seg))
            oracle[i] = (v * np.exp(-2j * math.pi * w * seg.duration_ns)) @ v.conj().T
    expected = state.amplitudes
    for i in order:
        expected = oracle[i] @ expected
    assert np.max(np.abs(run_schedule(state, schedule).amplitudes - expected)) <= 1e-12


def _add_biases_every_qubit(diag, epsilon):
    """add_biases without the zero skip: every qubit's term, zeros too."""
    for q in range(epsilon.shape[0]):
        view = diag.reshape(2**q, 2, -1)
        view -= 0.5 * epsilon[q] * np.array([1.0, -1.0])[:, None]
    return diag


@settings(PROPERTY, max_examples=40)
@given(segment_specs(max_qubits=8), st.data())
def test_add_biases_skipping_zeros_equals_the_full_loop(case, data):
    spec, _, _ = case
    n = spec.n_qubits
    epsilon = np.array([data.draw(st.just(0.0) | _DRIVES) for _ in range(n)])
    coupling = coupling_diagonal(spec)
    assert np.array_equal(add_biases(coupling.copy(), epsilon), _add_biases_every_qubit(coupling.copy(), epsilon))


_PAULI_Z = np.diag([1.0, -1.0])


def _z_product(n, qubits):
    """Diagonal of the kron product with Z on each of ``qubits`` and the
    identity elsewhere (the kron of their 2 x 2 diagonals)."""
    return reduce(np.kron, [np.diag(_PAULI_Z if q in qubits else np.eye(2)) for q in range(n)], np.ones(1))


@st.composite
def tiling_pairs(draw, n):
    """Disjoint qubit pairs; qubits left out of every pair stand alone."""
    order = draw(st.permutations(range(n)))
    pairs = [tuple(order[2 * p : 2 * p + 2]) for p in range(n // 2)]
    return [pair for pair in pairs if draw(st.booleans())]


@settings(PROPERTY, max_examples=40)
@given(segment_specs(max_qubits=8), st.data())
def test_diagonal_matches_pauli_kron_sum(case, data):
    spec, _, epsilon = case
    n = spec.n_qubits
    pairs = data.draw(tiling_pairs(n))
    same_pair = {frozenset(p) for p in pairs}
    coupling = np.zeros(2**n)
    inter_pair = np.zeros(2**n)
    for i in range(n):
        for j in range(i):
            term = spec.coupling_mhz[i, j] * 1e-3 * _z_product(n, (i, j))
            coupling += term
            if frozenset((i, j)) not in same_pair:
                inter_pair += term
    bias = sum((-0.5 * epsilon[q] * _z_product(n, (q,)) for q in range(n)), np.zeros(2**n))
    assert np.max(np.abs(add_biases(coupling_diagonal(spec), epsilon) - (coupling + bias))) <= 1e-12
    assert np.max(np.abs(coupling_diagonal(spec) - coupling)) <= 1e-12
    masked = np.where(inter_pair_mask(n, pairs), spec.coupling_mhz, 0.0)
    inter = coupling_diagonal(SpinHamiltonianSpec(masked))
    assert np.max(np.abs(inter - inter_pair)) <= 1e-12


@st.composite
def passive_buses(draw):
    """A bus of N = 2..2000 SQUIDs with N M^2 / (L L_b) in [0, 0.99), plus a
    seed for its fluxes and biases.  M is set from the drawn ratio."""
    n = 2 * draw(st.integers(1, 1000))
    l_ph = draw(st.floats(50.0, 500.0))
    l_b_nh = draw(st.floats(0.1, 10.0))
    ratio = draw(st.floats(0.0, 0.99, exclude_max=True))
    m_ph = math.sqrt(ratio * l_ph * l_b_nh * 1e3 / n)
    squid = SquidParams(l_ph, 80.0, 3.0)
    return squid, BusParams(l_b_nh, m_ph, n, phi_bx=draw(st.floats(-1.0, 1.0))), draw(st.integers(0, 2**32 - 1))


@settings(PROPERTY, max_examples=40)
@given(passive_buses(), st.integers(-2, 2))
def test_solve_currents_matches_dense_solve(case, n_quanta):
    squid, bus, seed = case
    rng = np.random.default_rng(seed)
    n = bus.n_qubits
    fluxes, biases = rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n)
    a = np.zeros((n + 1, n + 1))
    a[:n, :n] = squid.l_ph * np.eye(n)
    a[:n, n] = a[n, :n] = bus.m_ph
    a[n, n] = bus.l_b_ph
    rhs = np.append((fluxes - biases) * PHI0_PH_UA, (n_quanta - bus.phi_bx) * PHI0_PH_UA)
    expected = np.linalg.solve(a, rhs)
    sol = solve_currents(fluxes, biases, squid, bus, n_quanta=n_quanta)
    got = np.append(sol.squid_currents_ua, sol.bus_current_ua)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


@settings(PROPERTY, max_examples=40)
@given(passive_buses())
def test_pairwise_energy_within_weak_coupling_bound(case):
    # With no trapped flux and no bus bias the exact-minus-pairwise gap is
    # (1/2L) (M^2/L L_b) S^2 r/(1 - r), S = sum of offsets d_i, and
    # S^2 <= N sum d^2 bounds it by r^2/(1 - r) times the bare energy.
    squid, bus, seed = case
    bus = BusParams(bus.l_b_nh, bus.m_ph, bus.n_qubits)
    rng = np.random.default_rng(seed)
    fluxes, biases = rng.uniform(0.0, 1.0, bus.n_qubits), rng.uniform(0.0, 1.0, bus.n_qubits)
    exact = inductive_energy(solve_currents(fluxes, biases, squid, bus), squid, bus)
    pairwise = pairwise_inductive_energy(fluxes, biases, squid, bus)
    d = (fluxes - biases) * PHI0_PH_UA
    bare = float(d @ d) / (2.0 * squid.l_ph) * ENERGY_GHZ_PER_PH_UA2
    r = bus.n_qubits * bus.m_ph**2 / (squid.l_ph * bus.l_b_ph)
    assert abs(exact - pairwise) <= r**2 / (1.0 - r) * bare * (1.0 + 1e-9) + 1e-12 * abs(exact)


@settings(PROPERTY, max_examples=60)
@given(
    st.floats(50.0, 500.0), st.floats(20.0, 500.0), st.floats(0.0, 3.5),
    st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 50.0), st.floats(0.1, 10.0),
)
def test_loaded_squid_potential_is_the_renormalized_parabola(l_ph, c_ff, ic_ua, phi_x, m_ph, l_b_nh):
    # The bus loads a SQUID by one number, r = 1 + M^2/(L L_b): the potential
    # of the SQUID with loop inductance L/r is the bare parabola steepened by r.
    r = 1.0 + m_ph**2 / (l_ph * l_b_nh * 1e3)
    phi = FluxGrid().points
    inductive = FLUX_ENERGY_GHZ_PH * r * (phi - phi_x) ** 2 / (2.0 * l_ph)
    josephson = -JOSEPHSON_GHZ_PER_UA * ic_ua * np.cos(2.0 * math.pi * phi)
    loaded = potential(SquidParams(l_ph / r, c_ff, ic_ua, phi_x), phi)
    # within 4 ulp of the two terms' size (U itself may cancel to 0)
    bound = 4.0 * np.finfo(float).eps * (inductive + np.abs(josephson))
    assert np.all(np.abs(loaded - (inductive + josephson)) <= bound)


@st.composite
def symmetric_squids(draw):
    """A SQUID biased at Phi0/2 on the default window, from the harmonic limit
    (Ic = 0) to deep double wells, on an odd grid of 257-4097 points,
    with k = 2..5 levels requested."""
    params = SquidParams(draw(st.floats(100.0, 400.0)), draw(st.floats(20.0, 500.0)), draw(st.floats(0.0, 3.5)))
    n_points = 2 * draw(st.integers(128, 2048)) + 1
    return params, FluxGrid(n_points=n_points), draw(st.integers(2, 5))


@settings(PROPERTY, max_examples=60)
@given(symmetric_squids())
@example((SquidParams(157.5, 85.0, 3.0), FluxGrid(), 2))  # a doublet below the energies' rounding
def test_parity_sectors_match_full_grid_spectrum(case):
    params, grid, k = case
    sol = solve_levels(params, grid, k=k)
    dphi, kin = grid.spacing, KINETIC_GHZ_FF / params.c_ff
    diag = potential(params, grid.points) + 2.0 * kin / dphi**2
    off = np.full(grid.n_points - 1, -kin / dphi**2)
    full, full_vectors = eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1))
    norm = float(np.max(np.abs(diag))) + 2.0 * kin / dphi**2
    assert np.max(np.abs(sol.energies - full)) <= 1e-14 * norm
    assert np.all(np.diff(sol.energies) >= 0.0) and sol.gap >= 0.0
    assert all(np.array_equal(psi[::-1], psi) or np.array_equal(psi[::-1], -psi) for psi in sol.wavefunctions)
    gram = sol.wavefunctions @ sol.wavefunctions.T * dphi
    assert np.max(np.abs(gram - np.eye(k))) <= 1e-12
    if k == 2:
        # Both solvers leave residuals <= 1.3e-14 of the norm, so each level
        # is the full grid's eigenvector up to sign once the gap exceeds 1e-8
        # of the norm.  A doublet below that is resolved only as a pair, so
        # each level lies in the span of the full grid's two.
        overlaps = full_vectors.T @ sol.wavefunctions.T * math.sqrt(dphi)
        aligned = np.abs(np.diag(overlaps)) if sol.gap > 1e-8 * norm else np.linalg.norm(overlaps, axis=0)
        assert np.max(np.abs(aligned - 1.0)) <= 1e-10
