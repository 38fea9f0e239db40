"""Encoded-pair logic: code states, initialization, and gate compilation.

Two physical qubits (a, b) encode one logical qubit in the pair subspace

    |0_L> = |up_a down_b>,   |1_L> = |down_a up_b>,

whose collective sigma_z vanishes, so the fixed inter-pair couplings act
trivially: an encoded pair is invisible to the rest of the machine until it
is deliberately flipped out of the code space.

Gates are compiled to pulse schedules over the always-coupled system:

* logical Z rotations: differential flux bias on the pair (diagonal, exact);
* logical X: simultaneous pi flips of both physical qubits;
* logical Rx(theta): the intra-pair sigma_z sigma_z coupling, conjugated by
  physical Hadamards on a and b, gives exp(-i theta/2 X_L) for a wait of
  theta/(4 pi J);
* CPHASE(i, j): flip both b qubits out of the code space, wait 1/(32 J) while
  the inter-pair term (4J Z_L Z_L on the flipped subspace) accumulates a ZZ
  phase of pi/4, flip back, then apply Rz(-pi/2) corrections found by
  diagonal-phase bookkeeping;
* CNOT(c, t) = H(t) CPHASE(c, t) H(t).

Every compiled gate exists in two variants: ``physical`` (finite-duration
drives with the coupling always on) and ``ideal`` (labeled unitaries applied
exactly, as a verification baseline).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .evolve import GATE_MATRICES, PulseSchedule, PulseSegment, QuantumState, apply_on_qubits, gate_matrix
from .spin import SpinHamiltonianSpec, bus_all_to_all, coupling_diagonal, inter_pair_mask

__all__ = [
    "LogicalRegister",
    "ControlParams",
    "Gate",
    "GateCircuit",
    "CircuitParseError",
    "UnsupportedGateError",
    "encode",
    "pi_pulse",
    "init_schedule",
    "compile_single_qubit_gate",
    "compile_cphase",
    "compile_circuit",
    "verify_ifs",
    "parse_circuit",
    "ideal_circuit_unitary",
    "GATE_MATRICES",
]


class CircuitParseError(ValueError):
    """Circuit text does not follow the `GATE q[,q2][,angle]` grammar."""


class UnsupportedGateError(ValueError):
    """Gate name outside the compiled set."""


@dataclass(frozen=True)
class LogicalRegister:
    """Disjoint (a, b) physical-qubit pairs; one logical qubit per pair.

    The pairing is arbitrary but fixed for a run.  Pairs must tile the
    physical register exactly.
    """

    pairs: tuple

    def __post_init__(self):
        pairs = tuple((int(a), int(b)) for a, b in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        flat = [q for pair in pairs for q in pair]
        if sorted(flat) != list(range(len(flat))):
            raise ValueError("pairs must tile physical qubits 0..2P-1 without overlap")

    @property
    def n_logical(self) -> int:
        return len(self.pairs)

    @property
    def n_physical(self) -> int:
        return 2 * len(self.pairs)

    @classmethod
    def default(cls, n_logical: int) -> "LogicalRegister":
        return cls(tuple((2 * k, 2 * k + 1) for k in range(n_logical)))

    def code_indices(self) -> np.ndarray:
        """Code map: the 2^(2P) basis index of each of the 2^P code words.

        Entry ell is the code word of the logical bitstring ell (logical
        qubit 0 is its leading bit).  Logical 0 on pair (a, b) is a up (0),
        b down (1), logical 1 the reverse; physical qubit q is bit 2P-1-q.
        """
        n, p = self.n_physical, self.n_logical
        logical_bits = (np.arange(2**p)[:, None] >> np.arange(p - 1, -1, -1)) & 1
        a_down, b_down = (1 << (n - 1 - np.array(self.pairs, dtype=np.int64).reshape(p, 2))).T
        return np.where(logical_bits == 1, a_down, b_down).sum(axis=1)


def encode(bits: str, reg: LogicalRegister) -> QuantumState:
    """Product code state for a logical bitstring."""
    if len(bits) != reg.n_logical or (bits and set(bits) - {"0", "1"}):
        raise ValueError(f"need a {reg.n_logical}-character bitstring of 0s and 1s")
    return QuantumState.basis(reg.n_physical, reg.code_indices()[int(bits or "0", 2)])


@dataclass(frozen=True)
class ControlParams:
    """Drive strengths available to the compiler.

    ``delta_ghz`` is the tunneling reached with the barrier lowered (x
    drives), ``epsilon_ghz`` the bias splitting used for z rotations, and
    ``j_mhz`` the fixed inter-pair coupling.  On the bus every pair of
    physical qubits shares the same strength; on the encoded linear chain the
    intra-pair coupling differs and is given separately (``j_intra_mhz``
    defaults to ``j_mhz``).
    """

    delta_ghz: float = 2.6
    epsilon_ghz: float = 2.7
    j_mhz: float = 25.0
    j_intra_mhz: float | None = None
    mode: str = "physical"

    def __post_init__(self):
        if self.delta_ghz <= 0 or self.epsilon_ghz <= 0 or self.j_mhz <= 0:
            raise ValueError("control strengths must be positive")
        if self.j_intra_mhz is not None and self.j_intra_mhz <= 0:
            raise ValueError("intra-pair coupling must be positive")
        if self.mode not in ("physical", "ideal"):
            raise ValueError(f"unknown mode {self.mode!r}")

    @property
    def j_ghz(self) -> float:
        return self.j_mhz * 1e-3

    @property
    def j_intra_ghz(self) -> float:
        return (self.j_mhz if self.j_intra_mhz is None else self.j_intra_mhz) * 1e-3


def _one_hot(n: int, entries: dict) -> np.ndarray:
    arr = np.zeros(n)
    for q, v in entries.items():
        arr[q] = v
    return arr


def pi_pulse(qubit: int, delta_ghz: float, n_qubits: int, mode: str = "physical") -> PulseSegment:
    """Pi flip of one physical qubit: drive its tunneling for 1/(2 delta)."""
    if mode == "ideal":
        return PulseSegment(mode="ideal", ideal_op=("x_flip", qubit))
    return PulseSegment(
        duration_ns=1.0 / (2.0 * delta_ghz),
        delta_ghz=_one_hot(n_qubits, {qubit: delta_ghz}),
    )


def _flip(qubits, params: ControlParams, n: int) -> list:
    """Simultaneous pi flips (one segment drives every listed qubit)."""
    if params.mode == "ideal":
        return [PulseSegment(mode="ideal", ideal_op=("x_flip", q)) for q in qubits]
    return [
        PulseSegment(
            duration_ns=1.0 / (2.0 * params.delta_ghz),
            delta_ghz=_one_hot(n, {q: params.delta_ghz for q in qubits}),
        )
    ]


def _x_rot(qubit: int, theta: float, params: ControlParams, n: int) -> list:
    """Rx(theta) on one physical qubit, up to global phase.

    The drive -(delta/2) sigma_x realizes Rx(-2 pi delta t), so positive
    angles are reached going the long way round (global sign absorbed).
    """
    theta = math.remainder(theta, 4.0 * math.pi)
    if theta == 0.0:
        return []
    if params.mode == "ideal":
        return [PulseSegment(mode="ideal", ideal_op=("x_rot", qubit, theta))]
    turns = (-theta / (2.0 * math.pi)) % 2.0
    return [
        PulseSegment(
            duration_ns=turns / params.delta_ghz,
            delta_ghz=_one_hot(n, {qubit: params.delta_ghz}),
        )
    ]


def _z_rot(qubit: int, theta: float, params: ControlParams, n: int) -> list:
    """Rz(theta) on one physical qubit via a bias pulse (diagonal, exact)."""
    if theta == 0.0:
        return []
    if params.mode == "ideal":
        return [PulseSegment(mode="ideal", ideal_op=("z_rot", qubit, theta))]
    eps = -math.copysign(params.epsilon_ghz, theta)
    return [
        PulseSegment(
            duration_ns=abs(theta) / (2.0 * math.pi * params.epsilon_ghz),
            epsilon_ghz=_one_hot(n, {qubit: eps}),
        )
    ]


def _logical_rz(logical: int, theta: float, reg: LogicalRegister, params: ControlParams) -> list:
    """exp(-i theta/2 Z_L): differential bias on the pair.

    The full-space unitary exp(-i theta/4 (sigma_z_a - sigma_z_b)) restricts
    to Rz(theta) on the code space and to identity on the flipped subspace.
    It has period 4 pi in theta, which is reduced first so that the pulse
    does not grow with the angle as given.
    """
    theta = math.remainder(theta, 4.0 * math.pi)
    if theta == 0.0:
        return []
    a, b = reg.pairs[logical]
    if params.mode == "ideal":
        return [
            PulseSegment(mode="ideal", ideal_op=("z_rot", a, theta / 2.0)),
            PulseSegment(mode="ideal", ideal_op=("z_rot", b, -theta / 2.0)),
        ]
    eps = -math.copysign(params.epsilon_ghz, theta)
    return [
        PulseSegment(
            duration_ns=abs(theta) / (4.0 * math.pi * params.epsilon_ghz),
            epsilon_ghz=_one_hot(reg.n_physical, {a: eps, b: -eps}),
        )
    ]


def _physical_hadamard(qubit: int, params: ControlParams, n: int) -> list:
    """Hadamard on one physical qubit: Rz(-pi/2) Rx(-pi/2) Rz(-pi/2) = -i H."""
    return (
        _z_rot(qubit, -math.pi / 2.0, params, n)
        + _x_rot(qubit, -math.pi / 2.0, params, n)
        + _z_rot(qubit, -math.pi / 2.0, params, n)
    )


def _wait(duration_ns: float) -> PulseSegment:
    """Free evolution under the fixed couplings (all drives off)."""
    return PulseSegment(duration_ns=duration_ns)


def _logical_rx(logical: int, theta: float, reg: LogicalRegister, params: ControlParams) -> list:
    """exp(-i theta/2 X_L) via the always-on intra-pair coupling.

    Conjugating the pair's sigma_z sigma_z term with Hadamards on a and b
    turns the wait exp(-i theta/2 Z_a Z_b) into exp(-i theta/2 X_a X_b), which
    restricts to Rx(theta) on the code space without leaking out of the pair
    blocks.  Spectator pairs are untouched: their collective sigma_z
    annihilates every coupling term that reaches into the active pair.
    """
    theta = theta % (4.0 * math.pi)
    if theta == 0.0:
        return []
    a, b = reg.pairs[logical]
    n = reg.n_physical
    wait = _wait((theta % (2.0 * math.pi)) / (4.0 * math.pi * params.j_intra_ghz))
    basis_change = _physical_hadamard(a, params, n) + _physical_hadamard(b, params, n)
    return basis_change + [wait] + basis_change


def _logical_x(logical: int, reg: LogicalRegister, params: ControlParams) -> list:
    a, b = reg.pairs[logical]
    return _flip((a, b), params, reg.n_physical)


def _logical_h(logical: int, reg: LogicalRegister, params: ControlParams) -> list:
    """H = e^{i pi/2} Rz(pi/2) Rx(pi/2) Rz(pi/2) on the logical qubit."""
    return (
        _logical_rz(logical, math.pi / 2.0, reg, params)
        + _logical_rx(logical, math.pi / 2.0, reg, params)
        + _logical_rz(logical, math.pi / 2.0, reg, params)
    )


@dataclass(frozen=True)
class Gate:
    """One logical gate: name, logical operands, optional angle (radians)."""

    name: str
    qubits: tuple
    angle: float | None = None

    _ARITY = {"RX": 1, "RZ": 1, "X": 1, "Z": 1, "H": 1, "CPHASE": 2, "CNOT": 2}
    _ANGLED = {"RX", "RZ"}

    def __post_init__(self):
        object.__setattr__(self, "name", self.name.upper())
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        if self.name not in self._ARITY:
            raise UnsupportedGateError(f"unsupported gate {self.name!r}")
        if len(self.qubits) != self._ARITY[self.name]:
            raise ValueError(f"{self.name} takes {self._ARITY[self.name]} operand(s)")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"{self.name} operands must be distinct")
        if (self.angle is None) == (self.name in self._ANGLED):
            raise ValueError(f"{self.name} {'needs' if self.name in self._ANGLED else 'takes no'} angle")
        if self.angle is not None and not math.isfinite(self.angle):
            raise ValueError(f"{self.name} angle must be finite, got {self.angle!r}")


@dataclass(frozen=True)
class GateCircuit:
    """Ordered logical gates."""

    gates: tuple

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))

    def max_qubit(self) -> int:
        return max((q for g in self.gates for q in g.qubits), default=-1)


_LINE_RE = re.compile(r"^([A-Za-z]+)\s+(.+)$")


def parse_circuit(text: str) -> GateCircuit:
    """Parse circuit text: one `GATE q[,q2][,angle]` per line, `#` comments."""
    gates = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _LINE_RE.match(line)
        if not m:
            raise CircuitParseError(f"line {lineno}: expected `GATE q[,q2][,angle]`, got {raw!r}")
        name = m.group(1).upper()
        fields = [f.strip() for f in m.group(2).split(",")]
        try:
            if name in Gate._ANGLED:
                if len(fields) != 2:
                    raise ValueError("rotation gates take `qubit,angle`")
                gates.append(Gate(name, (int(fields[0]),), float(fields[1])))
            elif len(fields) == 1:
                gates.append(Gate(name, (int(fields[0]),)))
            elif len(fields) == 2:
                gates.append(Gate(name, (int(fields[0]), int(fields[1]))))
            else:
                raise ValueError("too many operands")
        except (ValueError, UnsupportedGateError) as exc:
            raise CircuitParseError(f"line {lineno}: {exc}") from exc
    return GateCircuit(tuple(gates))


def compile_single_qubit_gate(
    gate: Gate, logical: int, reg: LogicalRegister, params: ControlParams
) -> list:
    """Pulse segments for one logical single-qubit gate.

    Precondition (not checkable here): every other pair sits in its code
    space, so the fixed couplings to the rest of the machine act trivially.
    """
    if not 0 <= logical < reg.n_logical:
        raise ValueError(f"logical qubit {logical} out of range")
    if gate.name == "RZ":
        return _logical_rz(logical, gate.angle, reg, params)
    if gate.name == "RX":
        return _logical_rx(logical, gate.angle, reg, params)
    if gate.name == "X":
        return _logical_x(logical, reg, params)
    if gate.name == "Z":
        return _logical_rz(logical, math.pi, reg, params)
    if gate.name == "H":
        return _logical_h(logical, reg, params)
    raise UnsupportedGateError(f"{gate.name} is not a single-qubit gate")


def compile_cphase(i: int, j: int, reg: LogicalRegister, params: ControlParams) -> list:
    """Flip / evolve / flip realization of CPHASE between logical i and j.

    Both b qubits are flipped out of the code space together, the inter-pair
    coupling (4J Z_L Z_L on the flipped subspace) runs for 1/(32 J) to pick up
    a ZZ phase of pi/4, the flips are undone, and Rz(-pi/2) corrections on
    each logical qubit finish the diagonal-phase bookkeeping.  In physical
    mode the flips keep J on, which is the architecture's intrinsic error.
    """
    if i == j:
        raise ValueError("CPHASE operands must be distinct")
    for q in (i, j):
        if not 0 <= q < reg.n_logical:
            raise ValueError(f"logical qubit {q} out of range")
    b_i, b_j = reg.pairs[i][1], reg.pairs[j][1]
    t_int = 1.0 / (32.0 * params.j_ghz)
    segments = _flip((b_i, b_j), params, reg.n_physical)
    segments += [_wait(t_int)]
    segments += _flip((b_i, b_j), params, reg.n_physical)
    segments += _logical_rz(i, -math.pi / 2.0, reg, params)
    segments += _logical_rz(j, -math.pi / 2.0, reg, params)
    return segments


def _base_spec(reg: LogicalRegister, params: ControlParams) -> SpinHamiltonianSpec:
    if reg.n_logical == 0:
        return SpinHamiltonianSpec(0, np.zeros(0), np.zeros(0), np.zeros((0, 0)))
    return bus_all_to_all(reg.n_physical, params.j_mhz)


def init_schedule(
    reg: LogicalRegister, params: ControlParams | None = None, compensate_bias: bool = True
) -> PulseSchedule:
    """Initialization: from all physical qubits frozen in the left well,
    sequential pi flips on each pair's b qubit drive every pair into |0_L>.

    During initialization every undriven qubit sits in a definite flux state,
    so the coupling shifts the driven qubit by the known amount
    J * sum(sigma_z of the others); with ``compensate_bias`` each flip carries
    the counter-bias that keeps it exactly on resonance (deterministic
    calibration, distinct from echoing out state-dependent gate errors).

    The finished register applies zero net flux to the bus: each encoded
    pair's circulating currents cancel.
    """
    params = params or ControlParams()
    n = reg.n_physical
    segments = []
    for k, (_, b) in enumerate(reg.pairs):
        if params.mode == "ideal" or not compensate_bias:
            segments += _flip((b,), params, reg.n_physical)
            continue
        # Net sigma_z of the others: encoded pairs cancel, the partner is up,
        # every not-yet-touched pair contributes two ups.
        m = 1 + 2 * (reg.n_logical - 1 - k)
        segments.append(
            PulseSegment(
                duration_ns=1.0 / (2.0 * params.delta_ghz),
                delta_ghz=_one_hot(n, {b: params.delta_ghz}),
                epsilon_ghz=_one_hot(n, {b: 2.0 * params.j_ghz * m}),
            )
        )
    return PulseSchedule(tuple(segments), _base_spec(reg, params))


def compile_circuit(
    circuit: GateCircuit,
    reg: LogicalRegister,
    params: ControlParams | None = None,
    base: SpinHamiltonianSpec | None = None,
) -> PulseSchedule:
    """Concatenate compiled gates over the always-coupled register.

    Gates run one at a time: only the active pair (or pair of pairs) may
    leave the code space.  ``base`` defaults to the all-to-all bus at
    ``params.j_mhz``; pass the encoded-chain coupling graph (with matching
    ``j_intra_mhz``) to compile against that topology instead.  CPHASE
    operands must share an inter-pair coupling equal to ``params.j_mhz``.
    """
    params = params or ControlParams()
    if circuit.max_qubit() >= reg.n_logical:
        raise ValueError("circuit addresses a logical qubit outside the register")
    if base is not None and base.n_qubits != reg.n_physical:
        raise ValueError("base spec size does not match the register")
    segments = []
    for gate in circuit.gates:
        if gate.name == "CPHASE":
            segments += compile_cphase(gate.qubits[0], gate.qubits[1], reg, params)
        elif gate.name == "CNOT":
            control, target = gate.qubits
            segments += compile_single_qubit_gate(Gate("H", (target,)), target, reg, params)
            segments += compile_cphase(control, target, reg, params)
            segments += compile_single_qubit_gate(Gate("H", (target,)), target, reg, params)
        else:
            segments += compile_single_qubit_gate(gate, gate.qubits[0], reg, params)
    return PulseSchedule(tuple(segments), base if base is not None else _base_spec(reg, params))


def verify_ifs(state: QuantumState, spec: SpinHamiltonianSpec, reg: LogicalRegister | None = None) -> float:
    """Norm of the inter-pair coupling applied to the state, over J and ||psi||.

    Zero exactly on any code-space product state; a fully flipped pair
    contributes its collective sigma_z (+-2) to every coupling link.
    """
    if reg is None:
        if spec.n_qubits % 2:
            raise ValueError("default pairing needs an even qubit count")
        reg = LogicalRegister.default(spec.n_qubits // 2)
    diag = coupling_diagonal(spec, pairs=reg.pairs, inter_pair_only=True)
    inter = np.tril(inter_pair_mask(spec.n_qubits, reg.pairs))
    j_scale = float(np.max(np.abs(spec.coupling_mhz[inter]) * 1e-3, initial=0.0))
    if j_scale == 0.0:
        return 0.0
    amp = state.amplitudes
    return float(np.linalg.norm(diag * amp) / (j_scale * np.linalg.norm(amp)))


def ideal_circuit_unitary(circuit: GateCircuit, n_logical: int) -> np.ndarray:
    """Exact logical unitary of a circuit (the verification target).

    Each gate's matrix maps the identity rows (the basis states) through
    ``evolve.apply_on_qubits``, the kernel of ideal propagation; row j ends
    as the image of basis state j, so the unitary is their transpose.
    """
    rows = np.eye(2**n_logical, dtype=complex)
    for gate in circuit.gates:
        mat = gate_matrix(gate.name, gate.angle)
        rows = apply_on_qubits(rows, gate.qubits, lambda blocks: blocks @ mat.T)
    return rows.T
