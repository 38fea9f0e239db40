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

``compile_circuit`` is the one gate entry point.  Every wait is timed from
the coupling graph the schedule runs on, its ``base`` spec: Rx from the
pair's own coupling, CPHASE from the cross coupling of its two pairs, so the
same circuit compiles for the bus or the encoded linear chain.

Every gate is written as moments of simultaneous one-qubit ops (the
``x_flip``/``x_rot``/``z_rot`` labels of ``evolve``'s gate table) and
waits under the fixed couplings.  ``_moment`` is the one op-to-pulse map and
the one place the mode is read: ``physical`` runs each moment as one
finite-duration drive or bias segment with the coupling always on, and
``ideal`` keeps each op as a labeled unitary applied exactly, as a
verification baseline.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .evolve import PulseSchedule, PulseSegment, QuantumState, apply_on_qubits, gate_matrix
from .spin import SpinHamiltonianSpec, bus_all_to_all, coupling_diagonal, inter_pair_mask

__all__ = [
    "LogicalRegister",
    "ControlParams",
    "Gate",
    "encode",
    "init_schedule",
    "compile_circuit",
    "verify_ifs",
    "parse_circuit",
    "ideal_circuit_unitary",
]


def _indices(values, what: str) -> tuple:
    """``values`` as qubit numbers: text is read with ``int``, an integer
    other than a bool is kept, and anything else is refused rather than
    truncated (``int(1.7)`` would name qubit 1)."""
    values = tuple(values)
    if not all(isinstance(v, str) or (isinstance(v, Integral) and not isinstance(v, bool)) for v in values):
        raise ValueError(f"{what} must be integers, got {values!r}")
    return tuple(int(v) for v in values)


@dataclass(frozen=True)
class LogicalRegister:
    """Disjoint (a, b) physical-qubit pairs; one logical qubit per pair.

    The pairing is arbitrary but fixed for a run.  Pairs must tile the
    physical register exactly.
    """

    pairs: tuple

    def __post_init__(self):
        pairs = tuple(_indices((a, b), "a pair's qubits") for a, b in self.pairs)
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
        if not isinstance(n_logical, Integral) or isinstance(n_logical, bool) or n_logical < 0:
            raise ValueError(f"n_logical must be a non-negative integer, got {n_logical!r}")
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
        raise ValueError(f"bits must be a {reg.n_logical}-bit string of 0s and 1s, got {bits!r}")
    return QuantumState.basis(reg.n_physical, reg.code_indices()[int(bits or "0", 2)])


@dataclass(frozen=True)
class ControlParams:
    """Drive strengths available to the compiler.

    ``delta_ghz`` is the tunneling reached with the barrier lowered (x
    drives) and ``epsilon_ghz`` the bias splitting used for z rotations.
    ``j_mhz`` is only the common coupling of the all-to-all bus that
    ``compile_circuit`` (when given no coupling graph) and ``init_schedule``
    build; the compiler times every coupling wait from the graph itself.
    """

    delta_ghz: float = 2.6
    epsilon_ghz: float = 2.7
    j_mhz: float = 25.0
    mode: str = "physical"

    def __post_init__(self):
        for name in ("delta_ghz", "epsilon_ghz", "j_mhz"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        if self.mode not in ("ideal", "physical"):
            raise ValueError(f"mode must be ideal or physical, got {self.mode!r}")

    @property
    def j_ghz(self) -> float:
        return self.j_mhz * 1e-3


def _one_hot(n: int, entries: dict) -> np.ndarray:
    arr = np.zeros(n)
    for q, v in entries.items():
        arr[q] = v
    return arr


def _moment(ops, params: ControlParams, n: int, epsilon_ghz: np.ndarray | None = None) -> list:
    """Segments of one moment: simultaneous one-qubit ops of one kind on
    distinct qubits and of one pulse length, written as ``evolve``'s
    ideal-op labels.

    This is the compiler's one op-to-pulse map.  Ideal mode keeps each op as
    a labeled segment.  Physical mode runs the whole moment as one segment:
    z_rot(theta) biases its qubit by -+epsilon for |theta|/(2 pi epsilon);
    x ops drive the tunneling delta, a flip for 1/(2 delta) and x_rot(theta)
    for (-theta/2 pi mod 2)/delta, since the drive -(delta/2) sigma_x
    realizes Rx(-2 pi delta t) and positive angles are reached going the
    long way round (global sign absorbed).  ``epsilon_ghz`` holds a bias
    under an x moment (the initialization's counter-bias).
    """
    if params.mode == "ideal":
        return [PulseSegment(ideal_op=op) for op in ops]
    name, _, *angle = ops[0]
    if name == "z_rot":
        bias = _one_hot(n, {op[1]: -math.copysign(params.epsilon_ghz, op[2]) for op in ops})
        return [PulseSegment(duration_ns=abs(angle[0]) / (2.0 * math.pi * params.epsilon_ghz), epsilon_ghz=bias)]
    turns = 0.5 if name == "x_flip" else (-angle[0] / (2.0 * math.pi)) % 2.0
    drive = _one_hot(n, {op[1]: params.delta_ghz for op in ops})
    return [PulseSegment(duration_ns=turns / params.delta_ghz, delta_ghz=drive, epsilon_ghz=epsilon_ghz)]


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
    return _moment([("z_rot", a, theta / 2.0), ("z_rot", b, -theta / 2.0)], params, reg.n_physical)


def _physical_hadamard(qubit: int, params: ControlParams, n: int) -> list:
    """Hadamard on one physical qubit: Rz(-pi/2) Rx(-pi/2) Rz(-pi/2) = -i H."""
    z, x = [("z_rot", qubit, -math.pi / 2.0)], [("x_rot", qubit, -math.pi / 2.0)]
    return _moment(z, params, n) + _moment(x, params, n) + _moment(z, params, n)


def _wait(duration_ns: float) -> PulseSegment:
    """Free evolution under the fixed couplings (all drives off)."""
    return PulseSegment(duration_ns=duration_ns)


def _logical_rx(
    logical: int, theta: float, reg: LogicalRegister, params: ControlParams, base: SpinHamiltonianSpec
) -> list:
    """exp(-i theta/2 X_L) via the always-on intra-pair coupling.

    Conjugating the pair's sigma_z sigma_z term with Hadamards on a and b
    turns the wait exp(-i theta/2 Z_a Z_b) into exp(-i theta/2 X_a X_b), which
    restricts to Rx(theta) on the code space without leaking out of the pair
    blocks.  The wait is timed from the pair's own coupling in ``base``.
    It has period 2 pi in theta (exp(-i pi Z_a Z_b) = -I on the pair, a
    global phase), which is reduced first, so a multiple of 2 pi compiles to
    nothing.  Spectator pairs are untouched: their collective sigma_z
    annihilates every coupling term that reaches into the active pair.
    """
    a, b = reg.pairs[logical]
    j_mhz = float(base.coupling_mhz[a, b])
    if not j_mhz * 1e-3 > 0.0:
        raise ValueError(
            f"logical qubit {logical}: pair {(a, b)} has intra-pair coupling {j_mhz} MHz, "
            "but RX and H are timed from one that is positive in GHz"
        )
    theta = (theta % (4.0 * math.pi)) % (2.0 * math.pi)
    if theta == 0.0:
        return []
    n = reg.n_physical
    wait = _wait(theta / (4.0 * math.pi * (j_mhz * 1e-3)))
    basis_change = _physical_hadamard(a, params, n) + _physical_hadamard(b, params, n)
    return basis_change + [wait] + basis_change


def _logical_x(logical: int, reg: LogicalRegister, params: ControlParams) -> list:
    a, b = reg.pairs[logical]
    return _moment([("x_flip", a), ("x_flip", b)], params, reg.n_physical)


def _logical_h(logical: int, reg: LogicalRegister, params: ControlParams, base: SpinHamiltonianSpec) -> list:
    """H = e^{i pi/2} Rz(pi/2) Rx(pi/2) Rz(pi/2) on the logical qubit."""
    rz = _logical_rz(logical, math.pi / 2.0, reg, params)
    return rz + _logical_rx(logical, math.pi / 2.0, reg, params, base) + rz


def _cphase(i: int, j: int, reg: LogicalRegister, params: ControlParams, base: SpinHamiltonianSpec) -> list:
    """Flip / evolve / flip realization of CPHASE between logical i and j.

    Both b qubits are flipped out of the code space together, the inter-pair
    coupling (4J Z_L Z_L on the flipped subspace) runs for 1/(32 J) to pick up
    a ZZ phase of pi/4, the flips are undone, and Rz(-pi/2) corrections on
    each logical qubit finish the diagonal-phase bookkeeping.  J is the
    pairs' cross coupling in ``base``, which must be positive; the four are
    equal on every base ``compile_circuit`` accepts.  In physical mode the
    flips keep J on, which is the architecture's intrinsic error.
    """
    b_i, b_j = reg.pairs[i][1], reg.pairs[j][1]
    j_mhz = float(base.coupling_mhz[b_i, b_j])
    if not j_mhz * 1e-3 > 0.0:
        raise ValueError(
            f"CPHASE {i},{j}: pairs {reg.pairs[i]} and {reg.pairs[j]} need a cross coupling that is positive "
            f"in GHz, got {j_mhz} MHz"
        )
    flips = _moment([("x_flip", b_i), ("x_flip", b_j)], params, reg.n_physical)
    segments = flips + [_wait(1.0 / (32.0 * (j_mhz * 1e-3)))] + flips
    return segments + _logical_rz(i, -math.pi / 2.0, reg, params) + _logical_rz(j, -math.pi / 2.0, reg, params)


@dataclass(frozen=True)
class Gate:
    """One logical gate: name, logical operands, optional angle (radians);
    the one home of the gate rules.  Operands are integers and the angle a
    real number other than a bool, or either given as text: each is
    converted once, after the operands are counted, and never truncated."""

    name: str
    qubits: tuple
    angle: float | None = None

    _ARITY = {"RX": 1, "RZ": 1, "X": 1, "Z": 1, "H": 1, "CPHASE": 2, "CNOT": 2}
    _ANGLED = {"RX", "RZ"}

    def __post_init__(self):
        object.__setattr__(self, "name", self.name.upper())
        if self.name not in self._ARITY:
            raise ValueError(f"unsupported gate {self.name!r}")
        if len(self.qubits) != self._ARITY[self.name]:
            raise ValueError(f"{self.name} takes {self._ARITY[self.name]} operand(s)")
        object.__setattr__(self, "qubits", _indices(self.qubits, f"{self.name} operands"))
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"{self.name} operands must be distinct")
        if min(self.qubits) < 0:
            raise ValueError(f"{self.name} operands must be non-negative, got {self.qubits}")
        if (self.angle is None) == (self.name in self._ANGLED):
            raise ValueError(f"{self.name} {'needs' if self.name in self._ANGLED else 'takes no'} angle")
        if isinstance(self.angle, bool) or not isinstance(self.angle, (str, Real, type(None))):
            raise ValueError(f"{self.name} angle must be a number, got {self.angle!r}")
        object.__setattr__(self, "angle", None if self.angle is None else float(self.angle))
        if self.angle is not None and not math.isfinite(self.angle):
            raise ValueError(f"{self.name} angle must be finite, got {self.angle!r}")


_LINE_RE = re.compile(r"^([A-Za-z]+)\s+(.+)$")


def parse_circuit(text: str) -> tuple:
    """Split circuit text, one `GATE q[,q2][,angle]` per line and `#`
    comments, into a tuple of ``Gate``s; an RX/RZ line's last field is its
    angle.  A line that breaks the grammar or a ``Gate`` rule raises
    ``ValueError`` naming the line."""
    gates = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _LINE_RE.match(line)
        if not m:
            raise ValueError(f"line {lineno}: expected `GATE q[,q2][,angle]`, got {raw!r}")
        name = m.group(1).upper()
        fields = [f.strip() for f in m.group(2).split(",")]
        angle = fields.pop() if name in Gate._ANGLED else None
        try:
            gates.append(Gate(name, fields, angle))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    return tuple(gates)


def _check_operands(circuit: tuple, n_logical: int) -> None:
    """The register rule: each operand (non-negative by ``Gate``) is below ``n_logical``."""
    if any(q >= n_logical for gate in circuit for q in gate.qubits):
        raise ValueError("circuit addresses a logical qubit outside the register")


def _gate_segments(gate: Gate, reg: LogicalRegister, params: ControlParams, base: SpinHamiltonianSpec) -> list:
    """Pulse segments of one logical gate on the coupling graph ``base``.

    Precondition: every other pair sits in its code space, so the fixed
    couplings to the rest of the machine act trivially.
    """
    q = gate.qubits[0]
    if gate.name == "RZ":
        return _logical_rz(q, gate.angle, reg, params)
    if gate.name == "Z":
        return _logical_rz(q, math.pi, reg, params)
    if gate.name == "X":
        return _logical_x(q, reg, params)
    if gate.name == "RX":
        return _logical_rx(q, gate.angle, reg, params, base)
    if gate.name == "H":
        return _logical_h(q, reg, params, base)
    if gate.name == "CPHASE":
        return _cphase(*gate.qubits, reg, params, base)
    # CNOT(c, t) = H(t) CPHASE(c, t) H(t)
    h = _gate_segments(Gate("H", gate.qubits[1:]), reg, params, base)
    return h + _gate_segments(Gate("CPHASE", gate.qubits), reg, params, base) + h


def _base_spec(reg: LogicalRegister, params: ControlParams) -> SpinHamiltonianSpec:
    if reg.n_logical == 0:
        return SpinHamiltonianSpec(np.zeros((0, 0)))
    return bus_all_to_all(reg.n_physical, params.j_mhz)


def init_schedule(reg: LogicalRegister, params: ControlParams | None = None) -> PulseSchedule:
    """Initialization: from all physical qubits frozen in the left well,
    sequential pi flips on each pair's b qubit drive every pair into |0_L>.

    During initialization every undriven qubit sits in a definite flux state,
    so the coupling shifts the driven qubit by the known amount
    J * sum(sigma_z of the others); each flip carries the counter-bias that
    keeps it exactly on resonance (deterministic calibration, distinct from
    echoing out state-dependent gate errors).

    The finished register applies zero net flux to the bus: each encoded
    pair's circulating currents cancel.
    """
    params = params or ControlParams()
    n = reg.n_physical
    segments = []
    for k, (_, b) in enumerate(reg.pairs):
        # Net sigma_z of the others: encoded pairs cancel, the partner is up,
        # every not-yet-touched pair contributes two ups.
        m = 1 + 2 * (reg.n_logical - 1 - k)
        bias = _one_hot(n, {b: 2.0 * params.j_ghz * m})
        segments += _moment([("x_flip", b)], params, n, epsilon_ghz=bias)
    return PulseSchedule(tuple(segments), _base_spec(reg, params))


def compile_circuit(
    circuit: tuple,
    reg: LogicalRegister,
    params: ControlParams | None = None,
    base: SpinHamiltonianSpec | None = None,
) -> PulseSchedule:
    """Compile a circuit (a tuple of ``Gate``s) to one pulse schedule; the
    compiler's one gate entry point.

    ``base`` is the coupling graph the schedule runs on, by default the
    all-to-all bus at ``params.j_mhz``; pass the encoded-chain graph to
    compile against that topology instead.  Every coupling-timed wait reads
    its J from ``base``: RX and H need a coupling within their pair, CPHASE
    and CNOT a cross coupling between their pairs, that is positive in GHz.
    Every qubit must couple equally to both qubits of each other pair, which
    hides a code-space pair from it and makes CPHASE's cross couplings equal.
    ``base`` is the coupling graph alone (``SpinHamiltonianSpec`` holds no
    drive or bias): every pulse is its segment's own.  Gates run one at a
    time: only the active pair (or pair of pairs) may leave the code space.
    """
    params = params or ControlParams()
    base = base if base is not None else _base_spec(reg, params)
    _check_operands(circuit, reg.n_logical)
    if base.n_qubits != reg.n_physical:
        raise ValueError("base spec size does not match the register")
    a, b = np.array(reg.pairs, dtype=int).reshape(-1, 2).T
    c = base.coupling_mhz
    visible = (c[:, a] != c[:, b]) & inter_pair_mask(reg.n_physical, reg.pairs)[:, a]
    if visible.any():
        q, p = np.argwhere(visible)[0]
        raise ValueError(
            f"base spec: qubit {q} couples unequally to pair {reg.pairs[p]} ({c[q, a[p]]} and "
            f"{c[q, b[p]]} MHz), so the pair is visible to it in its code space"
        )
    segments = [seg for gate in circuit for seg in _gate_segments(gate, reg, params, base)]
    return PulseSchedule(tuple(segments), base)


def verify_ifs(state: QuantumState, spec: SpinHamiltonianSpec, reg: LogicalRegister | None = None) -> float:
    """Norm of the inter-pair coupling applied to the state, over J and ||psi||.

    Zero exactly on any code-space product state; a fully flipped pair
    contributes its collective sigma_z (+-2) to every coupling link.
    """
    if state.n_qubits != spec.n_qubits:
        raise ValueError(f"state has {state.n_qubits} qubits, the spec {spec.n_qubits}")
    if reg is None:
        if spec.n_qubits % 2:
            raise ValueError("default pairing needs an even qubit count")
        reg = LogicalRegister.default(spec.n_qubits // 2)
    inter = inter_pair_mask(spec.n_qubits, reg.pairs)
    diag = coupling_diagonal(SpinHamiltonianSpec(np.where(inter, spec.coupling_mhz, 0.0)))
    j_scale = float(np.max(np.abs(spec.coupling_mhz[np.tril(inter)]) * 1e-3, initial=0.0))
    if j_scale == 0.0:
        return 0.0
    amp = state.amplitudes
    return float(np.linalg.norm(diag * amp) / (j_scale * np.linalg.norm(amp)))


def ideal_circuit_unitary(circuit: tuple, n_logical: int) -> np.ndarray:
    """Exact logical unitary of a tuple of ``Gate``s (the verification target).

    Each gate's matrix maps the identity rows (the basis states) through
    ``evolve.apply_on_qubits``, the kernel of ideal propagation; row j ends
    as the image of basis state j, so the unitary is their transpose.
    """
    _check_operands(circuit, n_logical)
    rows = np.eye(2**n_logical, dtype=complex)
    for gate in circuit:
        mat = gate_matrix(gate.name, gate.angle)
        rows = apply_on_qubits(rows, gate.qubits, lambda blocks: blocks @ mat.T)
    return rows.T
