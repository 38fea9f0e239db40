"""Exact unitary evolution under piecewise-constant control.

Each pulse segment either holds the drive values constant for a duration
(physical mode) or applies a labeled unitary exactly with the coupling
suspended (ideal mode: the verification baseline that separates protocol
errors from always-on-coupling errors).

Physical propagation is block-structured and exact at machine precision.  A
schedule's base is the coupling graph (``spin.SpinHamiltonianSpec`` holds
nothing else): every drive and bias is a segment's, and ``None`` is off.
The coupling and the biases are diagonal in the computational basis, so a
segment that drives k qubits splits into 2^(N-k) independent 2^k x 2^k
blocks.  ``run_schedule`` folds one amplitude array over the schedule,
forms the coupling diagonal C once, checks the norm once, at the end, and
takes one path per drive count.  Undriven segments (waits and bias pulses)
commute, so a run of them sums to C T + bias(sum of eps_s t_s), one time
and one length-N bias vector, and takes one exponential.  A segment that
drives one qubit goes through ``evolve_segment``, the closed-form 2 x 2
propagator.  A segment that drives k >= 2 qubits (the flip moments of CPHASE
and of logical X) goes through ``_block_propagator``, which diagonalises
its distinct blocks in one batched ``eigh``.  A block is the drive operator
plus its slice of D, and on the bus, where every pair shares one J, the
slices take few distinct values, so blocks with equal slices are grouped
exactly and each distinct one is diagonalised once.  ``run_schedule`` keeps
the last k >= 2 decomposition, so a segment that is the previous one again,
as the compiler repeats a CPHASE's flip object, is not diagonalised again.
No 2^N x 2^N operator is built; the dense ``spin.build_hamiltonian`` matrix
is the reference the tests compare against.

One gate table and one block kernel serve ideal propagation, the
verification target (``compiler.ideal_circuit_unitary``) and the k >= 2
drive blocks.  ``gate_matrix`` reads the read-only ``GATE_MATRICES`` or
builds RX/RZ (exp(-i angle/2 sigma)); the ideal labels ``("x_flip", q)``,
``("x_rot", q, angle)`` and ``("z_rot", q, angle)`` name X, RX and RZ.
``apply_on_qubits`` gathers the blocks of k qubits with one axis
permutation, maps them and scatters them back with its inverse;
``reduced_density_matrix`` reads the same gather.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from numbers import Integral, Real

import numpy as np

from .spin import SpinHamiltonianSpec, add_biases, build_hamiltonian, coupling_diagonal

__all__ = [
    "QuantumState",
    "PulseSegment",
    "PulseSchedule",
    "ProcessFidelityResult",
    "evolve_segment",
    "run_schedule",
    "fidelity",
    "reduced_density_matrix",
    "trace_distance",
    "logical_process_fidelity",
    "GATE_MATRICES",
    "gate_matrix",
    "apply_on_qubits",
]

_NORM_TOL = 1e-10

# Read-only: ideal propagation and the verification target both use them.
GATE_MATRICES = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0),
    "CPHASE": np.diag([1, 1, 1, -1]).astype(complex),
    "CNOT": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
}
for _mat in GATE_MATRICES.values():
    _mat.flags.writeable = False

# Ideal-op label -> its gate in the table.
IDEAL_OPS = {"x_flip": "X", "x_rot": "RX", "z_rot": "RZ"}


def gate_matrix(name: str, angle: float | None = None) -> np.ndarray:
    """A gate's matrix: RX/RZ at ``angle`` in the exp(-i angle/2 sigma)
    convention, or the read-only ``GATE_MATRICES`` entry."""
    if name == "RX":
        c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
        return np.array([[c, -1j * s], [-1j * s, c]])
    if name == "RZ":
        return np.diag([np.exp(-1j * angle / 2.0), np.exp(1j * angle / 2.0)])
    return GATE_MATRICES[name]


@dataclass(frozen=True)
class QuantumState:
    """Normalized 2^N complex amplitude vector; qubit 0 is the leading bit.

    The state keeps a read-only copy of the amplitudes it is given, so a
    later write to the caller's array cannot change it."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.array(self.amplitudes, dtype=complex)
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)
        if amp.ndim != 1 or amp.size & (amp.size - 1):
            raise ValueError("amplitudes must be a length-2^N vector")
        if not abs(np.linalg.norm(amp) - 1.0) <= _NORM_TOL:
            raise ValueError(f"state norm {np.linalg.norm(amp):.12f} is not 1")

    @property
    def n_qubits(self) -> int:
        return self.amplitudes.shape[0].bit_length() - 1

    @classmethod
    def basis(cls, n_qubits: int, index: int) -> "QuantumState":
        """Computational basis state number ``index``."""
        if not isinstance(n_qubits, Integral) or isinstance(n_qubits, bool) or n_qubits < 0:
            raise ValueError(f"n_qubits must be a non-negative integer, got {n_qubits!r}")
        if not isinstance(index, Integral) or isinstance(index, bool):
            raise ValueError(f"basis index must be an integer, got {index!r}")
        if not 0 <= index < 2**n_qubits:
            raise ValueError(f"basis index {index} is outside 0..{2**n_qubits - 1}")
        amp = np.zeros(2**n_qubits, dtype=complex)
        amp[index] = 1.0
        return cls(amp)


@dataclass(frozen=True)
class PulseSegment:
    """One piecewise-constant control interval.

    A physical segment holds ``delta_ghz``/``epsilon_ghz`` for
    ``duration_ns``; ``None`` is all zeros.  Each array is kept as a
    read-only copy, so a later write to the caller's array cannot change it.
    A segment with an ``ideal_op`` instead applies that labeled unitary
    exactly and takes no time; its ``mode`` is ``"ideal"``.
    """

    duration_ns: float = 0.0
    delta_ghz: np.ndarray | None = None
    epsilon_ghz: np.ndarray | None = None
    ideal_op: tuple | None = None

    def __post_init__(self):
        if not (math.isfinite(self.duration_ns) and self.duration_ns >= 0):
            raise ValueError(f"duration_ns must be finite and non-negative, got {self.duration_ns!r}")
        if self.ideal_op is not None:
            _check_ideal_op(self.ideal_op)
            if self.duration_ns != 0.0 or self.delta_ghz is not None or self.epsilon_ghz is not None:
                raise ValueError("ideal segments are instantaneous and carry no drives")
        for name in ("delta_ghz", "epsilon_ghz"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.array(arr, dtype=float)
                arr.flags.writeable = False
                if not np.isfinite(arr).all():
                    raise ValueError(f"{name} must be finite, got {arr.tolist()}")
                object.__setattr__(self, name, arr)

    @property
    def mode(self) -> str:
        return "physical" if self.ideal_op is None else "ideal"


def _check_ideal_op(op) -> None:
    """Raise ValueError unless ``op`` is ("x_flip", q), ("x_rot", q, angle)
    or ("z_rot", q, angle) with q a non-negative int and angle a finite real
    other than a bool."""
    if not op or op[0] not in IDEAL_OPS:
        raise ValueError(f"unknown ideal op {op!r}")
    if len(op) != (2 if op[0] == "x_flip" else 3):
        raise ValueError(f"ideal op {op!r}: x_flip takes a qubit, x_rot and z_rot a qubit and an angle")
    q = op[1]
    if not isinstance(q, Integral) or isinstance(q, bool) or q < 0:
        raise ValueError(f"ideal op {op!r}: qubit must be a non-negative integer")
    if len(op) == 3 and not (isinstance(op[2], Real) and not isinstance(op[2], bool) and math.isfinite(op[2])):
        raise ValueError(f"ideal op {op!r}: angle must be a finite real")


@dataclass(frozen=True)
class PulseSchedule:
    """Ordered control segments over a fixed coupled-qubit system, ``base``."""

    segments: tuple
    base: SpinHamiltonianSpec

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        for seg in self.segments:
            if seg.ideal_op is not None and seg.ideal_op[1] >= self.base.n_qubits:
                raise ValueError(f"ideal op {seg.ideal_op!r} acts outside the base's {self.base.n_qubits} qubits")
            for arr in (seg.delta_ghz, seg.epsilon_ghz):
                if arr is not None and arr.shape != (self.base.n_qubits,):
                    raise ValueError("a segment's drive and bias vectors must have one entry per qubit")

    @property
    def duration_ns(self) -> float:
        return sum((seg.duration_ns for seg in self.segments), 0.0)


def evolve_segment(amps, diag, delta_ghz, t_ns: float) -> np.ndarray:
    """Apply exp(-i 2 pi (H/h) t) exactly to a 2^N amplitude array for a
    segment that drives one qubit, as a new array; norm-preserving.  It
    checks shapes and the drive count, not values: any other drive count is
    ``run_schedule``'s (an undriven run is one phase, k >= 2 driven qubits go
    through ``_block_propagator``) and raises ValueError here.

    H/h = diag(D) - (delta_q/2) X_q, with D (GHz, one entry per basis state:
    ``spin.add_biases`` of ``spin.coupling_diagonal`` and the segment's
    biases) and the drives ``delta_ghz`` (GHz, one per qubit, non-zero at q
    alone).  H splits into 2^(N-1) blocks of size 2 x 2, each H = m I + h Z
    + b X with m = (d0 + d1)/2, h = (d0 - d1)/2 and b = -delta_q/2, where d0,
    d1 are D at bit q = 0, 1.  With Omega = hypot(h, b) its propagator is
    e^{-i 2 pi m t} [cos(2 pi Omega t) I - i (sin(2 pi Omega t)/Omega) (h Z
    + b X)].  At Omega = 0 (h = b = 0) the block is the phase alone; the
    division is guarded there, and hypot keeps Omega from underflowing to 0
    while h or b is not.
    """
    amps = np.asarray(amps, dtype=complex)
    diag = np.asarray(diag, dtype=float)
    delta_ghz = np.asarray(delta_ghz, dtype=float)
    n = amps.size.bit_length() - 1
    if amps.shape != (2**n,) or diag.shape != (2**n,) or delta_ghz.shape != (n,):
        raise ValueError(f"need a length-2^N amplitude vector and diagonal and N drives, got {amps.shape} amplitudes")
    driven = np.flatnonzero(delta_ghz)
    if driven.size != 1:
        raise ValueError(f"evolve_segment drives one qubit, got {driven.size}")
    q = int(driven[0])
    d = diag.reshape(2**q, 2, -1)
    a = amps.reshape(2**q, 2, -1)
    a0, a1 = a[:, 0], a[:, 1]
    m = 0.5 * (d[:, 0] + d[:, 1])
    h = 0.5 * (d[:, 0] - d[:, 1])
    b = -0.5 * delta_ghz[q]
    omega = np.hypot(h, b)
    theta = 2.0 * math.pi * omega * t_ns
    cos = np.cos(theta)
    sin_over = np.sin(theta) / np.where(omega > 0.0, omega, 1.0)
    phase = np.exp(-2j * math.pi * m * t_ns)
    off = -1j * sin_over * b  # the X entry of the bracket
    zh = -1j * sin_over * h
    out = np.empty_like(a)
    out[:, 0] = phase * ((cos + zh) * a0 + off * a1)
    out[:, 1] = phase * (off * a0 + (cos - zh) * a1)
    return out.reshape(-1)


def _block_propagator(diag: np.ndarray, delta_ghz: np.ndarray, t_ns: float):
    """exp(-i 2 pi H_b t) on each of the 2^(N-k) blocks of a segment driving
    k >= 2 qubits, as an ``apply_on_qubits`` operation on the driven qubits.

    Each block H_b is the k-qubit drive operator (``build_hamiltonian`` of
    the driven qubits alone, uncoupled and unbiased) plus its slice of D,
    gathered as the amplitudes are.  The slices take few distinct values (on
    a bus every pair shares one J, so 13-23 of the 64 blocks of a zero-bias
    flip at N = 8), and blocks with equal slices are equal matrices: one
    batched ``eigh`` diagonalises the distinct ones into v exp(-i 2 pi w t)
    v^H, and each block takes its w and v by the inverse index, so its
    output does not depend on the grouping.
    """
    driven = np.flatnonzero(delta_ghz)
    k = driven.size
    drive = build_hamiltonian(SpinHamiltonianSpec(np.zeros((k, k))), delta_ghz[driven], np.zeros(k))
    distinct, inverse = _distinct_rows(_gather(diag, driven))
    w, v = np.linalg.eigh(drive + distinct[:, :, None] * np.eye(2**k))
    w, v = w[inverse], v[inverse]
    phases = np.exp(-2j * math.pi * w * t_ns)[:, :, None]
    return lambda blocks: (v @ (phases * (v.conj().transpose(0, 2, 1) @ blocks[:, :, None])))[:, :, 0]


def _distinct_rows(rows: np.ndarray):
    """The distinct rows of a 2-D array in lexicographic order, and the index
    of each row among them (``rows == distinct[inverse]``).  Rows are compared
    with ``!=``, so -0.0 and 0.0 group together (a drive block adds them to
    the same +0 entries) and a row holding NaN stands alone."""
    order = np.lexsort(rows.T)
    ordered = rows[order]
    starts = np.empty(len(rows), dtype=bool)
    starts[:1] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=starts[1:])
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return ordered[starts], inverse


def _permutation(n_lead: int, n: int, qubits) -> list:
    """Axis order of an (..., 2, ..., 2) array with n qubit axes after n_lead
    others: the ``qubits`` axes go to the back in the given order, and every
    other axis keeps its place in order."""
    moved = [n_lead + int(q) for q in qubits]
    return [axis for axis in range(n_lead + n) if axis not in moved] + moved


def _gather(amps: np.ndarray, qubits) -> np.ndarray:
    """The blocks of the k ``qubits`` in each state of an (..., 2^N) array,
    (..., 2^(N-k), 2^k): their axes go to the back in the given order, and
    the other qubits' blocks stay in basis order."""
    n = amps.shape[-1].bit_length() - 1
    k = len(qubits)
    axes = _permutation(amps.ndim - 1, n, qubits)
    moved = amps.reshape(amps.shape[:-1] + (2,) * n).transpose(axes)
    return moved.reshape(amps.shape[:-1] + (2 ** (n - k), 2**k))


def apply_on_qubits(amps: np.ndarray, qubits, op) -> np.ndarray:
    """Map the (..., 2^(N-k), 2^k) blocks of ``qubits`` in an (..., 2^N)
    array of states through ``op`` and scatter them back.  A gate matrix M,
    indexed in the order ``qubits`` are given, is ``lambda blocks: blocks @
    M.T``."""
    n = amps.shape[-1].bit_length() - 1
    axes = _permutation(amps.ndim - 1, n, qubits)
    blocks = op(_gather(amps, qubits)).reshape(amps.shape[:-1] + (2,) * n)
    return blocks.transpose(np.argsort(axes)).reshape(amps.shape)


def run_schedule(state: QuantumState, schedule: PulseSchedule) -> QuantumState:
    """Left-fold of the schedule's segments over the state's amplitudes; the
    ``QuantumState`` built at the end is the run's one norm check.

    The coupling diagonal C is formed once.  A run of undriven segments sums
    its time T and its eps_s t_s, and applies exp(-i 2 pi (C T + bias(sum)))
    when it ends (at a driven segment, an ideal op or the end).  A driven
    segment uses C itself when it has no bias, one biased copy otherwise;
    one-qubit drives go through ``evolve_segment``.  A segment driving k >= 2
    qubits reuses the block decomposition of the last such segment if it is
    the same object (a CPHASE's second flip) and forms it otherwise, also for
    an equal flip of another gate (``CPHASE 0,1; CPHASE 0,1`` forms two).
    """
    base = schedule.base
    if state.n_qubits != base.n_qubits:
        raise ValueError("state size does not match the schedule's qubit count")
    coupling = coupling_diagonal(base)
    coupling.flags.writeable = False

    def biased(epsilon):
        return add_biases(coupling.copy(), epsilon) if epsilon.any() else coupling

    def end_run(amps, time, bias):
        return np.exp(-2j * math.pi * add_biases(coupling * time, bias)) * amps if time else amps

    off = np.zeros(base.n_qubits)
    amps = state.amplitudes
    time, bias = 0.0, off  # the pending undriven run: total time and summed eps * t
    last = None, None  # the last k >= 2 segment and its propagator
    for seg in schedule.segments:
        epsilon = off if seg.epsilon_ghz is None else seg.epsilon_ghz
        delta = off if seg.delta_ghz is None else seg.delta_ghz
        if seg.ideal_op is None and not delta.any():
            time, bias = time + seg.duration_ns, bias + epsilon * seg.duration_ns
            continue
        amps, time, bias = end_run(amps, time, bias), 0.0, off
        if seg.ideal_op is not None:
            kind, q, *angle = seg.ideal_op
            mat = gate_matrix(IDEAL_OPS[kind], *angle)
            amps = apply_on_qubits(amps, (q,), lambda blocks: blocks @ mat.T)
        elif np.count_nonzero(delta) == 1:
            amps = evolve_segment(amps, biased(epsilon), delta, seg.duration_ns)
        else:
            if last[0] is not seg:
                last = seg, _block_propagator(biased(epsilon), delta, seg.duration_ns)
            amps = apply_on_qubits(amps, np.flatnonzero(delta), last[1])
    return QuantumState(end_run(amps, time, bias))


def fidelity(a: QuantumState, b: QuantumState) -> float:
    """State fidelity |<a|b>|^2 (global-phase invariant)."""
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def reduced_density_matrix(state: QuantumState, keep) -> np.ndarray:
    """Reduced density matrix over the kept qubits (in the given order)."""
    m = _gather(state.amplitudes, list(keep)).T
    return m @ m.conj().T


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """(1/2) ||rho - sigma||_1 for hermitian matrices."""
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(rho - sigma))))


# Columns |0>, |1>, |+>, |+i>: the single-qubit product-input states.
_SINGLE_QUBIT_INPUTS = np.array([[1.0, 0.0, 1.0, 1.0], [0.0, 1.0, 1.0, 1.0j]]) / np.sqrt([1.0, 1.0, 2.0, 2.0])


@dataclass(frozen=True)
class ProcessFidelityResult:
    """Average state fidelity over the 4^n logical {0, 1, +, +i} product
    inputs, plus the worst code-space leakage seen."""

    fidelity: float
    max_leakage: float


def logical_process_fidelity(
    schedule: PulseSchedule,
    ideal_logical_unitary: np.ndarray,
    encoding,
) -> ProcessFidelityResult:
    """Compare a schedule's action on code space against an ideal logical gate.

    ``encoding`` provides ``n_logical``, ``n_physical`` (which must match the
    schedule) and ``code_indices()`` (the basis index of each of the
    2^n_logical code words).  The figure of merit is the state fidelity
    between the schedule output and the encoded ideal output, averaged over
    all 4^n_logical products of {|0>, |1>, |+>, |+i>}; superposition inputs
    make relative-phase errors visible while a global phase cancels per
    input.  Leakage out of the code space is reported, never raised; an
    input whose output (or ideal output) is not normalised to 1e-10 raises
    ValueError.
    """
    idx = encoding.code_indices()
    n_logical = encoding.n_logical
    u = np.asarray(ideal_logical_unitary, dtype=complex)
    if u.shape != (2**n_logical, 2**n_logical):
        raise ValueError("ideal unitary size does not match the encoding")

    # Propagation is linear: run each code word once.  Every product input l
    # (a column of ``inputs``) then gives the output image @ l, whose
    # code-space part is M @ l with M = image[idx]; the ideal output u @ l
    # lies in the code space.
    n_physical = encoding.n_physical
    image = np.column_stack([run_schedule(QuantumState.basis(n_physical, i), schedule).amplitudes for i in idx])
    inputs = reduce(np.kron, [_SINGLE_QUBIT_INPUTS] * n_logical, np.ones((1, 1)))
    ideal = u @ inputs
    gram = image.conj().T @ image  # ||image @ l||^2 = l^dagger gram l
    out_norms = np.sqrt(np.abs(np.sum(inputs.conj() * (gram @ inputs), axis=0)))
    for label, norms in (("output", out_norms), ("ideal output", np.linalg.norm(ideal, axis=0))):
        bad = np.flatnonzero(~(np.abs(norms - 1.0) <= _NORM_TOL))
        if bad.size:
            raise ValueError(f"product input {bad[0]}: {label} norm {norms[bad[0]]:.12f} is not 1")
    code = image[idx] @ inputs
    fidelities = np.abs(np.sum(ideal.conj() * code, axis=0)) ** 2
    leakages = np.maximum(0.0, 1.0 - np.linalg.norm(code, axis=0) ** 2)

    return ProcessFidelityResult(fidelity=float(np.mean(fidelities)), max_leakage=float(np.max(leakages)))
