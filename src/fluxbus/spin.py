"""N-qubit Pauli Hamiltonian for always-on sigma_z sigma_z coupling.

The two-level reduction of the coupled-SQUID system is

    H/h = sum_i [ -(delta_i/2) sigma_x_i - (epsilon_i/2) sigma_z_i ]
          + sum_{i>j} J_ij sigma_z_i sigma_z_j

with delta, epsilon in GHz and couplings stored in MHz.  Qubit 0 is the most
significant bit of the computational basis index, and spin-up is the |0>
state (sigma_z eigenvalue +1).  ``ising_diagonal`` gives the diagonal part
D = sum_{i>j} J_ij z_i z_j - (1/2) sum_q epsilon_q z_q over the basis:
``coupling_diagonal`` forms the coupling terms in O(2^N) memory and
``add_biases`` adds the non-zero bias terms in place.  The coupling is fixed
for a whole pulse schedule, so ``evolve.run_schedule`` forms it once; it
adds a driven segment's biases to one copy, and an undriven run's summed
eps * t to the coupling times the run's time.  ``build_hamiltonian`` assembles
the dense 2^N x 2^N matrix, capped at ``MAX_DENSE_QUBITS``; each sigma_x
term is the permutation of the identity that flips one bit of the basis
index.  It is the reference the tests compare the block-structured
propagation against, and ``evolve`` calls it only for the 2^k x 2^k drive
operator of a segment that drives k >= 2 qubits (the CPHASE flips), once per
such segment unless it repeats the previous one's (drive, bias, duration),
as a CPHASE's second flip does; one driven qubit has a closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAX_DENSE_QUBITS",
    "SpinHamiltonianSpec",
    "build_hamiltonian",
    "bus_all_to_all",
    "linear_chain_encoded",
    "coupling_diagonal",
    "add_biases",
    "ising_diagonal",
    "inter_pair_mask",
]

MAX_DENSE_QUBITS = 14

_SIGNS = np.array([1.0, -1.0])  # sigma_z eigenvalues of |0> and |1>
_PAIR_SIGNS = np.multiply.outer(_SIGNS, _SIGNS)[:, None, :]  # z_j z_i over (bit j, -, bit i)


@dataclass(frozen=True)
class SpinHamiltonianSpec:
    """Per-qubit splittings plus a symmetric coupling matrix.

    ``delta_ghz`` and ``epsilon_ghz`` are per-qubit arrays (GHz);
    ``coupling_mhz`` is symmetric with zero diagonal (MHz).
    """

    n_qubits: int
    delta_ghz: np.ndarray
    epsilon_ghz: np.ndarray
    coupling_mhz: np.ndarray

    def __post_init__(self):
        if self.n_qubits < 0:
            raise ValueError("n_qubits must be non-negative")
        object.__setattr__(self, "delta_ghz", np.asarray(self.delta_ghz, dtype=float))
        object.__setattr__(self, "epsilon_ghz", np.asarray(self.epsilon_ghz, dtype=float))
        object.__setattr__(self, "coupling_mhz", np.asarray(self.coupling_mhz, dtype=float))
        n = self.n_qubits
        if self.delta_ghz.shape != (n,) or self.epsilon_ghz.shape != (n,):
            raise ValueError("delta and epsilon must be length-N arrays")
        if self.coupling_mhz.shape != (n, n):
            raise ValueError("coupling matrix must be N x N")
        scale = max(float(np.max(np.abs(self.coupling_mhz)) if n else 0.0), 1.0)
        if n and float(np.max(np.abs(self.coupling_mhz - self.coupling_mhz.T))) > 1e-12 * scale:
            raise ValueError("coupling matrix must be symmetric")
        if n and float(np.max(np.abs(np.diag(self.coupling_mhz)))) != 0.0:
            raise ValueError("coupling matrix must have zero diagonal")

    @property
    def dim(self) -> int:
        return 2**self.n_qubits


def inter_pair_mask(n_qubits: int, pairs) -> np.ndarray:
    """N x N boolean mask, True where qubits i and j sit in different pairs.

    A qubit outside every pair of ``pairs`` forms a pair of its own.
    """
    label = np.arange(n_qubits) + n_qubits  # never equal to a pair index
    for p, (a, b) in enumerate(pairs):
        label[a] = label[b] = p
    return label[:, None] != label[None, :]


def _coupling_sum(coupling_ghz: np.ndarray) -> np.ndarray:
    """sum_{i>j} J_ij z_i z_j over the 2^N basis states, J_ij in GHz.

    The terms are added one after another in (i, j) row-major order, zero
    couplings skipped.  Every entry is therefore bit-identical to a
    term-by-term loop over the full basis, and on a code word of adjacent
    pairs with equal couplings each pair's +J and -J cancel exactly.

    Each qubit i doubles the diagonal (qubit i is the new last bit) and adds
    its pairs in place as 2 x 2 sign patterns, so memory stays O(2^N).
    """
    diag = np.zeros(1)
    for i in range(coupling_ghz.shape[0]):
        diag = np.repeat(diag, 2)
        for j in np.flatnonzero(coupling_ghz[i, :i]):
            view = diag.reshape(2**j, 2, -1, 2)
            view += coupling_ghz[i, j] * _PAIR_SIGNS
    return diag


def coupling_diagonal(spec: SpinHamiltonianSpec) -> np.ndarray:
    """Diagonal (GHz) of the sigma_z sigma_z coupling terms over the basis;
    the spec's drives and biases are ignored."""
    return _coupling_sum(spec.coupling_mhz * 1e-3)


def add_biases(diag: np.ndarray, epsilon_ghz: np.ndarray) -> np.ndarray:
    """Add the bias terms -(1/2) sum_q eps_q z_q (GHz) to ``diag`` in place,
    qubit by qubit, and return it.  A zero bias adds nothing and is skipped."""
    for q in np.flatnonzero(epsilon_ghz):
        view = diag.reshape(2**q, 2, -1)
        view -= 0.5 * epsilon_ghz[q] * _SIGNS[:, None]
    return diag


def ising_diagonal(spec: SpinHamiltonianSpec) -> np.ndarray:
    """Diagonal D (GHz) of H/h: sum_{i>j} J_ij z_i z_j - (1/2) sum_q eps_q z_q."""
    return add_biases(coupling_diagonal(spec), spec.epsilon_ghz)


def _sigma_x_term(n_qubits: int, qubit: int) -> np.ndarray:
    """X on ``qubit``: the permutation that flips its bit of the basis index."""
    index = np.arange(2**n_qubits)
    return np.eye(2**n_qubits)[index ^ (1 << (n_qubits - 1 - qubit))]


def build_hamiltonian(spec: SpinHamiltonianSpec) -> np.ndarray:
    """Assemble the dense 2^N x 2^N Hamiltonian H/h in GHz, N <= MAX_DENSE_QUBITS."""
    if spec.n_qubits > MAX_DENSE_QUBITS:
        raise ValueError(f"a dense Hamiltonian is limited to {MAX_DENSE_QUBITS} qubits, got {spec.n_qubits}")
    h = np.zeros((spec.dim, spec.dim), dtype=complex)
    np.fill_diagonal(h, ising_diagonal(spec))
    for q in range(spec.n_qubits):
        if spec.delta_ghz[q] != 0.0:
            h -= 0.5 * spec.delta_ghz[q] * _sigma_x_term(spec.n_qubits, q)
    return h


def bus_all_to_all(n: int, j_mhz: float) -> SpinHamiltonianSpec:
    """All-to-all coupling with one common strength: every qubit talks to the
    bus with the same mutual inductance, so every pair shares the same J."""
    if n < 2:
        raise ValueError("bus coupling needs at least 2 qubits")
    coupling = j_mhz * (np.ones((n, n)) - np.eye(n))
    return SpinHamiltonianSpec(
        n_qubits=n,
        delta_ghz=np.zeros(n),
        epsilon_ghz=np.zeros(n),
        coupling_mhz=coupling,
    )


def linear_chain_encoded(n_logical: int, j_q_mhz: float, j_prime_mhz: float) -> SpinHamiltonianSpec:
    """Linear chain of encoded pairs: qubits (2k, 2k+1) form logical qubit k
    with intra-pair coupling J_Q; all four cross links between adjacent pairs
    carry J'."""
    if n_logical < 1:
        raise ValueError("need at least one encoded pair")
    n = 2 * n_logical
    coupling = np.zeros((n, n))
    for k in range(n_logical):
        a, b = 2 * k, 2 * k + 1
        coupling[a, b] = coupling[b, a] = j_q_mhz
        if k + 1 < n_logical:
            for u in (a, b):
                for v in (a + 2, b + 2):
                    coupling[u, v] = coupling[v, u] = j_prime_mhz
    return SpinHamiltonianSpec(
        n_qubits=n,
        delta_ghz=np.zeros(n),
        epsilon_ghz=np.zeros(n),
        coupling_mhz=coupling,
    )
