"""Dense spin Hamiltonian from Kronecker products: the reference
``spin.build_hamiltonian``'s index-built sigma_x terms are checked against."""

from functools import reduce

import numpy as np

from fluxbus.spin import ising_diagonal

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
ID = np.eye(2, dtype=complex)


def kron_chain(ops) -> np.ndarray:
    """ops[0] (x) ops[1] (x) ...; qubit 0 is the leading factor."""
    return reduce(np.kron, ops, np.eye(1, dtype=complex))


def kron_sigma_x(n_qubits: int, qubit: int) -> np.ndarray:
    """X on ``qubit`` and the identity on every other of ``n_qubits``."""
    return kron_chain([SX if q == qubit else ID for q in range(n_qubits)])


def kron_hamiltonian(spec) -> np.ndarray:
    """H/h with the Ising diagonal of ``spin.ising_diagonal`` and each
    -(delta_q/2) sigma_x_q term as a Kronecker product, in the same order as
    ``build_hamiltonian``, so the two agree exactly."""
    h = np.diag(ising_diagonal(spec)).astype(complex)
    for q in np.flatnonzero(spec.delta_ghz):
        h -= 0.5 * spec.delta_ghz[q] * kron_sigma_x(spec.n_qubits, q)
    return h
