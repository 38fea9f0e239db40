"""Dense spin Hamiltonian from Kronecker products: the reference
``spin.build_hamiltonian``'s index-built sigma_x terms are checked against,
and ``spec_with``, the ``build_hamiltonian`` arguments the tests share."""

from functools import reduce

import numpy as np

from fluxbus.spin import SpinHamiltonianSpec, add_biases, coupling_diagonal

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
ID = np.eye(2, dtype=complex)


def kron_chain(ops) -> np.ndarray:
    """ops[0] (x) ops[1] (x) ...; qubit 0 is the leading factor."""
    return reduce(np.kron, ops, np.eye(1, dtype=complex))


def kron_sigma_x(n_qubits: int, qubit: int) -> np.ndarray:
    """X on ``qubit`` and the identity on every other of ``n_qubits``."""
    return kron_chain([SX if q == qubit else ID for q in range(n_qubits)])


def kron_hamiltonian(spec, delta_ghz, epsilon_ghz) -> np.ndarray:
    """H/h of the coupling graph ``spec`` under the drives ``delta_ghz`` and
    biases ``epsilon_ghz``: the Ising diagonal of ``spin.add_biases`` of
    ``spin.coupling_diagonal``, and each -(delta_q/2) sigma_x_q term as a
    Kronecker product, in the same order as ``build_hamiltonian``, so the two
    agree exactly."""
    h = np.diag(add_biases(coupling_diagonal(spec), np.asarray(epsilon_ghz, dtype=float))).astype(complex)
    for q in np.flatnonzero(delta_ghz):
        h -= 0.5 * delta_ghz[q] * kron_sigma_x(spec.n_qubits, q)
    return h


def spec_with(n, delta=None, epsilon=None, coupling=None):
    """The arguments of ``build_hamiltonian``: an n-qubit coupling graph, its
    drives and its biases, each zero unless given."""
    return (
        SpinHamiltonianSpec(np.zeros((n, n)) if coupling is None else np.asarray(coupling, float)),
        np.zeros(n) if delta is None else np.asarray(delta, float),
        np.zeros(n) if epsilon is None else np.asarray(epsilon, float),
    )
