"""Independent reference physics for the benchmark's correctness checks.

Nothing here calls into ``fluxbus``: the flux eigensolve, the gate matrices,
the code map, the spin Hamiltonian and the bus energy are rebuilt from their
definitions, so a check compares the program against a second derivation.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np
from scipy.constants import e as ELEMENTARY_CHARGE
from scipy.constants import h as PLANCK
from scipy.linalg import eigh_tridiagonal, expm

PHI0_WB = PLANCK / (2.0 * ELEMENTARY_CHARGE)
PHI0_PH_UA = PHI0_WB / 1e-18
# E/h in GHz of 1 pH*uA^2 (1e-24 J).
GHZ_PER_PH_UA2 = 1e-24 / PLANCK / 1e9

# ---------------------------------------------------------------- rf-SQUID


def squid_gap_ghz(l_ph, c_ff, ic_ua, n_points=4097, phi_min=-0.25, phi_max=1.25):
    """E1 - E0 (GHz) of one rf-SQUID at the symmetric bias point.

    Three-point finite differences of
    -(hbar^2/2C) d^2/dPhi^2 + (Phi - Phi0/2)^2/2L - E_J cos(2 pi Phi/Phi0)
    on a Dirichlet flux grid in units of Phi0.
    """
    phi = np.linspace(phi_min, phi_max, n_points)
    dphi = (phi_max - phi_min) / (n_points - 1)
    inductive = PHI0_WB**2 / (PLANCK * 1e-12 * 1e9) * (phi - 0.5) ** 2 / (2.0 * l_ph)
    e_j = ic_ua * 1e-6 * PHI0_WB / (2.0 * math.pi * PLANCK) / 1e9
    u = inductive - e_j * np.cos(2.0 * math.pi * phi)
    kin = PLANCK / (8.0 * math.pi**2 * c_ff * 1e-15 * PHI0_WB**2) / 1e9
    diag = u + 2.0 * kin / dphi**2
    off = np.full(n_points - 1, -kin / dphi**2)
    energies = eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(0, 1))
    return float(energies[1] - energies[0])


# --------------------------------------------------------------------- bus


def bus_energy_check(fluxes, biases, l_ph, m_ph, l_b_nh, squid_currents, bus_current, pairwise_ghz):
    """Errors found comparing a bus current solution and its pairwise energy.

    With no trapped flux and no bus bias, the exact inductive energy is
    E = (1/2L)[sum d^2 + q S^2/(1 - r)] and the pairwise form keeps
    (1/2L)[sum d^2 + q S^2], where d_i = (Phi_i - Phi_ix) Phi0, S = sum d_i,
    q = M^2/(L L_b) and r = N q.  Their gap is (1/2L) q S^2 r/(1 - r), and
    S^2 <= N sum d^2 bounds it by r^2/(1 - r) times the bare energy
    (1/2L) sum d^2: the two agree to order (N M^2/L L_b)^2.
    """
    l_b = l_b_nh * 1e3
    d = (np.asarray(fluxes) - np.asarray(biases)) * PHI0_PH_UA
    i = np.asarray(squid_currents)
    errors = []
    loop_residual = np.max(np.abs(l_ph * i + m_ph * bus_current - d)) / PHI0_PH_UA
    bus_residual = abs(m_ph * i.sum() + l_b * bus_current) / PHI0_PH_UA
    if loop_residual > 1e-9 or bus_residual > 1e-9:
        errors.append(f"flux equations violated: loop {loop_residual:.2e}, bus {bus_residual:.2e} Phi0")
    exact = (0.5 * l_ph * float(i @ i) + 0.5 * l_b * bus_current**2 + m_ph * bus_current * float(i.sum()))
    exact *= GHZ_PER_PH_UA2
    bare = float(d @ d) / (2.0 * l_ph) * GHZ_PER_PH_UA2
    r = len(d) * m_ph**2 / (l_ph * l_b)
    bound = r**2 / (1.0 - r) * bare * (1.0 + 1e-9) + 1e-12 * abs(exact)
    if not abs(exact - pairwise_ghz) <= bound:
        errors.append(f"pairwise energy off by {abs(exact - pairwise_ghz):.3e} GHz > r^2/(1-r) bound {bound:.3e}")
    return errors


# ------------------------------------------------------------------ gates

_SQ2 = 1.0 / math.sqrt(2.0)
_FIXED = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "CPHASE": np.diag([1, 1, 1, -1]).astype(complex),
    "CNOT": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
}


def gate_matrix(name, angle=None):
    if name == "RX":
        c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
        return np.array([[c, -1j * s], [-1j * s, c]])
    if name == "RZ":
        return np.diag([np.exp(-0.5j * angle), np.exp(0.5j * angle)])
    return _FIXED[name]


def apply_gate(columns, mat, qubits, n):
    """Apply a k-qubit gate to every column of a (2^n, m) array; qubit 0 is the leading bit."""
    k = len(qubits)
    m = columns.shape[1]
    t = columns.reshape([2] * n + [m])
    rest = [q for q in range(n) if q not in qubits]
    t = np.transpose(t, list(qubits) + rest + [n]).reshape(2**k, -1)
    t = (mat @ t).reshape([2] * n + [m])
    return np.transpose(t, np.argsort(list(qubits) + rest + [n])).reshape(2**n, m)


def logical_unitary(gates, n_logical):
    """Exact logical unitary of ``gates`` = [(name, qubits, angle), ...]."""
    u = np.eye(2**n_logical, dtype=complex)
    for name, qubits, angle in gates:
        u = apply_gate(u, gate_matrix(name, angle), tuple(qubits), n_logical)
    return u


def code_isometry(n_logical):
    """Pair k = physical qubits (2k, 2k+1); |0_L> = |01>, |1_L> = |10>."""
    n = 2 * n_logical
    iso = np.zeros((2**n, 2**n_logical), dtype=complex)
    for ell in range(2**n_logical):
        index = 0
        for k in range(n_logical):
            bit = (ell >> (n_logical - 1 - k)) & 1
            q = 2 * k if bit else 2 * k + 1  # the qubit sitting in |1> (flux down)
            index |= 1 << (n - 1 - q)
        iso[index, ell] = 1.0
    return iso


# ------------------------------------------------------------ propagation

_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_Z = np.array([1.0, -1.0])


def _kron_chain(ops):
    out = np.ones((1, 1))
    for op in ops:
        out = np.kron(out, op)
    return out


def _z_diag(n, qubits):
    out = np.ones(1)
    for q in range(n):
        out = np.kron(out, _Z if q in qubits else np.ones(2))
    return out


def spin_hamiltonian(n, j_ghz, delta_ghz, epsilon_ghz):
    """Dense H/h (GHz): all-to-all J Z_i Z_j - delta_q/2 X_q - epsilon_q/2 Z_q."""
    diag = np.zeros(2**n)
    for i in range(n):
        for j in range(i):
            diag += j_ghz * _z_diag(n, (i, j))
        diag -= 0.5 * epsilon_ghz[i] * _z_diag(n, (i,))
    h = np.diag(diag).astype(complex)
    for q in range(n):
        if delta_ghz[q] != 0.0:
            h -= 0.5 * delta_ghz[q] * _kron_chain([_X if p == q else np.eye(2) for p in range(n)])
    return h


def propagate(columns, segments, n, j_ghz):
    """Apply physical segments [(duration_ns, delta|None, epsilon|None)] by expm."""
    zero = np.zeros(n)
    for duration, delta, epsilon in segments:
        h = spin_hamiltonian(n, j_ghz, zero if delta is None else delta, zero if epsilon is None else epsilon)
        columns = expm(-2j * math.pi * duration * h) @ columns
    return columns


_SINGLE_INPUTS = (
    np.array([1.0, 0.0], dtype=complex),
    np.array([0.0, 1.0], dtype=complex),
    np.array([1.0, 1.0], dtype=complex) * _SQ2,
    np.array([1.0, 1.0j], dtype=complex) * _SQ2,
)


def product_input_fidelity(unitary_on_code, ideal, n_logical):
    """Mean fidelity and worst leakage over the 4^n {0,1,+,+i} product inputs.

    ``unitary_on_code`` is the (2^N, 2^n) image of the code words.
    """
    iso = code_isometry(n_logical)
    fids, leaks = [], []
    for combo in product(_SINGLE_INPUTS, repeat=n_logical):
        logical = _kron_chain([s.reshape(-1, 1) for s in combo]).ravel()
        out = unitary_on_code @ logical
        target = iso @ (ideal @ logical)
        fids.append(abs(np.vdot(target, out)) ** 2)
        leaks.append(max(0.0, 1.0 - float(np.linalg.norm(iso.conj().T @ out) ** 2)))
    return float(np.mean(fids)), float(np.max(leaks))
