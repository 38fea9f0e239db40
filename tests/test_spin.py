"""Dense spin Hamiltonian assembly and coupling topologies."""

from dataclasses import replace

import numpy as np
import pytest

from fluxbus.spin import (
    MAX_DENSE_QUBITS,
    SpinHamiltonianSpec,
    build_hamiltonian,
    bus_all_to_all,
    coupling_diagonal,
    inter_pair_mask,
    linear_chain_encoded,
)

from hamiltonian_oracle import ID, SX, SZ, kron_chain, kron_hamiltonian


def brute_force_hamiltonian(spec: SpinHamiltonianSpec) -> np.ndarray:
    """Independent oracle: assemble every term as an explicit Kronecker product."""
    n = spec.n_qubits
    h = np.zeros((2**n, 2**n), dtype=complex)
    for q in range(n):
        ops = [ID] * n
        ops[q] = SX
        h -= 0.5 * spec.delta_ghz[q] * kron_chain(ops)
        ops[q] = SZ
        h -= 0.5 * spec.epsilon_ghz[q] * kron_chain(ops)
    for i in range(n):
        for j in range(i):
            ops = [ID] * n
            ops[i] = SZ
            ops[j] = SZ
            h += spec.coupling_mhz[i, j] * 1e-3 * kron_chain(ops)
    return h


def spec_with(n, delta=None, epsilon=None, coupling=None):
    return SpinHamiltonianSpec(
        n_qubits=n,
        delta_ghz=np.zeros(n) if delta is None else np.asarray(delta, float),
        epsilon_ghz=np.zeros(n) if epsilon is None else np.asarray(epsilon, float),
        coupling_mhz=np.zeros((n, n)) if coupling is None else np.asarray(coupling, float),
    )


class TestBuildHamiltonian:
    def test_single_qubit_tunneling(self):
        spec = spec_with(1, delta=[1.0])
        h = build_hamiltonian(spec)
        evals = np.linalg.eigvalsh(h)
        assert evals == pytest.approx([-0.5, 0.5], abs=1e-14)

    def test_two_qubit_ising_pattern(self):
        # J = 25 MHz on basis order (uu, ud, du, dd): diag(+J, -J, -J, +J).
        spec = spec_with(2, coupling=[[0.0, 25.0], [25.0, 0.0]])
        h = build_hamiltonian(spec)
        j = 0.025
        assert np.allclose(h, np.diag([j, -j, -j, j]), atol=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_brute_force_kron_oracle(self, n):
        rng = np.random.default_rng(n)
        coupling = rng.normal(scale=30.0, size=(n, n))
        coupling = np.triu(coupling, 1)
        coupling = coupling + coupling.T
        spec = spec_with(n, delta=rng.normal(size=n), epsilon=rng.normal(size=n), coupling=coupling)
        h = build_hamiltonian(spec)
        assert np.max(np.abs(h - brute_force_hamiltonian(spec))) < 1e-12

    @pytest.mark.parametrize("n", range(1, 7))
    def test_equals_kron_product_oracle_exactly(self, n):
        # The sigma_x terms are permutations of the identity; the Kronecker
        # products give the same entries, bit for bit.
        rng = np.random.default_rng(40 + n)
        coupling = np.triu(rng.normal(scale=30.0, size=(n, n)), 1)
        delta = rng.normal(size=n) * (rng.random(n) < 0.8)
        spec = spec_with(n, delta=delta, epsilon=rng.normal(size=n), coupling=coupling + coupling.T)
        h, oracle = build_hamiltonian(spec), kron_hamiltonian(spec)
        assert np.array_equal(h, oracle)
        assert np.array_equal(np.signbit(h.view(float)), np.signbit(oracle.view(float)))

    def test_design_parameters_four_qubits(self):
        spec = spec_with(
            4, delta=np.full(4, 2.6), epsilon=np.full(4, 2.7), coupling=bus_all_to_all(4, 25.0).coupling_mhz
        )
        h = build_hamiltonian(spec)
        oracle = brute_force_hamiltonian(spec)
        assert np.max(np.abs(h - oracle)) < 1e-12
        assert np.allclose(
            np.linalg.eigvalsh(h), np.linalg.eigvalsh(oracle), atol=1e-12
        )

    def test_hermiticity(self):
        rng = np.random.default_rng(31)
        coupling = rng.normal(scale=10.0, size=(3, 3))
        coupling = np.triu(coupling, 1)
        spec = spec_with(3, delta=rng.normal(size=3), coupling=coupling + coupling.T)
        h = build_hamiltonian(spec)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12

    def test_size_cap(self):
        with pytest.raises(ValueError):
            build_hamiltonian(spec_with(MAX_DENSE_QUBITS + 1))

    def test_invalid_coupling_rejected(self):
        with pytest.raises(ValueError):
            spec_with(2, coupling=[[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            spec_with(2, coupling=[[1.0, 0.0], [0.0, 1.0]])

    def test_permutation_symmetry_of_all_to_all_spectrum(self):
        spec = spec_with(
            4, delta=np.full(4, 1.3), epsilon=np.full(4, 0.7), coupling=bus_all_to_all(4, 25.0).coupling_mhz
        )
        evals = np.linalg.eigvalsh(build_hamiltonian(spec))
        # relabeling qubits permutes the basis; the all-equal couplings keep
        # the spectrum fixed
        perm = [2, 0, 3, 1]
        spec2 = spec_with(
            4,
            delta=spec.delta_ghz[perm],
            epsilon=spec.epsilon_ghz[perm],
            coupling=spec.coupling_mhz[np.ix_(perm, perm)],
        )
        evals2 = np.linalg.eigvalsh(build_hamiltonian(spec2))
        assert np.allclose(evals, evals2, atol=1e-12)


class TestTopologies:
    def test_bus_all_to_all_is_complete_graph(self):
        spec = bus_all_to_all(4, 25.0)
        off = spec.coupling_mhz[np.triu_indices(4, 1)]
        assert off.shape == (6,)
        assert np.all(off == 25.0)

    def test_chain_of_two_pairs_structure(self):
        spec = linear_chain_encoded(2, 40.0, 25.0)
        c = spec.coupling_mhz
        assert c[0, 1] == 40.0 and c[2, 3] == 40.0  # intra-pair
        cross = [(0, 2), (0, 3), (1, 2), (1, 3)]
        assert all(c[i, j] == 25.0 for i, j in cross)
        assert np.count_nonzero(np.triu(c, 1)) == 6

    def test_chain_of_one_pair_matches_two_qubit_bus(self):
        chain = linear_chain_encoded(1, 25.0, 0.0)
        bus = bus_all_to_all(2, 25.0)
        assert np.array_equal(chain.coupling_mhz, bus.coupling_mhz)

    def test_chain_cross_links_do_not_span_pairs(self):
        spec = linear_chain_encoded(3, 40.0, 25.0)
        assert spec.coupling_mhz[0, 4] == 0.0  # pairs 0 and 2 are not adjacent
        assert spec.coupling_mhz[1, 5] == 0.0

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            bus_all_to_all(1, 25.0)
        with pytest.raises(ValueError):
            linear_chain_encoded(0, 25.0, 25.0)


def inter_pair_diagonal(spec, pairs):
    """``coupling_diagonal`` with each pair's own coupling masked out."""
    inter = inter_pair_mask(spec.n_qubits, pairs)
    return coupling_diagonal(replace(spec, coupling_mhz=np.where(inter, spec.coupling_mhz, 0.0)))


class TestInteractionOnly:
    def test_zero_coupling_gives_zero_operator(self):
        assert np.max(np.abs(coupling_diagonal(spec_with(3)))) == 0.0

    def test_drops_drive_terms(self):
        spec = spec_with(
            3, delta=np.full(3, 2.6), epsilon=np.full(3, 2.7), coupling=bus_all_to_all(3, 25.0).coupling_mhz
        )
        diag = coupling_diagonal(spec)
        oracle = brute_force_hamiltonian(
            spec_with(3, coupling=spec.coupling_mhz)
        )
        assert np.max(np.abs(np.diag(diag) - oracle)) < 1e-15

    def test_inter_pair_annihilates_code_states(self):
        spec = bus_all_to_all(4, 25.0)
        pairs = ((0, 1), (2, 3))
        diag = inter_pair_diagonal(spec, pairs)
        # code words: each pair in 01 or 10
        for pair0 in (0b01, 0b10):
            for pair1 in (0b01, 0b10):
                idx = (pair0 << 2) | pair1
                vec = np.zeros(16)
                vec[idx] = 1.0
                assert np.max(np.abs(diag * vec)) == 0.0

    def test_inter_pair_excludes_intra_terms(self):
        spec = bus_all_to_all(4, 25.0)
        pairs = ((0, 1), (2, 3))
        inter = inter_pair_diagonal(spec, pairs)
        full = coupling_diagonal(spec)
        intra = full - inter
        # intra part: two ZZ terms, J (z0 z1 + z2 z3)
        z = lambda q, idx: 1.0 - 2.0 * ((idx >> (3 - q)) & 1)
        for idx in range(16):
            expected = 0.025 * (z(0, idx) * z(1, idx) + z(2, idx) * z(3, idx))
            assert intra[idx] == pytest.approx(expected, abs=1e-15)

    def test_code_states_degenerate_under_full_coupling(self):
        # Every all-pairs-encoded state is an eigenstate with eigenvalue -P*J.
        spec = bus_all_to_all(6, 25.0)
        diag = coupling_diagonal(spec)
        for word in ((0b01, 0b01, 0b01), (0b01, 0b10, 0b01), (0b10, 0b10, 0b10)):
            idx = (word[0] << 4) | (word[1] << 2) | word[2]
            assert diag[idx] == pytest.approx(-3 * 0.025, abs=1e-15)

