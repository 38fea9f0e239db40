"""Dense spin Hamiltonian assembly and coupling topologies."""

import dataclasses

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

from hamiltonian_oracle import ID, SX, SZ, kron_chain, kron_hamiltonian, spec_with


def brute_force_hamiltonian(spec: SpinHamiltonianSpec, delta, epsilon) -> np.ndarray:
    """Independent oracle: assemble every term as an explicit Kronecker product."""
    n = spec.n_qubits
    h = np.zeros((2**n, 2**n), dtype=complex)
    for q in range(n):
        ops = [ID] * n
        ops[q] = SX
        h -= 0.5 * delta[q] * kron_chain(ops)
        ops[q] = SZ
        h -= 0.5 * epsilon[q] * kron_chain(ops)
    for i in range(n):
        for j in range(i):
            ops = [ID] * n
            ops[i] = SZ
            ops[j] = SZ
            h += spec.coupling_mhz[i, j] * 1e-3 * kron_chain(ops)
    return h


class TestBuildHamiltonian:
    def test_single_qubit_tunneling(self):
        h = build_hamiltonian(*spec_with(1, delta=[1.0]))
        evals = np.linalg.eigvalsh(h)
        assert evals == pytest.approx([-0.5, 0.5], abs=1e-14)

    def test_two_qubit_ising_pattern(self):
        # J = 25 MHz on basis order (uu, ud, du, dd): diag(+J, -J, -J, +J).
        h = build_hamiltonian(*spec_with(2, coupling=[[0.0, 25.0], [25.0, 0.0]]))
        j = 0.025
        assert np.allclose(h, np.diag([j, -j, -j, j]), atol=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_brute_force_kron_oracle(self, n):
        rng = np.random.default_rng(n)
        coupling = rng.normal(scale=30.0, size=(n, n))
        coupling = np.triu(coupling, 1)
        coupling = coupling + coupling.T
        args = spec_with(n, delta=rng.normal(size=n), epsilon=rng.normal(size=n), coupling=coupling)
        h = build_hamiltonian(*args)
        assert np.max(np.abs(h - brute_force_hamiltonian(*args))) < 1e-12

    @pytest.mark.parametrize("n", range(1, 7))
    def test_equals_kron_product_oracle_exactly(self, n):
        # The sigma_x terms are permutations of the identity; the Kronecker
        # products give the same entries, bit for bit.
        rng = np.random.default_rng(40 + n)
        coupling = np.triu(rng.normal(scale=30.0, size=(n, n)), 1)
        delta = rng.normal(size=n) * (rng.random(n) < 0.8)
        args = spec_with(n, delta=delta, epsilon=rng.normal(size=n), coupling=coupling + coupling.T)
        h, oracle = build_hamiltonian(*args), kron_hamiltonian(*args)
        assert np.array_equal(h, oracle)
        assert np.array_equal(np.signbit(h.view(float)), np.signbit(oracle.view(float)))

    def test_design_parameters_four_qubits(self):
        args = bus_all_to_all(4, 25.0), np.full(4, 2.6), np.full(4, 2.7)
        h = build_hamiltonian(*args)
        oracle = brute_force_hamiltonian(*args)
        assert np.max(np.abs(h - oracle)) < 1e-12
        assert np.allclose(
            np.linalg.eigvalsh(h), np.linalg.eigvalsh(oracle), atol=1e-12
        )

    def test_hermiticity(self):
        rng = np.random.default_rng(31)
        coupling = rng.normal(scale=10.0, size=(3, 3))
        coupling = np.triu(coupling, 1)
        h = build_hamiltonian(*spec_with(3, delta=rng.normal(size=3), coupling=coupling + coupling.T))
        assert np.max(np.abs(h - h.conj().T)) < 1e-12

    def test_size_cap(self):
        with pytest.raises(ValueError):
            build_hamiltonian(*spec_with(MAX_DENSE_QUBITS + 1))

    def test_invalid_coupling_rejected(self):
        with pytest.raises(ValueError):
            spec_with(2, coupling=[[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            spec_with(2, coupling=[[1.0, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("drives, biases", [(3, 2), (2, 3), (1, 2), (2, 0)])
    def test_drive_and_bias_lengths_checked(self, drives, biases):
        # A 2-qubit graph takes exactly 2 drives and 2 biases.
        with pytest.raises(ValueError, match="need 2 drives and 2 biases"):
            build_hamiltonian(bus_all_to_all(2, 25.0), np.ones(drives), np.ones(biases))

    def test_permutation_symmetry_of_all_to_all_spectrum(self):
        spec, delta, epsilon = bus_all_to_all(4, 25.0), np.full(4, 1.3), np.full(4, 0.7)
        evals = np.linalg.eigvalsh(build_hamiltonian(spec, delta, epsilon))
        # relabeling qubits permutes the basis; the all-equal couplings keep
        # the spectrum fixed
        perm = [2, 0, 3, 1]
        spec2 = SpinHamiltonianSpec(spec.coupling_mhz[np.ix_(perm, perm)])
        evals2 = np.linalg.eigvalsh(build_hamiltonian(spec2, delta[perm], epsilon[perm]))
        assert np.allclose(evals, evals2, atol=1e-12)


class TestSpec:
    def test_coupling_graph_is_the_only_field(self):
        # Every drive and bias is a control pulse, passed where it acts.
        assert [f.name for f in dataclasses.fields(SpinHamiltonianSpec)] == ["coupling_mhz"]

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_qubit_count_from_the_matrix(self, n):
        spec = SpinHamiltonianSpec(np.zeros((n, n)))
        assert spec.n_qubits == n and spec.coupling_mhz.shape == (n, n)
        assert coupling_diagonal(spec).shape == (2**n,)

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (), (2, 2, 2), (0,), (0, 2)], ids=str)
    def test_non_square_or_non_2d_matrix_rejected(self, shape):
        with pytest.raises(ValueError, match="coupling matrix must be square"):
            SpinHamiltonianSpec(np.zeros(shape))

    def test_spec_keeps_a_read_only_copy(self):
        # A write to the caller's matrix after the symmetry check cannot make
        # the spec asymmetric, and the spec's own matrix refuses writes.
        coupling = 25.0 * (np.ones((2, 2)) - np.eye(2))
        spec = SpinHamiltonianSpec(coupling)
        coupling[0, 1] = 5.0
        assert spec.coupling_mhz.tolist() == [[0.0, 25.0], [25.0, 0.0]]
        with pytest.raises(ValueError):
            spec.coupling_mhz[0, 1] = 5.0


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
    return coupling_diagonal(SpinHamiltonianSpec(np.where(inter, spec.coupling_mhz, 0.0)))


class TestInteractionOnly:
    def test_zero_coupling_gives_zero_operator(self):
        assert np.max(np.abs(coupling_diagonal(SpinHamiltonianSpec(np.zeros((3, 3)))))) == 0.0

    def test_drops_drive_terms(self):
        # The coupling diagonal is H/h with every drive and bias off.
        spec = bus_all_to_all(3, 25.0)
        diag = coupling_diagonal(spec)
        oracle = brute_force_hamiltonian(spec, np.zeros(3), np.zeros(3))
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

