"""Propagator, schedules, fidelities, reduced states."""

import math
from dataclasses import replace

import numpy as np
import pytest

from fluxbus.evolve import (
    GATE_MATRICES,
    ProcessFidelityResult,
    PulseSchedule,
    PulseSegment,
    QuantumState,
    evolve_segment,
    fidelity,
    gate_matrix,
    logical_process_fidelity,
    reduced_density_matrix,
    run_schedule,
    trace_distance,
)
from fluxbus import evolve as evolve_mod
from fluxbus import spin
from fluxbus.spin import SpinHamiltonianSpec, add_biases, build_hamiltonian, bus_all_to_all, coupling_diagonal

from hamiltonian_oracle import spec_with


def graph(n):
    """n uncoupled qubits."""
    return SpinHamiltonianSpec(np.zeros((n, n)))


def evolve_spec(state, args, t_ns):
    """evolve_segment, the one-drive kernel, under the full Hamiltonian of a
    (graph, drives, biases) triple, norm-checked."""
    spec, delta, epsilon = args
    return QuantumState(evolve_segment(state.amplitudes, add_biases(coupling_diagonal(spec), epsilon), delta, t_ns))


def run_spec(state, args, t_ns):
    """A one-segment schedule of a (graph, drives, biases) triple through
    ``run_schedule``, which takes the path of its drive count."""
    spec, delta, epsilon = args
    return run_schedule(state, PulseSchedule((PulseSegment(t_ns, delta, epsilon),), spec))


def dense_evolve(amps, args, t_ns):
    """The dense oracle: exp(-i 2 pi H t) applied to an amplitude array, from
    ``eigh`` of ``build_hamiltonian`` of a (graph, drives, biases) triple."""
    w, v = np.linalg.eigh(build_hamiltonian(*args))
    return v @ (np.exp(-2j * math.pi * w * t_ns) * (v.conj().T @ amps))


def random_spec(rng, n):
    coupling = rng.normal(scale=40.0, size=(n, n))
    coupling = np.triu(coupling, 1)
    return spec_with(
        n, delta=rng.normal(size=n), epsilon=rng.normal(size=n), coupling=coupling + coupling.T
    )


def random_state(rng, n):
    amp = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return QuantumState(amp / np.linalg.norm(amp))


class TestEvolveSegment:
    """One segment: the one-drive kernel itself, and every drive count as a
    one-segment ``run_schedule`` against the dense oracle."""

    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(0)
        state = random_state(rng, 3)
        out = run_spec(state, random_spec(rng, 3), 0.0)
        assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-14)

    def test_rabi_flip_at_design_tunneling(self):
        # delta = 2.6 GHz: a 1/(2 delta) = 0.192 ns pulse maps up to down.
        spec = spec_with(1, delta=[2.6])
        t_pi = 1.0 / (2.0 * 2.6)
        assert t_pi == pytest.approx(0.1923, abs=1e-4)
        out = evolve_spec(QuantumState.basis(1, 0), spec, t_pi)
        assert abs(out.amplitudes[1]) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_ising_phase(self):
        # J = 25 MHz for 1 ns: the up-down state gains e^{+i 2 pi J t}
        # relative to the aligned states.
        spec = spec_with(2, coupling=[[0.0, 25.0], [25.0, 0.0]])
        plus = QuantumState(np.full(4, 0.5, dtype=complex))
        out = run_spec(plus, spec, 1.0)
        j, t = 0.025, 1.0
        ratio_ud = out.amplitudes[1] / out.amplitudes[0]
        assert ratio_ud == pytest.approx(np.exp(2j * math.pi * j * t) / np.exp(-2j * math.pi * j * t), abs=1e-12)

    def test_unitarity(self):
        rng = np.random.default_rng(1)
        for n in (1, 2, 3):
            spec = random_spec(rng, n)
            h = build_hamiltonian(*spec)
            w, v = np.linalg.eigh(h)
            u = v @ np.diag(np.exp(-2j * math.pi * w * 0.73)) @ v.conj().T
            assert np.max(np.abs(u.conj().T @ u - np.eye(2**n))) < 1e-10
            state = random_state(rng, n)
            out = run_spec(state, spec, 0.73)
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-10
            assert np.max(np.abs(out.amplitudes - u @ state.amplitudes)) <= 1e-12

    def test_composition(self):
        rng = np.random.default_rng(2)
        spec = random_spec(rng, 3)
        state = random_state(rng, 3)
        once = run_spec(state, spec, 1.9)
        twice = run_spec(run_spec(state, spec, 1.1), spec, 0.8)
        assert np.max(np.abs(once.amplitudes - twice.amplitudes)) < 1e-10
        assert np.max(np.abs(once.amplitudes - dense_evolve(state.amplitudes, spec, 1.9))) <= 1e-12

    def test_shapes_checked(self):
        # (amplitudes, diagonal, drives) shapes, each case wrong in one.
        for shapes in [(4, 8, 2), (4, 4, 3), (3, 4, 2), (6, 4, 2), ((2, 2), 4, 2), ((), 4, 2), (0, 4, 2)]:
            amps, diag, delta = (np.zeros(shape) for shape in shapes)
            with pytest.raises(ValueError, match="amplitude vector and diagonal and N drives"):
                evolve_segment(amps, diag, delta, 1.0)

    @pytest.mark.parametrize("delta", [[0.0, 0.0], [2.6, 0.0], [2.6, 1.0]])
    def test_returns_an_array(self, delta):
        # k = 0, 1 and 2 driven qubits, each on its own path: the output is
        # the dense oracle's, in an array of its own.
        spec = spec_with(2, delta=delta, epsilon=[2.0, 1.0], coupling=[[0.0, 25.0], [25.0, 0.0]])
        state = random_state(np.random.default_rng(12), 2)
        out = run_spec(state, spec, 0.3).amplitudes
        assert not np.shares_memory(out, state.amplitudes)
        assert np.max(np.abs(out - dense_evolve(state.amplitudes, spec, 0.3))) <= 1e-12

    def test_one_drive_returns_a_new_array(self):
        amps = random_state(np.random.default_rng(12), 2).amplitudes.copy()
        before = amps.copy()
        out = evolve_segment(amps, np.arange(4.0), np.array([2.6, 0.0]), 0.3)
        assert type(out) is np.ndarray and out.shape == (4,) and not np.shares_memory(out, amps)
        assert np.array_equal(amps, before)

    @pytest.mark.parametrize("delta", [[0.0, 0.0], [2.6, 1.0]])
    def test_other_drive_counts_refused(self, delta):
        # The kernel drives one qubit; run_schedule owns every other count.
        with pytest.raises(ValueError, match=f"^evolve_segment drives one qubit, got {np.count_nonzero(delta)}$"):
            evolve_segment(np.full(4, 0.5, dtype=complex), np.arange(4.0), np.array(delta), 0.3)

    @pytest.mark.parametrize("t_ns", [0.0, 5.0])
    @pytest.mark.parametrize("delta", [5e-324, 9.49e-301, 3.0])
    @pytest.mark.parametrize("n", [1, 3])
    def test_one_drive_closed_form_matches_dense(self, n, delta, t_ns):
        # Tiny drives make Omega^2 underflow; hypot and the Omega = 0 guard
        # keep the 2 x 2 closed form finite.  n = 1 has h = 0 (Omega = |delta|/2
        # or 0); n = 3 couples and biases the driven qubit.
        if n == 1:
            spec = spec_with(1, delta=[delta])
        else:
            coupling = [[0.0, 30.0, -12.0], [30.0, 0.0, 45.0], [-12.0, 45.0, 0.0]]
            spec = spec_with(3, delta=[0.0, delta, 0.0], epsilon=[0.4, 0.9, -1.1], coupling=coupling)
        state = random_state(np.random.default_rng(11), n)
        out = evolve_spec(state, spec, t_ns)
        assert np.max(np.abs(out.amplitudes - dense_evolve(state.amplitudes, spec, t_ns))) <= 1e-12

    def test_energy_conservation(self):
        rng = np.random.default_rng(3)
        spec = random_spec(rng, 3)
        h = build_hamiltonian(*spec)
        state = random_state(rng, 3)
        e0 = np.vdot(state.amplitudes, h @ state.amplitudes).real
        for t in (0.1, 0.9, 5.0):
            out = run_spec(state, spec, t)
            e = np.vdot(out.amplitudes, h @ out.amplitudes).real
            assert abs(e - e0) < 1e-10


class TestIdealOps:
    def test_x_flip_matches_sigma_x(self):
        rng = np.random.default_rng(4)
        state = random_state(rng, 3)
        seg = PulseSegment(ideal_op=("x_flip", 1))
        sched = PulseSchedule((seg,), graph(3))
        out = run_schedule(state, sched)
        expect = state.amplitudes.reshape(2, 2, 2)[:, ::-1, :].reshape(-1)
        assert np.allclose(out.amplitudes, expect, atol=1e-14)

    @pytest.mark.parametrize("angle", [0.3, math.pi / 2, -1.2])
    def test_x_rot_matches_matrix(self, angle):
        c, s = math.cos(angle / 2), math.sin(angle / 2)
        rx = np.array([[c, -1j * s], [-1j * s, c]])
        state = QuantumState(np.array([0.6, 0.8j]))
        seg = PulseSegment(ideal_op=("x_rot", 0, angle))
        out = run_schedule(state, PulseSchedule((seg,), graph(1)))
        assert np.allclose(out.amplitudes, rx @ state.amplitudes, atol=1e-14)

    @pytest.mark.parametrize("angle", [0.3, math.pi / 2, -2.2])
    def test_z_rot_matches_matrix(self, angle):
        rz = np.diag([np.exp(-1j * angle / 2), np.exp(1j * angle / 2)])
        state = QuantumState(np.array([0.6, 0.8j]))
        seg = PulseSegment(ideal_op=("z_rot", 0, angle))
        out = run_schedule(state, PulseSchedule((seg,), graph(1)))
        assert np.allclose(out.amplitudes, rz @ state.amplitudes, atol=1e-14)

    def test_gate_table_is_read_only(self):
        # The table defines both ideal propagation and the verification
        # target, so no caller may edit a matrix it was handed.
        for mat in [*GATE_MATRICES.values(), gate_matrix("H")]:
            with pytest.raises(ValueError):
                mat[0, 0] = 2.0

    def test_ideal_segment_validation(self):
        with pytest.raises(ValueError, match="unknown ideal op"):
            PulseSegment(ideal_op=("y_flip", 0))
        with pytest.raises(ValueError):
            PulseSegment(ideal_op=("x_flip", 0), duration_ns=1.0)
        with pytest.raises(ValueError):
            PulseSegment(ideal_op=("x_flip", 0), delta_ghz=np.zeros(1))
        with pytest.raises(ValueError):
            PulseSegment(duration_ns=-1.0)

    @pytest.mark.parametrize(
        "op",
        [
            (),
            ("x_rot", 0),
            ("z_rot", 0),
            ("x_flip", 0, 0.3),
            ("z_rot", 0, 0.3, 0.3),
            ("x_flip", -1),
            ("x_flip", 5),
            ("x_flip", 2),
            ("x_flip", True),
            ("x_flip", 1.0),
            ("z_rot", 1, "a"),
            ("z_rot", 0, math.nan),
            ("x_rot", 1, math.inf),
            ("x_rot", 0, True),
            ("z_rot", 1, False),
        ],
        ids=repr,
    )
    def test_ideal_op_checked_where_it_enters(self, op):
        # A malformed op, or one on a qubit the base does not have, is
        # refused when the segment or the schedule is built, not mid-run.
        with pytest.raises(ValueError, match="ideal op"):
            PulseSchedule((PulseSegment(ideal_op=op),), bus_all_to_all(2, 25.0))

    def test_mode_is_read_from_the_op(self):
        assert PulseSegment(ideal_op=("x_flip", 0)).mode == "ideal"
        assert PulseSegment(1.0, delta_ghz=np.array([2.6])).mode == "physical"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["duration_ns", "delta_ghz", "epsilon_ghz"])
    def test_non_finite_segment_values_rejected(self, field, value):
        # A NaN duration or drive used to pass (every comparison with NaN is
        # False) and run_schedule returned an all-NaN state.
        kwargs = {"duration_ns": 1.0, field: value if field == "duration_ns" else np.array([2.6, value])}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            PulseSegment(**kwargs)

    @pytest.mark.parametrize("field", ["delta_ghz", "epsilon_ghz"])
    def test_segment_keeps_read_only_copies(self, field):
        # A write to the caller's array after the finiteness check cannot
        # change the segment, and the segment's own array refuses writes.
        values = np.array([2.6, 0.0])
        seg = PulseSegment(1.0, **{field: values})
        values[0] = math.nan
        assert getattr(seg, field) is not values
        assert getattr(seg, field).tolist() == [2.6, 0.0]
        with pytest.raises(ValueError):
            getattr(seg, field)[1] = 1.0


class TestRunSchedule:
    def test_empty_schedule_is_identity(self):
        rng = np.random.default_rng(5)
        state = random_state(rng, 2)
        out = run_schedule(state, PulseSchedule((), graph(2)))
        assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_single_segment_equals_evolve_segment(self):
        rng = np.random.default_rng(6)
        spec = bus_all_to_all(2, 25.0)
        state = random_state(rng, 2)
        seg = PulseSegment(duration_ns=0.4, delta_ghz=np.array([2.6, 0.0]))
        sched = PulseSchedule((seg,), spec)
        direct = evolve_spec(state, (spec, np.array([2.6, 0.0]), np.zeros(2)), 0.4)
        assert np.allclose(run_schedule(state, sched).amplitudes, direct.amplitudes, atol=1e-14)

    def test_override_length_checked(self):
        with pytest.raises(ValueError):
            PulseSchedule(
                (PulseSegment(duration_ns=1.0, delta_ghz=np.zeros(3)),), graph(2)
            )

    def test_state_size_checked(self):
        with pytest.raises(ValueError):
            run_schedule(QuantumState.basis(3, 0), PulseSchedule((), graph(2)))

    def test_coupling_formed_once_per_schedule(self, monkeypatch):
        # The N-qubit coupling sum runs once; each segment's k-qubit drive
        # block (k <= 2 here) forms only its own, coupling-free diagonal.
        sizes = []
        original = spin._coupling_sum
        monkeypatch.setattr(spin, "_coupling_sum", lambda c: sizes.append(c.shape[0]) or original(c))
        seg = PulseSegment(duration_ns=0.3, delta_ghz=np.array([2.6, 0.0, 1.0]), epsilon_ghz=np.array([0.0, 1.0, 0.5]))
        schedule = PulseSchedule((seg, PulseSegment(0.5), seg), bus_all_to_all(3, 25.0))
        run_schedule(QuantumState.basis(3, 0), schedule)
        assert sizes.count(3) == 1 and max(sizes) == 3

    def test_kernels_run_only_where_needed(self, monkeypatch):
        # Undriven runs are folded into phases and one-qubit drives go through
        # evolve_segment.  Only k >= 2 builds a dense drive block: the flip
        # `two` builds it once and reuses it while no other k >= 2 segment
        # comes between, and the same drive under another bias builds anew.
        kernel_calls, blocks = [], []
        kernel, dense = evolve_mod.evolve_segment, evolve_mod.build_hamiltonian
        monkeypatch.setattr(evolve_mod, "evolve_segment", lambda *a: kernel_calls.append(1) or kernel(*a))
        monkeypatch.setattr(
            evolve_mod, "build_hamiltonian", lambda spec, *a: blocks.append(spec.n_qubits) or dense(spec, *a)
        )
        one = PulseSegment(0.3, delta_ghz=np.array([0.0, 2.6, 0.0]))
        two = PulseSegment(0.2, delta_ghz=np.array([1.0, 0.0, 2.0]), epsilon_ghz=np.array([0.5, 0.0, 0.0]))
        rebiased = replace(two, epsilon_ghz=np.array([0.0, 0.0, 0.5]))
        wait, bias = PulseSegment(0.5), PulseSegment(0.4, epsilon_ghz=np.array([0.0, 2.7, 0.0]))
        flip = PulseSegment(ideal_op=("x_flip", 2))
        segments = (wait, one, bias, wait, flip, wait, two, one, wait, bias, two, flip, two, rebiased)
        run_schedule(QuantumState.basis(3, 0), PulseSchedule(segments, bus_all_to_all(3, 25.0)))
        assert len(kernel_calls) == 2 and blocks == [2, 2]

    def test_undriven_run_adds_its_biases_once(self, monkeypatch):
        # Three waits under three distinct biases between two zero-bias
        # flips sum to one bias vector, added to C T once; the flips use the
        # coupling diagonal itself.
        added, add = [], evolve_mod.add_biases
        monkeypatch.setattr(evolve_mod, "add_biases", lambda d, e: added.append(e.copy()) or add(d, e))
        base = bus_all_to_all(4, 25.0)
        flip = PulseSegment(0.19, delta_ghz=np.array([0.0, 2.6, 0.0, 2.6]))
        biases = np.array([[2.7, 0.0, 0.0, 0.0], [0.0, -2.7, 0.0, 0.0], [1.0, 0.0, 0.0, 2.7]])
        times = np.array([0.3, 0.5, 0.2])
        waits = [PulseSegment(t, epsilon_ghz=e) for t, e in zip(times, biases)]
        state = random_state(np.random.default_rng(9), 4)
        out = run_schedule(state, PulseSchedule((flip, *waits, flip), base))
        assert len(added) == 1 and np.allclose(added[0], times @ biases, rtol=0, atol=1e-15)
        off = np.zeros(4)
        expected = dense_evolve(state.amplitudes, (base, flip.delta_ghz, off), 0.19)
        for t, e in zip(times, biases):
            expected = dense_evolve(expected, (base, off, e), t)
        expected = dense_evolve(expected, (base, flip.delta_ghz, off), 0.19)
        assert np.max(np.abs(out.amplitudes - expected)) <= 1e-12

    def test_run_checks_its_state_once(self, monkeypatch):
        # A wait, an ideal op, a one-qubit drive, a bias and the same flip
        # twice fold over one array: only the result is a QuantumState, and
        # the caller's amplitudes are left as they were.
        state = random_state(np.random.default_rng(13), 3)
        before = state.amplitudes.copy()
        flip = PulseSegment(0.19, delta_ghz=np.array([2.6, 0.0, 2.6]))
        segments = (
            PulseSegment(0.5),
            PulseSegment(ideal_op=("z_rot", 1, 0.7)),
            PulseSegment(0.3, delta_ghz=np.array([0.0, 2.6, 0.0])),
            PulseSegment(0.4, epsilon_ghz=np.array([0.0, 2.7, 0.0])),
            flip,
            flip,
        )
        built, post_init = [], QuantumState.__post_init__
        monkeypatch.setattr(QuantumState, "__post_init__", lambda self: built.append(1) or post_init(self))
        out = run_schedule(state, PulseSchedule(segments, bus_all_to_all(3, 25.0)))
        assert len(built) == 1 and isinstance(out, QuantumState)
        assert np.array_equal(state.amplitudes, before)

    def test_eigh_sees_each_distinct_block_once(self, monkeypatch):
        # Every bus pair shares one J, so the 64 block diagonals of a
        # zero-bias flip at N = 8 take few distinct values, and eigh gets
        # one block for each of them.
        n, driven = 8, [3, 5]
        base = bus_all_to_all(n, 25.0)
        delta = np.zeros(n)
        delta[driven] = 2.6
        distinct = {tuple(row) for row in evolve_mod._gather(spin.coupling_diagonal(base), driven)}
        state = QuantumState.basis(n, 0)
        expected = dense_evolve(state.amplitudes, (base, delta, np.zeros(n)), 0.19)
        sizes, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: sizes.append(len(a)) or eigh(a))
        out = run_spec(state, (base, delta, None), 0.19)
        assert sizes == [len(distinct)] and len(distinct) < 64 // 2
        assert np.max(np.abs(out.amplitudes - expected)) <= 1e-12


class TestFidelity:
    def test_self_fidelity(self):
        rng = np.random.default_rng(7)
        psi = random_state(rng, 2)
        assert fidelity(psi, psi) == pytest.approx(1.0, abs=1e-14)

    def test_orthogonal_states(self):
        assert fidelity(QuantumState.basis(2, 0), QuantumState.basis(2, 3)) == 0.0

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(8)
        psi = random_state(rng, 2)
        phased = QuantumState(np.exp(0.77j) * psi.amplitudes)
        assert fidelity(psi, phased) == pytest.approx(1.0, abs=1e-14)


class TestReducedStates:
    def test_product_state_reduction(self):
        a = np.array([0.6, 0.8], dtype=complex)
        b = np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2)
        psi = QuantumState(np.kron(a, b))
        rho = reduced_density_matrix(psi, [0])
        assert np.allclose(rho, np.outer(a, a.conj()), atol=1e-14)
        rho_b = reduced_density_matrix(psi, [1])
        assert np.allclose(rho_b, np.outer(b, b.conj()), atol=1e-14)

    def test_bell_state_reduction_is_maximally_mixed(self):
        bell = QuantumState(np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2))
        rho = reduced_density_matrix(bell, [0])
        assert np.allclose(rho, 0.5 * np.eye(2), atol=1e-14)

    def test_trace_distance(self):
        rho = np.diag([1.0, 0.0])
        sigma = np.diag([0.0, 1.0])
        assert trace_distance(rho, sigma) == pytest.approx(1.0, abs=1e-14)
        assert trace_distance(rho, rho) == 0.0
        assert trace_distance(rho, 0.5 * np.eye(2)) == pytest.approx(0.5, abs=1e-14)


class _TrivialEncoding:
    """One logical qubit in one physical qubit, for fidelity plumbing tests."""

    n_logical = 1
    n_physical = 1

    def code_indices(self):
        return np.arange(2)


class TestLogicalProcessFidelity:
    def test_identity_schedule_against_identity(self):
        sched = PulseSchedule((), graph(1))
        res = logical_process_fidelity(sched, np.eye(2), _TrivialEncoding())
        assert res.fidelity == pytest.approx(1.0, abs=1e-14)
        assert res.max_leakage == pytest.approx(0.0, abs=1e-14)

    def test_detects_relative_phase_error(self):
        seg = PulseSegment(ideal_op=("z_rot", 0, 0.3))
        sched = PulseSchedule((seg,), graph(1))
        res = logical_process_fidelity(sched, np.eye(2), _TrivialEncoding())
        assert res.fidelity < 1.0 - 1e-3

    def test_global_phase_ignored(self):
        # Rz on both the schedule and the target only differ by global phase
        seg = PulseSegment(ideal_op=("z_rot", 0, 0.4))
        sched = PulseSchedule((seg,), graph(1))
        target = np.exp(1j * 1.234) * np.diag(
            [np.exp(-1j * 0.2), np.exp(1j * 0.2)]
        )
        res = logical_process_fidelity(sched, target, _TrivialEncoding())
        assert res.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_non_unitary_target_rejected(self):
        sched = PulseSchedule((), graph(1))
        with pytest.raises(ValueError, match="ideal output norm"):
            logical_process_fidelity(sched, np.diag([1.0, 0.5]), _TrivialEncoding())

    def test_encoding_size_must_match_schedule(self):
        sched = PulseSchedule((), graph(2))
        with pytest.raises(ValueError, match="state size"):
            logical_process_fidelity(sched, np.eye(2), _TrivialEncoding())

    def test_result_dataclass(self):
        res = ProcessFidelityResult(fidelity=0.5, max_leakage=0.1)
        assert res.fidelity == 0.5


class TestQuantumState:
    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            QuantumState(np.array([1.0, 1.0]))

    @pytest.mark.parametrize("amplitudes", [[math.nan, 0.0], [1.0, math.nan], [math.inf, 0.0]])
    def test_non_finite_amplitudes_rejected(self, amplitudes):
        with pytest.raises(ValueError, match="is not 1"):
            QuantumState(np.array(amplitudes))

    def test_power_of_two_enforced(self):
        with pytest.raises(ValueError):
            QuantumState(np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            QuantumState(np.array(1.0))
        for count in (-1, 2.5, True):
            with pytest.raises(ValueError, match=rf"^n_qubits must be a non-negative integer, got {count!r}$"):
                QuantumState.basis(count, 0)

    @pytest.mark.parametrize("index", [-1, 4, 7, 1.5, True])
    def test_basis_index_checked(self, index):
        # 1.5 would fail inside numpy, and True would index every amplitude.
        with pytest.raises(ValueError, match="^basis index"):
            QuantumState.basis(2, index)

    def test_state_keeps_a_read_only_copy(self):
        # A write to the caller's array after the norm check cannot change
        # the state, and the state's own array refuses writes.
        amps = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        state = QuantumState(amps)
        amps[0] = 5.0
        assert state.amplitudes[0] == 1.0
        with pytest.raises(ValueError):
            state.amplitudes[0] = 5.0

    def test_empty_schedule_output_is_its_own_array(self):
        amps = np.array([0.6, 0.0, 0.8j, 0.0])
        out = run_schedule(QuantumState(amps), PulseSchedule((), graph(2)))
        amps[0] = 5.0
        assert not np.shares_memory(out.amplitudes, amps)
        assert np.array_equal(out.amplitudes, [0.6, 0.0, 0.8j, 0.0])

    def test_basis_from_bits(self):
        s = QuantumState.basis(3, 0b101)
        assert s.amplitudes[0b101] == 1.0
        assert s.n_qubits == 3
