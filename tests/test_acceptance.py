"""Acceptance suite: the design-number and gate-quality exit criteria.

Each test prints one PASS line (visible with ``pytest -s`` or on failure);
tolerances are pinned here, not deferred.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

import fluxbus as fb
from fluxbus.cli import cmd_simulate
from fluxbus.cli import main as cli_main

from code_space_oracle import dense_isometry

SQUID = fb.SquidParams(150.0, 80.0, 3.0)
BUS = fb.BusParams(l_b_nh=2.0, m_ph=2.0, n_qubits=1000)
CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS  ({detail})")


def test_criterion_1_unsuppressed_tunneling_30hz():
    start = time.perf_counter()
    tlp = fb.extract_two_level(SQUID)
    elapsed = time.perf_counter() - start
    split_hz = tlp.delta_ghz * 1e9
    assert 30.0 / 3.0 <= split_hz <= 30.0 * 3.0
    assert split_hz == pytest.approx(32.2656, rel=1e-5)  # the discrete problem's exact splitting
    assert elapsed < 10.0
    report(1, f"delta = {split_hz:.4f} Hz vs 30 Hz (x/3..x3), {elapsed:.2f} s")


def test_criterion_2_suppressed_tunneling_and_inverse_calibration():
    suppressed = replace(SQUID, ic_ua=2.375)
    tlp = fb.extract_two_level(suppressed)
    assert abs(tlp.delta_ghz - 2.6) <= 0.2 * 2.6
    ic = fb.calibrate_critical_current(SQUID, 2.6, bracket=(1.5, 3.0))
    assert abs(ic - 2.375) <= 0.1 * 2.375
    report(2, f"delta = {tlp.delta_ghz:.3f} GHz vs 2.6 (+-20%); calibrated Ic = {ic:.4f} uA vs 2.375 (+-10%)")


def test_criterion_3_bias_splitting():
    biased = replace(SQUID, phi_x=0.5 + 0.15e-3)
    tlp = fb.extract_two_level(biased)
    assert 2.7 / 2.0 <= tlp.epsilon_ghz <= 2.7 * 2.0
    report(3, f"epsilon = {tlp.epsilon_ghz:.3f} GHz vs 2.7 (x/2..x2) at 0.15 mPhi0 offset")


def test_criterion_4_effective_mutual_and_coupling():
    m_eff = fb.effective_mutual(BUS)
    assert m_eff == pytest.approx(2.0, abs=1e-9)
    tlp = fb.extract_two_level(SQUID)
    j = fb.coupling_strength(tlp, BUS)
    assert 25.0 / 2.0 <= j <= 25.0 * 2.0
    report(4, f"M_eff = {m_eff:.3f} fH exact; J = {j:.2f} MHz vs 25 (x/2..x2) via i_p = {tlp.i_p_ua:.3f} uA")


def test_criterion_5_qubit_bound_and_weak_coupling():
    n_max = fb.max_qubits(BUS)
    assert n_max == 1000
    ratio = fb.weak_coupling_ratio(SQUID, BUS)
    assert ratio == pytest.approx(2.0 / 150.0, rel=1e-12)  # = 0.01333...
    assert round(ratio, 3) == 0.013
    report(5, f"N_max = {n_max} exact; weak-coupling ratio = {ratio:.6f} ~ 0.013 exact arithmetic")


def test_criterion_6_ifs_annihilation_exact():
    rng = np.random.default_rng(2026)
    for n_pairs in (2, 3, 4, 5, 6):  # up to 12 physical qubits
        n = 2 * n_pairs
        spec = fb.bus_all_to_all(n, 25.0)
        reg = fb.LogicalRegister.default(n_pairs)
        inter = fb.spin.inter_pair_mask(n, reg.pairs)
        diag = fb.spin.coupling_diagonal(fb.SpinHamiltonianSpec(np.where(inter, spec.coupling_mhz, 0.0)))
        for _ in range(10):
            pair_states = []
            for _ in range(n_pairs):
                v = rng.normal(size=2) + 1j * rng.normal(size=2)
                v /= np.linalg.norm(v)
                pair = np.zeros(4, dtype=complex)
                pair[0b01], pair[0b10] = v
                pair_states.append(pair)
            amps = pair_states[0]
            for p in pair_states[1:]:
                amps = np.kron(amps, p)
            state = fb.QuantumState(amps)
            # library route
            assert fb.verify_ifs(state, spec, reg) == 0.0
            # independent oracle: the diagonal vanishes on every basis state
            # in the code-state support, term by term
            support = np.nonzero(amps)[0]
            for idx in support:
                total = 0.0
                for i in range(n):
                    zi = 1 - 2 * ((idx >> (n - 1 - i)) & 1)
                    for j in range(i):
                        if i // 2 == j // 2:
                            continue
                        zj = 1 - 2 * ((idx >> (n - 1 - j)) & 1)
                        total += 0.025 * zi * zj
                assert total == 0.0
                assert diag[idx] == 0.0
    report(6, "inter-pair coupling annihilates random code-space product states exactly, N <= 12")


def test_criterion_7_ideal_gates_and_spectator():
    start = time.perf_counter()
    reg = fb.LogicalRegister.default(2)
    params = fb.ControlParams(mode="ideal")
    cphase = fb.parse_circuit("CPHASE 0,1")

    res_cz = fb.logical_process_fidelity(fb.compile_circuit(cphase, reg, params), CZ, reg)
    assert res_cz.fidelity >= 1.0 - 1e-9

    circuit = (fb.Gate("CNOT", (0, 1)),)
    sched = fb.compile_circuit(circuit, reg, params)
    res_cnot = fb.logical_process_fidelity(sched, fb.ideal_circuit_unitary(circuit, 2), reg)
    assert res_cnot.fidelity >= 1.0 - 1e-9

    reg3 = fb.LogicalRegister.default(3)
    iso = dense_isometry(reg3)
    logical = np.kron(np.kron([1, 0], [0, 1]), [1 / math.sqrt(2), 1j / math.sqrt(2)])
    psi0 = fb.QuantumState(iso @ logical.astype(complex))
    out = fb.run_schedule(psi0, fb.compile_circuit(cphase, reg3, params))
    td = fb.trace_distance(
        fb.reduced_density_matrix(psi0, list(reg3.pairs[2])),
        fb.reduced_density_matrix(out, list(reg3.pairs[2])),
    )
    assert td <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(
        7,
        f"ideal CPHASE F = {res_cz.fidelity:.2e} and CNOT F = {res_cnot.fidelity:.12f} >= 1-1e-9; "
        f"spectator TD = {td:.1e} <= 1e-10; {elapsed:.2f} s",
    )


def test_criterion_8_physical_cphase():
    reg = fb.LogicalRegister.default(2)
    params = fb.ControlParams(delta_ghz=2.6, epsilon_ghz=2.7, j_mhz=25.0, mode="physical")
    cphase = fb.parse_circuit("CPHASE 0,1")
    res = fb.logical_process_fidelity(fb.compile_circuit(cphase, reg, params), CZ, reg)
    assert res.fidelity >= 0.99

    reg3 = fb.LogicalRegister.default(3)
    iso = dense_isometry(reg3)
    logical = np.kron(np.kron([1, 0], [0, 1]), [1 / math.sqrt(2), 1 / math.sqrt(2)])
    psi0 = fb.QuantumState(iso @ logical.astype(complex))
    out = fb.run_schedule(psi0, fb.compile_circuit(cphase, reg3, params))
    td = fb.trace_distance(
        fb.reduced_density_matrix(psi0, list(reg3.pairs[2])),
        fb.reduced_density_matrix(out, list(reg3.pairs[2])),
    )
    assert td <= 1e-3
    report(8, f"physical CPHASE F = {res.fidelity:.5f} >= 0.99; spectator TD = {td:.1e} <= 1e-3")


def test_criterion_9_energy_expansion():
    rng = np.random.default_rng(59)
    bus = fb.BusParams(l_b_nh=2.0, m_ph=2.0, n_qubits=2)
    bound = 10.0 * (2.0**2 / (150.0 * 2000.0)) ** 2
    worst = 0.0
    for _ in range(100):
        fluxes = 0.5 + rng.uniform(-1e-3, 1e-3, 2)
        biases = np.full(2, 0.5)
        sol = fb.solve_currents(fluxes, biases, SQUID, bus)
        e_exact = fb.inductive_energy(sol, SQUID, bus)
        e_pair = fb.pairwise_inductive_energy(fluxes, biases, SQUID, bus)
        rel = abs(e_exact - e_pair) / abs(e_exact)
        worst = max(worst, rel)
        assert rel < bound
    report(9, f"exact vs pairwise energy: worst rel err {worst:.2e} < 10 (M^2/LL_b)^2 = {bound:.2e}")


def test_criterion_10_reproduction_table(capsys):
    code = cli_main(["reproduce-paper", "--format", "records"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    records = [json.loads(line) for line in lines]
    assert records[-1] == {"overall": True, "rows": 7}
    names = [r["name"] for r in records[:-1]]
    assert names == [
        "tunneling_unsuppressed_Hz",
        "tunneling_suppressed_GHz",
        "bias_splitting_GHz",
        "effective_mutual_fH",
        "coupling_J_MHz",
        "N_max",
        "pi_pulse_ns",
    ]
    assert all(r["ok"] for r in records[:-1])
    report(10, "reproduce-paper emits 7 rows, all PASS, exit code 0")


def test_criterion_11_idle_pairs_free_at_twenty_qubits():
    # Only pairs 0 and 1 are driven; every further encoded pair idles in the
    # code space, where the always-on bus coupling acts as zero.  Growing the
    # register from 2 to 7 and 10 logical qubits (N = 4 to 14 and 20) must
    # leave the gate figures unchanged.
    start = time.perf_counter()
    small = cmd_simulate({"n_logical": 2}, "H 0\nCNOT 0,1\n", mode="physical")
    for n_logical in (7, 10):
        large = cmd_simulate({"n_logical": n_logical}, "H 0\nCNOT 0,1\n", mode="physical")
        assert abs(large["fidelity"] - small["fidelity"]) <= 1e-10
        assert abs(large["leakage"] - small["leakage"]) <= 1e-10
        assert max(large["spectator_trace_distance"].values()) <= 1e-10
    elapsed = time.perf_counter() - start
    report(
        11,
        f"physical H;CNOT F = {large['fidelity']:.6f}, leakage = {large['leakage']:.2e} "
        f"at N = 14 and 20 equal N = 4 within 1e-10; {elapsed:.2f} s",
    )
