"""Bus circuit algebra: current solve, inductive energy, design formulas."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fluxbus.bus import (
    BusParams,
    CurrentSolution,
    coupling_strength,
    effective_mutual,
    flux_quantization_residual,
    inductive_energy,
    max_qubits,
    pairwise_inductive_energy,
    residual_decay_time,
    solve_currents,
    weak_coupling_ratio,
)
from fluxbus.constants import ENERGY_GHZ_PER_PH_UA2, PHI0_PH_UA
from fluxbus.squid import NumericalError, SquidParams, TwoLevelParams

SQUID = SquidParams(150.0, 80.0, 3.0)
BUS4 = BusParams(l_b_nh=2.0, m_ph=2.0, n_qubits=4)


class TestSolveCurrents:
    def test_unbiased_loops_carry_no_current(self):
        sol = solve_currents([0.5] * 4, [0.5] * 4, SQUID, BUS4)
        assert np.max(np.abs(sol.squid_currents_ua)) == 0.0
        assert sol.bus_current_ua == 0.0

    def test_single_squid_bus_response(self):
        # Prescribed I_1 = 1 uA, others zero: bus flux conservation demands
        # I_b = -(M/L_b) I_1 = -1 nA.
        currents = np.array([1.0, 0.0, 0.0, 0.0])
        ib = -(BUS4.m_ph / BUS4.l_b_ph) * float(np.sum(currents))
        assert ib == pytest.approx(-1e-3, rel=1e-12)
        assert flux_quantization_residual(CurrentSolution(currents, ib), BUS4) < 1e-15

    def test_solved_bus_current_satisfies_flux_conservation(self):
        sol = solve_currents([0.5 + 7e-3, 0.5, 0.5, 0.5], [0.5] * 4, SQUID, BUS4)
        expected_ib = -(BUS4.m_ph / BUS4.l_b_ph) * float(np.sum(sol.squid_currents_ua))
        assert sol.bus_current_ua == pytest.approx(expected_ib, rel=1e-12)

    def test_ifs_pair_applies_zero_net_flux(self):
        sol = solve_currents([0.5 + 1e-3, 0.5 - 1e-3, 0.5, 0.5], [0.5] * 4, SQUID, BUS4)
        assert abs(sol.bus_current_ua) < 1e-15

    def test_quantization_residual(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            fluxes = 0.5 + rng.uniform(-1e-2, 1e-2, 4)
            sol = solve_currents(fluxes, [0.5] * 4, SQUID, BUS4)
            assert flux_quantization_residual(sol, BUS4) < 1e-12

    def test_quantization_with_overrides(self):
        bus = BusParams(l_b_nh=2.0, m_ph=2.0, n_qubits=4, phi_bx=0.3)
        sol = solve_currents([0.5] * 4, [0.5] * 4, SQUID, bus, n_quanta=1)
        assert flux_quantization_residual(sol, bus, n_quanta=1) < 1e-12
        assert sol.bus_current_ua != 0.0
        # a NumPy integer is an integer
        numpy_quanta = solve_currents([0.5] * 4, [0.5] * 4, SQUID, bus, n_quanta=np.int64(1))
        assert numpy_quanta.bus_current_ua == sol.bus_current_ua

    @pytest.mark.parametrize("n_quanta", [0.5, 1.0, True])
    def test_non_integer_quanta_rejected(self, n_quanta):
        # Flux quantization traps a whole number of flux quanta in the bus:
        # half a quantum, or True taken as one, is not a bus state.
        message = rf"^n_quanta must be an integer, got {n_quanta!r}$"
        with pytest.raises(ValueError, match=message):
            solve_currents([0.5] * 4, [0.5] * 4, SQUID, BUS4, n_quanta=n_quanta)
        sol = solve_currents([0.5] * 4, [0.5] * 4, SQUID, BUS4)
        with pytest.raises(ValueError, match=message):
            flux_quantization_residual(sol, BUS4, n_quanta=n_quanta)

    def test_linearity(self):
        rng = np.random.default_rng(11)
        biases = np.full(4, 0.5)
        f1 = 0.5 + rng.uniform(-1e-3, 1e-3, 4)
        f2 = 0.5 + rng.uniform(-1e-3, 1e-3, 4)
        s1 = solve_currents(f1, biases, SQUID, BUS4)
        s2 = solve_currents(f2, biases, SQUID, BUS4)
        s12 = solve_currents(f1 + f2 - 0.5, biases, SQUID, BUS4)
        combined = s1.squid_currents_ua + s2.squid_currents_ua
        scale = np.max(np.abs(s12.squid_currents_ua))
        assert np.max(np.abs(combined - s12.squid_currents_ua)) < 1e-12 * scale
        assert abs(s1.bus_current_ua + s2.bus_current_ua - s12.bus_current_ua) <= 1e-12 * max(
            abs(s12.bus_current_ua), 1e-6
        )

    def test_passivity_enforced(self):
        monster = BusParams(l_b_nh=0.001, m_ph=400.0, n_qubits=2)
        with pytest.raises(NumericalError, match="the bus is not passive"):
            solve_currents([0.5, 0.5], [0.5, 0.5], SQUID, monster)

    def test_whole_bus_passivity_enforced(self):
        # Each SQUID alone is passive (M^2 = 100 < L L_b = 15000 pH^2), but the
        # 200 of them together are not: N M^2 = 20000 pH^2 makes the (N+1)-loop
        # inductance matrix indefinite.
        bus = BusParams(l_b_nh=0.1, m_ph=10.0, n_qubits=200)
        with pytest.raises(NumericalError, match="N = 200: the bus is not passive"):
            solve_currents([0.5] * 200, [0.49] * 200, SQUID, bus)

    def test_just_passive_bus_has_positive_energy(self):
        bus = BusParams(l_b_nh=0.1, m_ph=10.0, n_qubits=148)  # N M^2 / (L L_b) = 0.987
        sol = solve_currents([0.5] * 148, [0.49] * 148, SQUID, bus)
        assert inductive_energy(sol, SQUID, bus) > 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            solve_currents([0.5] * 3, [0.5] * 4, SQUID, BUS4)


class TestInductiveEnergy:
    def test_zero_currents(self):
        sol = CurrentSolution(np.zeros(4), 0.0)
        assert inductive_energy(sol, SQUID, BUS4) == 0.0

    def test_single_squid_arithmetic(self):
        sol = CurrentSolution(np.array([1.0, 0.0, 0.0, 0.0]), -1e-3)
        expected = (0.5 * 150.0 * 1.0 + 0.5 * 2000.0 * 1e-6 + 2.0 * (-1e-3) * 1.0)
        assert inductive_energy(sol, SQUID, BUS4) == pytest.approx(
            expected * ENERGY_GHZ_PER_PH_UA2, rel=1e-12
        )

    def test_equals_quadratic_form(self):
        rng = np.random.default_rng(5)
        currents = rng.normal(size=4)
        ib = rng.normal()
        sol = CurrentSolution(currents, ib)
        l_mat = np.zeros((5, 5))
        l_mat[:4, :4] = 150.0 * np.eye(4)
        l_mat[:4, 4] = l_mat[4, :4] = 2.0
        l_mat[4, 4] = 2000.0
        vec = np.append(currents, ib)
        expected = 0.5 * vec @ l_mat @ vec * ENERGY_GHZ_PER_PH_UA2
        assert inductive_energy(sol, SQUID, BUS4) == pytest.approx(expected, rel=1e-12)

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(9)
        fluxes = 0.5 + rng.uniform(-1e-3, 1e-3, 4)
        biases = np.full(4, 0.5)
        e1 = inductive_energy(solve_currents(fluxes, biases, SQUID, BUS4), SQUID, BUS4)
        perm = rng.permutation(4)
        e2 = inductive_energy(solve_currents(fluxes[perm], biases, SQUID, BUS4), SQUID, BUS4)
        assert e1 == pytest.approx(e2, rel=1e-12)


class TestWeakCouplingExpansion:
    def test_pairwise_error_closed_form(self):
        # The exact-minus-pairwise gap has the closed form
        # (M^2 / 2 L^2 L_b) S^2 eta / (1 - eta), S = sum of flux offsets,
        # eta = N M^2 / (L L_b): an independent oracle for the linear solve.
        rng = np.random.default_rng(17)
        squid = SQUID
        for n in (2, 4, 6):
            bus = BusParams(l_b_nh=2.0, m_ph=2.0, n_qubits=n)
            eta = n * 4.0 / (150.0 * 2000.0)
            for _ in range(25):
                offsets = rng.uniform(-1e-3, 1e-3, n)
                fluxes = 0.5 + offsets
                biases = np.full(n, 0.5)
                e_exact = inductive_energy(solve_currents(fluxes, biases, squid, bus), squid, bus)
                e_pair = pairwise_inductive_energy(fluxes, biases, squid, bus)
                s = float(np.sum(offsets)) * PHI0_PH_UA
                predicted = (
                    (4.0 / (2.0 * 150.0**2 * 2000.0)) * s**2 * eta / (1.0 - eta)
                ) * ENERGY_GHZ_PER_PH_UA2
                assert (e_exact - e_pair) == pytest.approx(predicted, abs=1e-12 * abs(e_exact))

    def test_pairwise_bound_design_parameters(self):
        rng = np.random.default_rng(23)
        bus = BusParams(l_b_nh=2.0, m_ph=2.0, n_qubits=2)
        bound = 10.0 * (4.0 / (150.0 * 2000.0)) ** 2
        for _ in range(100):
            fluxes = 0.5 + rng.uniform(-1e-3, 1e-3, 2)
            biases = np.full(2, 0.5)
            e_exact = inductive_energy(solve_currents(fluxes, biases, SQUID, bus), SQUID, bus)
            e_pair = pairwise_inductive_energy(fluxes, biases, SQUID, bus)
            assert abs(e_exact - e_pair) / abs(e_exact) < bound

    def test_ifs_configuration_has_no_expansion_error(self):
        # Offsets summing to zero (every pair balanced) make exact = pairwise.
        offsets = np.array([1e-3, -1e-3, 4e-4, -4e-4, 7e-4, -7e-4, 2e-4, -2e-4])
        bus = BusParams(l_b_nh=2.0, m_ph=2.0, n_qubits=8)
        fluxes = 0.5 + offsets
        biases = np.full(8, 0.5)
        e_exact = inductive_energy(solve_currents(fluxes, biases, SQUID, bus), SQUID, bus)
        e_pair = pairwise_inductive_energy(fluxes, biases, SQUID, bus)
        assert abs(e_exact - e_pair) <= 1e-13 * abs(e_exact)


class TestDesignFormulas:
    def test_effective_mutual_design_point(self):
        assert effective_mutual(BusParams(2.0, 2.0, 1000)) == pytest.approx(2.0, abs=1e-9)

    def test_effective_mutual_zero_and_quadratic(self):
        assert effective_mutual(BusParams(2.0, 0.0, 2)) == 0.0
        assert effective_mutual(BusParams(2.0, 4.0, 2)) == pytest.approx(8.0, rel=1e-12)
        assert effective_mutual(BusParams(2.0, 4.0, 2)) == pytest.approx(
            4.0 * effective_mutual(BusParams(2.0, 2.0, 2)), rel=1e-12
        )

    def test_coupling_strength_design_point(self):
        tlp = TwoLevelParams(3.2e-8, 0.0, 2.9)
        j = coupling_strength(tlp, BusParams(2.0, 2.0, 1000))
        assert 25.0 / 2.0 <= j <= 25.0 * 2.0

    def test_coupling_zero_current(self):
        assert coupling_strength(TwoLevelParams(1.0, 0.0, 0.0), BUS4) == 0.0

    def test_coupling_quadratic_in_mutual(self):
        tlp = TwoLevelParams(1.0, 0.0, 2.9)
        j1 = coupling_strength(tlp, BusParams(2.0, 2.0, 2))
        j2 = coupling_strength(tlp, BusParams(2.0, 4.0, 2))
        assert j2 == pytest.approx(4.0 * j1, rel=1e-12)

    def test_weak_coupling_ratio_design(self):
        ratio = weak_coupling_ratio(SQUID, BusParams(2.0, 2.0, 1000))
        assert ratio == pytest.approx(0.013333333, rel=1e-6)

    def test_weak_coupling_ratio_at_boundary(self):
        # The ratio is a plain formula: past the regime it neither warns nor
        # raises; the caller decides what the value means.
        n_boundary = int(150.0 * 2000.0 / 4.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ratio = weak_coupling_ratio(SQUID, replace(BUS4, n_qubits=n_boundary))
        assert ratio == pytest.approx(1.0, rel=1e-12)

    def test_max_qubits_design_point(self):
        assert max_qubits(BusParams(2.0, 2.0, 1000, k_geom=1.0)) == 1000

    def test_max_qubits_half_coupling(self):
        assert max_qubits(BusParams(2.0, 2.0, 1000, k_geom=0.5)) == 500

    def test_max_qubits_degenerate_bus(self):
        assert max_qubits(BusParams(2.0, 2000.0, 2, k_geom=1.0)) == 1

    def test_residual_decay_times(self):
        assert residual_decay_time(2.0, 1.0) == pytest.approx(2.0)
        assert residual_decay_time(2.0, 0.1) == pytest.approx(20.0)
        assert residual_decay_time(2.0, math.inf) == 0.0

    def test_bus_params_validation(self):
        # Each rule leads with its field and ends with the value it refused.
        for field, value, rule in [
            ("l_b_nh", 0.0, "be positive"),
            ("m_ph", -1.0, "be non-negative"),
            ("n_qubits", 3, "be even and at least 2"),
            ("n_qubits", 0, "be even and at least 2"),
            ("n_qubits", 4.0, "be an integer"),
            ("n_qubits", True, "be an integer"),
            ("k_geom", 1.5, "lie in (0, 1]"),
        ]:
            kwargs = {"l_b_nh": 2.0, "m_ph": 2.0, "n_qubits": 4, field: value}
            with pytest.raises(ValueError) as info:
                BusParams(**kwargs)
            assert str(info.value) == f"{field} must {rule}, got {value!r}"

    def test_residual_decay_rejects_a_resistance_that_is_not_positive(self):
        for r_uohm in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match=rf"^r_uohm must be positive, got {r_uohm!r}$"):
                residual_decay_time(2.0, r_uohm)

    def test_max_qubits_overflow_is_numerical(self):
        # k L_b / M overflows at a subnormal M: a failed evaluation on valid
        # input, not an OverflowError from math.floor
        with pytest.raises(NumericalError, match=r"^k L_b / M overflows double precision at M = 1e-320 pH"):
            max_qubits(BusParams(2.0, 1e-320, 2))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["l_b_nh", "m_ph", "phi_bx", "k_geom"])
    def test_non_finite_bus_params_rejected(self, field, value):
        # nan <= 0 is False: a NaN L_b would pass the sign check and fail in
        # max_qubits, converting NaN to an int.
        kwargs = {"l_b_nh": 2.0, "m_ph": 2.0, "n_qubits": 4, field: value}
        with pytest.raises(ValueError, match=rf"^{field} must"):
            BusParams(**kwargs)
