"""Flux eigensolver and two-level extraction."""

import math
from dataclasses import replace

import numpy as np
import pytest

from fluxbus import squid as squidmod
from fluxbus.constants import JOSEPHSON_GHZ_PER_UA
from fluxbus.squid import (
    BracketError,
    ConvergenceError,
    FluxGrid,
    NoDoubleWellError,
    SquidParams,
    TwoLevelParams,
    WindowTooSmallError,
    _ground_state,
    beta_l,
    calibrate_critical_current,
    extract_two_level,
    potential,
    solve_levels,
)

# Design point used throughout: L = 150 pH, C = 80 fF.
P_UNSUPPRESSED = SquidParams(150.0, 80.0, 3.0)
P_SUPPRESSED = SquidParams(150.0, 80.0, 2.375)
BIAS_OFFSET = 0.15e-3


class TestPotential:
    def test_parabola_vertex_is_zero(self):
        p = SquidParams(150.0, 80.0, 0.0, phi_x=0.5)
        assert potential(p, 0.5) == 0.0

    def test_barrier_top_equals_josephson_energy(self):
        p = SquidParams(150.0, 80.0, 3.0, phi_x=0.5)
        e_j = JOSEPHSON_GHZ_PER_UA * 3.0
        assert potential(p, 0.5) == pytest.approx(e_j, rel=1e-14)
        # cosine minima sit at -E_J relative to the inductive parabola
        assert potential(p, 0.0) == pytest.approx(
            potential(SquidParams(150.0, 80.0, 0.0, phi_x=0.5), 0.0) - e_j, rel=1e-12
        )

    @pytest.mark.parametrize("d", [0.01, 0.1, 0.21, 0.4])
    def test_even_about_half_quantum(self, d):
        assert potential(P_UNSUPPRESSED, 0.5 + d) == pytest.approx(
            potential(P_UNSUPPRESSED, 0.5 - d), rel=1e-13
        )

    def test_renormalization_steepens_parabola(self):
        p = replace(P_UNSUPPRESSED, l_renorm_factor=1.5)
        assert potential(p, 0.6) > potential(P_UNSUPPRESSED, 0.6)


class TestBetaL:
    def test_design_values(self):
        assert beta_l(P_UNSUPPRESSED) == pytest.approx(1.367, abs=0.001)
        assert beta_l(P_SUPPRESSED) == pytest.approx(1.082, abs=0.001)

    def test_zero_critical_current(self):
        assert beta_l(SquidParams(150.0, 80.0, 0.0)) == 0.0


class TestSolveLevels:
    def test_harmonic_limit_matches_closed_form(self):
        # Ic = 0 leaves a pure LC oscillator: spacing 1/(2 pi sqrt(LC)).
        sol = solve_levels(SquidParams(150.0, 80.0, 0.0), k=4)
        expected = 1.0 / (2.0 * math.pi * math.sqrt(150e-12 * 80e-15)) / 1e9
        for spacing in np.diff(sol.energies):
            assert spacing == pytest.approx(expected, rel=1e-3)

    def test_unsuppressed_splitting_near_30_hz(self):
        sol = solve_levels(P_UNSUPPRESSED)
        split_hz = sol.gap * 1e9
        assert 10.0 <= split_hz <= 90.0  # x/3 band around 30 Hz

    def test_suppressed_splitting_near_2p6_ghz(self):
        sol = solve_levels(P_SUPPRESSED)
        assert abs(sol.gap - 2.6) <= 0.2 * 2.6
        assert sol.gap == pytest.approx(2.570995640416868, rel=1e-6)

    def test_wavefunction_normalization_and_gram(self):
        sol = solve_levels(P_UNSUPPRESSED, k=4)
        gram = sol.wavefunctions @ sol.wavefunctions.T * sol.grid.spacing
        assert np.max(np.abs(gram - np.eye(4))) < 1e-10

    def test_eigen_residual(self):
        from fluxbus.constants import KINETIC_GHZ_FF

        sol = solve_levels(P_UNSUPPRESSED, k=3)
        dphi = sol.grid.spacing
        kin = KINETIC_GHZ_FF / P_UNSUPPRESSED.c_ff
        u = potential(P_UNSUPPRESSED, sol.grid.points)
        for j in range(3):
            v = sol.wavefunctions[j] * math.sqrt(dphi)
            hv = (u + 2.0 * kin / dphi**2) * v
            hv[:-1] += -kin / dphi**2 * v[1:]
            hv[1:] += -kin / dphi**2 * v[:-1]
            assert np.linalg.norm(hv - sol.energies[j] * v) < 1e-8

    def test_symmetry_point_parity_and_moment(self):
        sol = solve_levels(P_UNSUPPRESSED)
        phi, dphi = sol.grid.points, sol.grid.spacing
        psi0, psi1 = sol.wavefunctions
        moment = float(np.sum(psi0**2 * (phi - 0.5)) * dphi)
        assert abs(moment) < 1e-8
        assert np.max(np.abs(psi0 - psi0[::-1])) < 1e-9  # even
        assert np.max(np.abs(psi1 + psi1[::-1])) < 1e-9  # odd
        # sign convention: positive in the left well
        left = phi < 0.5
        assert psi0[left][np.argmax(np.abs(psi0[left]))] > 0
        assert psi1[left][np.argmax(np.abs(psi1[left]))] > 0

    @pytest.mark.parametrize("params", [P_SUPPRESSED, P_UNSUPPRESSED])
    def test_grid_convergence(self, params):
        coarse = solve_levels(params, FluxGrid(-0.25, 1.25, 4097))
        fine = solve_levels(params, FluxGrid(-0.25, 1.25, 8193))
        for a, b in zip(coarse.energies, fine.energies):
            assert abs(a - b) / abs(b) < 1e-6

    def test_near_degenerate_splitting_stable_under_refinement(self):
        coarse = solve_levels(P_UNSUPPRESSED, FluxGrid(-0.25, 1.25, 4097))
        fine = solve_levels(P_UNSUPPRESSED, FluxGrid(-0.25, 1.25, 8193))
        assert 0.5 <= coarse.gap / fine.gap <= 2.0

    def test_energies_ascending(self):
        sol = solve_levels(P_SUPPRESSED, k=5)
        assert np.all(np.diff(sol.energies) >= 0)

    def test_window_too_small_mass(self):
        with pytest.raises(WindowTooSmallError):
            solve_levels(SquidParams(150.0, 80.0, 0.0), FluxGrid(0.42, 0.58, 513))

    def test_window_missing_well(self):
        with pytest.raises(WindowTooSmallError):
            solve_levels(SquidParams(150.0, 80.0, 0.0), FluxGrid(0.6, 1.2, 513))

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            solve_levels(P_UNSUPPRESSED, k=1)


class TestDeepWellDoublets:
    """Deep symmetric double wells, whose doublet partners agree to rounding."""

    @pytest.mark.parametrize(
        "params, grid, k",
        [
            (SquidParams(400.0, 80.0, 3.0), None, 3),
            (SquidParams(150.0, 500.0, 3.0), FluxGrid(-0.25, 1.25, 30000), 3),  # even n
            (SquidParams(157.5, 85.0, 3.0), None, 2),
        ],
    )
    def test_doublet_solves_with_exact_parity(self, params, grid, k):
        sol = solve_levels(params, grid, k=k)
        assert np.all(np.diff(sol.energies) >= 0.0) and sol.gap >= 0.0
        assert sol.gap < 1e-9 * sol.energies[0]  # a doublet at the solver floor
        parities = [
            1 if np.array_equal(psi[::-1], psi) else -1 if np.array_equal(psi[::-1], -psi) else 0
            for psi in sol.wavefunctions
        ]
        assert sorted(parities) == sorted([1] * ((k + 1) // 2) + [-1] * (k // 2))
        gram = sol.wavefunctions @ sol.wavefunctions.T * sol.grid.spacing
        assert np.max(np.abs(gram - np.eye(k))) < 1e-12


class TestSectorGroundState:
    """Inverse iteration, which supplies a parity sector's single level."""

    # Dirichlet chain (2, -1): lowest level 2 - 2 cos(pi/(n+1)), a sine mode.
    CHAIN = (np.full(257, 2.0), np.full(256, -1.0))

    def test_symmetric_two_level_solve_skips_bisection(self, monkeypatch):
        class Bisection(Exception):
            pass

        def bisection(*args, **kwargs):
            raise Bisection

        monkeypatch.setattr(squidmod, "eigh_tridiagonal", bisection)
        assert solve_levels(P_SUPPRESSED).gap == pytest.approx(2.570995640416868, rel=1e-6)
        with pytest.raises(Bisection):
            solve_levels(replace(P_SUPPRESSED, phi_x=0.5 + BIAS_OFFSET))
        with pytest.raises(Bisection):
            solve_levels(P_SUPPRESSED, k=3)

    def test_matches_closed_form_chain(self):
        n = self.CHAIN[0].size
        energies, vectors = _ground_state(*self.CHAIN, 0.0, 1e-14)
        mode = np.sin(math.pi * np.arange(1, n + 1) / (n + 1))
        assert energies.shape == (1,) and vectors.shape == (n, 1)
        assert energies[0] == pytest.approx(2.0 - 2.0 * math.cos(math.pi / (n + 1)), rel=1e-9)
        assert abs(vectors[:, 0] @ mode) / np.linalg.norm(mode) == pytest.approx(1.0, abs=1e-12)

    def test_shift_inside_spectrum_raises(self):
        with pytest.raises(ConvergenceError, match="not below"):
            _ground_state(*self.CHAIN, 1e-3, 1e-14)  # above the lowest level, 1.5e-4

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(squidmod, "_INVERSE_ITERATIONS", 1)
        with pytest.raises(ConvergenceError, match="did not converge"):
            solve_levels(P_SUPPRESSED)


class TestExtractTwoLevel:
    def test_unsuppressed_at_solver_floor(self):
        tlp = extract_two_level(P_UNSUPPRESSED)
        assert tlp.at_solver_floor
        assert 10e-9 <= tlp.delta_ghz <= 90e-9

    def test_suppressed_not_flagged(self):
        tlp = extract_two_level(P_SUPPRESSED)
        assert not tlp.at_solver_floor
        assert abs(tlp.delta_ghz - 2.6) <= 0.52

    def test_epsilon_zero_at_symmetry(self):
        assert extract_two_level(P_UNSUPPRESSED).epsilon_ghz == 0.0

    def test_epsilon_at_design_offset_barrier_up(self):
        # Barrier up (Ic = 3 uA): the 0.15 mPhi0 offset splits the wells by
        # 2 i_p dPhi, close to the quoted 2.7 GHz.
        tlp = extract_two_level(replace(P_UNSUPPRESSED, phi_x=0.5 + BIAS_OFFSET))
        assert 2.7 / 2.0 <= tlp.epsilon_ghz <= 2.7 * 2.0
        assert tlp.epsilon_ghz == pytest.approx(2.670567846292215, rel=1e-5)

    def test_epsilon_at_design_offset_barrier_lowered(self):
        # With Ic suppressed to 2.375 uA the wells are shallow and carry a
        # smaller persistent current; the same offset gives ~1.06 GHz.
        tlp = extract_two_level(replace(P_SUPPRESSED, phi_x=0.5 + BIAS_OFFSET))
        assert tlp.epsilon_ghz == pytest.approx(1.0630893883503547, rel=1e-4)

    def test_persistent_current_consistent_with_design_coupling(self):
        # Back-computed from J ~ 25 MHz at M_eff = 2 fH: sqrt(J h / M_eff) ~ 2.9 uA.
        tlp = extract_two_level(P_UNSUPPRESSED)
        assert tlp.i_p_ua == pytest.approx(2.9, rel=0.1)
        assert tlp.i_p_ua == pytest.approx(2.85248276157373, rel=1e-5)

    def test_no_double_well_signaled(self):
        with pytest.raises(NoDoubleWellError):
            extract_two_level(SquidParams(150.0, 80.0, 0.5))

    def test_renormalization_is_a_small_correction(self):
        factor = 1.0 + 2.0**2 / (150.0 * 2000.0)
        for params in (P_SUPPRESSED, P_UNSUPPRESSED):
            bare = extract_two_level(params).delta_ghz
            loaded = extract_two_level(replace(params, l_renorm_factor=factor)).delta_ghz
            assert abs(loaded - bare) / bare < 1e-2


class TestCalibration:
    def test_recovers_suppressed_design_current(self):
        ic = calibrate_critical_current(P_UNSUPPRESSED, 2.6, bracket=(1.5, 3.0))
        assert abs(ic - 2.375) <= 0.1 * 2.375

    def test_round_trip_identity(self):
        ic0 = 2.45
        target = extract_two_level(replace(P_UNSUPPRESSED, ic_ua=ic0)).delta_ghz
        ic = calibrate_critical_current(P_UNSUPPRESSED, target, bracket=(2.0, 3.0))
        assert extract_two_level(replace(P_UNSUPPRESSED, ic_ua=ic)).delta_ghz == pytest.approx(
            target, rel=2e-3
        )

    def test_30_hz_target_lands_near_unsuppressed_current(self):
        ic = calibrate_critical_current(P_UNSUPPRESSED, 30e-9, bracket=(2.5, 3.5))
        assert abs(ic - 3.0) <= 0.1 * 3.0

    def test_bracket_failure(self):
        with pytest.raises(BracketError):
            calibrate_critical_current(P_UNSUPPRESSED, 100.0, bracket=(2.0, 3.0))

    def test_monotone_decreasing_on_design_bracket(self):
        deltas = [
            solve_levels(replace(P_UNSUPPRESSED, ic_ua=ic)).gap
            for ic in (2.0, 2.2, 2.375, 2.5, 2.7, 3.0)
        ]
        assert all(a > b for a, b in zip(deltas, deltas[1:]))


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"l_ph": -1.0, "c_ff": 80.0, "ic_ua": 3.0},
            {"l_ph": 150.0, "c_ff": 0.0, "ic_ua": 3.0},
            {"l_ph": 150.0, "c_ff": 80.0, "ic_ua": -0.1},
            {"l_ph": 150.0, "c_ff": 80.0, "ic_ua": 3.0, "phi_x": 1.0},
            {"l_ph": 150.0, "c_ff": 80.0, "ic_ua": 3.0, "l_renorm_factor": 0.0},
        ],
    )
    def test_bad_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SquidParams(**kwargs)

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            FluxGrid(1.0, 0.0, 513)
        with pytest.raises(ValueError):
            FluxGrid(0.0, 1.0, 128)

    def test_default_grid(self):
        g = FluxGrid()
        assert (g.phi_min, g.phi_max, g.n_points) == (-0.25, 1.25, 4097)

    def test_two_level_params_fields(self):
        tlp = TwoLevelParams(2.6, 0.0, 2.85)
        assert tlp.delta_ghz == 2.6 and not tlp.at_solver_floor
