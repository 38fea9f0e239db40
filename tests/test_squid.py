"""Flux eigensolver and two-level extraction."""

import math
from dataclasses import astuple, replace

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dpttrf, dpttrs
from splitting_oracle import splitting

from fluxbus import squid as squidmod
from fluxbus.constants import JOSEPHSON_GHZ_PER_UA, KINETIC_GHZ_FF, PHI0_PH_UA
from fluxbus.squid import (
    IC_BRACKET_UA,
    MIN_GRID_POINTS,
    FluxGrid,
    NumericalError,
    SquidParams,
    TwoLevelParams,
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
        # A loaded SQUID is the same SQUID with the smaller inductance L/r.
        p = replace(P_UNSUPPRESSED, l_ph=P_UNSUPPRESSED.l_ph / 1.5)
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
        # splitting_oracle.splitting on this grid (2.5 s)
        assert sol.gap == pytest.approx(2.570995640537408, rel=1e-12)

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
        coarse = solve_levels(params, FluxGrid(n_points=4097))
        fine = solve_levels(params, FluxGrid(n_points=8193))
        for a, b in zip(coarse.energies, fine.energies):
            assert abs(a - b) / abs(b) < 1e-6

    def test_near_degenerate_splitting_stable_under_refinement(self):
        coarse = solve_levels(P_UNSUPPRESSED, FluxGrid(n_points=4097))
        fine = solve_levels(P_UNSUPPRESSED, FluxGrid(n_points=8193))
        assert 0.5 <= coarse.gap / fine.gap <= 2.0

    def test_energies_ascending(self):
        sol = solve_levels(P_SUPPRESSED, k=5)
        assert np.all(np.diff(sol.energies) >= 0)

    def test_window_too_small_mass(self):
        with pytest.raises(NumericalError, match="probability mass in the outer 5% of the window"):
            solve_levels(SquidParams(150.0, 80.0, 0.0), FluxGrid(0.08, 513))

    def test_window_missing_well(self):
        # the bias, and with it the only well, lies outside the window
        with pytest.raises(NumericalError, match="potential minimum at the grid edge"):
            solve_levels(SquidParams(150.0, 80.0, 0.0, phi_x=0.9), FluxGrid(0.3, 513))

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            solve_levels(P_UNSUPPRESSED, k=1)


class TestDeepWellDoublets:
    """Deep symmetric double wells, whose doublet partners' energies agree to
    rounding."""

    @pytest.mark.parametrize(
        "params, grid, k",
        [
            (SquidParams(400.0, 80.0, 3.0), None, 3),
            (SquidParams(150.0, 500.0, 3.0), FluxGrid(n_points=30001), 3),  # a fine grid
            (SquidParams(157.5, 85.0, 3.0), None, 2),
        ],
    )
    def test_doublet_solves_with_exact_parity(self, params, grid, k):
        sol = solve_levels(params, grid, k=k)
        assert np.all(np.diff(sol.energies) >= 0.0) and sol.gap >= 0.0
        assert 0.0 < sol.gap < 1e-9 * sol.energies[0]  # a doublet below the energies' rounding
        parities = [
            1 if np.array_equal(psi[::-1], psi) else -1 if np.array_equal(psi[::-1], -psi) else 0
            for psi in sol.wavefunctions
        ]
        assert sorted(parities) == sorted([1] * ((k + 1) // 2) + [-1] * (k // 2))
        # Parity makes levels of different sectors exactly orthogonal; levels
        # 0 and 2 share the even sector.  The 30001-point grid's operator norm
        # is 49 times the default grid's, and its overlap reads 4.9e-12.
        bound = 1e-12 if grid is None else 1e-11
        gram = sol.wavefunctions @ sol.wavefunctions.T * sol.grid.spacing
        assert np.max(np.abs(gram - np.eye(k))) < bound


@pytest.mark.parametrize("n_points", [513, 515])
@pytest.mark.parametrize("ic_ua", [2.375, 3.0, 3.5])
def test_gap_matches_exact_splitting(ic_ua, n_points):
    # From 2.57 GHz down to 3e-16 GHz, 16 orders below the level energies:
    # the gap agrees with the full grid's 40-digit Sturm bisection.
    params, grid = replace(P_UNSUPPRESSED, ic_ua=ic_ua), FluxGrid(n_points=n_points)
    assert solve_levels(params, grid).gap == pytest.approx(splitting(params, grid), rel=1e-12)


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
        with pytest.raises(NumericalError, match="not below"):
            _ground_state(*self.CHAIN, 1e-3, 1e-14)  # above the lowest level, 1.5e-4

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(squidmod, "_INVERSE_ITERATIONS", 1)
        with pytest.raises(NumericalError, match="did not converge"):
            solve_levels(P_SUPPRESSED)

    @pytest.mark.parametrize(
        "block, norm",
        [((CHAIN[0] * 1e-300, CHAIN[1] * 1e-300), "inf"), ((CHAIN[0] * 1e300, CHAIN[1] * 1e300), "0.0")],
        ids=["overflow", "underflow"],
    )
    def test_iterate_out_of_range_raises_at_once(self, monkeypatch, block, norm):
        # refused at the first solve, before any NaN step or numpy warning
        calls = []
        monkeypatch.setattr(squidmod, "dpttrs", lambda *args: calls.append(1) or dpttrs(*args))
        with pytest.raises(NumericalError, match=f"step 1 gave an iterate of norm {norm}:"):
            _ground_state(*block, 0.0, 1e-14)
        assert len(calls) == 1


class TestOddSectorShift:
    """The odd sector's inverse iteration, shifted 4 tol below the even
    ground energy instead of to min U."""

    FLOOR_DOUBLETS = [P_UNSUPPRESSED, SquidParams(157.5, 85.0, 3.0)]

    @staticmethod
    def solve_by_sector(monkeypatch, params, k):
        """solve_levels, with each inverse-iteration sector's block and
        ``dpttrs`` solve count."""
        solves, sectors = [], []
        monkeypatch.setattr(squidmod, "dpttrs", lambda *args: solves.append(1) or dpttrs(*args))

        def counted(diag, off, shift, tol):
            solves.clear()
            result = _ground_state(diag, off, shift, tol)
            sectors.append((diag, off, len(solves)))
            return result

        monkeypatch.setattr(squidmod, "_ground_state", counted)
        return solve_levels(params, k=k), sectors

    @pytest.mark.parametrize(
        "params, k, counts",
        [(P_SUPPRESSED, 2, [19, 9]), (P_UNSUPPRESSED, 2, [20, 2]), (P_SUPPRESSED, 3, [9])],
        ids=["suppressed", "unsuppressed", "suppressed-k3"],
    )
    def test_solves_per_sector(self, monkeypatch, params, k, counts):
        # From min U the odd sectors took 17, 20 and 17 solves.
        _, sectors = self.solve_by_sector(monkeypatch, params, k)
        assert [count for _, _, count in sectors] == counts

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("params", FLOOR_DOUBLETS, ids=["ic3", "l157-c85"])
    def test_floor_doublet_odd_level_matches_bisection(self, monkeypatch, params, k):
        # The shift sits ~4 tol under a level within rounding of the even one,
        # and dpttrf still certifies it.
        sol, sectors = self.solve_by_sector(monkeypatch, params, k)
        diag, off, _ = sectors[-1]
        (odd,) = [j for j, psi in enumerate(sol.wavefunctions) if np.array_equal(psi[::-1], -psi)]
        bisection = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))[0][0]
        norm = float(np.max(np.abs(diag))) + 2.0 * abs(off[0])
        assert abs(sol.energies[odd] - bisection) <= 1e-14 * norm

    def test_outcomes_match_min_u_shift(self, monkeypatch):
        # Seeded random symmetric SQUIDs and windows: each solve succeeds or
        # fails as it does with both sectors shifted to min U, with the same
        # message, and its energies agree to 1e-14 of the operator norm.
        rng = np.random.default_rng(25)
        failed = 0
        for _ in range(100):
            l_ph, c_ff, beta = rng.uniform(100.0, 400.0), rng.uniform(20.0, 500.0), rng.uniform(1.0, 1.6)
            params = SquidParams(l_ph, c_ff, beta * PHI0_PH_UA / (2.0 * math.pi * l_ph))
            half_width = rng.uniform(0.2, 0.75)
            grid = FluxGrid(half_width, 2 * int(rng.integers(MIN_GRID_POINTS // 2, 2049)) + 1)
            k = int(rng.integers(2, 4))
            kin = KINETIC_GHZ_FF / c_ff / grid.spacing**2
            diag = potential(params, grid.points) + 2.0 * kin
            min_u, norm = float(np.min(diag)) - 2.0 * kin, float(np.max(np.abs(diag))) + 2.0 * kin

            outcomes = []
            for ground_state in (_ground_state, lambda diag, off, shift, tol: _ground_state(diag, off, min_u, tol)):
                monkeypatch.setattr(squidmod, "_ground_state", ground_state)
                try:
                    outcomes.append(solve_levels(params, grid, k).energies)
                except NumericalError as exc:
                    outcomes.append(str(exc))
            shifted, reference = outcomes
            if isinstance(reference, str):
                assert shifted == reference
                failed += 1
            else:
                assert np.max(np.abs(shifted - reference)) <= 1e-14 * norm
        assert 10 <= failed <= 90


def _exact_test_every_step(diag, off, shift, tol):
    """The inverse iteration with the exact residual test on every step.

    Returns the energy (None if it did not converge), the vector, the number
    of solves, and each step's exact residual and the residual read from its
    solve."""
    factor_d, factor_e, _ = dpttrf(diag - shift, off)
    x = np.full(diag.size, 1.0 / math.sqrt(diag.size))
    exact, read = [], []
    for _ in range(squidmod._INVERSE_ITERATIONS):
        y, _ = dpttrs(factor_d, factor_e, x)
        x_prev, x = x, y / np.linalg.norm(y)
        read.append(np.linalg.norm(x_prev - (x @ x_prev) * x) / np.linalg.norm(y))
        hx = squidmod._tridiagonal_matvec(diag, off, x)
        energy = float(x @ hx)
        exact.append(np.linalg.norm(hx - energy * x))
        if exact[-1] <= tol:
            break
    else:
        energy = None
    return energy, x, len(exact), np.array(exact), np.array(read)


def test_screened_iteration_matches_exact_test_on_every_step(monkeypatch):
    # 300 random symmetric SQUIDs and 100 drawn as the design sweep draws its
    # design points (L 125-150 pH, C 60-100 fF, Ic across the calibration
    # bracket, default grid): 800 parity sectors.  The residual read from each
    # solve tracks the exact one to 1% of tol on every step that has not
    # converged, and never reads more than 1% of tol above it.  So the read
    # test decides every step as the exact test does: the energy, vector and
    # solve count equal those of the loop that runs the exact test on every
    # step, and only the accepted iterate takes a product with T.
    draws = []
    rng = np.random.default_rng(22)
    for _ in range(300):
        l_ph, c_ff, beta = rng.uniform(100.0, 400.0), rng.uniform(20.0, 500.0), rng.uniform(1.0, 1.6)
        params = SquidParams(l_ph, c_ff, beta * PHI0_PH_UA / (2.0 * math.pi * l_ph))
        draws.append((params, FluxGrid(n_points=2 * int(rng.integers(MIN_GRID_POINTS // 2, 2049)) + 1)))
    rng = np.random.default_rng(35)
    for _ in range(100):
        params = SquidParams(rng.uniform(125.0, 150.0), rng.uniform(60.0, 100.0), rng.uniform(*IC_BRACKET_UA))
        draws.append((params, FluxGrid()))
    sectors = []
    monkeypatch.setattr(squidmod, "_ground_state", lambda *args: sectors.append(args) or _ground_state(*args))
    for params, grid in draws:
        try:
            solve_levels(params, grid)
        except NumericalError:
            pass  # a window too small for this SQUID; its sectors were still solved
    assert len(sectors) >= 800

    solves, products = [], []
    monkeypatch.setattr(squidmod, "dpttrs", lambda *args: solves.append(1) or dpttrs(*args))
    matvec = squidmod._tridiagonal_matvec
    monkeypatch.setattr(squidmod, "_tridiagonal_matvec", lambda *args: products.append(1) or matvec(*args))
    for diag, off, shift, tol in sectors:
        energy, vector, steps, exact, read = _exact_test_every_step(diag, off, shift, tol)
        assert energy is not None
        assert np.max(read - exact) <= 1e-2 * tol
        assert np.max(np.abs(read - exact)[exact > tol], initial=0.0) <= 1e-2 * tol
        solves.clear()
        products.clear()
        energies, vectors = _ground_state(diag, off, shift, tol)
        assert len(solves) == steps and len(products) == 1
        assert np.array_equal(energies, [energy]) and np.array_equal(vectors[:, 0], vector)


class TestExtractTwoLevel:
    def test_unsuppressed_splitting_is_exact(self):
        # 32.2656 Hz, splitting_oracle.splitting on the default grid (the
        # level energies' difference read 32.2625 Hz)
        tlp = extract_two_level(P_UNSUPPRESSED)
        assert tlp.delta_ghz == pytest.approx(3.2265624686460354e-08, rel=1e-12)

    def test_suppressed_splitting_near_2p6_ghz(self):
        tlp = extract_two_level(P_SUPPRESSED)
        assert abs(tlp.delta_ghz - 2.6) <= 0.52

    def test_epsilon_zero_at_symmetry(self, monkeypatch):
        # epsilon is exactly 0 at Phi0/2 alone, None at 0.1 Phi0, where the
        # bias leaves one well, and every bias costs the one symmetric solve.
        solves, epsilons = [], []
        monkeypatch.setattr(squidmod, "solve_levels", lambda *args, **kw: solves.append(1) or solve_levels(*args, **kw))
        for phi_x in (0.5, 0.5 + 5e-13, 0.5 + BIAS_OFFSET, 0.1):
            solves.clear()
            epsilons.append(extract_two_level(replace(P_UNSUPPRESSED, phi_x=phi_x)).epsilon_ghz)
            assert len(solves) == 1
        assert epsilons[0] == 0.0 and epsilons[1] > 0.0 and epsilons[2] > 0.0 and epsilons[3] is None

    @pytest.mark.parametrize("phi_x, one_well", [(0.45, True), (0.47, True), (0.48, False), (0.50015, False)])
    def test_epsilon_none_where_the_bias_leaves_one_well(self, phi_x, one_well):
        # The design SQUID's biased potential keeps two minima at 0.48 and
        # 0.50015 Phi0 and one at 0.47 and 0.45, where 2 i_p dPhi would read
        # 534 and 890 GHz with no splitting to describe.
        epsilon = extract_two_level(replace(P_UNSUPPRESSED, phi_x=phi_x)).epsilon_ghz
        assert epsilon is None if one_well else isinstance(epsilon, float)

    def test_epsilon_at_design_offset_barrier_up(self):
        # Barrier up (Ic = 3 uA): the 0.15 mPhi0 offset splits the wells by
        # 2 i_p dPhi, close to the quoted 2.7 GHz.
        tlp = extract_two_level(replace(P_UNSUPPRESSED, phi_x=0.5 + BIAS_OFFSET))
        assert 2.7 / 2.0 <= tlp.epsilon_ghz <= 2.7 * 2.0
        assert tlp.epsilon_ghz == pytest.approx(2.670567846292215, rel=1e-5)

    def test_epsilon_linear_in_small_offsets(self):
        # epsilon = 2 i_p dPhi: over seeded double-well SQUIDs, epsilon per
        # unit offset is constant to 1e-12 from 1e-11 to 1e-3 Phi0 on either
        # side.  The offset is the one 0.5 + off represents: rounding moves a
        # nominal 1e-11 by up to ~5e-6 of itself.
        rng = np.random.default_rng(31)
        nominal = 10.0 ** -np.arange(3, 12)
        grid = FluxGrid(n_points=1025)
        for _ in range(4):
            l_ph, c_ff, beta = rng.uniform(100.0, 200.0), rng.uniform(40.0, 120.0), rng.uniform(1.05, 1.5)
            params = SquidParams(l_ph, c_ff, beta * PHI0_PH_UA / (2.0 * math.pi * l_ph))
            per_offset = []
            for phi_x in np.concatenate([0.5 + nominal, 0.5 - nominal]):
                tlp = extract_two_level(replace(params, phi_x=float(phi_x)), grid)
                per_offset.append(tlp.epsilon_ghz / abs(phi_x - 0.5))
            assert np.max(np.abs(np.array(per_offset) / per_offset[0] - 1.0)) <= 1e-12

    def test_epsilon_matches_biased_gap_where_higher_levels_are_far(self):
        # At Ic 3.0 uA levels 2 and 3 lie ~36 GHz above the doublet, so the
        # biased grid's sqrt(gap^2 - delta^2) is the same two-level splitting
        # (6.4e-7 apart at 0.15 mPhi0).
        params = replace(P_UNSUPPRESSED, phi_x=0.5 + BIAS_OFFSET)
        tlp = extract_two_level(params)
        biased_gap = solve_levels(params).gap
        assert tlp.epsilon_ghz == pytest.approx(math.sqrt(biased_gap**2 - tlp.delta_ghz**2), rel=1e-5)

    def test_epsilon_at_design_offset_barrier_lowered(self):
        # With Ic suppressed to 2.375 uA the wells are shallow and carry a
        # smaller persistent current; the same offset gives 2 i_p dPhi ~ 1.10
        # GHz.  That is 3.3% above the biased grid's sqrt(gap^2 - delta^2),
        # 1.0631 GHz, which also takes in the repulsion of levels 2 and 3.
        tlp = extract_two_level(replace(P_SUPPRESSED, phi_x=0.5 + BIAS_OFFSET))
        assert tlp.epsilon_ghz == pytest.approx(1.0983401925468779, rel=1e-9)

    def test_persistent_current_consistent_with_design_coupling(self):
        # Back-computed from J ~ 25 MHz at M_eff = 2 fH: sqrt(J h / M_eff) ~ 2.9 uA.
        tlp = extract_two_level(P_UNSUPPRESSED)
        assert tlp.i_p_ua == pytest.approx(2.9, rel=0.1)
        assert tlp.i_p_ua == pytest.approx(2.85248276157373, rel=1e-5)

    def test_no_double_well_signaled(self):
        with pytest.raises(NumericalError, match="beta_L = 0.228 <= 1: potential has a single well"):
            extract_two_level(SquidParams(150.0, 80.0, 0.5))

    def test_renormalization_is_a_small_correction(self):
        factor = 1.0 + 2.0**2 / (150.0 * 2000.0)
        for params in (P_SUPPRESSED, P_UNSUPPRESSED):
            bare = extract_two_level(params).delta_ghz
            loaded = extract_two_level(replace(params, l_ph=params.l_ph / factor)).delta_ghz
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
        # Every midpoint lies below a target above the bracket, so lo never
        # moves and its own splitting is named.
        with pytest.raises(NumericalError, match=r"^target 100 GHz is above delta = 15\.58 GHz at the bracket's "
                           r"low end Ic = 2\.0 uA$"):
            calibrate_critical_current(P_UNSUPPRESSED, 100.0, bracket=(2.0, 3.0))
        with pytest.raises(NumericalError, match=r"^target 1e-12 GHz is below delta = 3\.227e-08 GHz at the bracket's "
                           r"high end Ic = 3\.0 uA$"):
            calibrate_critical_current(P_UNSUPPRESSED, 1e-12, bracket=(2.0, 3.0))

    def test_monotone_decreasing_on_design_bracket(self):
        # Ic 2.8-3.5 uA takes the splitting from 3e-5 to 3e-16 GHz, below the
        # rounding of the level energies, where only the exact splitting is
        # strictly decreasing.
        ics = np.concatenate([[2.0, 2.2, 2.375, 2.5, 2.7], np.linspace(2.8, 3.5, 71)])
        deltas = np.array([solve_levels(replace(P_UNSUPPRESSED, ic_ua=ic)).gap for ic in ics])
        assert np.all(deltas > 0.0) and np.all(np.diff(np.log(deltas)) < 0.0)

    @pytest.mark.parametrize("end", [0, 1])
    def test_an_end_the_bisection_never_left_is_solved_once(self, monkeypatch, end):
        # A target equal to delta at one end keeps every midpoint on the
        # other side of it, so the bisection never moves off that end.
        bracket = (1.5, 3.0)
        target = solve_levels(replace(P_UNSUPPRESSED, ic_ua=bracket[end])).gap
        solved = []

        def counting(params, grid=None, k=2):
            solved.append(params.ic_ua)
            return solve_levels(params, grid, k)

        monkeypatch.setattr(squidmod, "solve_levels", counting)
        eager = _eager_calibration(P_UNSUPPRESSED, target, bracket, None)
        midpoints = len(solved) - 2
        solved.clear()
        assert calibrate_critical_current(P_UNSUPPRESSED, target, bracket).hex() == eager.hex()
        assert [ic for ic in solved if ic in bracket] == [bracket[end]]
        assert len(solved) == midpoints + 1

    def test_enclosure_proven_by_the_bisection_needs_no_end_solve(self, monkeypatch):
        # The design target moves both ends, so a bracket end whose own solve
        # fails no longer stops the calibration.
        expected = calibrate_critical_current(P_UNSUPPRESSED, 2.6, (1.5, 3.0))

        def ends_fail(params, grid=None, k=2):
            if params.ic_ua in (1.5, 3.0):
                raise NumericalError("end solve reached")
            return solve_levels(params, grid, k)

        monkeypatch.setattr(squidmod, "solve_levels", ends_fail)
        assert calibrate_critical_current(P_UNSUPPRESSED, 2.6, (1.5, 3.0)) == expected

    @pytest.mark.parametrize("target", [2.6, 100.0])
    def test_failed_midpoint_raises_its_own_error(self, monkeypatch, target):
        # The first midpoint's solve fails before either end is solved,
        # whether or not the bracket encloses the target.
        def midpoint_fails(params, grid=None, k=2):
            if params.ic_ua not in (1.5, 3.0):
                raise NumericalError("midpoint failed")
            return solve_levels(params, grid, k)

        monkeypatch.setattr(squidmod, "solve_levels", midpoint_fails)
        with pytest.raises(NumericalError, match="^midpoint failed$"):
            calibrate_critical_current(P_UNSUPPRESSED, target, (1.5, 3.0))


def _eager_calibration(params, target, bracket, grid):
    """Reference: the calibration that solves and checks both bracket ends
    before it bisects."""
    lo, hi = bracket

    def delta_of(ic):
        return squidmod.solve_levels(replace(params, ic_ua=ic, phi_x=0.5), grid=grid).gap

    d_lo, d_hi = delta_of(lo), delta_of(hi)
    if not (d_hi <= target <= d_lo):
        raise NumericalError(
            f"target {target:.4g} GHz outside [{d_hi:.4g}, {d_lo:.4g}] GHz reachable on Ic bracket [{lo}, {hi}] uA"
        )
    for _ in range(squidmod._CALIBRATION_STEPS):
        mid = 0.5 * (lo + hi)
        d_mid = delta_of(mid)
        if abs(d_mid - target) <= squidmod._CALIBRATION_REL_TOL * target:
            return mid
        if d_mid > target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-6:
            return 0.5 * (lo + hi)
    return mid


def _outcome(calibrate, *args):
    """The returned Ic bit for bit, or that a ``NumericalError`` was raised:
    the calibration names the bracket end it checks, the reference both."""
    try:
        return calibrate(*args).hex()
    except NumericalError:
        return "NumericalError"


@pytest.mark.parametrize("seed, kind", enumerate(["inside", "above", "below", "floor"]))
def test_calibration_matches_eager_bracket_check(seed, kind):
    # Seeded random SQUIDs and brackets around beta_L = 1, targets drawn
    # log-uniform inside the bracket's splittings, above and below them, and
    # of 1e-12-1e-7 GHz on deep-well brackets (beta_L 1.25-1.6).  The lazy
    # calibration returns the eager one's Ic bit for bit, or raises
    # NumericalError where it raises, and every returned Ic re-solves within
    # the calibration's tolerance of its target.
    grid = FluxGrid(n_points=1025)
    rng = np.random.default_rng(seed)
    raised = set()
    for _ in range(16):
        l_ph, c_ff = rng.uniform(100.0, 200.0), rng.uniform(40.0, 120.0)
        unit = PHI0_PH_UA / (2.0 * math.pi * l_ph)  # Ic at beta_L = 1
        params = SquidParams(l_ph, c_ff, 1.0)
        if kind == "floor":
            bracket = tuple(np.sort(rng.uniform(1.25, 1.6, 2)) * unit)
            target = 10.0 ** rng.uniform(-12.0, -7.0)
        else:
            bracket = tuple(np.sort(rng.uniform(0.9, 1.4, 2)) * unit)
            d_lo, d_hi = (solve_levels(replace(params, ic_ua=ic), grid).gap for ic in bracket)
            exponent = {"inside": (math.log10(d_hi), math.log10(d_lo)),
                        "above": (math.log10(d_lo), math.log10(d_lo) + 1.0),
                        "below": (math.log10(d_hi) - 2.0, math.log10(d_hi))}[kind]
            target = 10.0 ** rng.uniform(*exponent)
        bracket = tuple(float(ic) for ic in bracket)
        expected = _outcome(_eager_calibration, params, target, bracket, grid)
        assert _outcome(calibrate_critical_current, params, target, bracket, grid) == expected
        raised.add(expected == "NumericalError")
        if expected != "NumericalError":
            resolved = solve_levels(replace(params, ic_ua=float.fromhex(expected)), grid).gap
            assert abs(resolved - target) <= squidmod._CALIBRATION_REL_TOL * target
    # On the deep-well brackets some targets are enclosed and some are not.
    assert raised == {"inside": {False}, "above": {True}, "below": {True}, "floor": {False, True}}[kind]


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"l_ph": -1.0, "c_ff": 80.0, "ic_ua": 3.0},
            {"l_ph": 150.0, "c_ff": 0.0, "ic_ua": 3.0},
            {"l_ph": 150.0, "c_ff": 80.0, "ic_ua": -0.1},
            {"l_ph": 150.0, "c_ff": 80.0, "ic_ua": 3.0, "phi_x": 1.0},
        ],
    )
    def test_bad_params_rejected(self, kwargs):
        # Each rule leads with its field and ends with the value it refused.
        rules = {"l_ph": "be positive", "c_ff": "be positive", "ic_ua": "be non-negative",
                 "phi_x": "lie in [0, 1) flux quanta"}
        (field,) = [k for k, v in kwargs.items() if v != {"l_ph": 150.0, "c_ff": 80.0, "ic_ua": 3.0}.get(k)]
        with pytest.raises(ValueError) as info:
            SquidParams(**kwargs)
        assert str(info.value) == f"{field} must {rules[field]}, got {kwargs[field]!r}"

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["l_ph", "c_ff", "ic_ua", "phi_x"])
    def test_non_finite_params_rejected(self, field, value):
        # nan <= 0 is False, so the sign checks alone let NaN through: a NaN L
        # would end in a grid-edge error and an infinite C in a zero splitting.
        kwargs = {"l_ph": 150.0, "c_ff": 80.0, "ic_ua": 3.0, field: value}
        with pytest.raises(ValueError, match=rf"^{field} must"):
            SquidParams(**kwargs)

    def test_bad_grid_rejected(self):
        # Every window is centred on Phi0/2; a reversed, empty or unbounded
        # one is a half-width that is not positive and finite.
        for half_width in (-0.75, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError) as info:
                FluxGrid(half_width, 513)
            assert str(info.value) == f"half_width must be positive and finite, got {half_width!r}"
        with pytest.raises(ValueError, match=r"^n_points must be at least 257, got 128$"):
            FluxGrid(0.5, 128)
        # odd, so that Phi0/2, the mirror plane of the parity split, is a grid point
        for n_points in (258, 4096):
            with pytest.raises(ValueError, match=rf"^n_points must be odd, got {n_points}$"):
                FluxGrid(0.5, n_points)

    @pytest.mark.parametrize("n_points", [300.5, 1e4, True])
    def test_non_integer_n_points_rejected(self, n_points):
        # refused where the grid is built, not as a TypeError from np.linspace
        # at the first solve
        with pytest.raises(ValueError) as info:
            FluxGrid(n_points=n_points)
        assert str(info.value) == f"n_points must be an integer, got {n_points!r}"
        assert FluxGrid(n_points=np.int64(513)).points.size == 513

    @pytest.mark.parametrize(
        "target, bracket, message",
        [
            (0.0, (1.5, 3.0), "target_delta_ghz must be positive, got 0.0"),
            (math.nan, (1.5, 3.0), "target_delta_ghz must be positive, got nan"),
            (2.6, (3.0, 1.5), "bracket must satisfy 0 <= lo < hi, got (3.0, 1.5)"),
            (2.6, (-1.0, 3.0), "bracket must satisfy 0 <= lo < hi, got (-1.0, 3.0)"),
        ],
    )
    def test_bad_calibration_rejected_before_any_solve(self, monkeypatch, target, bracket, message):
        def unreachable(*args, **kwargs):
            raise AssertionError("solve_levels reached")

        monkeypatch.setattr(squidmod, "solve_levels", unreachable)
        with pytest.raises(ValueError) as info:
            calibrate_critical_current(SquidParams(150.0, 80.0, 3.0), target, bracket=bracket)
        assert str(info.value) == message

    def test_default_grid(self):
        g = FluxGrid()
        assert (g.half_width, g.n_points) == (0.75, 4097)
        assert g.points.tobytes() == np.linspace(-0.25, 1.25, 4097).tobytes()
        assert g.spacing == 1.5 / 4096

    def test_two_level_params_fields(self):
        tlp = TwoLevelParams(2.6, 0.0, 2.85)
        assert astuple(tlp) == (2.6, 0.0, 2.85)
