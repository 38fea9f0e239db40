"""Single rf-SQUID flux dynamics.

Solves the one-dimensional loop Hamiltonian

    H = -(hbar^2 / 2C) d^2/dPhi^2 + (Phi - Phi_x)^2 / (2 L) - E_J cos(2 pi Phi / Phi0)

on a uniform flux grid with Dirichlet boundaries and reduces the two lowest
levels to two-level qubit parameters: tunneling splitting ``delta``, bias
asymmetry ``epsilon`` and persistent current ``i_p``.

Every grid has an odd number of points centred on Phi0/2, so the
symmetric bias is mirror symmetric on the grid; there ``solve_levels`` gives
each level exact parity and ``delta`` full relative precision at any well
depth.

Conventions
-----------
* ``delta`` is the observable splitting (E1 - E0)/h at the symmetric bias
  point Phi_x = Phi0/2; the qubit Hamiltonian uses -(delta/2) sigma_x so the
  gap equals ``delta``.
* ``epsilon`` = 2 i_p |Phi_x - Phi0/2| is the full well splitting produced
  by a bias offset, so the biased two-level gap is sqrt(delta^2 + epsilon^2).
* A pi pulse at tunneling ``delta`` takes 1/(2 delta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Integral

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dpttrf, dpttrs

from .constants import (
    ENERGY_GHZ_PER_PH_UA2,
    FLUX_ENERGY_GHZ_PH,
    JOSEPHSON_GHZ_PER_UA,
    KINETIC_GHZ_FF,
    PHI0_PH_UA,
)

__all__ = [
    "SquidParams",
    "FluxGrid",
    "EigenSolution",
    "TwoLevelParams",
    "NumericalError",
    "potential",
    "solve_levels",
    "extract_two_level",
    "calibrate_critical_current",
    "beta_l",
    "MIN_GRID_POINTS",
    "IC_BRACKET_UA",
]

# How far (Phi0) the bias may sit from Phi0/2 for the mirror-symmetric solve.
_CENTRE_TOL = 1e-12
# Probability mass allowed in the outer 5% of the grid before the window is
# declared too small.
_EDGE_MASS_LIMIT = 1e-6
# Eigen-residual bound per unit of operator norm: 9.7e-9 GHz for the design
# SQUID on the default 4097-point grid, where the norm is 7.4e5 GHz.
_RESIDUAL_PER_NORM = 1.3e-14
# Inverse-iteration steps allowed per parity sector (``_ground_state``).  Over
# 600 random symmetric SQUIDs (L 100-400 pH, C 20-500 fF, Ic 0-3.5 uA, odd
# 257-4097 points) the even sector took 11-26 steps and the odd sector 2-25
# (mean 11.7): 2 where its level is a deep-well doublet partner, most where
# the well is harmonic.
_INVERSE_ITERATIONS = 100

# Fewest points of a FluxGrid; the Ic calibration's default bracket (uA),
# relative tolerance on delta and bisection step limit.
MIN_GRID_POINTS = 257
IC_BRACKET_UA = (1.5, 3.0)
_CALIBRATION_REL_TOL = 1e-3
_CALIBRATION_STEPS = 200


class NumericalError(RuntimeError):
    """A solve failed on valid input: the flux window is too small, the
    potential has no double well, a calibration target lies outside its
    bracket, an eigensolve did not converge, or a bus is not passive."""


@dataclass(frozen=True)
class SquidParams:
    """Circuit constants of one rf-SQUID loop.  On a bus loop L_b through a
    mutual M, ``l_ph`` is the loaded loop inductance L/(1 + M^2/(L L_b))."""

    l_ph: float
    c_ff: float
    ic_ua: float
    phi_x: float = 0.5

    def __post_init__(self):
        for name in ("l_ph", "c_ff", "ic_ua"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        for name in ("l_ph", "c_ff"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        if self.ic_ua < 0:
            raise ValueError(f"ic_ua must be non-negative, got {self.ic_ua!r}")
        if not 0.0 <= self.phi_x < 1.0:
            raise ValueError(f"phi_x must lie in [0, 1) flux quanta, got {self.phi_x!r}")

    @property
    def josephson_energy_ghz(self) -> float:
        return JOSEPHSON_GHZ_PER_UA * self.ic_ua


def beta_l(params: SquidParams) -> float:
    """Screening parameter 2 pi L Ic / Phi0; > 1 means a double well exists."""
    return 2.0 * math.pi * params.l_ph * params.ic_ua / PHI0_PH_UA


@dataclass(frozen=True)
class FluxGrid:
    """Uniform flux grid (units of Phi0) for the discretized Hamiltonian.
    Centred on Phi0/2 with odd ``n_points``, it holds Phi0/2 as point
    ``n_points // 2``, the mirror plane of the symmetric bias.  The default
    half-width 0.75, the window [-0.25, 1.25] Phi0, holds both wells at the
    symmetric point, and 4097 points resolve near-degenerate splittings."""

    half_width: float = 0.75
    n_points: int = 4097

    def __post_init__(self):
        if not 0.0 < self.half_width < math.inf:
            raise ValueError(f"half_width must be positive and finite, got {self.half_width!r}")
        if not isinstance(self.n_points, Integral) or isinstance(self.n_points, bool):
            raise ValueError(f"n_points must be an integer, got {self.n_points!r}")
        if self.n_points < MIN_GRID_POINTS:
            raise ValueError(f"n_points must be at least {MIN_GRID_POINTS}, got {self.n_points!r}")
        if self.n_points % 2 == 0:
            raise ValueError(f"n_points must be odd, got {self.n_points!r}")

    @property
    def points(self) -> np.ndarray:
        return np.linspace(0.5 - self.half_width, 0.5 + self.half_width, self.n_points)

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.n_points - 1)


@dataclass(frozen=True)
class EigenSolution:
    """Lowest-k eigenpairs on a flux grid.

    ``energies`` ascend and are E/h in GHz; ``wavefunctions`` has one row per
    level, normalized so that sum(psi^2) * dphi = 1.  ``gap`` is E1 - E0; at
    the symmetric bias it is the splitting from the parity ground vectors,
    exact however small, and ``energies[1]`` is ``energies[0] + gap``.
    """

    energies: np.ndarray
    wavefunctions: np.ndarray
    grid: FluxGrid
    gap: float


@dataclass(frozen=True)
class TwoLevelParams:
    """Two-level reduction of one rf-SQUID."""

    delta_ghz: float
    epsilon_ghz: float | None
    i_p_ua: float


def potential(params: SquidParams, phi) -> np.ndarray | float:
    """Loop potential U(phi)/h in GHz, phi in units of Phi0; the parabola
    reads the one loop inductance ``l_ph``, the loaded one on a bus."""
    phi = np.asarray(phi, dtype=float)
    inductive = FLUX_ENERGY_GHZ_PH * (phi - params.phi_x) ** 2 / (2.0 * params.l_ph)
    josephson = -params.josephson_energy_ghz * np.cos(2.0 * math.pi * phi)
    u = inductive + josephson
    return float(u) if u.ndim == 0 else u


def _lowest(diag: np.ndarray, off: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest ``count`` eigenpairs of a real symmetric tridiagonal matrix."""
    try:
        return eigh_tridiagonal(diag, off, select="i", select_range=(0, count - 1))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"tridiagonal eigensolver failed: {exc}") from exc


def _tridiagonal_matvec(diag: np.ndarray, off: np.ndarray, x: np.ndarray) -> np.ndarray:
    """T x for the symmetric tridiagonal T with ``diag`` and bonds ``off``."""
    tx = diag * x
    tx[:-1] += off * x[1:]
    tx[1:] += off * x[:-1]
    return tx


def _factor_below(diag: np.ndarray, off: np.ndarray, shift: float) -> tuple[np.ndarray, np.ndarray]:
    """``dpttrf`` of a block minus ``shift``; fails unless the shift is below every level."""
    factor_d, factor_e, info = dpttrf(diag - shift, off)
    if info != 0:
        raise NumericalError(f"shift {shift:.6g} GHz is not below the parity sector's spectrum")
    return factor_d, factor_e


def _ground_state(diag: np.ndarray, off: np.ndarray, shift: float, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Lowest eigenpair of a tridiagonal block with negative bonds, by inverse
    iteration with a fixed ``shift`` below its spectrum.

    The block minus ``shift`` is factored once with LAPACK ``dpttrf``, which
    fails unless it is positive definite, i.e. unless the shift lies below
    every level.  The start vector is positive, so it overlaps the ground
    state, which is positive too (Perron-Frobenius: the bonds are negative).
    Since (T - shift) y = x, the iterate x' = y/|y| has the residual
    T x' - (x'.T x') x' = (x - (x'.x) x')/|y|, read with no product with T.
    The first step that reads at most ``tol`` converges, and only its iterate
    takes a product with T, for its energy; returns in ``_lowest``'s shape.
    Over 800 random and design-point sectors the read residual tracks the
    exact one to 1e-2 ``tol``; ``solve_levels`` checks each level's exact
    residual once.  An iterate of norm 0 or not finite (the sector's
    scale under- or overflows double precision) raises ``NumericalError``.
    """
    factor_d, factor_e = _factor_below(diag, off, shift)
    x = np.full(diag.size, 1.0 / math.sqrt(diag.size))
    # An overflowing norm is refused below, so it need not warn.
    with np.errstate(over="ignore"):
        for step in range(1, _INVERSE_ITERATIONS + 1):
            y, _ = dpttrs(factor_d, factor_e, x)
            norm = float(np.linalg.norm(y))
            if not 0.0 < norm < math.inf:
                raise NumericalError(
                    f"inverse iteration step {step} gave an iterate of norm {norm}: "
                    "the levels are out of double-precision range"
                )
            x_prev, x = x, y / norm
            if np.linalg.norm(x_prev - (x @ x_prev) * x) / norm <= tol:
                energy = float(x @ _tridiagonal_matvec(diag, off, x))
                return np.array([energy]), x[:, None]
    raise NumericalError(f"inverse iteration did not converge in {_INVERSE_ITERATIONS} steps")


def _lowest_mirror_symmetric(diag: np.ndarray, off: float, k: int, tol: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Lowest ``k`` eigenpairs and the gap E1 - E0 of a mirror-symmetric
    tridiagonal matrix with constant off-diagonal ``off``, by parity sector.

    ``n`` is odd (a ``FluxGrid`` rule), so the mirror plane is the centre
    point m = n // 2.  In the basis (e_i +- e_{n-1-i})/sqrt(2) of the m mirror
    pairs the matrix splits into two half-size tridiagonal blocks; the centre
    point belongs to the even block alone, bonded to its neighbour pair by
    sqrt(2) off.  The pairs' diagonal is the mean of the two mirror halves,
    the projection of the matrix onto either sector.  Level j has parity
    (-1)^j, so the lowest k levels are the lowest ceil(k/2) even and floor(k/2)
    odd ones, returned sorted by energy, each with exact parity however
    near-degenerate its partner.

    A sector that supplies one level (both, at k = 2) solves by inverse
    iteration (``_ground_state``) to a residual of ``tol``; one that supplies
    more by LAPACK bisection.  The even sector is shifted to min U, below every
    level because the kinetic term is positive definite; there the error
    shrinks each step by (E0 - U_min)/(E1 - U_min), about 1/5 in a harmonic
    well and 1/3 in a deep double well.  The odd sector's lowest level lies
    above the even ground energy, which the Rayleigh quotient or bisection
    misses only by rounding (~eps |T|, about ``tol``/30), so it is shifted
    4 ``tol`` below that energy (17-32 steps from min U become 2-25), which
    ``dpttrf`` certifies as it factors.

    The splitting is not the difference of two ~1300 GHz level energies,
    which would lose a deep-well splitting to rounding.  The two blocks
    differ only at the mirror plane, so applying both to their ground vectors
    u (even) and v (odd) leaves (E1 - E0) u.v equal to that border term
    alone: delta = -sqrt(2) off u[m] v[m-1] / (u[:m].v), the discrete form of
    Herring's flux formula for a symmetric double well (Landau and Lifshitz,
    *Quantum Mechanics*, Sec. 50), with full relative precision at any depth.
    Each vector first takes one more step, shifted 4 ``tol`` below its own
    energy, which strips the higher levels it still carries at residual
    ``tol``.
    """
    n = diag.size
    m = n // 2
    half = 0.5 * (diag[:m] + diag[::-1][:m])
    bonds = np.full(m - 1, off)
    even = (np.append(half, diag[m]), np.append(bonds, math.sqrt(2.0) * off))
    odd = (half, bonds)
    min_u = float(np.min(diag)) + 2.0 * off  # below every level

    def sector(block, count, shift):
        energies, vectors = _ground_state(*block, shift, tol) if count == 1 else _lowest(*block, count)
        # 4 tol, the level's distance to the shift, keeps |y| near 1 at any scale.
        y, _ = dpttrs(*_factor_below(*block, float(energies[0]) - 4.0 * tol), 4.0 * tol * vectors[:, 0])
        vectors[:, 0] = y / np.linalg.norm(y)
        return energies, vectors

    e_even, x_even = sector(even, (k + 1) // 2, min_u)
    e_odd, x_odd = sector(odd, k // 2, float(e_even[0]) - 4.0 * tol)
    u, v = x_even[:, 0], x_odd[:, 0]
    gap = -math.sqrt(2.0) * off * u[m] * v[m - 1] / (u[:m] @ v)
    e_odd[0] = e_even[0] + gap

    # Mirror each half back onto the full grid.
    vectors = np.zeros((n, k))
    pairs = np.hstack([x_even[:m], x_odd]) / math.sqrt(2.0)
    parity = np.repeat([1.0, -1.0], [e_even.size, e_odd.size])
    vectors[:m] = pairs
    vectors[n - m :] = pairs[::-1] * parity
    vectors[m, : e_even.size] = x_even[m]

    energies = np.concatenate([e_even, e_odd])
    order = np.argsort(energies, kind="stable")
    return energies[order], vectors[:, order], float(gap)


def solve_levels(params: SquidParams, grid: FluxGrid | None = None, k: int = 2) -> EigenSolution:
    """Lowest ``k`` eigenpairs of the discretized loop Hamiltonian.

    Symmetric three-point finite differences with Dirichlet boundaries give a
    real symmetric tridiagonal operator, solved exactly for the requested
    levels.  At the symmetric bias (Phi0/2, the grid's centre point) every
    level has exact parity and ``gap`` keeps full relative precision however
    small (``_lowest_mirror_symmetric``); at any other bias the full grid is
    solved by LAPACK bisection.  Every returned level has passed one check of
    its exact residual against the full operator, at ``_RESIDUAL_PER_NORM``
    times its max-row-sum norm, and carries at most 1e-6 probability mass in
    the outer 5% of the grid.

    Raises
    ------
    ValueError
        if ``k`` is below 2.
    NumericalError
        if the potential or the kinetic term is not finite in double
        precision, the potential minimum sits at the edge, a returned
        wavefunction carries more than 1e-6 probability mass in the outer 5%
        of the grid, the eigensolver fails, inverse iteration does not
        converge or its iterate leaves double-precision range, or residuals
        exceed tolerance.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if grid is None:
        grid = FluxGrid()

    # A window, L or Ic out of double-precision range is refused below.
    with np.errstate(over="ignore", invalid="ignore"):
        phi = grid.points
        u = potential(params, phi)
    if not np.isfinite(u).all():
        raise NumericalError(
            f"potential is not finite in double precision on the flux window: L = {params.l_ph!r} pH, "
            f"Ic = {params.ic_ua!r} uA, half-width {grid.half_width!r} Phi0"
        )
    dphi = grid.spacing
    n = grid.n_points

    edge = max(1, int(0.05 * n))
    if np.argmin(u) < edge or np.argmin(u) >= n - edge:
        raise NumericalError("potential minimum at the grid edge; widen the window")

    hop = KINETIC_GHZ_FF / params.c_ff / dphi**2
    if not hop < math.inf:
        raise NumericalError(f"kinetic term is not finite in double precision: C = {params.c_ff!r} fF")
    diag = u + 2.0 * hop
    off = np.full(n - 1, -hop)

    # Eigen-residual bound on the discrete operator, in the grid norm, relative
    # to its max-row-sum norm (which grows as 1/dphi^2 with the grid).
    tol = _RESIDUAL_PER_NORM * (float(np.max(np.abs(diag))) + 2.0 * hop)

    if abs(params.phi_x - 0.5) < _CENTRE_TOL:  # mirror symmetric about the grid's centre
        energies, vectors, gap = _lowest_mirror_symmetric(diag, off[0], k, 0.5 * tol)
    else:
        energies, vectors = _lowest(diag, off, k)
        gap = float(energies[1] - energies[0])

    # Sign convention: positive at the left well (fall back to the dominant
    # component for states with a node there).
    left = np.argmin(np.where(phi < params.phi_x, u, np.inf)) if np.any(phi < params.phi_x) else np.argmin(u)
    for j in range(k):
        v = vectors[:, j]
        ref = v[left] if abs(v[left]) > 1e-3 * np.max(np.abs(v)) else v[np.argmax(np.abs(v))]
        if ref < 0:
            vectors[:, j] = -v

    psi = (vectors / math.sqrt(dphi)).T  # rows, grid-normalized

    # Residual check against the full n-point operator.
    for j in range(k):
        v = vectors[:, j]
        residual = np.linalg.norm(_tridiagonal_matvec(diag, off, v) - energies[j] * v)
        if residual > tol:
            raise NumericalError(f"eigen-residual {residual:.2e} exceeds {tol:.2e} for level {j}")

    # Outer-mass check: wavefunctions must not press against the walls.
    for j in range(k):
        mass = float(np.sum(psi[j, :edge] ** 2) + np.sum(psi[j, n - edge:] ** 2)) * dphi
        if mass > _EDGE_MASS_LIMIT:
            raise NumericalError(
                f"level {j} has {mass:.2e} probability mass in the outer 5% of the window"
            )

    return EigenSolution(energies=np.asarray(energies, dtype=float), wavefunctions=psi, grid=grid, gap=gap)


def extract_two_level(params: SquidParams, grid: FluxGrid | None = None) -> TwoLevelParams:
    """Reduce the SQUID to two-level parameters from one solve at the
    symmetric point Phi0/2 (same L, C, Ic).

    ``delta`` is that solve's splitting; ``i_p`` is the circulating-current
    magnitude |<well| (Phi - Phi_x)/L |well>| of the localized
    combinations (psi0 +- psi1)/sqrt(2); ``epsilon`` = 2 i_p |Phi_x - Phi0/2|
    is the bias energy projected onto those two wells (Orlando et al., Phys.
    Rev. B 60, 15398 (1999)), exactly linear in the offset and 0 at Phi0/2.
    Off Phi0/2 it is ``None`` where the biased potential has fewer than two
    interior local minima on the solve's grid: one well, no splitting.

    Raises ``NumericalError`` when beta_L <= 1.
    """
    if beta_l(params) <= 1.0:
        raise NumericalError(
            f"beta_L = {beta_l(params):.3f} <= 1: potential has a single well"
        )

    sym = solve_levels(replace(params, phi_x=0.5), grid=grid)
    delta = sym.gap

    phi = sym.grid.points
    dphi = sym.grid.spacing
    psi0, psi1 = sym.wavefunctions[0], sym.wavefunctions[1]
    current_ua = (phi - 0.5) * PHI0_PH_UA / params.l_ph
    ips = []
    for well in ((psi0 + psi1) / math.sqrt(2.0), (psi0 - psi1) / math.sqrt(2.0)):
        ips.append(abs(float(np.sum(well**2 * current_ua) * dphi)))
    i_p = 0.5 * (ips[0] + ips[1])
    epsilon = 2.0 * i_p * abs(params.phi_x - 0.5) * PHI0_PH_UA * ENERGY_GHZ_PER_PH_UA2
    if abs(params.phi_x - 0.5) >= _CENTRE_TOL:
        u = potential(params, phi)
        if np.count_nonzero((u[1:-1] < u[:-2]) & (u[1:-1] < u[2:])) < 2:
            epsilon = None

    return TwoLevelParams(delta_ghz=delta, epsilon_ghz=epsilon, i_p_ua=i_p)


def calibrate_critical_current(
    params: SquidParams,
    target_delta_ghz: float,
    bracket: tuple[float, float] = IC_BRACKET_UA,
    grid: FluxGrid | None = None,
) -> float:
    """Critical current achieving a target tunneling splitting, by bisection.

    delta(Ic) is monotone decreasing on the bistable branch, so a sign-safe
    bisection over ``bracket`` (uA) suffices.  Stops at |delta - target| <=
    ``_CALIBRATION_REL_TOL`` * target, when the Ic bracket narrows below 1e-6
    uA, or after ``_CALIBRATION_STEPS`` steps.

    The target must lie in [delta(hi), delta(lo)] of the given bracket.  The
    bisection proves that at each end it moves off: lo moves only to a
    midpoint whose delta exceeds the target, hi only to one whose delta is at
    most the target, and delta(Ic) is monotone.  So an end is solved only if
    the bisection never moved off it, after the loop, lo first.

    Raises ``ValueError`` for a target that is not positive or a bracket that
    breaks 0 <= lo < hi, before any solve, and ``NumericalError`` naming the
    end's Ic and splitting if the target is not enclosed at an end, or the
    failing solve's own error.
    """
    if not target_delta_ghz > 0:
        raise ValueError(f"target_delta_ghz must be positive, got {target_delta_ghz!r}")
    lo, hi = bracket
    if not 0 <= lo < hi:
        raise ValueError(f"bracket must satisfy 0 <= lo < hi, got ({lo!r}, {hi!r})")

    def delta_of(ic: float) -> float:
        return solve_levels(replace(params, ic_ua=ic, phi_x=0.5), grid=grid).gap

    for _ in range(_CALIBRATION_STEPS):
        mid = 0.5 * (lo + hi)
        d_mid = delta_of(mid)
        if abs(d_mid - target_delta_ghz) <= _CALIBRATION_REL_TOL * target_delta_ghz:
            break
        if d_mid > target_delta_ghz:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-6:
            mid = 0.5 * (lo + hi)
            break
    if lo == bracket[0] and not target_delta_ghz <= (d_lo := delta_of(lo)):
        raise NumericalError(
            f"target {target_delta_ghz:.4g} GHz is above delta = {d_lo:.4g} GHz at the bracket's low end Ic = {lo} uA"
        )
    if hi == bracket[1] and not (d_hi := delta_of(hi)) <= target_delta_ghz:
        raise NumericalError(
            f"target {target_delta_ghz:.4g} GHz is below delta = {d_hi:.4g} GHz at the bracket's high end Ic = {hi} uA"
        )
    return mid
