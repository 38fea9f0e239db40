"""Single rf-SQUID flux dynamics.

Solves the one-dimensional loop Hamiltonian

    H = -(hbar^2 / 2C) d^2/dPhi^2 + (Phi - Phi_x)^2 / (2 L_eff) - E_J cos(2 pi Phi / Phi0)

on a uniform flux grid with Dirichlet boundaries and reduces the two lowest
levels to two-level qubit parameters: tunneling splitting ``delta``, bias
asymmetry ``epsilon`` and persistent current ``i_p``.

At the symmetric bias (Phi_x at the grid centre) the discrete operator is
mirror symmetric, so it is solved as two independent half-size tridiagonal
problems, one per parity sector.  Level j has parity (-1)^j, so each sector
supplies every other level; the energies are sorted on return because the two
partners of a deep-well doublet agree only to rounding.  Every level then has
exact parity, however near-degenerate its partner.

A sector that supplies a single level (both sectors for the two-level
reduction, which is every solve of ``extract_two_level`` and of the
calibration) finds its ground state by inverse iteration: the sector block
minus min U is factored once (LAPACK ``dpttrf``) and solved repeatedly from a
positive start vector.  min U is a lower bound on every level because the
Dirichlet kinetic term is positive definite and each sector is an invariant
subspace; the start vector overlaps the ground state because the negative
bonds make that state positive (Perron-Frobenius).  Sectors that supply
several levels, and the biased full grid, use LAPACK bisection.

Conventions
-----------
* ``delta`` is the observable splitting (E1 - E0)/h at the symmetric bias
  point Phi_x = Phi0/2; the qubit Hamiltonian uses -(delta/2) sigma_x so the
  gap equals ``delta``.
* ``epsilon`` is the full well splitting produced by a bias offset, so the
  biased two-level gap is sqrt(delta^2 + epsilon^2).
* A pi pulse at tunneling ``delta`` takes 1/(2 delta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dpttrf, dpttrs

from .constants import (
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
    "WindowTooSmallError",
    "NoDoubleWellError",
    "BracketError",
    "ConvergenceError",
    "potential",
    "solve_levels",
    "extract_two_level",
    "calibrate_critical_current",
    "beta_l",
    "MIN_GRID_POINTS",
    "IC_BRACKET_UA",
]

# Splittings smaller than this, relative to the absolute level energies, sit
# at the double-precision noise floor of the eigensolver and are flagged.
SOLVER_FLOOR_REL = 1e-9

# Probability mass allowed in the outer 5% of the grid before the window is
# declared too small.
_EDGE_MASS_LIMIT = 1e-6
# Eigen-residual bound per unit of operator norm: 9.7e-9 GHz for the design
# SQUID on the default 4097-point grid, where the norm is 7.4e5 GHz.
_RESIDUAL_PER_NORM = 1.3e-14
# Inverse-iteration steps allowed per parity sector.  Shifted to min U, the
# error shrinks each step by the sector's (E0 - U_min)/(E1 - U_min), about 1/5
# in a harmonic well and 1/3 in a deep double well.  Over 600 random symmetric
# SQUIDs (L 100-400 pH, C 20-500 fF, Ic 0-3.5 uA, 257-4098 points) a sector
# took 12-32 steps.
_INVERSE_ITERATIONS = 100

# Fewest points of a FluxGrid; the Ic calibration's default bracket (uA),
# relative tolerance on delta and bisection step limit.
MIN_GRID_POINTS = 257
IC_BRACKET_UA = (1.5, 3.0)
_CALIBRATION_REL_TOL = 1e-3
_CALIBRATION_STEPS = 200


class WindowTooSmallError(RuntimeError):
    """Flux window does not contain the relevant wavefunctions."""


class NoDoubleWellError(RuntimeError):
    """Potential is monostable (beta_L <= 1); no well-localized states."""


class BracketError(ValueError):
    """Calibration target lies outside the supplied bracket."""


class ConvergenceError(RuntimeError):
    """Eigensolver failed or produced out-of-tolerance residuals."""


@dataclass(frozen=True)
class SquidParams:
    """Circuit constants of one rf-SQUID loop.

    ``l_renorm_factor`` is the dimensionless bus-loading correction
    1 + M^2/(L L_b); the effective loop inductance is L / l_renorm_factor.
    """

    l_ph: float
    c_ff: float
    ic_ua: float
    phi_x: float = 0.5
    l_renorm_factor: float = 1.0

    def __post_init__(self):
        if self.l_ph <= 0 or self.c_ff <= 0:
            raise ValueError("L and C must be positive")
        if self.ic_ua < 0:
            raise ValueError("Ic must be non-negative")
        if not 0.0 <= self.phi_x < 1.0:
            raise ValueError("phi_x must lie in [0, 1) flux quanta")
        if self.l_renorm_factor <= 0:
            raise ValueError("l_renorm_factor must be positive")

    @property
    def josephson_energy_ghz(self) -> float:
        return JOSEPHSON_GHZ_PER_UA * self.ic_ua


def beta_l(params: SquidParams) -> float:
    """Screening parameter 2 pi L Ic / Phi0; > 1 means a double well exists."""
    return 2.0 * math.pi * params.l_ph * params.ic_ua / PHI0_PH_UA


@dataclass(frozen=True)
class FluxGrid:
    """Uniform flux grid (units of Phi0) for the discretized Hamiltonian.  The
    default window [-0.25, 1.25] Phi0 holds both wells at the symmetric point,
    and 4097 points resolve near-degenerate splittings."""

    phi_min: float = -0.25
    phi_max: float = 1.25
    n_points: int = 4097

    def __post_init__(self):
        if not self.phi_min < self.phi_max:
            raise ValueError("phi_min must be below phi_max")
        if self.n_points < MIN_GRID_POINTS:
            raise ValueError(f"n_points must be at least {MIN_GRID_POINTS}")

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.phi_min, self.phi_max, self.n_points)

    @property
    def spacing(self) -> float:
        return (self.phi_max - self.phi_min) / (self.n_points - 1)

    @property
    def center(self) -> float:
        return 0.5 * (self.phi_min + self.phi_max)


@dataclass(frozen=True)
class EigenSolution:
    """Lowest-k eigenpairs on a flux grid.

    ``energies`` ascend and are E/h in GHz; ``wavefunctions`` has one row per
    level, normalized so that sum(psi^2) * dphi = 1.
    """

    energies: np.ndarray
    wavefunctions: np.ndarray
    grid: FluxGrid

    @property
    def gap(self) -> float:
        return float(self.energies[1] - self.energies[0])


@dataclass(frozen=True)
class TwoLevelParams:
    """Two-level reduction of one rf-SQUID.

    ``at_solver_floor`` marks tunneling splittings too small relative to the
    absolute level energies to be trusted beyond a factor ~2.
    """

    delta_ghz: float
    epsilon_ghz: float
    i_p_ua: float
    at_solver_floor: bool = False


def potential(params: SquidParams, phi) -> np.ndarray | float:
    """Loop potential U(phi)/h in GHz, phi in units of Phi0.

    Inductive term uses the renormalized inductance L / l_renorm_factor.
    """
    phi = np.asarray(phi, dtype=float)
    inductive = (
        FLUX_ENERGY_GHZ_PH
        * params.l_renorm_factor
        * (phi - params.phi_x) ** 2
        / (2.0 * params.l_ph)
    )
    josephson = -params.josephson_energy_ghz * np.cos(2.0 * math.pi * phi)
    u = inductive + josephson
    return float(u) if u.ndim == 0 else u


def _lowest(diag: np.ndarray, off: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest ``count`` eigenpairs of a real symmetric tridiagonal matrix."""
    try:
        return eigh_tridiagonal(diag, off, select="i", select_range=(0, count - 1))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(f"tridiagonal eigensolver failed: {exc}") from exc


def _tridiagonal_matvec(diag: np.ndarray, off: np.ndarray, x: np.ndarray) -> np.ndarray:
    """T x for the symmetric tridiagonal T with ``diag`` and bonds ``off``."""
    tx = diag * x
    tx[:-1] += off * x[1:]
    tx[1:] += off * x[:-1]
    return tx


def _ground_state(diag: np.ndarray, off: np.ndarray, shift: float, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Lowest eigenpair of a tridiagonal block with negative bonds, by inverse
    iteration with a fixed ``shift`` below its spectrum.

    The block minus ``shift`` is factored once with LAPACK ``dpttrf``, which
    fails unless it is positive definite, i.e. unless the shift lies below
    every level.  The start vector is positive, so it overlaps the ground
    state, which is positive too (Perron-Frobenius: the bonds are negative).
    Iterates until the residual is at most ``tol``; returns in ``_lowest``'s
    shape.
    """
    factor_d, factor_e, info = dpttrf(diag - shift, off)
    if info != 0:
        raise ConvergenceError(f"shift {shift:.6g} GHz is not below the parity sector's spectrum")
    x = np.full(diag.size, 1.0 / math.sqrt(diag.size))
    for _ in range(_INVERSE_ITERATIONS):
        y, _ = dpttrs(factor_d, factor_e, x)
        x = y / np.linalg.norm(y)
        hx = _tridiagonal_matvec(diag, off, x)
        energy = float(x @ hx)
        if np.linalg.norm(hx - energy * x) <= tol:
            return np.array([energy]), x[:, None]
    raise ConvergenceError(f"inverse iteration did not converge in {_INVERSE_ITERATIONS} steps")


def _lowest_mirror_symmetric(diag: np.ndarray, off: float, k: int, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Lowest ``k`` eigenpairs of a mirror-symmetric tridiagonal matrix with
    constant off-diagonal ``off``, solved in its even and odd sectors.

    In the basis (e_i +- e_{n-1-i})/sqrt(2) of mirror pairs the matrix splits
    into two half-size tridiagonal blocks.  For odd n the centre point belongs
    to the even block alone, bonded to its neighbour pair by sqrt(2) off.  For
    even n the two middle points are mirror images, so their bond adds +off to
    the last diagonal entry of the even block and -off to that of the odd one.
    The diagonal is the mean of the two mirror halves, the projection of the
    matrix onto either sector.  Level j has parity (-1)^j, so the lowest k
    levels are the lowest ceil(k/2) even and floor(k/2) odd ones, returned
    sorted by energy.  A sector that supplies one level solves by inverse
    iteration to a residual of ``tol``; one that supplies more by bisection.
    """
    n = diag.size
    m = n // 2
    half = 0.5 * (diag[:m] + diag[::-1][:m])
    bonds = np.full(m - 1, off)
    if n % 2:
        even = (np.append(half, diag[m]), np.append(bonds, math.sqrt(2.0) * off))
        odd = (half, bonds)
    else:
        even_diag, odd_diag = half.copy(), half.copy()
        even_diag[-1] += off
        odd_diag[-1] -= off
        even, odd = (even_diag, bonds), (odd_diag, bonds)
    shift = float(np.min(diag)) + 2.0 * off  # min U, below every level

    def sector(block, count):
        return _ground_state(*block, shift, tol) if count == 1 else _lowest(*block, count)

    e_even, x_even = sector(even, (k + 1) // 2)
    e_odd, x_odd = sector(odd, k // 2)

    # Mirror each half back onto the full grid.
    vectors = np.zeros((n, k))
    pairs = np.hstack([x_even[:m], x_odd]) / math.sqrt(2.0)
    parity = np.repeat([1.0, -1.0], [e_even.size, e_odd.size])
    vectors[:m] = pairs
    vectors[n - m :] = pairs[::-1] * parity
    if n % 2:
        vectors[m, : e_even.size] = x_even[m]

    energies = np.concatenate([e_even, e_odd])
    order = np.argsort(energies, kind="stable")
    return energies[order], vectors[:, order]


def solve_levels(params: SquidParams, grid: FluxGrid | None = None, k: int = 2) -> EigenSolution:
    """Lowest ``k`` eigenpairs of the discretized loop Hamiltonian.

    Symmetric three-point finite differences with Dirichlet boundaries; the
    resulting real symmetric tridiagonal problem is solved exactly for the
    requested levels.  For a mirror-symmetric potential (bias at the grid
    centre) the problem splits into independent even and odd sectors of half
    the size; each returned level then has exact parity about the centre,
    which keeps near-degenerate doublets clean, and the energies are sorted
    because the sectors' doublet partners agree only to rounding at the
    solver floor.

    A parity sector that supplies one level (both sectors at k = 2, the odd
    one at k = 3) finds it by inverse iteration shifted to min U, which lies
    below every level because the kinetic term is positive definite, from a
    positive start vector, which overlaps the sector's ground state because
    the negative bonds make that state positive.  The other sectors and the
    biased full grid, which must resolve several close levels in one
    problem, use LAPACK bisection (``eigh_tridiagonal``).  Every level then
    passes the same residual and edge-mass checks.

    Raises
    ------
    WindowTooSmallError
        if a returned wavefunction carries more than 1e-6 probability mass in
        the outer 5% of the grid, or the potential minimum sits at the edge.
    ConvergenceError
        if the eigensolver fails, inverse iteration does not converge, or
        residuals exceed tolerance.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if grid is None:
        grid = FluxGrid()

    phi = grid.points
    dphi = grid.spacing
    u = potential(params, phi)
    n = grid.n_points

    edge = max(1, int(0.05 * n))
    if np.argmin(u) < edge or np.argmin(u) >= n - edge:
        raise WindowTooSmallError("potential minimum at the grid edge; widen the window")

    kin = KINETIC_GHZ_FF / params.c_ff
    diag = u + 2.0 * kin / dphi**2
    off = np.full(n - 1, -kin / dphi**2)

    # Eigen-residual bound on the discrete operator, in the grid norm, relative
    # to its max-row-sum norm (which grows as 1/dphi^2 with the grid).
    tol = _RESIDUAL_PER_NORM * (float(np.max(np.abs(diag))) + 2.0 * kin / dphi**2)

    symmetric = (
        abs(params.phi_x - grid.center) < 1e-12
        and float(np.max(np.abs(u - u[::-1]))) <= 1e-9 * (float(np.max(np.abs(u))) + 1.0)
    )
    if symmetric:
        energies, vectors = _lowest_mirror_symmetric(diag, off[0], k, 0.5 * tol)
    else:
        energies, vectors = _lowest(diag, off, k)

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
            raise ConvergenceError(f"eigen-residual {residual:.2e} exceeds {tol:.2e} for level {j}")

    # Outer-mass check: wavefunctions must not press against the walls.
    for j in range(k):
        mass = float(np.sum(psi[j, :edge] ** 2) + np.sum(psi[j, n - edge:] ** 2)) * dphi
        if mass > _EDGE_MASS_LIMIT:
            raise WindowTooSmallError(
                f"level {j} has {mass:.2e} probability mass in the outer 5% of the window"
            )

    return EigenSolution(energies=np.asarray(energies, dtype=float), wavefunctions=psi, grid=grid)


def extract_two_level(params: SquidParams, grid: FluxGrid | None = None) -> TwoLevelParams:
    """Reduce the SQUID to two-level parameters.

    ``delta`` is the splitting at the symmetric point Phi0/2 (same L, C, Ic);
    ``epsilon`` is recovered from the biased gap via
    epsilon = sqrt(gap^2 - delta^2), zero at the symmetric point; ``i_p`` is
    the circulating-current magnitude |<well| (Phi - Phi_x)/L_eff |well>| of
    the localized combinations (psi0 +- psi1)/sqrt(2).

    Raises ``NoDoubleWellError`` when beta_L <= 1.
    """
    if beta_l(params) <= 1.0:
        raise NoDoubleWellError(
            f"beta_L = {beta_l(params):.3f} <= 1: potential has a single well"
        )

    sym = solve_levels(replace(params, phi_x=0.5), grid=grid)
    delta = sym.gap
    scale = float(np.max(np.abs(sym.energies[:2])))
    at_floor = delta < SOLVER_FLOOR_REL * max(scale, 1.0)

    phi = sym.grid.points
    dphi = sym.grid.spacing
    psi0, psi1 = sym.wavefunctions[0], sym.wavefunctions[1]
    current_ua = (phi - 0.5) * PHI0_PH_UA * params.l_renorm_factor / params.l_ph
    ips = []
    for well in ((psi0 + psi1) / math.sqrt(2.0), (psi0 - psi1) / math.sqrt(2.0)):
        ips.append(abs(float(np.sum(well**2 * current_ua) * dphi)))
    i_p = 0.5 * (ips[0] + ips[1])

    if abs(params.phi_x - 0.5) < 1e-15:
        epsilon = 0.0
    else:
        gap_biased = solve_levels(params, grid=grid).gap
        epsilon = math.sqrt(max(gap_biased**2 - delta**2, 0.0))

    return TwoLevelParams(delta_ghz=delta, epsilon_ghz=epsilon, i_p_ua=i_p, at_solver_floor=at_floor)


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
    uA (targets near the solver floor never satisfy the delta test; the
    bracket width bound keeps Ic well determined), or after
    ``_CALIBRATION_STEPS`` steps.

    Raises ``BracketError`` if the target is not enclosed by the bracket.
    """
    if target_delta_ghz <= 0:
        raise ValueError("target splitting must be positive")
    lo, hi = bracket
    if not 0 <= lo < hi:
        raise ValueError("bracket must satisfy 0 <= lo < hi")

    def delta_of(ic: float) -> float:
        return solve_levels(replace(params, ic_ua=ic, phi_x=0.5), grid=grid).gap

    d_lo = delta_of(lo)
    d_hi = delta_of(hi)
    if not (d_hi <= target_delta_ghz <= d_lo):
        raise BracketError(
            f"target {target_delta_ghz:.4g} GHz outside [{d_hi:.4g}, {d_lo:.4g}] GHz "
            f"reachable on Ic bracket [{lo}, {hi}] uA"
        )

    for _ in range(_CALIBRATION_STEPS):
        mid = 0.5 * (lo + hi)
        d_mid = delta_of(mid)
        if abs(d_mid - target_delta_ghz) <= _CALIBRATION_REL_TOL * target_delta_ghz:
            return mid
        if d_mid > target_delta_ghz:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-6:
            return 0.5 * (lo + hi)
    return mid
