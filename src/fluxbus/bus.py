"""Inductor-bus circuit algebra.

N identical rf-SQUIDs share a mutual inductance M with one superconducting
bus loop of self-inductance L_b.  Flux conservation in the solid loop couples
every SQUID to every other one with an effective mutual inductance M^2/L_b.
This module solves the loop current equations exactly, evaluates the
inductive energy, and packages the design formulas (coupling strength, weak
coupling ratio, geometric qubit bound, residual-current decay).

Each SQUID couples to the bus loop and to nothing else, so its loop equation
holds only its own current and the bus current.  The (N+1) x (N+1) inductance
matrix is L times the identity bordered by one row and one column of M:
eliminating the SQUID currents through the one loop leaves a scalar equation
for the bus current, and the solve costs O(N).  The matrix is positive
definite (the bus is passive) exactly when its Schur complement
L_b - N M^2/L is positive, i.e. when N M^2 < L L_b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .constants import ENERGY_GHZ_PER_PH_UA2, PHI0_PH_UA
from .squid import NumericalError, SquidParams, TwoLevelParams

__all__ = [
    "BusParams",
    "CurrentSolution",
    "solve_currents",
    "passive_schur_complement",
    "inductive_energy",
    "pairwise_inductive_energy",
    "effective_mutual",
    "coupling_strength",
    "weak_coupling_ratio",
    "max_qubits",
    "residual_decay_time",
    "flux_quantization_residual",
]

WEAK_COUPLING_WARN_AT = 0.1


@dataclass(frozen=True)
class BusParams:
    """Bus loop constants: self-inductance, per-qubit mutual, qubit count."""

    l_b_nh: float
    m_ph: float
    n_qubits: int
    phi_bx: float = 0.0
    k_geom: float = 1.0

    def __post_init__(self):
        for name in ("l_b_nh", "m_ph", "phi_bx"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.l_b_nh <= 0:
            raise ValueError(f"l_b_nh must be positive, got {self.l_b_nh!r}")
        if self.m_ph < 0:
            raise ValueError(f"m_ph must be non-negative, got {self.m_ph!r}")
        if not isinstance(self.n_qubits, Integral) or isinstance(self.n_qubits, bool):
            raise ValueError(f"n_qubits must be an integer, got {self.n_qubits!r}")
        if self.n_qubits < 2 or self.n_qubits % 2 != 0:
            raise ValueError(f"n_qubits must be even and at least 2, got {self.n_qubits!r}")
        if not 0.0 < self.k_geom <= 1.0:
            raise ValueError(f"k_geom must lie in (0, 1], got {self.k_geom!r}")

    @property
    def l_b_ph(self) -> float:
        return self.l_b_nh * 1e3


@dataclass(frozen=True)
class CurrentSolution:
    """Circulating currents (uA) of the N SQUIDs and the bus loop."""

    squid_currents_ua: np.ndarray
    bus_current_ua: float


def passive_schur_complement(squid: SquidParams, bus: BusParams) -> float:
    """Schur complement L_b - N M^2/L (pH) of the inductance matrix.

    The bus is passive exactly when it is positive, i.e. N M^2 < L L_b;
    otherwise ``NumericalError`` names N.  An M whose square overflows
    double precision is refused the same way.
    """
    try:
        schur = bus.l_b_ph - bus.n_qubits * bus.m_ph**2 / squid.l_ph
    except OverflowError:
        schur = -math.inf
    if schur <= 0.0:
        raise NumericalError(
            f"L_b - N M^2/L = {schur:.4g} pH with N = {bus.n_qubits}: the bus is not passive "
            f"(N M^2 must stay below L*L_b = {squid.l_ph * bus.l_b_ph:.4g} pH^2)"
        )
    return schur


def solve_currents(
    fluxes_phi0,
    biases_phi0,
    squid: SquidParams,
    bus: BusParams,
    n_quanta: int = 0,
) -> CurrentSolution:
    """Solve the loop flux equations for the currents.

    The (N+1)-variable linear system is

        L I_i + M I_b = Phi_i - Phi_ix          (each SQUID loop)
        sum_i M I_i + L_b I_b = n Phi0 - Phi_bx (bus flux conservation)

    solved exactly with the bare inductances.  With r_i = (Phi_i - Phi_ix)
    Phi0 and r_b = (n - Phi_bx) Phi0, each SQUID loop gives
    I_i = (r_i - M I_b) / L; substituting into the bus equation eliminates
    every SQUID current and leaves

        I_b = (r_b - (M/L) sum_i r_i) / (L_b - N M^2/L)

    so the solve is O(N) in time and memory.  The denominator is the Schur
    complement of the SQUID block; a bus with N M^2 >= L L_b is not passive
    and raises ``NumericalError``, as does a flux quantization residual
    above 1e-12 Phi0; flux and bias lists whose length is not N raise
    ``ValueError``, as does an ``n_quanta`` that is not an integer.  Flux
    quantization defaults to n = 0; both n and the bus bias are overridable
    for residual-current studies.
    """
    if not isinstance(n_quanta, Integral) or isinstance(n_quanta, bool):
        raise ValueError(f"n_quanta must be an integer, got {n_quanta!r}")
    fluxes = np.asarray(fluxes_phi0, dtype=float)
    biases = np.asarray(biases_phi0, dtype=float)
    if fluxes.shape != (bus.n_qubits,) or biases.shape != (bus.n_qubits,):
        raise ValueError(f"flux and bias lists must have length N = {bus.n_qubits}")

    l, m = squid.l_ph, bus.m_ph
    schur = passive_schur_complement(squid, bus)
    r = (fluxes - biases) * PHI0_PH_UA
    r_b = (n_quanta - bus.phi_bx) * PHI0_PH_UA
    bus_current = (r_b - (m / l) * float(np.sum(r))) / schur

    sol = CurrentSolution(squid_currents_ua=(r - m * bus_current) / l, bus_current_ua=bus_current)
    residual = flux_quantization_residual(sol, bus, n_quanta=n_quanta)
    if residual > 1e-12:
        raise NumericalError(f"flux quantization residual {residual:.2e} Phi0")
    return sol


def flux_quantization_residual(sol: CurrentSolution, bus: BusParams, n_quanta: int = 0) -> float:
    """|L_b I_b + sum M I_i - (n Phi0 - Phi_bx)| in units of Phi0, for an integer n."""
    if not isinstance(n_quanta, Integral) or isinstance(n_quanta, bool):
        raise ValueError(f"n_quanta must be an integer, got {n_quanta!r}")
    lhs = bus.l_b_ph * sol.bus_current_ua + bus.m_ph * float(np.sum(sol.squid_currents_ua))
    target = (n_quanta - bus.phi_bx) * PHI0_PH_UA
    return abs(lhs - target) / PHI0_PH_UA


def inductive_energy(sol: CurrentSolution, squid: SquidParams, bus: BusParams) -> float:
    """Total inductive energy (1/2 sum L I_i^2 + 1/2 L_b I_b^2 + sum M I_b I_i), E/h in GHz."""
    i = sol.squid_currents_ua
    ib = sol.bus_current_ua
    e_ph_ua2 = (
        0.5 * squid.l_ph * float(np.sum(i**2))
        + 0.5 * bus.l_b_ph * ib**2
        + bus.m_ph * ib * float(np.sum(i))
    )
    return e_ph_ua2 * ENERGY_GHZ_PER_PH_UA2


def pairwise_inductive_energy(
    fluxes_phi0,
    biases_phi0,
    squid: SquidParams,
    bus: BusParams,
) -> float:
    """Weak-coupling approximation of the inductive energy, E/h in GHz.

    Keeps terms to lowest order in M^2/(L L_b): renormalized self energies
    delta^2 (1 + M^2/LL_b) / 2L plus effective-mutual pair terms
    (M^2/L_b) (delta_i/L)(delta_j/L).  Used as the independent cross-check of
    the exact solve over random flux configurations.
    """
    fluxes = np.asarray(fluxes_phi0, dtype=float)
    biases = np.asarray(biases_phi0, dtype=float)
    delta = (fluxes - biases) * PHI0_PH_UA
    l = squid.l_ph
    corr = bus.m_ph**2 / (l * bus.l_b_ph)
    self_energy = float(np.sum(delta**2)) * (1.0 + corr) / (2.0 * l)
    s = float(np.sum(delta))
    cross = (s**2 - float(np.sum(delta**2))) / 2.0  # sum over i > j of delta_i delta_j
    pair_energy = (bus.m_ph**2 / bus.l_b_ph) * cross / l**2
    return (self_energy + pair_energy) * ENERGY_GHZ_PER_PH_UA2


def effective_mutual(bus: BusParams) -> float:
    """Effective qubit-qubit mutual inductance M^2/L_b, in fH."""
    return bus.m_ph**2 / bus.l_b_ph * 1e3


def coupling_strength(tlp: TwoLevelParams, bus: BusParams) -> float:
    """Fixed sigma_z sigma_z coupling J = M_eff i_p^2 / h, in MHz.

    Evaluates the pair interaction in the well-localized basis, where the
    circulating-current operator has matrix elements +-i_p.
    """
    m_eff_ph = bus.m_ph**2 / bus.l_b_ph
    return m_eff_ph * tlp.i_p_ua**2 * ENERGY_GHZ_PER_PH_UA2 * 1e3


def weak_coupling_ratio(squid: SquidParams, bus: BusParams) -> float:
    """N M^2 / (L L_b); the design numbers hold while it stays below
    ``WEAK_COUPLING_WARN_AT``."""
    return bus.n_qubits * bus.m_ph**2 / (squid.l_ph * bus.l_b_ph)


def max_qubits(bus: BusParams) -> int:
    """Geometric bound on the number of attachable qubits, floor(k L_b / M).

    Each coupling section of the bus spans at least M / k of its length.  A
    bound beyond double precision (a subnormal M) raises ``NumericalError``.
    """
    if bus.m_ph <= 0:
        raise ValueError(f"m_ph must be positive for the geometric bound, got {bus.m_ph!r}")
    bound = bus.k_geom * bus.l_b_ph / bus.m_ph
    if not math.isfinite(bound):
        raise NumericalError(f"k L_b / M overflows double precision at M = {bus.m_ph!r} pH: no geometric bound")
    return math.floor(bound)


def residual_decay_time(l_b_nh: float, r_uohm: float) -> float:
    """L_b/R decay time (ms) of residual bus current through a series resistor."""
    if not r_uohm > 0:
        raise ValueError(f"r_uohm must be positive, got {r_uohm!r}")
    return l_b_nh / r_uohm
