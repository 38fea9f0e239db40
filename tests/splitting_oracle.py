"""The exact tunneling splitting of the discretized rf-SQUID at the symmetric
bias: the reference ``squid.solve_levels(...).gap`` is checked against.

The full n-point operator, grid and potential included, is formed in mpmath
at 40 digits.  A float64 potential is not mirror symmetric to rounding, and
that asymmetry biases a deep-well splitting by ~1e-13 GHz.  The two lowest
levels are then found by bisection on the Sturm count of the whole grid, so
neither the parity split nor any eigenvector enters the reference.
"""

from mpmath import mp
from scipy.linalg import eigh_tridiagonal

from fluxbus.constants import FLUX_ENERGY_GHZ_PH, JOSEPHSON_GHZ_PER_UA, KINETIC_GHZ_FF

DIGITS = 40


def operator(params, grid):
    """The diagonal and the squared bond of the grid's tridiagonal operator,
    in mpmath at the working precision."""
    lo = mp.mpf(0.5) - mp.mpf(grid.half_width)
    dphi = 2 * mp.mpf(grid.half_width) / (grid.n_points - 1)
    kin = mp.mpf(KINETIC_GHZ_FF) / mp.mpf(params.c_ff) / dphi**2
    inductive = mp.mpf(FLUX_ENERGY_GHZ_PH) / (2 * mp.mpf(params.l_ph))
    e_j = mp.mpf(JOSEPHSON_GHZ_PER_UA) * mp.mpf(params.ic_ua)
    phi_x = mp.mpf(params.phi_x)
    diag = []
    for i in range(grid.n_points):
        phi = lo + i * dphi
        diag.append(inductive * (phi - phi_x) ** 2 - e_j * mp.cos(2 * mp.pi * phi) + 2 * kin)
    return diag, kin**2


def count_below(diag, bond2, x) -> int:
    """Sturm count: the number of levels below ``x``."""
    q = diag[0] - x
    count = int(q < 0)
    for d in diag[1:]:
        q = d - x - bond2 / q
        count += q < 0
    return count


def splitting(params, grid) -> float:
    """E1 - E0 (GHz) of the grid's operator, to ~1e-14 relative.

    A float64 solve of the same grid starts the bisection; the Sturm counts
    at its bracket's ends certify that the bracket holds exactly the two
    lowest levels.  Each count bisects the wider of the two levels'
    brackets and narrows both, until each is narrower than 1e-15 of the
    distance between them."""
    with mp.workdps(DIGITS):
        diag, bond2 = operator(params, grid)
        float_levels = eigh_tridiagonal(
            [float(d) for d in diag], [-float(mp.sqrt(bond2))] * (grid.n_points - 1),
            eigvals_only=True, select="i", select_range=(0, 1),
        )
        pad = mp.mpf(1e-9) * (abs(float_levels[0]) + float(mp.sqrt(bond2)))
        lo, hi = mp.mpf(float_levels[0]) - pad, mp.mpf(float_levels[1]) + pad
        assert count_below(diag, bond2, lo) == 0 and count_below(diag, bond2, hi) == 2
        brackets = [[lo, hi], [lo, hi]]
        while max(b - a for a, b in brackets) > mp.mpf(1e-15) * (brackets[1][0] - brackets[0][1]):
            a, b = max(brackets, key=lambda ab: ab[1] - ab[0])
            mid = (a + b) / 2
            below = count_below(diag, bond2, mid)
            for level, bracket in enumerate(brackets):
                if bracket[0] < mid < bracket[1]:
                    bracket[below > level] = mid
        (a0, b0), (a1, b1) = brackets
        return float((a1 + b1) / 2 - (a0 + b0) / 2)
