"""Dense code-space isometry: the reference ``LogicalRegister.code_indices``
is checked against, written from the pair encoding bit by bit."""

import numpy as np


def dense_isometry(reg) -> np.ndarray:
    """2^N x 2^n matrix with the code word of logical bitstring ell in column
    ell: logical 0 on pair (a, b) is a up, b down (qubit b's bit is 1),
    logical 1 the reverse; physical qubit q is bit N-1-q."""
    n = reg.n_physical
    rows = []
    for ell in range(2**reg.n_logical):
        bits = format(ell, f"0{reg.n_logical}b") if reg.n_logical else ""
        down = [b if bit == "0" else a for bit, (a, b) in zip(bits, reg.pairs)]
        rows.append(sum(1 << (n - 1 - q) for q in down))
    return np.eye(2**n, dtype=complex)[:, rows]
