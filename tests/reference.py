"""Reference definitions the tests compare the package against."""

from qdelsarte.linalg import Sparse, sp_kron
from qdelsarte.scalars import GR_ONE, GaussianRational

_SIGMA_X: Sparse = {(0, 1): GR_ONE, (1, 0): GR_ONE}
_SIGMA_Y: Sparse = {(0, 1): GaussianRational(0, -1), (1, 0): GaussianRational(0, 1)}
_SIGMA_Z: Sparse = {(0, 0): GR_ONE, (1, 1): -GR_ONE}
_ID2: Sparse = {(0, 0): GR_ONE, (1, 1): GR_ONE}


def weyl_brauer(n: int, k: int) -> Sparse:
    """k-th anticommuting Weyl-Brauer generator on n qubits, 1 <= k <= 2n+1,
    as a Kronecker product of Pauli matrices with GaussianRational entries."""
    if not 1 <= k <= 2 * n + 1:
        raise IndexError(f"k={k} outside 1..{2 * n + 1}")
    if k == 2 * n + 1:
        factors = [_SIGMA_Z] * n
    else:
        pos = (k - 1) % n
        mid = _SIGMA_X if k <= n else _SIGMA_Y
        factors = [_SIGMA_Z] * pos + [mid] + [_ID2] * (n - pos - 1)
    out = factors[0]
    for f in factors[1:]:
        out = sp_kron(out, f, 2, 2)
    return out
