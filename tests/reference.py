"""Reference definitions the tests compare the package against."""

from fractions import Fraction
from math import prod
from typing import Any

from qdelsarte.linalg import Sparse, sp_identity, sp_kron, sp_mul, sp_sub
from qdelsarte.scalars import GR_ONE, GaussianRational, SurdSum
from qdelsarte.simplex import _pivot

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


def sp_mat_vec(a: Sparse, v: dict[int, Any]) -> dict[int, Any]:
    """a v for a sparse vector v, a dict from index to nonzero scalar."""
    out: dict[int, Any] = {}
    for (i, j), x in a.items():
        y = v.get(j)
        if y is not None:
            out[i] = out[i] + x * y if i in out else x * y
    return {i: w for i, w in out.items() if w}


def surd_ef_matrices(n: int) -> tuple[Sparse, Sparse]:
    """The su(2) raising and lowering matrices E and F = E^T on the index
    m = (k+n)/2 of the orthonormal weight basis: sqrt((n-m)(m+1)) at
    (m+1, m)."""
    E = {(m + 1, m): SurdSum.sqrt((n - m) * (m + 1)) for m in range(n)}
    return E, {(j, i): x for (i, j), x in E.items()}


def surd_error_block(n: int, t: int) -> list[Sparse]:
    """ad_F^k(E^t), k = 0..2t, on the orthonormal weight basis, as SurdSum
    matrices."""
    E, F = surd_ef_matrices(n)
    x = sp_identity(n + 1, SurdSum.rational(1))
    for _ in range(t):
        x = sp_mul(E, x)
    block = [x]
    for _ in range(2 * t):
        x = sp_sub(sp_mul(F, x), sp_mul(x, F))
        block.append(x)
    return block


def d_conjugate(n: int, b: Sparse) -> Sparse:
    """D b D^-1 for D = diag(sqrt(p_i)), p_i = prod_{m<i} (n-m)(m+1): entry
    (i, j) of b times sqrt(p_i / p_j)."""
    p = [prod((n - m) * (m + 1) for m in range(i)) for i in range(n + 1)]
    return {(i, j): v * SurdSum.sqrt(Fraction(p[i], p[j])) for (i, j), v in b.items()}


def gauss_jordan_solve(M: list[list[int]], b: list[int]) -> tuple[list[int], int] | None:
    """x = nums / den (den > 0) with M x = b, by fraction-free Gauss-Jordan
    elimination (every pivot rewrites every row); None when M is singular."""
    T = [row + [v] for row, v in zip(M, b)]
    free = list(range(len(T)))
    order, D = [], 1
    for k in range(len(T)):
        r = next((i for i in free if T[i][k]), -1)
        if r < 0:
            return None
        free.remove(r)
        order.append(r)
        D = _pivot(T, r, k, D)
    sign = -1 if D < 0 else 1
    return [sign * T[r][-1] for r in order], sign * D
