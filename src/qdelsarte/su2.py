"""The (n+1)-dimensional irreducible su(2) representation and its codes.

States live in the orthonormal weight basis |k> with k = -n, -n+2, ..., n.
Amplitudes are SurdSum, so raising and lowering act exactly:

    E|k> = sqrt((n-k)(n+k+2)/4) |k+2>   (zero at k = n)
    F|k> = sqrt((n-k+2)(n+k)/4) |k-2>   (zero at k = -n)
    H|k> = k |k>

As matrices on the index m = (k+n)/2, E has the entries sqrt((n-m)(m+1))
just below the diagonal and F is its transpose.  `error_block(n, t)` is the
spanning set {ad_F^k(E^t) : 0 <= k <= 2t} of the error block V_t; the
minimum-distance checker here and the brute-force oracle both use it.  Two
explicit distance-2 code families are provided, occupying roughly a
quarter and a third of the weight range.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import Sparse, sp_identity, sp_mat_vec, sp_mul, sp_sub
from .scalars import SurdSum


@dataclass(frozen=True)
class Su2Vector:
    n: int
    amplitudes: tuple[tuple[int, SurdSum], ...]  # sorted (weight, amplitude)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need n >= 1, got n={self.n}")
        for k, a in self.amplitudes:
            if not (-self.n <= k <= self.n) or (k - self.n) % 2:
                raise ValueError(f"weight {k} not admissible for n={self.n}")
            if not a:
                raise ValueError("zero amplitudes must be dropped")

    @staticmethod
    def make(n: int, amps: dict[int, SurdSum]) -> "Su2Vector":
        return Su2Vector(n, tuple(sorted((k, a) for k, a in amps.items() if a)))

    def amp_dict(self) -> dict[int, SurdSum]:
        return dict(self.amplitudes)


def basis_vector(n: int, k: int) -> Su2Vector:
    return Su2Vector.make(n, {k: SurdSum.rational(1)})


def ef_matrices(n: int) -> tuple[Sparse, Sparse]:
    """The raising and lowering matrices E and F = E^T on the index m."""
    E = {(m + 1, m): SurdSum.sqrt((n - m) * (m + 1)) for m in range(n)}
    return E, {(j, i): x for (i, j), x in E.items()}


def error_block(n: int, t: int) -> list[Sparse]:
    """The 2t+1 matrices ad_F^k(E^t), k = 0..2t, spanning the block V_t."""
    E, F = ef_matrices(n)
    x = sp_identity(n + 1, SurdSum.rational(1))
    for _ in range(t):
        x = sp_mul(E, x)
    block = [x]
    for _ in range(2 * t):
        x = sp_sub(sp_mul(F, x), sp_mul(x, F))
        block.append(x)
    return block


def _dot(u: dict[int, SurdSum], v: dict[int, SurdSum]) -> SurdSum:
    """sum_i u_i v_i; amplitudes are real surds."""
    acc = SurdSum()
    for i, b in v.items():
        a = u.get(i)
        if a is not None:
            acc = acc + a * b
    return acc


def inner(u: Su2Vector, v: Su2Vector) -> SurdSum:
    return _dot(u.amp_dict(), v.amp_dict())


def code_quarter(n: int) -> list[Su2Vector]:
    """Distance-2 code from symmetrized pairs (|k> + |-k>)/sqrt(2) spaced by 4."""
    if n < 1:
        raise ValueError("need n >= 1")
    half = SurdSum.sqrt(Fraction(1, 2))

    def phi(k: int) -> Su2Vector:
        return Su2Vector.make(n, {k: half, -k: half})

    rem = n % 4
    lowest = {0: 4, 1: 5, 2: 6, 3: 3}[rem]
    vectors = [phi(k) for k in range(n, lowest - 1, -4)]
    if rem in (0, 2):
        vectors.append(basis_vector(n, 0))
    return vectors


def code_third(n: int) -> list[Su2Vector]:
    """Distance-2 code from paired blocks spaced by 6, density about a third."""
    if n < 4:
        raise ValueError("need n >= 4")

    def block(k: int) -> list[Su2Vector]:
        c1 = SurdSum.sqrt(Fraction(k, 2 * k - 2))
        c2 = SurdSum.sqrt(Fraction(k - 2, 2 * k - 2))
        psi1 = Su2Vector.make(n, {-(k - 2): c1, k: -c2})
        psi2 = Su2Vector.make(n, {-k: c2, k - 2: c1})
        return [psi1, psi2]

    rem = n % 6
    lowest = {0: 6, 1: 7, 2: 8, 3: 9, 4: 4, 5: 5}[rem]
    vectors: list[Su2Vector] = []
    for k in range(n, lowest - 1, -6):
        vectors.extend(block(k))
    if rem in (0, 2):
        vectors.append(basis_vector(n, 0))
    elif rem == 3:
        half = SurdSum.sqrt(Fraction(1, 2))
        vectors.append(Su2Vector.make(n, {3: half, -3: half}))
    return vectors


def min_distance(n: int, vectors: list[Su2Vector]) -> int:
    """Largest d such that every error block below d is detected exactly."""
    if not vectors:
        raise ValueError("empty code")
    for v in vectors:
        if v.n != n:
            raise ValueError("vector does not belong to this representation")
    # amplitudes on the matrix index m = (k+n)/2
    vecs = [{(k + n) // 2: a for k, a in v.amplitudes} for v in vectors]
    norms = [_dot(v, v).is_rational() for v in vecs]
    if any(x is None or x <= 0 for x in norms):
        raise ValueError("vectors must have positive rational norm squared")
    for i, u in enumerate(vecs):
        for v in vecs[i + 1:]:
            if _dot(u, v):
                raise ValueError("vectors must be pairwise orthogonal")
    if len(vectors) == 1:
        return n + 1

    def block_detected(t: int) -> bool:
        for op in error_block(n, t):
            images = [sp_mat_vec(op, v) for v in vecs]
            # <u_i, op u_j> must vanish for i != j, and <u_i, op u_i> be one
            # multiple of <u_i, u_i> for every i: compared cross-multiplied
            slope0 = _dot(vecs[0], images[0])
            for i, u in enumerate(vecs):
                if any(_dot(u, img) for j, img in enumerate(images) if j != i):
                    return False
                if _dot(u, images[i]) * norms[0] != slope0 * norms[i]:
                    return False
        return True

    d = 1
    while d <= n and block_detected(d):
        d += 1
    return d
