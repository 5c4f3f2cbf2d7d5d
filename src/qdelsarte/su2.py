"""The (n+1)-dimensional irreducible su(2) representation and its codes.

States live in the orthonormal weight basis |k> with k = -n, -n+2, ..., n.
Amplitudes are SurdSum, so raising and lowering act exactly:

    E|k> = sqrt((n-k)(n+k+2)/4) |k+2>   (zero at k = n)
    F|k> = sqrt((n-k+2)(n+k)/4) |k-2>   (zero at k = -n)
    H|k> = k |k>

As matrices on the index m = (k+n)/2, E has sqrt(a_m), a_m = (n-m)(m+1),
just below the diagonal and F is its transpose.  The operators here are
their conjugates by D = diag(sqrt(p_m)), p_m = prod_{k<m} a_k: D E D^-1 has
a_m at (m+1, m) and D F D^-1 has ones above the diagonal, so every word in
them is an integer matrix.  `error_block(n, t)` is the spanning set
{ad_F^k(E^t) : 0 <= k <= 2t} of the error block V_t in that frame; the
minimum-distance checker here and the brute-force oracle both use it.  E
and F are monomial, so E^t and every ad_F step relabel entries.  Each
block matrix is monomial too, moving index m to m + t - k, so
`min_distance` pairs only the code vectors whose supports it joins.  The
similarity keeps commutators and traces, and tr(A* B) is the sum of
A'_ij B'_ij w_i / w_j over the conjugates, with w_i = prod_{m>=i} a_m
(`weights`).  Two explicit distance-2 code families are provided, occupying
roughly a quarter and a third of the weight range.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import Sparse, monomial, mono_commutator, mono_mul, sp_identity
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
    """The raising and lowering matrices D E D^-1 and D F D^-1 on the index
    m: a_m at (m+1, m), and ones at (m, m+1)."""
    return ({(m + 1, m): (n - m) * (m + 1) for m in range(n)},
            {(m, m + 1): 1 for m in range(n)})


def weights(n: int, top: int | None = None) -> dict[int, int]:
    """w_i = prod_{i<=m<top} a_m for i <= top (top = n by default), the
    diagonal weight of tr(A* B) in the D frame: p_i w_i is one constant, so
    diag(w) is D^-2 up to it, in integers, on the indices up to top."""
    w = [1]
    for m in reversed(range(n if top is None else top)):
        w.append(w[-1] * (n - m) * (m + 1))
    return dict(enumerate(reversed(w)))


def error_block(n: int, t: int) -> list[Sparse]:
    """The 2t+1 integer matrices ad_F^k(E^t), k = 0..2t, spanning the block
    V_t, in the D frame."""
    E, F = map(monomial, ef_matrices(n))
    x = sp_identity(n + 1, 1)
    for _ in range(t):
        x = mono_mul(E, x)
    block = [x]
    for _ in range(2 * t):
        x = mono_commutator(F, x)
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
    at: dict[int, list[int]] = {}  # index -> the vectors nonzero there
    for j, v in enumerate(vecs):
        for m in v:
            at.setdefault(m, []).append(j)

    def meeting(shifts: set[int]) -> set[tuple[int, int]]:
        """The (i, j) where u_j's support moved by a shift meets u_i's; at
        any other, <u_i, X u_j> = 0 for X moving each m to an m + s."""
        return {(i, j) for j, v in enumerate(vecs) for m in v for s in shifts
                for i in at.get(m + s, ())}

    if any(i < j and _dot(vecs[i], vecs[j]) for i, j in meeting({0})):
        raise ValueError("vectors must be pairwise orthogonal")
    if len(vectors) == 1:
        return n + 1
    # <u, X v> = (D^-1 u) . (D X D^-1) (D v), and the error blocks are
    # D X D^-1: D = diag(g_m) with g_m = sqrt(p_m), built as a running
    # product up to the largest index used, top, and so is w.  y = w x is
    # D^-1 u times the constant p_m w_m, which no zero test or
    # cross-multiplied comparison sees
    top = max(max(v) for v in vecs)
    g = [SurdSum.rational(1)]
    for m in range(top):
        g.append(g[-1] * SurdSum.sqrt((n - m) * (m + 1)))
    w = weights(n, top)
    xs = [{m: g[m] * u for m, u in v.items()} for v in vecs]
    ys = [{m: a * w[m] for m, a in x.items()} for x in xs]

    def block_detected(t: int) -> bool:
        for op in error_block(n, t):
            # X' moves index c to col[c][0]: X' x_j relabels, for the j it joins
            col = monomial(op)[0]
            pairs = meeting({r - c for c, (r, _) in col.items()})
            images = {j: {col[m][0]: col[m][1] * a for m, a in xs[j].items() if m in col}
                      for j in {j for _, j in pairs}}
            # <u_i, X u_j> must vanish for i != j, and <u_i, X u_i> be one
            # multiple of <u_i, u_i> for every i: compared cross-multiplied
            if any(i != j and _dot(ys[i], images[j]) for i, j in pairs):
                return False
            diag = [_dot(ys[i], images[i]) if (i, i) in pairs else SurdSum()
                    for i in range(len(vecs))]
            if any(x * norms[0] != diag[0] * norms[i] for i, x in enumerate(diag)):
                return False
        return True

    d = 1
    while d <= n and block_detected(d):
        d += 1
    return d
