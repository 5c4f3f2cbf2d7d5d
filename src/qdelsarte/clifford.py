"""Clifford operators, stabilizer-style Clifford codes, and their verification.

Operators Gamma_x on n qubits are indexed by binary labels x over 2n or 2n+1
letters.  Each Gamma_x is a phased product of Weyl-Brauer generators taken in
interleaved letter order (1, n+1, 2, n+2, ..., n, 2n, 2n+1); the phase
(-i)^{tau(x)} with tau(x) = wt(x)(wt(x)-1)/2 makes every Gamma_x Hermitian,
involutive, and gives Gamma_{1...1} (all 2n letters) equal to the last
generator sigma_z^{tensor n}.

Every Gamma_x is a monomial matrix: an XOR-mask permutation (column c goes
to row c ^ mask) times phases i^e[c].  Each generator's mask and phases are
read once per n off its sparse Kronecker definition in `weyl_brauer`, and
Gamma_x is composed from them with integer arithmetic mod 4, in O(wt(x) 2^n).

Labels are stored as Python ints: bit k set means letter k+1 participates.
Two operators commute iff q(x, y) = wt(x)wt(y) + x.y vanishes mod 2, so a
q-isotropic set of labels generates a stabilizer group whose simultaneous
eigenspaces are quantum codes.  Detection, distance, purity, nondegeneracy
and distance distributions are all decided on F_2: nondegeneracy counts the
cosets of the stabilizer span that the correctable errors fall into, and B
counts the ordinary dual of the complemented generators' span by MacWilliams,
so only subspaces of at most 2^s labels are ever enumerated.  For
n <= MATRIX_CEILING the detection verdicts are cross-checked against the
matrix condition P Gamma_x P = eps P on every label of every block
t = 1..d, without sampling.  A disagreement raises ArithmeticError.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .families import _krawtchouk
from .linalg import Sparse, sp_add, sp_kron, sp_mul, sp_scale
from .scalars import GR_ONE, GR_ZERO, GaussianRational, gr_i_power

MATRIX_CEILING = 7  # qubit count above which only the symbolic path runs
ENUMERATION_BUDGET = 5_000_000  # labels distance_distribution may enumerate

_SIGMA_X: Sparse = {(0, 1): GR_ONE, (1, 0): GR_ONE}
_SIGMA_Y: Sparse = {(0, 1): GaussianRational(0, -1), (1, 0): GaussianRational(0, 1)}
_SIGMA_Z: Sparse = {(0, 0): GR_ONE, (1, 1): -GR_ONE}
_ID2: Sparse = {(0, 0): GR_ONE, (1, 1): GR_ONE}


def weyl_brauer(n: int, k: int) -> Sparse:
    """k-th anticommuting generator on n qubits, 1 <= k <= 2n+1."""
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


def wt(x: int) -> int:
    return x.bit_count()


def tau(x: int) -> int:
    w = wt(x)
    return w * (w - 1) // 2


def _interleave_key(bit: int, n: int) -> int:
    # product order of letters: 1, n+1, 2, n+2, ..., n, 2n, 2n+1
    if bit < n:
        return 2 * bit
    if bit < 2 * n:
        return 2 * (bit - n) + 1
    return 2 * n


def _letters(x: int) -> list[int]:
    return [b for b in range(x.bit_length()) if (x >> b) & 1]


@lru_cache(maxsize=None)
def _generator_monomials(n: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(xor mask, i-exponent per column) of weyl_brauer(n, k), k = 1..2n+1.

    Every generator sends column c to row c ^ mask with phase i^e[c]; both are
    read off the sparse definition, so the generators are defined only once.
    """
    exponent = {gr_i_power(e): e for e in range(4)}
    out = []
    for k in range(1, 2 * n + 2):
        phases = [0] * 2 ** n
        masks = set()
        for (row, col), v in weyl_brauer(n, k).items():
            masks.add(row ^ col)
            phases[col] = exponent[v]
        (mask,) = masks
        out.append((mask, tuple(phases)))
    return tuple(out)


def _gamma_monomial(n: int, x: int) -> tuple[int, list[int]]:
    """(xor mask, i-exponent per column) of Gamma_x.

    With A sending c to c ^ a and B sending c to c ^ b, column c of A B
    lands on row c ^ a ^ b with phase e_B[c] + e_A[c ^ b].
    """
    gens = _generator_monomials(n)
    mask, phases = 0, [-tau(x) % 4] * 2 ** n
    for b in sorted(_letters(x), key=lambda b: _interleave_key(b, n)):
        g_mask, g_phases = gens[b]
        phases = [(e + phases[c ^ g_mask]) & 3 for c, e in enumerate(g_phases)]
        mask ^= g_mask
    return mask, phases


def gamma(n: int, x: int) -> Sparse:
    """Matrix of Gamma_x, composed as a monomial matrix; entries are
    GaussianRational units."""
    mask, phases = _gamma_monomial(n, x)
    return {(r, r ^ mask): gr_i_power(phases[r ^ mask]) for r in range(2 ** n)}


def gamma_mul(n: int, x: int, y: int) -> tuple[int, int]:
    """Gamma_x Gamma_y = i^phase Gamma_{x xor y}; returns (phase mod 4, x xor y)."""
    z = x ^ y
    inv = 0
    ykeys = sorted(_interleave_key(b, n) for b in _letters(y))
    for a in _letters(x):
        inv += bisect_left(ykeys, _interleave_key(a, n))
    phase = (tau(z) - tau(x) - tau(y) + 2 * inv) % 4
    return phase, z


def q_form(x: int, y: int) -> int:
    return (wt(x) * wt(y) + wt(x & y)) % 2


def is_q_isotropic(labels: list[int]) -> bool:
    return all(q_form(a, b) == 0 for a, b in combinations(labels, 2)) \
        and all(q_form(a, a) == 0 for a in labels)


def label_from_str(s: str) -> int:
    if set(s) - {"0", "1"}:
        raise ValueError(f"bad label string {s!r}")
    return sum(1 << i for i, c in enumerate(s) if c == "1")


def label_to_str(x: int, length: int) -> str:
    return "".join("1" if (x >> i) & 1 else "0" for i in range(length))


@dataclass(frozen=True)
class StabilizerCode:
    n: int
    generators: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need n >= 1, got n={self.n}")
        if len(self.signs) != len(self.generators):
            raise ValueError("signs and generators must have equal length")
        if any(type(s) is not int or s not in (1, -1) for s in self.signs):
            raise ValueError("signs must be the integers +1 or -1")
        lim = 1 << (2 * self.n)
        if any(not 0 < g < lim for g in self.generators):
            raise ValueError(f"generators must be nonzero {2 * self.n}-bit labels")
        if len(_f2_echelon(self.generators)) != len(self.generators):
            raise ValueError("generators not linearly independent over F_2")
        if not is_q_isotropic(list(self.generators)):
            raise ValueError("generators not q-isotropic")

    @property
    def dimension(self) -> int:
        return 2 ** (self.n - len(self.generators))


def _f2_reduce(v: int, echelon: dict[int, int]) -> int:
    """v modulo the span of a fully reduced echelon form, in one pass.

    Each row carries exactly one pivot bit, so clearing the pivots in any
    order leaves the same representative for every element of a coset.
    """
    for p, row in echelon.items():
        if (v >> p) & 1:
            v ^= row
    return v


def _f2_echelon(vecs: Iterable[int]) -> dict[int, int]:
    """Fully reduced row echelon form over F_2: pivot bit -> row.

    A row's pivot is its highest bit, and no row has another row's pivot.
    """
    rows: dict[int, int] = {}
    for v in vecs:
        v = _f2_reduce(v, rows)
        if v:
            p = v.bit_length() - 1
            for k in rows:
                if (rows[k] >> p) & 1:
                    rows[k] ^= v
            rows[p] = v
    return rows


def span_coefficients(stab: StabilizerCode) -> dict[int, int]:
    """Signed expansion of the projector: P = 2^{-s} sum_z c_z Gamma_z."""
    coeffs = {0: 1}
    for g, sign in zip(stab.generators, stab.signs):
        nxt = dict(coeffs)
        for z, c in coeffs.items():
            phase, zg = gamma_mul(stab.n, z, g)
            # products of commuting Hermitian involutions stay Hermitian
            if phase not in (0, 2):
                raise ArithmeticError(f"non-Hermitian product at z={z}, g={g}: "
                                      f"phase {phase}")
            nxt[zg] = c * sign * (1 if phase == 0 else -1)
        coeffs = nxt
    return coeffs


def projector(stab: StabilizerCode) -> Sparse:
    if stab.n > MATRIX_CEILING:
        raise ValueError(f"matrix path limited to n <= {MATRIX_CEILING}; "
                         "use the symbolic operations instead")
    s = len(stab.generators)
    scale = GaussianRational(Fraction(1, 2 ** s), 0)
    out: Sparse = {}
    for z, c in span_coefficients(stab).items():
        out = sp_add(out, sp_scale(gamma(stab.n, z), scale * c))
    return out


def clifford_hamming(s: int) -> StabilizerCode:
    """Distance-3 code on n = 2^s - 1 qubits from the binary Hamming matrix."""
    if s < 3:
        raise ValueError(f"need s >= 3, got s={s}")
    n = 2 ** s - 1
    rows = []
    for i in range(s):  # row i reads bit i of the column index, MSB first
        x = sum(1 << (j - 1) for j in range(1, n + 1) if (j >> (s - 1 - i)) & 1)
        rows.append(x | (x << n))
    rows.append((1 << n) - 1)
    return StabilizerCode(n, tuple(rows), (1,) * (s + 1))


READINGS = ("even", "odd", "spinorial")


def reading_diameter(n: int, reading: str) -> int:
    if reading == "even":
        return 2 * n
    if reading in ("odd", "spinorial"):
        return n
    raise ValueError(f"unknown reading {reading!r}")


def block_weights(n: int, reading: str, t: int) -> tuple[int, ...]:
    """Label weights over F_2^{2n} that make up the distance-t error block."""
    if reading == "even":
        return (t,)
    if reading == "odd":
        # weight-t words of the odd algebra reduce to weight t and 2n+1-t
        a, b = t, 2 * n + 1 - t
    elif reading == "spinorial":
        a, b = 2 * t, 2 * n + 1 - 2 * t
    else:
        raise ValueError(f"unknown reading {reading!r}")
    return tuple(sorted({w for w in (a, b) if 0 <= w <= 2 * n}))


def _labels_of_weight(length: int, w: int):
    for bits in combinations(range(length), w):
        yield sum(1 << b for b in bits)


@dataclass(frozen=True)
class DetectionReport:
    reading: str
    dimension: int
    min_distance: int
    slope_values: dict[str, Fraction]
    is_pure: bool
    is_nondegenerate: bool


def detection_report(stab: StabilizerCode, reading: str) -> DetectionReport:
    n, length = stab.n, 2 * stab.n
    if stab.dimension == 0:
        raise ValueError("dimension-0 code")
    r = reading_diameter(n, reading)
    coeffs = span_coefficients(stab)
    span = set(coeffs)
    gens = stab.generators

    def detected(x: int) -> bool:
        return x in span or any(q_form(x, g) for g in gens)

    if stab.dimension == 1:
        d = r + 1
    else:
        d = 1
        while d <= r:
            ok = all(detected(x)
                     for w in block_weights(n, reading, d)
                     for x in _labels_of_weight(length, w))
            if not ok:
                break
            d += 1

    # labels grouped by reading-distance, up to d-1 (the detected range)
    def block_of(x: int) -> int | None:
        w = wt(x)
        for t in range(r + 1):
            if w in block_weights(n, reading, t):
                return t
        return None

    slope_values = {label_to_str(0, length): Fraction(1)}
    pure = True
    for z, c in coeffs.items():
        if z == 0:
            continue
        t = block_of(z)
        if t is not None and t <= d - 1:
            slope_values[label_to_str(z, length)] = Fraction(c)
            pure = False

    half = (d - 1) // 2
    nondeg = _nondegenerate(stab, reading, half)
    if n <= MATRIX_CEILING:
        _matrix_check(stab, coeffs, reading, d)

    return DetectionReport(reading, stab.dimension, d, slope_values, pure, nondeg)


def _nondegenerate(stab: StabilizerCode, reading: str, half: int) -> bool:
    """Is the slope form eps(Gamma_a Gamma_b) on errors up to half nonsingular?

    Rows a and b are proportional when a ^ b lies in the stabilizer span and
    have disjoint supports otherwise, and every diagonal entry is eps(I) = 1:
    the form is nonsingular exactly when the errors lie in distinct cosets.
    """
    n, length = stab.n, 2 * stab.n
    echelon = _f2_echelon(stab.generators)
    labels = [x for t in range(half + 1) for w in block_weights(n, reading, t)
              for x in _labels_of_weight(length, w)]
    return len({_f2_reduce(x, echelon) for x in labels}) == len(labels)


def _matrix_check(stab: StabilizerCode, coeffs: dict[int, int],
                  reading: str, d: int) -> None:
    """Re-derive detection verdicts from P Gamma_x P against the F_2 rule."""
    n, length = stab.n, 2 * stab.n
    r = reading_diameter(n, reading)
    P = projector(stab)
    span = set(coeffs)
    gens = stab.generators
    for t in range(1, min(d + 1, r + 1)):
        for w in block_weights(n, reading, t):
            for x in _labels_of_weight(length, w):
                # P Gamma_x moves column c ^ mask of P to column c, times i^e[c]
                mask, phases = _gamma_monomial(n, x)
                pg = {(i, c ^ mask): v * gr_i_power(phases[c ^ mask])
                      for (i, c), v in P.items()}
                pgp = sp_mul(pg, P)
                if x in span:
                    ok = pgp == sp_scale(P, GaussianRational(Fraction(coeffs[x]), 0))
                elif any(q_form(x, g) for g in gens):
                    ok = pgp == {}
                else:
                    # undetected means PXP is not a scalar multiple of P
                    key = next(iter(P))
                    ratio = pgp.get(key, GR_ZERO) / P[key]
                    ok = pgp != sp_scale(P, ratio)
                if not ok:
                    raise ArithmeticError(f"matrix cross-check disagrees with the "
                                          f"F_2 verdict at x={x}, t={t}")


def _weight_counts(basis: list[int], length: int) -> list[int]:
    """Number of labels of each weight 0..length in the F_2 span of basis.

    The span is walked in Gray-code order, one XOR per element; the basis
    must be linearly independent, or elements are counted twice.
    """
    counts = [0] * (length + 1)
    x = 0
    counts[0] = 1
    for i in range(1, 1 << len(basis)):
        x ^= basis[(i & -i).bit_length() - 1]
        counts[x.bit_count()] += 1
    return counts


def distance_distribution(stab: StabilizerCode, reading: str
                          ) -> tuple[list[Fraction], list[Fraction]]:
    """Exact (A, B) from F_2 structure; no matrices needed at any n.

    A_t = K |span ∩ block t| and B_t = 2^{-s} sum over x in block t of the
    character sum sum_{z in span} (-1)^{q(x, z)}.  q is F_2-bilinear, so that
    sum is 2^s when q(x, g) = 0 for every generator g and 0 otherwise:
    B_t = |C ∩ block t| with C the q-annihilator of the span.  As
    q(x, g) = x.g' with g' = g complemented when wt(g) is odd, C is the
    ordinary dual of D = span of the g', and by the MacWilliams identity
    |C_w| = 2^{-dim D} sum_i |D_i| K_w(i) (binary Krawtchouk over 2n letters).
    Only the span and D are enumerated, from F_2 bases, so the budget counts
    2^s + 2^dim D labels; the blocks partition the weights 0..2n.
    """
    n, length = stab.n, 2 * stab.n
    r = reading_diameter(n, reading)
    s = len(stab.generators)
    K = stab.dimension
    ones = (1 << length) - 1
    d_basis = list(_f2_echelon(g ^ ones if wt(g) % 2 else g
                               for g in stab.generators).values())
    size_d = 2 ** len(d_basis)
    if 2 ** s + size_d > ENUMERATION_BUDGET:
        raise ValueError("distribution enumeration exceeds the operation budget")
    in_span = _weight_counts(list(stab.generators), length)
    in_d = _weight_counts(d_basis, length)
    in_c = []
    for w in range(length + 1):
        count, rem = divmod(sum(c * _krawtchouk(length, w, i)
                                for i, c in enumerate(in_d) if c), size_d)
        if rem:
            raise ArithmeticError(f"MacWilliams count of weight {w} is not an integer")
        in_c.append(count)
    A: list[Fraction] = []
    B: list[Fraction] = []
    for t in range(r + 1):
        ws = block_weights(n, reading, t)
        A.append(Fraction(K * sum(in_span[w] for w in ws)))
        B.append(Fraction(sum(in_c[w] for w in ws)))
    return A, B
