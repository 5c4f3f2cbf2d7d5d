"""Clifford operators, stabilizer-style Clifford codes, and their verification.

Operators Gamma_x on n qubits are indexed by binary labels x over 2n or 2n+1
letters.  Each Gamma_x is a phased product of Weyl-Brauer generators taken in
interleaved letter order (1, n+1, 2, n+2, ..., n, 2n, 2n+1); the phase
(-i)^{tau(x)} with tau(x) = wt(x)(wt(x)-1)/2 makes every Gamma_x Hermitian,
involutive, and gives Gamma_{1...1} (all 2n letters) equal to the last
generator sigma_z^{tensor n}.

Every Gamma_x is a Pauli string up to phase, i^k X^a Z^b, the binary
symplectic form of Calderbank, Rains, Shor and Sloane (1998): column c goes
to row c ^ a with phase i^k (-1)^|b & c|.  `_pauli` gives (k, a, b) in
closed form, products follow from it, and every matrix of Gamma_x, here and
in `oracle`, is built from its signs (`_signed_monomial`).  The generators'
Kronecker-product definition is `weyl_brauer` in `tests/reference.py`.

Labels are stored as Python ints: bit k set means letter k+1 participates.
Two operators commute iff q(x, y) = wt(x)wt(y) + x.y vanishes mod 2, so a
q-isotropic set of labels generates a stabilizer group whose simultaneous
eigenspaces are quantum codes.  A code is read in a family of
`families.READINGS`, whose block t is `block_labels(spec, t)`: the labels of
the weights `spec.block_weights(t)` over the 2n code letters, as letter 2n+1
is the product of the other 2n up to phase.  Everything is decided on F_2.
`distance_distribution` counts A on the stabilizer span and B on its
q-annihilator C, the ordinary dual of the complemented generators' span, by
MacWilliams, so only subspaces of 2^s labels are enumerated, and a code over
ENUMERATION_BUDGET raises ValueError before any is.  The span lies in C, and
an undetected label is one of C outside the span, so block t holds
B_t - A_t / K of them: d is the first t >= 1 with A_t != K B_t (r + 1 when
there is none) and the code is pure when A_t = 0 for 0 < t < d.
Nondegeneracy counts the cosets of the span that the correctable errors fall
into.  For n <= MATRIX_CEILING every label of blocks 1..d is cross-checked
against the matrix condition P Gamma_x P = eps P, without sampling, and so
is each block's count of undetected labels; a disagreement raises
ArithmeticError.  The cross-check runs on Gaussian integers, (re, im) pairs
of ints: `projector` gives 2^s P, built from the span's monomial Gamma_z,
and its rows are indexed once.  Gamma_x is composed only at the columns P
occupies, and Q Gamma_x is the columns of Q relabelled by Gamma_x's mask a,
times its units, before the one general product with Q.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .families import READINGS, _Gamma, _krawtchouk
from .linalg import GI_UNITS, Sparse, gi_mul_mono, gi_mul_rows, gi_times, monomial, rows_of

MATRIX_CEILING = 7  # qubit count above which only the symbolic path runs
ENUMERATION_BUDGET = 5_000_000  # labels distance_distribution may enumerate


def wt(x: int) -> int:
    return x.bit_count()


def tau(x: int) -> int:
    w = wt(x)
    return w * (w - 1) // 2


def _pauli(n: int, x: int) -> tuple[int, int, int]:
    """Gamma_x = i^k X^a Z^b as (k mod 4, a, b), a and b over the column bits.

    Qubit p carries the sigma_x letter p+1 and the sigma_y letter n+p+1, and
    is column bit n-1-p.  Letter p+1 is Z on the qubits before p times X_p,
    letter n+p+1 the same with sigma_y = i X Z in place of X_p, and letter
    2n+1 is Z on every qubit.  In the interleaved order no X passes a Z on
    its own qubit, so with u, v, w the sigma_x, sigma_y and last letters,
    a_p = u_p ^ v_p, b_p = v_p ^ (xor of a_q over q > p) ^ w and
    k = |v| - tau(x).  a and b are F_2-linear in x.
    """
    if x >> (2 * n + 1):
        raise IndexError(f"label {x} has a letter beyond {2 * n + 1}")
    ones = (1 << n) - 1
    u, v = (int(f"{h:0{n}b}"[::-1], 2) for h in (x & ones, (x >> n) & ones))
    a = u ^ v
    below, shift = a << 1, 1  # bit j: xor of a over the column bits under j
    while shift < n:
        below ^= below << shift
        shift <<= 1
    b = v ^ (below & ones) ^ (ones if x >> (2 * n) else 0)
    return (v.bit_count() - tau(x)) & 3, a, b


def _signed_monomial(n: int, x: int, columns: Iterable[int] | None = None
                     ) -> tuple[int, int, list[int]]:
    """Gamma_x = i^k X^a Z^b as (k, a, signs): column c, of all or of `columns`
    in order, goes to row c ^ a times i^k sign, sign = (-1)^|b & c|."""
    k, a, b = _pauli(n, x)
    return k, a, [-1 if (b & c).bit_count() & 1 else 1
                  for c in (range(2 ** n) if columns is None else columns)]


def gamma(n: int, x: int) -> Sparse:
    """Matrix of Gamma_x, composed as a monomial matrix; entries are the
    Gaussian-integer units of `GI_UNITS`, (re, im) pairs of ints."""
    k, a, signs = _signed_monomial(n, x)
    return {(c ^ a, c): GI_UNITS[(k + 1 - s) & 3] for c, s in enumerate(signs)}


def gamma_mul(n: int, x: int, y: int) -> tuple[int, int]:
    """Gamma_x Gamma_y = i^phase Gamma_{x xor y}; returns (phase mod 4, x xor y).

    Z^b X^a = (-1)^{|a & b|} X^a Z^b, and a, b are linear in the label.
    """
    kx, _, bx = _pauli(n, x)
    ky, ay, _ = _pauli(n, y)
    return (kx + ky + 2 * (bx & ay).bit_count() - _pauli(n, x ^ y)[0]) & 3, x ^ y


def q_form(x: int, y: int) -> int:
    return (wt(x) * wt(y) + wt(x & y)) % 2


def is_q_isotropic(labels: list[int]) -> bool:
    # q(a, a) = wt(a)(wt(a) + 1) mod 2 vanishes for every label, so only pairs count
    return all(q_form(a, b) == 0 for a, b in combinations(labels, 2))


def label_from_str(s: str) -> int:
    """The label whose bit i is character i of s."""
    if set(s) - {"0", "1"}:
        raise ValueError(f"bad label string {s!r}")
    return int(s[::-1] or "0", 2)


def label_to_str(x: int, length: int) -> str:
    """Bits 0..length-1 of the label x, bit i as character i."""
    return format(x, f"0{length}b")[::-1][:length]


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
    """2^s P as a Gaussian-integer matrix: entry (c ^ a_z, c) collects
    c_z i^k_z s_z[c] over the Gamma_z = (k_z, a_z, s_z) of the span, as an
    (re, im) pair of ints."""
    if stab.n > MATRIX_CEILING:
        raise ValueError(f"matrix path limited to n <= {MATRIX_CEILING}; "
                         "use the symbolic operations instead")
    acc: dict[tuple[int, int], tuple[int, int]] = {}
    for z, cz in span_coefficients(stab).items():
        k, a, signs = _signed_monomial(stab.n, z)
        for c, s in enumerate(signs):
            ur, ui = GI_UNITS[(k + 1 - s) & 3]
            re, im = acc.get((c ^ a, c), (0, 0))
            acc[(c ^ a, c)] = (re + cz * ur, im + cz * ui)
    return {k: v for k, v in acc.items() if v != (0, 0)}


def clifford_hamming(s: int) -> StabilizerCode:
    """Distance-3 code on n = 2^s - 1 qubits from the binary Hamming matrix."""
    if s < 3:
        raise ValueError(f"need s >= 3, got s={s}")
    n = 2 ** s - 1
    rows = []
    for i in range(s):  # row i reads bit i of the column index j (at bit j - 1), MSB first
        # bit j of y is that bit of j: one period of 2 * half bits, doubled to n + 1
        half = 1 << (s - 1 - i)
        y, width = ((1 << half) - 1) << half, 2 * half
        while width <= n:
            y, width = y | y << width, 2 * width
        x = y >> 1
        rows.append(x | (x << n))
    rows.append((1 << n) - 1)
    return StabilizerCode(n, tuple(rows), (1,) * (s + 1))


def reading_family(n: int, reading: str) -> _Gamma:
    """The family whose blocks a code on n qubits is read in."""
    if reading not in READINGS:
        raise ValueError(f"unknown reading {reading!r}")
    return READINGS[reading](n)


def _labels_of_weight(length: int, w: int):
    for bits in combinations(range(length), w):
        yield sum(1 << b for b in bits)


def block_labels(spec: _Gamma, t: int):
    """The 2n-letter labels of block t, by weight."""
    for w in spec.block_weights(t):
        yield from _labels_of_weight(2 * spec.n, w)


@dataclass(frozen=True)
class DetectionReport:
    reading: str
    dimension: int
    min_distance: int
    slope_values: dict[str, Fraction]
    is_pure: bool
    is_nondegenerate: bool
    A: list[Fraction]
    B: list[Fraction]


def detection_report(stab: StabilizerCode, reading: str) -> DetectionReport:
    """Distance and purity read off (A, B); for K = 1, C is the span and d = r + 1."""
    A, B = distance_distribution(stab, reading)  # the budget, before any enumeration
    K, r = stab.dimension, len(A) - 1
    d = next((t for t in range(1, r + 1) if A[t] != K * B[t]), r + 1)
    spec = reading_family(stab.n, reading)
    coeffs = span_coefficients(stab)

    # labels grouped by reading-distance, up to d-1 (the detected range)
    length = 2 * stab.n
    block_of = {w: t for t in range(r + 1) for w in spec.block_weights(t)}
    slope_values = {label_to_str(0, length): Fraction(1)}
    for z, c in coeffs.items():
        if z and block_of[wt(z)] <= d - 1:
            slope_values[label_to_str(z, length)] = Fraction(c)

    nondeg = _nondegenerate(stab, spec, (d - 1) // 2)
    if stab.n <= MATRIX_CEILING:
        _matrix_check(stab, coeffs, spec, d, A, B)

    return DetectionReport(reading, K, d, slope_values, not any(A[1:d]), nondeg, A, B)


def _nondegenerate(stab: StabilizerCode, spec: _Gamma, half: int) -> bool:
    """Is the slope form eps(Gamma_a Gamma_b) on errors up to half nonsingular?

    Rows a and b are proportional when a ^ b lies in the stabilizer span and
    have disjoint supports otherwise, and every diagonal entry is eps(I) = 1:
    the form is nonsingular exactly when the errors lie in distinct cosets.
    """
    echelon = _f2_echelon(stab.generators)
    labels = [x for t in range(half + 1) for x in block_labels(spec, t)]
    return len({_f2_reduce(x, echelon) for x in labels}) == len(labels)


def _matrix_check(stab: StabilizerCode, coeffs: dict[int, int], spec: _Gamma,
                  d: int, A: list[Fraction], B: list[Fraction]) -> None:
    """Re-derive detection verdicts from P Gamma_x P against the F_2 rule,
    and the undetected labels of each block against B_t - A_t / K.

    On the Gaussian integers Q = 2^s P, P Gamma_x P = eps P reads
    Q Gamma_x Q = eps 2^s Q, and Q Gamma_x Q is a multiple of Q exactly when
    it matches Q cross-multiplied at one entry of Q.  Q Gamma_x Q reads
    Gamma_x only at the columns Q occupies, so only those signs are formed,
    and Q Gamma_x relabels Q's columns.
    """
    n = stab.n
    Q = projector(stab)
    columns = sorted({c for _, c in Q})
    rows = rows_of(Q)
    key = next(iter(Q))
    scale = 2 ** len(stab.generators)
    gens = stab.generators
    for t in range(1, min(d, len(A) - 1) + 1):
        undetected = 0
        for x in block_labels(spec, t):
            k, a, signs = _signed_monomial(n, x, columns)
            gx = monomial({(c ^ a, c): GI_UNITS[(k + 1 - s) & 3]
                           for c, s in zip(columns, signs)})
            qgq = gi_mul_rows(gi_mul_mono(Q, gx), rows)
            if x in coeffs:
                eps = coeffs[x] * scale
                ok = qgq == {k: (eps * re, eps * im) for k, (re, im) in Q.items()}
            elif any(q_form(x, g) for g in gens):
                ok = qgq == {}
            else:
                # undetected means PXP is not a scalar multiple of P
                ok = not _proportional(qgq, Q, key)
                undetected += 1
            if not ok:
                raise ArithmeticError(f"matrix cross-check disagrees with the "
                                      f"F_2 verdict at x={x}, t={t}")
        if undetected != B[t] - A[t] / stab.dimension:
            raise ArithmeticError(f"matrix cross-check finds {undetected} undetected "
                                  f"labels in block {t}, against A and B")


def _proportional(m: Sparse, q: Sparse, key: tuple[int, int]) -> bool:
    """Is m = lambda q for a Gaussian integer matrix q with q[key] != 0?
    lambda can only be m[key] / q[key], so m q[key] = q m[key] decides."""
    mk, qk = m.get(key, (0, 0)), q[key]
    return all(gi_times(m.get(k, (0, 0)), qk) == gi_times(q.get(k, (0, 0)), mk)
               for k in m.keys() | q.keys())


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
    spec = reading_family(n, reading)
    r = spec.profile().diameter_r
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
    nonzero = [(i, c) for i, c in enumerate(in_d) if c]
    in_c = []
    for w in range(length + 1):
        count, rem = divmod(sum(c * _krawtchouk(length, w, i) for i, c in nonzero), size_d)
        if rem:
            raise ArithmeticError(f"MacWilliams count of weight {w} is not an integer")
        in_c.append(count)
    A: list[Fraction] = []
    B: list[Fraction] = []
    for t in range(r + 1):
        ws = spec.block_weights(t)
        A.append(Fraction(K * sum(in_span[w] for w in ws)))
        B.append(Fraction(sum(in_c[w] for w in ws)))
    return A, B
