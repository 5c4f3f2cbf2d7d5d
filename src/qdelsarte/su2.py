"""The (n+1)-dimensional irreducible su(2) representation and its codes.

States live in the orthonormal weight basis |k> with k = -n, -n+2, ..., n.
Amplitudes are SurdSum, so raising and lowering act exactly:

    E|k> = sqrt((n-k)(n+k+2)/4) |k+2>   (zero at k = n)
    F|k> = sqrt((n-k+2)(n+k)/4) |k-2>   (zero at k = -n)
    H|k> = k |k>

Two explicit distance-2 code families are provided, occupying roughly a
quarter and a third of the weight range, plus an exact minimum-distance
checker driven by the spanning sets {ad_F^k(E^t)} of the error blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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


def _coeff_E(n: int, k: int) -> SurdSum:
    return SurdSum.sqrt(Fraction((n - k) * (n + k + 2), 4))


def _coeff_F(n: int, k: int) -> SurdSum:
    return SurdSum.sqrt(Fraction((n - k + 2) * (n + k), 4))


def apply(n: int, op: str, v: Su2Vector) -> Su2Vector:
    """Apply E, F, H, or a word like "EFH" (rightmost letter acts first)."""
    if v.n != n:
        raise ValueError("vector does not belong to this representation")
    amps = v.amp_dict()
    for letter in reversed(op):
        out: dict[int, SurdSum] = {}
        for k, a in amps.items():
            if letter == "E":
                if k < n:
                    out[k + 2] = out.get(k + 2, SurdSum.rational(0)) + _coeff_E(n, k) * a
            elif letter == "F":
                if k > -n:
                    out[k - 2] = out.get(k - 2, SurdSum.rational(0)) + _coeff_F(n, k) * a
            elif letter == "H":
                out[k] = out.get(k, SurdSum.rational(0)) + k * a
            else:
                raise ValueError(f"unknown operator letter {letter!r}")
        amps = {k: a for k, a in out.items() if a}
    return Su2Vector.make(n, amps)


def inner(u: Su2Vector, v: Su2Vector) -> SurdSum:
    ua = u.amp_dict()
    acc = SurdSum.rational(0)
    for k, b in v.amplitudes:
        a = ua.get(k)
        if a is not None:
            acc = acc + a * b  # amplitudes are real surds
    return acc


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


def _error_spanning_set(n: int, t: int) -> list[list[tuple[str, Fraction]]]:
    """Words spanning the distance-t block: ad_F^k(E^t) for 0 <= k <= 2t.

    Each element is a formal integer combination of operator words, kept
    symbolic so it can be applied to exact vectors.
    """
    current: list[tuple[str, Fraction]] = [("E" * t, Fraction(1))]
    out = [current]
    for _ in range(2 * t):
        nxt: dict[str, Fraction] = {}
        for word, c in current:
            nxt["F" + word] = nxt.get("F" + word, Fraction(0)) + c
            nxt[word + "F"] = nxt.get(word + "F", Fraction(0)) - c
        current = [(w, c) for w, c in nxt.items() if c]
        out.append(current)
    return out


def _apply_combo(n: int, combo: list[tuple[str, Fraction]], v: Su2Vector) -> dict[int, SurdSum]:
    acc: dict[int, SurdSum] = {}
    for word, c in combo:
        for k, a in apply(n, word, v).amplitudes:
            acc[k] = acc.get(k, SurdSum.rational(0)) + c * a
    return {k: a for k, a in acc.items() if a}


def min_distance(n: int, vectors: list[Su2Vector]) -> int:
    """Largest d such that every error block below d is detected exactly."""
    if not vectors:
        raise ValueError("empty code")
    for v in vectors:
        if v.n != n:
            raise ValueError("vector does not belong to this representation")
    norms = [inner(v, v).is_rational() for v in vectors]
    if any(x is None or x <= 0 for x in norms):
        raise ValueError("vectors must have positive rational norm squared")
    for i, u in enumerate(vectors):
        for v in vectors[i + 1:]:
            if inner(u, v):
                raise ValueError("vectors must be pairwise orthogonal")
    if len(vectors) == 1:
        return n + 1

    def block_detected(t: int) -> bool:
        for combo in _error_spanning_set(n, t):
            images = [_apply_combo(n, combo, v) for v in vectors]
            # off-diagonal parts must vanish
            for i, u in enumerate(vectors):
                ua = u.amp_dict()
                for j, img in enumerate(images):
                    if i == j:
                        continue
                    acc = SurdSum.rational(0)
                    for k, b in img.items():
                        a = ua.get(k)
                        if a is not None:
                            acc = acc + a * b
                    if acc:
                        return False
            # diagonal slopes must agree after norm division; compare
            # cross-multiplied to stay in SurdSum arithmetic
            diags = []
            for i, u in enumerate(vectors):
                ua = u.amp_dict()
                acc = SurdSum.rational(0)
                for k, b in images[i].items():
                    a = ua.get(k)
                    if a is not None:
                        acc = acc + a * b
                diags.append(acc)
            for i in range(1, len(vectors)):
                if diags[i] * norms[0] != diags[0] * norms[i]:
                    return False
        return True

    d = 1
    while d <= n and block_detected(d):
        d += 1
    return d
