"""Catalog of the eight multiplicity-free, 2-homogeneous quantum metric families.

Each family ships its structural constants: the Hilbert space dimension
dim(H), the metric diameter r, and the dimensions dim(V_t) of the
irreducible error blocks L(H) = V_0 + ... + V_r.  The blocks always satisfy
sum_t dim(V_t) = dim(H)^2.

CLI / JSON names: qhamming, su2, su-sym, su-ext, clifford-odd,
clifford-even, spinorial, semispinorial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb


class FamilyError(ValueError):
    """Invalid family parameters."""


@dataclass(frozen=True)
class QHamming:
    """(C^q)^{tensor n} with errors graded by the number of non-identity factors."""
    q: int
    n: int
    name = "qhamming"


@dataclass(frozen=True)
class Su2:
    """Irreducible su(2) representation of dimension n+1, errors generated by E, F, H."""
    n: int
    name = "su2"


@dataclass(frozen=True)
class SuqSym:
    """n-th symmetric power of the defining representation of su(q)."""
    q: int
    n: int
    name = "su-sym"


@dataclass(frozen=True)
class SunExt:
    """w-th exterior power of the defining representation of su(n)."""
    n: int
    w: int
    name = "su-ext"


@dataclass(frozen=True)
class CliffordOdd:
    """Cl(2n+1) acting on n qubits; errors graded by Clifford word length."""
    n: int
    name = "clifford-odd"


@dataclass(frozen=True)
class CliffordEven:
    """Cl(2n) acting on n qubits; diameter 2n."""
    n: int
    name = "clifford-even"


@dataclass(frozen=True)
class Spinorial:
    """so(2n+1) spinor representation; distance-t errors are weight-2t Clifford words."""
    n: int
    name = "spinorial"


@dataclass(frozen=True)
class Semispinorial:
    """so(2n) half-spinor representation on the even-weight qubit subspace."""
    n: int
    name = "semispinorial"


FamilySpec = (QHamming | Su2 | SuqSym | SunExt | CliffordOdd | CliffordEven
              | Spinorial | Semispinorial)

FAMILY_NAMES = {
    "qhamming": QHamming,
    "su2": Su2,
    "su-sym": SuqSym,
    "su-ext": SunExt,
    "clifford-odd": CliffordOdd,
    "clifford-even": CliffordEven,
    "spinorial": Spinorial,
    "semispinorial": Semispinorial,
}


@dataclass(frozen=True)
class MetricProfile:
    dim_H: int
    diameter_r: int
    dim_V: tuple[int, ...]


def validate(spec: FamilySpec) -> None:
    if isinstance(spec, QHamming):
        if spec.q < 2 or spec.n < 1:
            raise FamilyError(f"qhamming needs q >= 2 and n >= 1, got q={spec.q}, n={spec.n}")
    elif isinstance(spec, Su2):
        if spec.n < 1:
            raise FamilyError(f"su2 needs n >= 1, got n={spec.n}")
    elif isinstance(spec, SuqSym):
        if spec.q < 2 or spec.n < 1:
            raise FamilyError(f"su-sym needs q >= 2 and n >= 1, got q={spec.q}, n={spec.n}")
    elif isinstance(spec, SunExt):
        if spec.n < 2 or not (1 <= spec.w <= spec.n - 1):
            raise FamilyError(f"su-ext needs n >= 2 and 1 <= w <= n-1, got n={spec.n}, w={spec.w}")
    elif isinstance(spec, (CliffordOdd, CliffordEven, Spinorial)):
        if spec.n < 1:
            raise FamilyError(f"{spec.name} needs n >= 1, got n={spec.n}")
    elif isinstance(spec, Semispinorial):
        # n = 1 would give a one-dimensional space with diameter 0
        if spec.n < 2:
            raise FamilyError(f"semispinorial needs n >= 2, got n={spec.n}")
    else:
        raise FamilyError(f"unknown family {spec!r}")


def profile(spec: FamilySpec) -> MetricProfile:
    validate(spec)
    if isinstance(spec, QHamming):
        q, n = spec.q, spec.n
        # (q^2-1)^t C(n,t) is the count of basis tensors with t traceless
        # factors; see README for the discrepancy with a published q^t C(n,t).
        return MetricProfile(q ** n, n,
                             tuple((q * q - 1) ** t * comb(n, t) for t in range(n + 1)))
    if isinstance(spec, Su2):
        n = spec.n
        return MetricProfile(n + 1, n, tuple(2 * t + 1 for t in range(n + 1)))
    if isinstance(spec, SuqSym):
        q, n = spec.q, spec.n
        dims = []
        for t in range(n + 1):
            d = Fraction(2 * t + q - 1, q - 1) * comb(q + t - 2, q - 2) ** 2
            if d.denominator != 1:
                raise ArithmeticError(f"dim V_{t} = {d} is not an integer for {spec}")
            dims.append(int(d))
        return MetricProfile(comb(n + q - 1, q - 1), n, tuple(dims))
    if isinstance(spec, SunExt):
        n, w = spec.n, spec.w
        r = min(w, n - w)
        dims = []
        for t in range(r + 1):
            d = Fraction(n - 2 * t + 1, n + 1) * comb(n + 1, t) ** 2
            if d.denominator != 1:
                raise ArithmeticError(f"dim V_{t} = {d} is not an integer for {spec}")
            dims.append(int(d))
        return MetricProfile(comb(n, w), r, tuple(dims))
    if isinstance(spec, CliffordOdd):
        n = spec.n
        return MetricProfile(2 ** n, n, tuple(comb(2 * n + 1, t) for t in range(n + 1)))
    if isinstance(spec, CliffordEven):
        n = spec.n
        return MetricProfile(2 ** n, 2 * n, tuple(comb(2 * n, t) for t in range(2 * n + 1)))
    if isinstance(spec, Spinorial):
        n = spec.n
        return MetricProfile(2 ** n, n, tuple(comb(2 * n + 1, 2 * t) for t in range(n + 1)))
    if isinstance(spec, Semispinorial):
        n = spec.n
        r = n // 2
        dims = []
        for t in range(r + 1):
            if 2 * t < n:
                dims.append(comb(2 * n, 2 * t))
            else:  # 2t = n, even n: the middle block splits in half
                dims.append(comb(2 * n, n) // 2)
        return MetricProfile(2 ** (n - 1), r, tuple(dims))
    raise FamilyError(f"unknown family {spec!r}")


def family_to_json(spec: FamilySpec) -> dict:
    params = {k: getattr(spec, k) for k in spec.__dataclass_fields__}
    return {"name": spec.name, **params}


def family_from_json(obj: dict) -> FamilySpec:
    name = obj["name"]
    if name not in FAMILY_NAMES:
        raise FamilyError(f"unknown family name {name!r}")
    cls = FAMILY_NAMES[name]
    params = {k: int(obj[k]) for k in cls.__dataclass_fields__}
    spec = cls(**params)
    validate(spec)
    return spec
