"""Exact su(2) representation vectors and the density-1/4 and 1/3 codes."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdelsarte.scalars import SurdSum
from qdelsarte.su2 import (
    Su2Vector,
    apply,
    basis_vector,
    code_quarter,
    code_third,
    inner,
    min_distance,
)

F = Fraction


def weights(n):
    return list(range(-n, n + 1, 2))


@st.composite
def vectors(draw, n):
    amps = []
    for k in weights(n):
        num = draw(st.integers(-3, 3))
        if num:
            amps.append((k, SurdSum.rational(num)))
    if not amps:
        amps = [(n, SurdSum.rational(1))]
    return Su2Vector.make(n, dict(amps))


class TestRepresentation:
    @given(st.integers(1, 12), st.data())
    @settings(max_examples=60, deadline=None)
    def test_adjointness(self, n, data):
        u = data.draw(vectors(n))
        v = data.draw(vectors(n))
        assert inner(apply(n, "E", u), v) == inner(u, apply(n, "F", v))

    def test_raising_and_lowering_match(self):
        n = 4
        # E|k> = sqrt((n-k)(n+k+2))/2 |k+2>
        for k in weights(n)[:-1]:
            ek = apply(n, "E", basis_vector(n, k))
            coeff = SurdSum.sqrt(F((n - k) * (n + k + 2), 4))
            assert ek == Su2Vector.make(n, {k + 2: coeff})
        assert apply(n, "E", basis_vector(n, n)) == Su2Vector.make(n, {})

    @given(st.integers(1, 12))
    def test_basis_orthonormal(self, n):
        for k in weights(n):
            assert inner(basis_vector(n, k), basis_vector(n, k)) == SurdSum.rational(1)
        assert inner(basis_vector(n, -n), basis_vector(n, n)) == SurdSum()

    def test_commutator_is_h(self):
        # (EF - FE)|k> = k|k>
        n = 6
        for k in weights(n):
            v = basis_vector(n, k)
            ef = apply(n, "EF", v)
            fe = apply(n, "FE", v)
            got = ef - fe if hasattr(ef, "__sub__") else None
            assert inner(ef, v) - inner(fe, v) == SurdSum.rational(k)

    def test_inadmissible_weight_rejected(self):
        with pytest.raises(ValueError):
            Su2Vector.make(4, {1: SurdSum.rational(1)})
        with pytest.raises(ValueError):
            Su2Vector.make(4, {6: SurdSum.rational(1)})


def gram_is_identity(n, vecs):
    for i, u in enumerate(vecs):
        for j, v in enumerate(vecs):
            want = SurdSum.rational(1 if i == j else 0)
            if inner(u, v) != want:
                return False
    return True


# dimensions printed in the case tables
def third_dim(n):
    low = {0: 6, 1: 7, 2: 8, 3: 9, 4: 4, 5: 5}[n % 6]
    blocks = (n - low) // 6 + 1
    append = 1 if n % 6 in (0, 2, 3) else 0
    return 2 * blocks + append


class TestCodeThird:
    @pytest.mark.parametrize("n", range(4, 31))
    def test_dimension_and_orthonormality(self, n):
        vecs = code_third(n)
        assert gram_is_identity(n, vecs)
        assert len(vecs) == third_dim(n)

    @pytest.mark.parametrize("n", range(4, 21))
    def test_distance_two(self, n):
        assert min_distance(n, code_third(n)) == 2

    def test_n6_is_three_dimensional(self):
        assert len(code_third(6)) == 3


class TestCodeQuarter:
    @pytest.mark.parametrize("n", range(3, 21))
    def test_orthonormal(self, n):
        vecs = code_quarter(n)
        assert gram_is_identity(n, vecs)

    @pytest.mark.parametrize("n", range(7, 17))
    def test_distance_two(self, n):
        assert min_distance(n, code_quarter(n)) == 2

    def test_dimensions(self):
        assert len(code_quarter(5)) == 1
        assert len(code_quarter(7)) == 2
        assert len(code_quarter(8)) == 3


class TestMinDistance:
    def test_single_vector_reports_diameter_plus_one(self):
        assert min_distance(3, [basis_vector(3, 3)]) == 4

    def test_adjacent_basis_vectors_distance_one(self):
        # |n> and |n-2> are connected by one application of F
        assert min_distance(4, [basis_vector(4, 4), basis_vector(4, 2)]) == 1

    def test_antipodal_basis_vectors(self):
        # |n> and |-n> differ in H eigenvalue, hence distance 1
        assert min_distance(4, [basis_vector(4, 4), basis_vector(4, -4)]) == 1

    def test_non_orthogonal_rejected(self):
        v = basis_vector(4, 0)
        w = Su2Vector.make(4, {0: SurdSum.rational(1), 4: SurdSum.rational(1)})
        with pytest.raises(ValueError):
            min_distance(4, [v, w])
