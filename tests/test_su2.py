"""Exact su(2) representation vectors and the density-1/4 and 1/3 codes."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdelsarte.linalg import sp_mul, sp_sub
from qdelsarte.scalars import SurdSum
from qdelsarte.su2 import (
    Su2Vector,
    basis_vector,
    code_quarter,
    code_third,
    ef_matrices,
    error_block,
    inner,
    min_distance,
    weights as frame_weights,
)
from reference import d_conjugate, sp_mat_vec, surd_ef_matrices

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


def on_index(v):
    """The amplitudes of v on the matrix index m = (k+n)/2."""
    return {(k + v.n) // 2: a for k, a in v.amplitudes}


class TestRepresentation:
    @given(st.integers(1, 12), st.data())
    @settings(max_examples=60, deadline=None)
    def test_adjointness(self, n, data):
        # F = E^T in the orthonormal frame, so in the D frame <E u, v>_w =
        # <u, F v>_w under the weights w
        u = on_index(data.draw(vectors(n)))
        v = on_index(data.draw(vectors(n)))
        E, Fm = ef_matrices(n)
        w = frame_weights(n)

        def wdot(x, y):
            return sum(a * y[m] * w[m] for m, a in x.items() if m in y)

        assert wdot(sp_mat_vec(E, u), v) == wdot(u, sp_mat_vec(Fm, v))

    def test_weights_are_inverse_to_the_frame(self):
        # p_m w_m = w_0, p_m = D_m^2 = prod_{k<m} a_k
        for n in range(1, 13):
            w, p = frame_weights(n), 1
            assert sorted(w) == list(range(n + 1)) and w[n] == 1
            for m in range(n + 1):
                assert p * w[m] == w[0], (n, m)
                p *= (n - m) * (m + 1)

    def test_raising_and_lowering_match(self):
        # E|k> = sqrt((n-k)(n+k+2)/4) |k+2>, zero at k = n, and F = E^T on
        # the orthonormal basis; the package holds their D conjugates
        for n in range(1, 13):
            E, Fm = surd_ef_matrices(n)
            assert E == {((k + n) // 2 + 1, (k + n) // 2):
                         SurdSum.sqrt(F((n - k) * (n + k + 2), 4)) for k in weights(n)[:-1]}
            assert Fm == {(j, i): x for (i, j), x in E.items()}
            Ed, Fd = ef_matrices(n)
            assert Ed == {(m + 1, m): (n - m) * (m + 1) for m in range(n)}
            assert Fd == {(m, m + 1): 1 for m in range(n)}
            assert (Ed, Fd) == (d_conjugate(n, E), d_conjugate(n, Fm))

    @given(st.integers(1, 12))
    def test_basis_orthonormal(self, n):
        for k in weights(n):
            assert inner(basis_vector(n, k), basis_vector(n, k)) == SurdSum.rational(1)
        assert inner(basis_vector(n, -n), basis_vector(n, n)) == SurdSum()

    def test_commutator_is_h(self):
        # EF - FE = H = diag(k), k = 2m - n
        for n in range(1, 13):
            E, Fm = ef_matrices(n)
            assert sp_sub(sp_mul(E, Fm), sp_mul(Fm, E)) == {
                (m, m): 2 * m - n for m in range(n + 1) if 2 * m != n}

    def test_error_block_starts_at_the_raising_power(self):
        E, Fm = ef_matrices(5)
        one, = error_block(5, 0)
        assert one == {(m, m): 1 for m in range(6)}
        block = error_block(5, 1)
        assert len(block) == 3 and block[0] == E
        # ad_F(E) = -H and ad_F^2(E) = -2F
        assert block[1] == {(m, m): 5 - 2 * m for m in range(6)}
        assert block[2] == {k: -2 * x for k, x in Fm.items()}
        assert len(error_block(5, 2)) == 5

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


# --- reference: the operator-word expansion min_distance used to run -------

def _word_apply(n, word, amps):
    """Apply a word in E, F (rightmost letter acts first) to {k: amplitude}."""
    for letter in reversed(word):
        out = {}
        for k, a in amps.items():
            if letter == "E" and k < n:
                c, to = SurdSum.sqrt(F((n - k) * (n + k + 2), 4)), k + 2
            elif letter == "F" and k > -n:
                c, to = SurdSum.sqrt(F((n - k + 2) * (n + k), 4)), k - 2
            else:
                continue
            out[to] = out.get(to, SurdSum()) + c * a
        amps = {k: a for k, a in out.items() if a}
    return amps


def _word_spanning_set(n, t):
    """ad_F^k(E^t), k = 0..2t, as integer combinations of words."""
    current = [("E" * t, 1)]
    out = [current]
    for _ in range(2 * t):
        nxt = {}
        for word, c in current:
            nxt["F" + word] = nxt.get("F" + word, 0) + c
            nxt[word + "F"] = nxt.get(word + "F", 0) - c
        current = [(w, c) for w, c in nxt.items() if c]
        out.append(current)
    return out


def reference_min_distance(n, vecs):
    if len(vecs) == 1:
        return n + 1
    norms = [inner(v, v) for v in vecs]

    def detected(t):
        for combo in _word_spanning_set(n, t):
            images = []
            for v in vecs:
                acc = {}
                for word, c in combo:
                    for k, a in _word_apply(n, word, v.amp_dict()).items():
                        acc[k] = acc.get(k, SurdSum()) + c * a
                images.append(Su2Vector.make(n, acc))
            g = [[inner(u, img) for img in images] for u in vecs]
            if any(g[i][j] for i in range(len(vecs)) for j in range(len(vecs)) if i != j):
                return False
            if any(g[i][i] * norms[0] != g[0][0] * norms[i] for i in range(len(vecs))):
                return False
        return True

    d = 1
    while d <= n and detected(d):
        d += 1
    return d


BASIS_SETS = [(n, ks) for n in range(1, 7) for size in (1, 2, 3)
              for ks in combinations(weights(n), size)]


class TestMinDistanceMatchesWordExpansion:
    @pytest.mark.parametrize("n", range(4, 31))
    def test_code_third(self, n):
        vecs = code_third(n)
        assert min_distance(n, vecs) == reference_min_distance(n, vecs)

    @pytest.mark.parametrize("n", range(3, 31))
    def test_code_quarter(self, n):
        vecs = code_quarter(n)
        assert min_distance(n, vecs) == reference_min_distance(n, vecs)

    def test_every_set_of_up_to_three_weight_vectors(self):
        assert len(BASIS_SETS) == 153
        for n, ks in BASIS_SETS:
            vecs = [basis_vector(n, k) for k in ks]
            assert min_distance(n, vecs) == reference_min_distance(n, vecs), (n, ks)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_orthogonal_surd_superpositions(self, data):
        # u = a|k1> + b|k2> and v = b|k1> - a|k2>, or v = c|k3> + d|k4> on
        # two other weights; amplitudes c sqrt(r).  With k2 = -k1, b = +-a,
        # k4 = -k3 and d = +-c, H has zero expectation on both, so the
        # distance can pass 1
        n = data.draw(st.integers(1, 10))
        amp = st.builds(lambda c, r: SurdSum.sqrt(r) * c,
                        st.sampled_from([-2, -1, 1, 2]), st.sampled_from([1, 2, 3, 6]))
        sign = st.sampled_from([-1, 1])
        positive = [k for k in weights(n) if k > 0]
        if len(positive) >= 2 and data.draw(st.booleans()):
            k1, k3 = data.draw(st.lists(st.sampled_from(positive), min_size=2,
                                        max_size=2, unique=True))
            a, c = data.draw(amp), data.draw(amp)
            u = Su2Vector.make(n, {k1: a, -k1: a * data.draw(sign)})
            v = Su2Vector.make(n, {k3: c, -k3: c * data.draw(sign)})
        else:
            k1, k2 = data.draw(st.lists(st.sampled_from(weights(n)), min_size=2,
                                        max_size=2, unique=True))
            a, b = data.draw(amp), data.draw(amp)
            u = Su2Vector.make(n, {k1: a, k2: b})
            rest = [k for k in weights(n) if k not in (k1, k2)]
            if len(rest) >= 2 and data.draw(st.booleans()):
                k3, k4 = data.draw(st.lists(st.sampled_from(rest), min_size=2,
                                            max_size=2, unique=True))
                v = Su2Vector.make(n, {k3: data.draw(amp), k4: data.draw(amp)})
            else:
                v = Su2Vector.make(n, {k1: b, k2: -a})
        assert min_distance(n, [u, v]) == reference_min_distance(n, [u, v])
