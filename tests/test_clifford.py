"""Clifford operators, stabilizer codes, detection reports, distributions."""

import itertools
import os
import random
import subprocess
import sys
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdelsarte
from qdelsarte import clifford
from qdelsarte.families import READINGS, CliffordEven, CliffordOdd, Spinorial, profile
from qdelsarte.linalg import sp_add, sp_identity, sp_mul, sp_rank, sp_scale, sp_sub
from qdelsarte.clifford import (
    StabilizerCode,
    _signed_monomial,
    block_labels,
    clifford_hamming,
    detection_report,
    distance_distribution,
    gamma_mul,
    is_q_isotropic,
    label_from_str,
    label_to_str,
    q_form,
    reading_family,
    span_coefficients,
    tau,
    wt,
)
from qdelsarte.wtj import wtj_matrix
from reference import GR_ONE, GR_ZERO, GaussianRational, gamma, gr_i_power, weyl_brauer
import reference

F = Fraction


def block_weights(n, reading, t):
    return reading_family(n, reading).block_weights(t)


def reading_diameter(n, reading):
    return profile(reading_family(n, reading)).diameter_r


def dense_eq(a, b):
    return not any(sp_sub(a, b).values())


def conj_transpose(a):
    return {(j, i): v.conjugate() for (i, j), v in a.items()}


def kron_gamma(n, x):
    """Reference Gamma_x: ordered product of the Kronecker-built generators."""
    order = [b for pair in zip(range(n), range(n, 2 * n)) for b in pair] + [2 * n]
    out = sp_identity(2 ** n, GR_ONE)
    for b in order:
        if (x >> b) & 1:
            out = sp_mul(out, weyl_brauer(n, b + 1))
    return sp_scale(out, gr_i_power(-tau(x) % 4))


def gamma_mul_reference(n, x, y):
    """Gamma_x Gamma_y = i^phase Gamma_{x xor y} by counting the inversions
    between the two words in interleaved letter order."""
    def key(b):  # 1, n+1, 2, n+2, ..., n, 2n, 2n+1
        return 2 * b if b < n else 2 * (b - n) + 1 if b < 2 * n else 2 * n

    ys = sorted(key(b) for b in range(y.bit_length()) if (y >> b) & 1)
    inv = sum(bisect_left(ys, key(b)) for b in range(x.bit_length()) if (x >> b) & 1)
    return (tau(x ^ y) - tau(x) - tau(y) + 2 * inv) % 4, x ^ y


class TestGammaOperators:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_monomial_gamma_matches_kronecker_products_exhaustive(self, n):
        for x in range(2 ** (2 * n + 1)):
            assert gamma(n, x) == kron_gamma(n, x), x

    def test_monomial_gamma_matches_kronecker_products_n7(self):
        rng = random.Random(7)
        for x in [0, 1, (1 << 14) - 1, (1 << 15) - 1] + rng.sample(range(2 ** 15), 20):
            assert gamma(7, x) == kron_gamma(7, x), x

    @pytest.mark.parametrize("n", [1, 2])
    def test_exhaustive_properties(self, n):
        m = 2 * n + 1
        eye = sp_identity(2 ** n)
        for x in range(1, 2 ** m):
            g = gamma(n, x)
            assert dense_eq(conj_transpose(g), g)  # Hermitian
            assert dense_eq(sp_mul(g, g), eye)  # involutive
        # single letters are the generators themselves
        for k in range(1, m + 1):
            assert dense_eq(gamma(n, 1 << (k - 1)), weyl_brauer(n, k))
        # chirality: the product of all 2n letters equals the last generator
        assert dense_eq(gamma(n, (1 << (2 * n)) - 1), weyl_brauer(n, m))

    @pytest.mark.parametrize("n", [1, 2])
    def test_multiplication_rule_exhaustive(self, n):
        m = 2 * n + 1
        for x in range(2 ** m):
            for y in range(2 ** m):
                phase, z = gamma_mul(n, x, y)
                assert z == x ^ y
                lhs = sp_mul(gamma(n, x), gamma(n, y))
                rhs = sp_scale(gamma(n, z), gr_i_power(phase))
                assert dense_eq(lhs, rhs)

    @given(st.integers(3, 4), st.data())
    @settings(max_examples=40, deadline=None)
    def test_multiplication_rule_randomized(self, n, data):
        m = 2 * n + 1
        x = data.draw(st.integers(0, 2 ** m - 1))
        y = data.draw(st.integers(0, 2 ** m - 1))
        phase, z = gamma_mul(n, x, y)
        lhs = sp_mul(gamma(n, x), gamma(n, y))
        rhs = sp_scale(gamma(n, z), gr_i_power(phase))
        assert dense_eq(lhs, rhs)

    @given(st.integers(1, 4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_commutation_sign(self, n, data):
        m = 2 * n + 1
        x = data.draw(st.integers(0, 2 ** m - 1))
        y = data.draw(st.integers(0, 2 ** m - 1))
        pxy, z1 = gamma_mul(n, x, y)
        pyx, z2 = gamma_mul(n, y, x)
        assert z1 == z2
        sign = (pxy - pyx) % 4
        assert sign in (0, 2)
        assert (sign // 2) == q_form(x, y)

    @given(st.sampled_from([7, 63, 1023]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_multiplication_rule_matches_the_inversion_count(self, n, data):
        m = 2 * n + 1
        x = data.draw(st.integers(0, 2 ** m - 1))
        y = data.draw(st.integers(0, 2 ** m - 1))
        assert gamma_mul(n, x, y) == gamma_mul_reference(n, x, y)

    def test_a_letter_beyond_2n_plus_1_raises_index_error(self):
        for x in (1 << 5, 1 << 7, -1):
            with pytest.raises(IndexError):
                clifford.gamma(2, x)
            with pytest.raises(IndexError):
                _signed_monomial(2, x, [0])
            with pytest.raises(IndexError):
                gamma_mul(2, x, 1)
            with pytest.raises(IndexError):
                gamma_mul(2, 1, x)
        assert gamma_mul(2, (1 << 5) - 1, 1) == gamma_mul_reference(2, (1 << 5) - 1, 1)

    @given(st.integers(1, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_signed_monomial_at_columns_reads_the_full_sign_list(self, n, data):
        x = data.draw(st.integers(0, 2 ** (2 * n + 1) - 1))
        columns = data.draw(st.lists(st.integers(0, 2 ** n - 1), max_size=2 ** n))
        k, a, signs = _signed_monomial(n, x)
        assert _signed_monomial(n, x, columns) == (k, a, [signs[c] for c in columns])

    def test_q_form_symmetric_bilinear_over_f2(self):
        for x, y in itertools.product(range(16), repeat=2):
            assert q_form(x, y) == q_form(y, x)
            for z in range(16):
                assert q_form(x ^ y, z) == (q_form(x, z) + q_form(y, z)) % 2

    def test_q_form_is_alternating(self):
        # why is_q_isotropic checks only pairs of distinct labels
        assert not any(q_form(x, x) for x in range(2 ** 10))

    def test_tau(self):
        assert [tau(x) for x in (0b0, 0b1, 0b11, 0b111, 0b1111)] == [0, 0, 1, 3, 6]


def test_label_round_trip():
    assert label_from_str("1010011") == 0b1100101
    assert label_to_str(0b1100101, 7) == "1010011"
    for x in range(64):
        assert label_from_str(label_to_str(x, 6)) == x


@given(st.integers(0, 300).flatmap(
    lambda length: st.tuples(st.just(length), st.integers(0, 2 ** (length + 3)))))
def test_label_strings_match_the_bit_by_bit_definitions(case):
    # bits past length are dropped, and "" is the label 0
    length, x = case
    s = label_to_str(x, length)
    assert s == reference.label_to_str(x, length)
    assert label_from_str(s) == reference.label_from_str(s) == x % 2 ** length
    with pytest.raises(ValueError):
        label_from_str(s + "2")


@pytest.mark.parametrize("s", range(3, 13))
def test_hamming_rows_match_the_column_by_column_sum(s):
    assert clifford_hamming(s).generators == reference.hamming_rows(s)


def test_block_weights_and_diameters():
    n = 4
    assert reading_diameter(n, "even") == 2 * n
    assert reading_diameter(n, "odd") == n
    assert reading_diameter(n, "spinorial") == n
    assert block_weights(n, "even", 2) == (2,)
    assert block_weights(n, "odd", 2) == (2, 7)
    assert block_weights(n, "spinorial", 2) == (4, 5)
    # block label counts agree with the metric profiles; labels x and its
    # complement name the same operator, so nonzero blocks are double-counted
    import math
    for t in range(n + 1):
        count = sum(math.comb(2 * n + 1, w) for w in block_weights(n, "odd", t))
        assert count == profile(CliffordOdd(n)).dim_V[t] * (2 if t else 1)
    for t in range(2 * n + 1):
        ws = block_weights(n, "even", t)
        assert ws == (t,)


@pytest.mark.parametrize("spec", [cls(n) for cls in (CliffordOdd, CliffordEven, Spinorial)
                                  for n in range(1, 5)], ids=str)
def test_block_labels_are_the_words_of_length_step_t_up_to_phase(spec):
    # block t holds the words of length step*t in the 2n + odd generators;
    # block_labels names each of them, up to a unit phase, by 2n letters
    def unphased(n, x):
        _, mask, signs = _signed_monomial(n, x)
        return mask, tuple(s * signs[0] for s in signs)

    n = spec.n
    for t in range(profile(spec).diameter_r + 1):
        words = sorted(unphased(n, sum(1 << b for b in bits))
                       for bits in itertools.combinations(range(2 * n + spec.odd),
                                                          spec.step * t))
        labels = sorted(unphased(n, x) for x in block_labels(spec, t))
        assert labels == words, t


def test_unknown_reading_is_refused():
    with pytest.raises(ValueError, match="unknown reading 'bogus'"):
        reading_family(3, "bogus")


class TestStabilizerCode:
    def test_rejects_non_isotropic(self):
        # sigma_x sigma_y on one letter pair anticommutes
        with pytest.raises(ValueError, match="not q-isotropic"):
            StabilizerCode(2, (0b00011, 0b00001), (1, 1))

    def test_rejects_dependent_generators(self):
        g = clifford_hamming(3)
        bad = g.generators + (g.generators[0] ^ g.generators[1],)
        with pytest.raises(ValueError, match="not linearly independent"):
            StabilizerCode(g.n, bad, (1,) * len(bad))

    def test_span_coefficients_signs(self):
        stab = clifford_hamming(3)
        span = span_coefficients(stab)
        assert len(span) == 2 ** len(stab.generators)
        assert span[0] == 1
        assert all(c in (1, -1) for c in span.values())

    def test_dimension(self):
        stab = clifford_hamming(3)
        assert stab.dimension == 2 ** (7 - 3) // 2 * 1  # 2^{n-s-?}
        assert stab.dimension == 8


class TestCliffordHamming:
    def test_generator_matrix_s3(self):
        stab = clifford_hamming(3)
        assert stab.n == 7
        rows = {label_to_str(g, 2 * stab.n) for g in stab.generators}
        assert rows == {
            "00011110001111",
            "01100110110011",
            "10101011010101",
            "11111110000000",
        }

    def test_isotropic_any_s(self):
        for s in (3, 4, 5):
            stab = clifford_hamming(s)
            assert stab.n == 2 ** s - 1
            assert is_q_isotropic(list(stab.generators))

    def test_code_parameters_s3(self, monkeypatch):
        # gamma and the matrix cross-check both build Gamma_x from its
        # (k, mask, signs) triple, the check at the projector's columns only, so
        # recording there sees every label checked
        seen = set()
        monomial = clifford._signed_monomial

        def recording_monomial(n, x, *columns):
            seen.add(x)
            return monomial(n, x, *columns)

        monkeypatch.setattr(clifford, "_signed_monomial", recording_monomial)
        code = clifford_hamming(3)
        for reading in ("even", "odd"):
            seen.clear()
            rep = detection_report(code, reading)
            assert rep.dimension == 8
            assert rep.min_distance == 3
            assert rep.is_pure
            assert rep.is_nondegenerate
            # the matrix cross-check covers every label of blocks 1..d, unsampled
            for t in range(1, 4):
                for w in block_weights(7, reading, t):
                    for bits in itertools.combinations(range(14), w):
                        assert sum(1 << b for b in bits) in seen, (reading, t, bits)

    def test_code_parameters_s4_symbolic(self):
        code = clifford_hamming(4)
        for reading in ("even", "odd"):
            rep = detection_report(code, reading)
            assert rep.dimension == 1024
            assert rep.min_distance == 3


class TestHalfSpaceCode:
    """The chirality half-space: an impure distance-2 code of dimension 2^{n-1}."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_half_space(self, n):
        code = StabilizerCode(n, ((1 << 2 * n) - 1,), (1,))
        assert code.dimension == 2 ** (n - 1)
        rep = detection_report(code, "odd")
        assert rep.min_distance == 2
        assert not rep.is_pure  # the distance-1 chirality letter acts as +1


def character_sum_distribution(code, reading):
    """Reference (A, B): every label of every block against every span element,
    B_t = 2^-s sum_x sum_z (-1)^q(x, z)."""
    n, length = code.n, 2 * code.n
    span = set(span_coefficients(code))
    a, b = [], []
    for t in range(reading_diameter(n, reading) + 1):
        labels = [x for x in range(1 << length) if wt(x) in block_weights(n, reading, t)]
        a.append(F(code.dimension * sum(x in span for x in labels)))
        b.append(F(sum(-1 if q_form(x, z) else 1 for x in labels for z in span),
                   len(span)))
    return a, b


def extends(gens, x):
    """gens + [x] stays q-isotropic and independent over F_2."""
    return is_q_isotropic(gens + [x]) and len(clifford._f2_echelon(gens + [x])) == len(gens) + 1


@st.composite
def isotropic_codes(draw):
    """Stabilizer codes on n <= 4 qubits: drawn labels kept while they stay
    q-isotropic and independent."""
    n = draw(st.integers(1, 4))
    gens = []
    for x in draw(st.lists(st.integers(1, 4 ** n - 1), max_size=12)):
        if extends(gens, x):
            gens.append(x)
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(gens), max_size=len(gens)))
    return StabilizerCode(n, tuple(gens), tuple(signs))


def slope_form_nonsingular(code, reading, half):
    """Reference: rank of the slope form eps(Gamma_a Gamma_b) on the errors up
    to half, entry i^phase c_z for Gamma_a Gamma_b = i^phase Gamma_z."""
    n, length = code.n, 2 * code.n
    coeffs = span_coefficients(code)
    labels = [x for t in range(half + 1) for w in block_weights(n, reading, t)
              for x in range(1 << length) if wt(x) == w]
    rows = []
    for a in labels:
        row = {}
        for j, b in enumerate(labels):
            phase, z = gamma_mul(n, a, b)
            if z in coeffs:
                row[j] = gr_i_power(phase) * coeffs[z]
        rows.append(row)
    return sp_rank(rows) == len(labels)


class TestNondegeneracy:
    @given(isotropic_codes(), st.sampled_from(tuple(READINGS)), st.integers(0, 2))
    @settings(max_examples=200, deadline=None)
    def test_coset_count_matches_slope_form_rank(self, code, reading, half):
        assert clifford._nondegenerate(code, reading_family(code.n, reading), half) == \
            slope_form_nonsingular(code, reading, half)

    def test_hamming_s3(self):
        code = clifford_hamming(3)
        assert clifford._nondegenerate(code, CliffordOdd(7), 1)
        # two weight-4 labels of spinorial block 2 share a coset of the span
        assert not clifford._nondegenerate(code, Spinorial(7), 2)

    def test_hamming_s4_spinorial_half_1(self):
        # the slope-form rank gives the same verdict, in about 2 s
        assert clifford._nondegenerate(clifford_hamming(4), Spinorial(15), 1)


def first_isotropic_code(n, s):
    """The code whose s generators are the first labels, in increasing order,
    that keep the set q-isotropic and independent."""
    gens, x = [], 0
    while len(gens) < s:
        x += 1
        if extends(gens, x):
            gens.append(x)
    return StabilizerCode(n, tuple(gens), (1,) * s)


class TestDistributions:
    def test_full_space_distribution(self):
        # the trivial code P = I has A_t = B_t * K with B_t = dim V_t
        n = 3
        code = StabilizerCode(n, (), ())
        a, b = distance_distribution(code, "odd")
        prof = profile(CliffordOdd(n))
        assert tuple(b) == tuple(F(v) for v in prof.dim_V)
        assert a[0] == prof.dim_H

    @pytest.mark.parametrize("reading,family", [
        ("odd", CliffordOdd(7)), ("even", CliffordEven(7))])
    def test_hamming_code_transform_identities(self, reading, family):
        code = clifford_hamming(3)
        a, b = distance_distribution(code, reading)
        w = wtj_matrix(family)
        r = profile(family).diameter_r
        k = a[0]
        # B = W . A and A = W . B (W is an involution)
        for t in range(r + 1):
            assert sum(w[t][j] * a[j] for j in range(r + 1)) == b[t]
            assert sum(w[t][j] * b[j] for j in range(r + 1)) == a[t]
        # A_t <= K B_t, with the first strict inequality at t = d
        d = detection_report(code, reading).min_distance
        for t in range(r + 1):
            assert a[t] <= k * b[t]
        strict = [t for t in range(r + 1) if a[t] < k * b[t]]
        assert min(strict) == d

    def test_odd_hamming_values(self):
        code = clifford_hamming(3)
        a, _ = distance_distribution(code, "odd")
        assert tuple(a) == (8, 0, 0, 0, 0, 0, 0, 120)

    @pytest.mark.parametrize("reading", tuple(READINGS))
    def test_matches_character_sums_on_hamming(self, reading):
        code = clifford_hamming(3)
        assert distance_distribution(code, reading) == character_sum_distribution(code, reading)

    @given(isotropic_codes(), st.sampled_from(tuple(READINGS)))
    @settings(max_examples=60, deadline=None)
    def test_matches_character_sums_on_random_codes(self, code, reading):
        assert distance_distribution(code, reading) == character_sum_distribution(code, reading)

    def test_budget_counts_enumerated_labels(self):
        # 2^16 labels times a span of 2^7 passed the old per-pair budget;
        # the two enumerated subspaces hold only 2^7 + 2^7 labels
        code = first_isotropic_code(8, 7)
        a, b = distance_distribution(code, "even")
        w, r = wtj_matrix(CliffordEven(8)), reading_diameter(8, "even")
        assert all(sum(w[t][j] * a[j] for j in range(r + 1)) == b[t] for t in range(r + 1))
        assert a[0] == code.dimension == 2 and b[0] == 1

    @pytest.mark.parametrize("s", [4, 5])
    @pytest.mark.parametrize("reading", tuple(READINGS))
    def test_large_hamming_codes_meet_the_transform_identities(self, s, reading):
        code = clifford_hamming(s)
        a, b = distance_distribution(code, reading)
        family = {"even": CliffordEven, "odd": CliffordOdd,
                  "spinorial": Spinorial}[reading](code.n)
        w = wtj_matrix(family)
        r = profile(family).diameter_r
        k = code.dimension
        assert len(a) == len(b) == r + 1 and a[0] == k and b[0] == 1
        # B = W . A and A = W . B (W is an involution)
        for t in range(r + 1):
            assert sum(w[t][j] * a[j] for j in range(r + 1)) == b[t]
            assert sum(w[t][j] * b[j] for j in range(r + 1)) == a[t]
        # A_t = K B_t below the min distance, strictly less at it
        d = detection_report(code, reading).min_distance
        assert all(a[t] == k * b[t] for t in range(d))
        assert a[d] < k * b[d]

    def test_budget_counts_span_and_dual_labels(self, monkeypatch):
        # s = 4: the span and the complemented generators' span hold 2^5 each
        monkeypatch.setattr(clifford, "ENUMERATION_BUDGET", 63)
        with pytest.raises(ValueError, match="operation budget"):
            distance_distribution(clifford_hamming(4), "even")
        monkeypatch.setattr(clifford, "ENUMERATION_BUDGET", 64)
        distance_distribution(clifford_hamming(4), "even")


def label_loop_report(code, reading):
    """Reference (d, is_pure), label by label: d is the first block holding a
    label outside the span that commutes with every generator, and a
    one-dimensional code detects every error."""
    spec = reading_family(code.n, reading)
    r = profile(spec).diameter_r
    span = set(span_coefficients(code))

    def detected(x):
        return x in span or any(q_form(x, g) for g in code.generators)

    d = 1
    while d <= r and (code.dimension == 1 or all(detected(x) for x in block_labels(spec, d))):
        d += 1
    block_of = {w: t for t in range(r + 1) for w in spec.block_weights(t)}
    return d, all(not z or block_of[wt(z)] >= d for z in span)


class TestDistanceFromEnumerators:
    @given(isotropic_codes(), st.sampled_from(tuple(READINGS)))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_label_loop(self, code, reading):
        rep = detection_report(code, reading)
        assert (rep.min_distance, rep.is_pure) == label_loop_report(code, reading)

    @pytest.mark.parametrize("reading", tuple(READINGS))
    def test_hamming_s3_matches_the_label_loop(self, reading):
        code = clifford_hamming(3)
        rep = detection_report(code, reading)
        assert (rep.min_distance, rep.is_pure) == label_loop_report(code, reading)
        assert (rep.A, rep.B) == distance_distribution(code, reading)

    @pytest.mark.parametrize("reading", tuple(READINGS))
    def test_raised_b1_is_refused_by_the_matrix_check(self, reading, monkeypatch):
        # B_1 + 1 reads as one undetected label in block 1, so d = 1, and the
        # matrices find none there
        counted = clifford.distance_distribution

        def raised(stab, reading):
            a, b = counted(stab, reading)
            return a, [b[0], b[1] + 1, *b[2:]]

        monkeypatch.setattr(clifford, "distance_distribution", raised)
        with pytest.raises(ArithmeticError, match="undetected labels in block 1"):
            detection_report(clifford_hamming(3), reading)

    def test_raised_b1_is_refused_under_optimize(self):
        script = (
            "import sys\n"
            "from qdelsarte import clifford\n"
            "counted = clifford.distance_distribution\n"
            "def raised(stab, reading):\n"
            "    a, b = counted(stab, reading)\n"
            "    return a, [b[0], b[1] + 1, *b[2:]]\n"
            "clifford.distance_distribution = raised\n"
            "try:\n"
            "    clifford.detection_report(clifford.clifford_hamming(3), 'even')\n"
            "except ArithmeticError:\n"
            "    print('raised', sys.flags.optimize)\n"
        )
        src = str(Path(qdelsarte.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        res = subprocess.run([sys.executable, "-O", "-c", script],
                             capture_output=True, text=True, env=env, timeout=60)
        assert res.returncode == 0, res.stderr
        assert res.stdout == "raised 1\n"


def reference_projector(stab):
    """P = 2^-s sum_z c_z Gamma_z as a sum of GaussianRational matrices."""
    scale = GaussianRational(F(1, 2 ** len(stab.generators)), 0)
    out = {}
    for z, c in span_coefficients(stab).items():
        out = sp_add(out, sp_scale(gamma(stab.n, z), scale * c))
    return out


def reference_matrix_check(stab, coeffs, spec, d, A, B):
    """Reference cross-check on GaussianRational matrices: P Gamma_x P from
    two sparse products, a multiple of P tested against the ratio at one
    entry."""
    n = stab.n
    P = reference_projector(stab)
    gens = stab.generators
    for t in range(1, min(d, len(A) - 1) + 1):
        undetected = 0
        for x in block_labels(spec, t):
            # P Gamma_x moves column c ^ mask of P to column c, times its unit there
            k, mask, signs = _signed_monomial(n, x)
            pg = {(i, c ^ mask): v * gr_i_power(k + 1 - signs[c ^ mask])
                  for (i, c), v in P.items()}
            pgp = sp_mul(pg, P)
            if x in coeffs:
                ok = pgp == sp_scale(P, GaussianRational(F(coeffs[x]), 0))
            elif any(q_form(x, g) for g in gens):
                ok = pgp == {}
            else:
                # undetected means PXP is not a scalar multiple of P
                key = next(iter(P))
                ratio = pgp.get(key, GR_ZERO) / P[key]
                ok = pgp != sp_scale(P, ratio)
                undetected += 1
            if not ok:
                raise ArithmeticError(f"matrix cross-check disagrees with the "
                                      f"F_2 verdict at x={x}, t={t}")
        if undetected != B[t] - A[t] / stab.dimension:
            raise ArithmeticError(f"matrix cross-check finds {undetected} undetected "
                                  f"labels in block {t}, against A and B")


def check_outcome(check, *args):
    """None when the check passes, else the message of its ArithmeticError."""
    try:
        check(*args)
    except ArithmeticError as exc:
        return str(exc)
    return None


def cross_check_args(code, reading):
    """The arguments detection_report hands the matrix cross-check."""
    A, B = distance_distribution(code, reading)
    K = code.dimension
    d = next((t for t in range(1, len(A)) if A[t] != K * B[t]), len(A))
    return code, span_coefficients(code), reading_family(code.n, reading), d, A, B


class TestMatrixCrossCheck:
    """A symbolic verdict the matrices contradict raises, also under python -O."""

    @given(isotropic_codes(), st.sampled_from(tuple(READINGS)),
           st.sampled_from(("none", "sign", "count")))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_gaussian_rational_check(self, code, reading, tamper):
        stab, coeffs, spec, d, a, b = cross_check_args(code, reading)
        if tamper == "sign":  # the sign of the largest span label flips
            z = max(coeffs)
            coeffs = {**coeffs, z: -coeffs[z]}
        elif tamper == "count":  # one undetected label too many in block 1
            b = [b[0], b[1] + 1, *b[2:]]
            d = 1
        args = (stab, coeffs, spec, d, a, b)
        assert check_outcome(clifford._matrix_check, *args) == \
            check_outcome(reference_matrix_check, *args)

    @pytest.mark.parametrize("reading", tuple(READINGS))
    def test_hamming_s3_matches_the_gaussian_rational_check(self, reading):
        args = cross_check_args(clifford_hamming(3), reading)
        assert check_outcome(clifford._matrix_check, *args) is None
        assert check_outcome(reference_matrix_check, *args) is None

    def test_projector_is_the_scaled_gaussian_rational_projector(self):
        for code in (clifford_hamming(3), StabilizerCode(2, (0b1111,), (-1,))):
            scale = 2 ** len(code.generators)
            assert {k: GaussianRational(re, im) for k, (re, im) in
                    clifford.projector(code).items()} == \
                sp_scale(reference_projector(code), scale)

    def test_makes_no_gaussian_rational_on_hamming_s3(self, monkeypatch):
        # the GaussianRational check made 123,419 of them in these three runs
        code = clifford_hamming(3)
        made = Counter()
        init, make = GaussianRational.__init__, GaussianRational._make

        def counting_init(self, *args):
            made["init"] += 1
            init(self, *args)

        def counting_make(*args):
            made["make"] += 1
            return make(*args)

        monkeypatch.setattr(GaussianRational, "__init__", counting_init)
        monkeypatch.setattr(GaussianRational, "_make", staticmethod(counting_make))
        for reading in READINGS:
            clifford._matrix_check(*cross_check_args(code, reading))
        assert not made

    def test_wrong_sign_raises(self):
        stab = StabilizerCode(2, (0b1111,), (1,))
        coeffs = {z: -c if z else c for z, c in span_coefficients(stab).items()}
        a, b = distance_distribution(stab, "odd")
        with pytest.raises(ArithmeticError):
            clifford._matrix_check(stab, coeffs, CliffordOdd(2), 2, a, b)

    def test_wrong_sign_raises_under_optimize(self):
        script = (
            "import sys\n"
            "from qdelsarte.clifford import StabilizerCode, _matrix_check, "
            "distance_distribution, span_coefficients\n"
            "from qdelsarte.families import CliffordOdd\n"
            "stab = StabilizerCode(2, (0b1111,), (1,))\n"
            "coeffs = {z: -c if z else c for z, c in span_coefficients(stab).items()}\n"
            "a, b = distance_distribution(stab, 'odd')\n"
            "try:\n"
            "    _matrix_check(stab, coeffs, CliffordOdd(2), 2, a, b)\n"
            "except ArithmeticError:\n"
            "    print('raised', sys.flags.optimize)\n"
        )
        src = str(Path(qdelsarte.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        res = subprocess.run([sys.executable, "-O", "-c", script],
                             capture_output=True, text=True, env=env, timeout=60)
        assert res.returncode == 0, res.stderr
        assert res.stdout == "raised 1\n"
