"""Sparse row space: membership agrees with elimination rank."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from qdelsarte.linalg import RowSpace, sp_rank

entries = st.fractions(min_value=-5, max_value=5, max_denominator=4)
vectors = st.dictionaries(st.integers(0, 5), entries.filter(bool), max_size=6)


@given(st.lists(vectors, max_size=8))
@settings(max_examples=100)
def test_row_space_accepts_exactly_the_rank(rows):
    space = RowSpace()
    accepted = [r for r in rows if r and space.add(r)]
    assert len(accepted) == sp_rank(rows)
    assert sp_rank(accepted) == len(accepted)
    # everything offered now lies in the span
    assert not any(space.add(r) for r in rows if r)


def test_row_space_rejects_a_rational_combination():
    space = RowSpace()
    a = {(0, 0): Fraction(1, 2), (0, 1): Fraction(3)}
    b = {(0, 1): Fraction(-2, 3), (1, 1): Fraction(5)}
    assert space.add(a) and space.add(b)
    combo = {(0, 0): Fraction(3, 2), (0, 1): Fraction(29, 3), (1, 1): Fraction(-5)}
    assert not space.add(combo)  # 3a - b
    assert space.add({(1, 0): Fraction(1)})
