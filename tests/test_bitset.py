"""Piece-set (bit mask) primitives."""

from collections import Counter
from random import Random

import pytest
from hypothesis import given, strategies as st

from gossipsim.bitset import random_piece
from pieces import from_pieces, to_pieces


def lowest_piece(bits: int) -> int:
    """Smallest piece number in a non-empty mask."""
    if not bits:
        raise ValueError("empty piece set")
    return (bits & -bits).bit_length()


def highest_piece(bits: int) -> int:
    """Largest piece number in a non-empty mask."""
    if not bits:
        raise ValueError("empty piece set")
    return bits.bit_length()


piece_sets = st.sets(st.integers(min_value=1, max_value=200), min_size=0, max_size=50)


def test_from_pieces_and_membership():
    bits = from_pieces([1, 3, 7])
    assert bits == 0b1000101
    assert to_pieces(bits) == [1, 3, 7]


def test_from_pieces_rejects_nonpositive():
    with pytest.raises(ValueError):
        from_pieces([0])


def test_lowest_and_highest():
    bits = from_pieces([2, 5, 9])
    assert lowest_piece(bits) == 2
    assert highest_piece(bits) == 9


def test_lowest_highest_empty_raise():
    with pytest.raises(ValueError):
        lowest_piece(0)
    with pytest.raises(ValueError):
        highest_piece(0)
    with pytest.raises(ValueError):
        random_piece(0, Random(0))


@given(piece_sets)
def test_roundtrip(pieces):
    assert to_pieces(from_pieces(pieces)) == sorted(pieces)


@given(piece_sets.filter(bool))
def test_bounds_and_count(pieces):
    bits = from_pieces(pieces)
    assert bits.bit_count() == len(pieces)
    assert lowest_piece(bits) == min(pieces)
    assert highest_piece(bits) == max(pieces)


@given(piece_sets.filter(bool), st.integers(min_value=0, max_value=2**32 - 1))
def test_random_piece_is_a_member(pieces, seed):
    bits = from_pieces(pieces)
    assert random_piece(bits, Random(seed)) in pieces


@pytest.mark.parametrize(
    "pieces",
    [
        [1, 2, 3],  # dense: rejection-sampling branch
        [1, 40, 90],  # sparse: bit-walking branch
        list(range(1, 65)),  # dense, wide
    ],
)
def test_random_piece_is_roughly_uniform(pieces):
    bits = from_pieces(pieces)
    rng = Random(123)
    draws = Counter(random_piece(bits, rng) for _ in range(20_000))
    assert set(draws) == set(pieces)
    expected = 20_000 / len(pieces)
    for piece in pieces:
        assert abs(draws[piece] - expected) < 6 * expected**0.5 + 10


def bit_strip_random_piece(bits, rng):
    """Reference for `random_piece`: the same draws, with the j-th set bit
    found by stripping the j lowest set bits one at a time."""
    c = bits.bit_count()
    if c == 1:
        return bits.bit_length()
    span = bits.bit_length()
    if c << 1 >= span:
        while True:
            p = int(rng.random() * span) + 1
            if p <= span and bits >> (p - 1) & 1:
                return p
    j = min(int(rng.random() * c), c - 1)
    for _ in range(j):
        bits &= bits - 1
    return (bits & -bits).bit_length()


wide_sets = st.one_of(
    st.sets(st.integers(min_value=1, max_value=3000), min_size=1, max_size=600),
    st.integers(min_value=1, max_value=2**3000 - 1).map(to_pieces),
)


@given(wide_sets, st.integers(min_value=0, max_value=2**32 - 1))
def test_random_piece_matches_bit_strip_reference(pieces, seed):
    bits = from_pieces(pieces)
    rng, ref_rng = Random(seed), Random(seed)
    for _ in range(5):
        assert random_piece(bits, rng) == bit_strip_random_piece(bits, ref_rng)
    # both consumed the same draws
    assert rng.random() == ref_rng.random()
