"""Piece sets as Python integers.

A user's holdings are a single int: bit ``p - 1`` set means the user holds
piece ``p`` (pieces are numbered 1..k).  Arbitrary-precision ints make the
hot-path set algebra (union, difference, membership) single C-level calls
even for thousands of pieces.
"""

from __future__ import annotations

from random import Random

__all__ = [
    "full_mask",
    "from_pieces",
    "to_pieces",
    "random_piece",
]


def full_mask(k: int) -> int:
    """The set {1, .., k} as a bit mask."""
    if k < 0:
        raise ValueError("k must be non-negative")
    return (1 << k) - 1


def from_pieces(pieces) -> int:
    """Build a mask from an iterable of piece numbers."""
    bits = 0
    for p in pieces:
        if p < 1:
            raise ValueError(f"piece numbers start at 1, got {p}")
        bits |= 1 << (p - 1)
    return bits


def to_pieces(bits: int) -> list[int]:
    """Sorted piece numbers present in the mask."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length())
        bits ^= low
    return out


def random_piece(bits: int, rng: Random) -> int:
    """Uniformly random piece number from a non-empty mask; the reference
    for the select the random-piece protocols write out inline.

    Dense masks are rejection-sampled against the mask's bit span, which
    terminates quickly because at least half the span is populated whenever
    this branch is taken.  Sparse masks draw a rank j and select the j-th
    lowest set bit: halving the mask by the popcount of its low half while
    j is large, then stripping the last few bits one at a time.  No index
    needs a guard: ``int(x * m)`` < m (see ``protocols.draw_contacts``).
    """
    if not bits:
        raise ValueError("empty piece set")
    c = bits.bit_count()
    if c == 1:
        return bits.bit_length()
    span = bits.bit_length()
    if c << 1 >= span:
        while True:
            p = int(rng.random() * span) + 1
            if bits >> (p - 1) & 1:
                return p
    j = int(rng.random() * c)
    offset = 0
    while j > 8:
        half = bits.bit_length() >> 1
        low = bits & ((1 << half) - 1)
        below = low.bit_count()
        if j < below:
            bits = low
        else:
            j -= below
            bits >>= half
            offset += half
    for _ in range(j):
        bits &= bits - 1  # strip lowest set bit
    return offset + (bits & -bits).bit_length()
