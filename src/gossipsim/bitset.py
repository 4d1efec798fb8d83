"""Piece sets as Python integers, and the reference random-piece select.

A user's holdings are a single int: bit ``p - 1`` set means the user holds
piece ``p`` (pieces are numbered 1..k).  Arbitrary-precision ints make the
hot-path set algebra (union, difference, membership) single C-level calls
even for thousands of pieces.

No run calls :func:`random_piece`: the random-piece protocols write its
select out inline, and random pull and random push take the sparse pick,
with the same single draw, from a per-user sorted piece list of at most k
4-byte entries (no more in all than the ``arrivals`` matrix, which
``MAX_CELLS`` bounds).  It stays because ``perfbench`` hot mode wraps it by
name, and ``tests/test_protocols.py`` checks the inline select against it.
"""

from __future__ import annotations

from random import Random

__all__ = ["random_piece"]


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
