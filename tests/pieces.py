"""Piece-set helpers for the tests: piece numbers to and from a bit mask
(bit ``p - 1`` set means piece ``p``, as in :mod:`gossipsim.bitset`)."""


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
