"""Run metrics: delay profiles, failed pieces, reach, occupancy.

All metrics are pure functions of a :class:`~gossipsim.engine.RunResult`;
nothing here touches the PRNG or mutates the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import check_range
from .engine import RunResult

__all__ = [
    "DelayProfile",
    "delay_profile",
    "failed_pieces",
    "pieces_reached",
    "OccupancySeries",
    "occupancy",
    "splitting_speedup",
]

# A piece counts as failed when it reaches fewer than n * e / 5 users within
# the post-release window; e/5 is the spread fraction a healthy piece clears
# with room to spare, making the classifier insensitive to the exact cutoff.
FAILURE_FRACTION = math.e / 5


@dataclass(eq=False)
class DelayProfile:
    """Cumulative per-pair delay distribution.

    ``at(d)`` is the fraction of all n*k (user, piece) pairs whose piece
    arrived within d slots of the piece first becoming available anywhere —
    pairs endowed at slot 0 count as delay 0, and pairs never served
    contribute 0 at every d.  Two profiles are equal when their values are.
    """

    cumulative: np.ndarray  # cumulative[d] = D(d); final entry = limit

    def __eq__(self, other):
        return type(other) is DelayProfile and np.array_equal(self.cumulative, other.cumulative)

    def at(self, d: int) -> float:
        if type(d) is not int:  # the type test first keeps an int's call cheap
            check_range("d", d, int, -math.inf, math.inf, "()")
        if d < 0:
            return 0.0
        if d >= len(self.cumulative):
            return self.limit
        return float(self.cumulative[d])

    @property
    def limit(self) -> float:
        """D(d) for d beyond the last arrival: the fraction of pairs served."""
        return float(self.cumulative[-1]) if len(self.cumulative) else 0.0

    @property
    def max_delay(self) -> int:
        return len(self.cumulative) - 1


def delay_profile(result: RunResult) -> DelayProfile:
    """Per-pair delays measured from each piece's emergence slot.

    A piece's emergence is the first slot any copy existed outside the
    endowed holders — slot 0 for seeded starts, the first delivery slot for
    a single source.  A pair's delay is its arrival slot minus its piece's
    emergence, clamped to 0 for the endowed pairs themselves.
    """
    arrivals = result.arrivals
    n, k = arrivals.shape
    emergence = np.array([0 if e is None else e for e in result.emergence], dtype=np.int32)
    # Only endowed pairs (arrival 0) can arrive before their piece emerged.
    delays = (arrivals - emergence)[arrivals >= 0]
    np.maximum(delays, 0, out=delays)
    if delays.size == 0:
        return DelayProfile(np.zeros(1))
    counts = np.bincount(delays)
    return DelayProfile(np.cumsum(counts) / (n * k))


def _holders_within(result: RunResult, window: int) -> np.ndarray:
    """Per piece, the users holding it within `window` slots of its release
    by the source; -1 for a piece the source never released."""
    if result.release_slots is None:
        raise ValueError(
            "failed pieces and reach are only defined for source-scheduled protocols "
            f"(run used {result.config.protocol!r})"
        )
    release = np.array([-1 if r is None else r for r in result.release_slots])
    arrivals = result.arrivals
    holders = ((arrivals >= 0) & (arrivals <= release + window)).sum(axis=0)
    return np.where(release >= 0, holders, -1)


def failed_pieces(result: RunResult, epsilon: float | None = None) -> list[int]:
    """Pieces that never spread: released but stuck below the failure bar.

    A piece fails when fewer than ``ceil(n * e / 5)`` users hold it within
    ``floor(2 (1 + epsilon) log2 n)`` slots of its release by the source;
    a piece the source never released at all also counts as failed.  Only
    defined for runs whose protocol releases pieces on a schedule; an
    `epsilon` outside (0, 1), the range of the config's, is refused.
    """
    if epsilon is None:
        epsilon = result.config.epsilon
    check_range("epsilon", epsilon, float, 0, 1, "()")
    n = result.arrivals.shape[0]
    window = math.floor(2.0 * (1.0 + epsilon) * math.log2(n))
    holders = _holders_within(result, window)
    return (np.flatnonzero(holders < math.ceil(n * FAILURE_FRACTION)) + 1).tolist()


def pieces_reached(result: RunResult, fraction: float, window: float) -> float:
    """Fraction of pieces reaching ``ceil(fraction * n)`` users within
    ``floor(window)`` slots of their release; unreleased pieces count as
    not reaching.  Only defined for source-scheduled protocols; a `window`
    outside [0, inf) is refused, and so is a `fraction` that is NaN or not
    a number."""
    check_range("fraction", fraction, float, -math.inf, math.inf, "[]")
    check_range("window", window, float, 0, math.inf, "[)")
    n, k = result.arrivals.shape
    holders = _holders_within(result, math.floor(window))
    # A bar below 0 is met by every released piece and by no unreleased
    # one; a bar above n, +inf included, by none.
    need = math.ceil(min(max(fraction * n, 0), n + 1))
    return int((holders >= need).sum()) / k


@dataclass(eq=False)
class OccupancySeries:
    """Holders of one piece at the end of each slot, to its last arrival.
    Two series are equal when their piece and their counts are."""

    piece: int
    counts: np.ndarray  # counts[t] = holders at end of slot t; t = 0..last arrival

    def __eq__(self, other):
        same = type(other) is OccupancySeries and self.piece == other.piece
        return same and np.array_equal(self.counts, other.counts)

    def at(self, t: int) -> int:
        if type(t) is not int:
            check_range("t", t, int, -math.inf, math.inf, "()")
        if t < 0:
            return 0
        if t >= len(self.counts):
            return int(self.counts[-1])
        return int(self.counts[t])


def occupancy(result: RunResult, piece: int) -> OccupancySeries:
    """Holder count of `piece` after each slot, from slot 0 to its last
    arrival, not to the cap that a settled run reports without stepping."""
    arrivals = result.arrivals
    n, k = arrivals.shape
    check_range("piece", piece, int, 1, k, "[]")
    col = arrivals[:, piece - 1]
    col = col[col >= 0]
    counts = np.bincount(col)
    return OccupancySeries(piece, np.cumsum(counts))


def splitting_speedup(k: int, n: int) -> float:
    """Ideal-case speedup from splitting content into k pieces.

    Whole-content gossip needs ~log2 n slots; pipelined pieces need
    ~k + log2 n slots for content k times larger, so the ratio is
    k log2 n / (k + log2 n) — approaching log2 n as k grows.
    """
    check_range("k", k, int, 1, math.inf, "[)")
    check_range("n", n, int, 2, math.inf, "[)")
    log_n = math.log2(n)
    return k * log_n / (k + log_n)
