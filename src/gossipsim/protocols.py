"""Piece-selection policies, one :class:`Protocol` subclass per protocol.

A protocol's ``act(st, user, target, slot)`` is its rule for one user in one
slot: from the holdings at the start of the slot, the piece `user` pushes to
its contact `target` or requests from it, or 0 to idle.  Calling the
protocol, ``protocol(st, slot)``, draws every user's contact and applies
``act`` to each user in user order; it returns ``(pushes, pull_requests)``:
the pushes as an (m, 3) integer array of ``(user, target, piece)`` rows, the
requests as a list of ``(user, target, piece)`` tuples.  A pull rule asks
only for a piece its contact holds, and a slot either pushes or pulls, so
each request can be served and the engine only arbitrates among them.

The PRNG is consumed in user order: per user, one contact draw and then
that user's piece draws.  A protocol whose ``act`` draws nothing draws all
n contacts at once with :func:`uniforms`, which consumes exactly the words
of n ``rng.random()`` calls, so both ways leave the same stream.
"""

from __future__ import annotations

from array import array
from functools import reduce
from itertools import chain, repeat
from operator import and_
from random import Random

import numpy as np

from .bitset import random_piece
from .config import (
    ADVOCATE,
    INTERLEAVE,
    PRIORITY_PUSH,
    RANDOM_PULL,
    RANDOM_PUSH,
    SEQUENTIAL_PULL,
    SimulationConfig,
)

__all__ = [
    "PUSH",
    "PULL",
    "NO_PUSHES",
    "Protocol",
    "RandomPull",
    "SequentialPull",
    "RandomPush",
    "PriorityPush",
    "Interleave",
    "Advocate",
    "make_protocol",
    "uniforms",
    "draw_contacts",
]

# Transfer kinds, as recorded in trace events.
PUSH = "push"
PULL = "pull"

# The pushes of a slot without any: (user, target, piece) rows.
NO_PUSHES = np.empty((0, 3), dtype=np.int64)
NO_PUSHES.flags.writeable = False

# Users per getrandbits call in a batch draw: bounds the integer it builds
# to 512 KiB whatever n is.
_CHUNK = 1 << 16


def uniforms(rng: Random, n: int) -> np.ndarray:
    """The next n values of ``rng.random()``, as a float64 array, leaving
    `rng` in the state n calls would.

    ``rng.getrandbits(64 m)`` consumes the next 2m 32-bit Mersenne Twister
    words, the first one least significant, so each 64-bit word w of its
    little-endian bytes holds two consecutive words a (low) and b (high).
    ``random()`` makes its double from them as ``((a >> 5) 2**26 + (b >>
    6)) / 2**53``: an integer below 2**53 scaled by a power of two, which
    float64 holds exactly, so numpy gives the same bits.
    """
    parts = []
    for start in range(0, n, _CHUNK):
        m = min(_CHUNK, n - start)
        w = np.frombuffer(rng.getrandbits(64 * m).to_bytes(8 * m, "little"), dtype="<u8")
        parts.append((((w & 0xFFFFFFE0) << 21) | (w >> 38)) * (1.0 / 9007199254740992.0))
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _uniform_other(x, users, others: int):
    """Contacts uniform over the other users: ``int(x * others)`` with the
    float rounding edge guarded, skipping the user itself.  Takes arrays
    or one user's scalars."""
    t = np.minimum((x * others).astype(np.intp), others - 1)
    return t + (t >= users)


def draw_contacts(st, source_all: bool = False) -> np.ndarray:
    """Every user's contact for one slot, drawn as :class:`Protocol` draws
    them one by one: uniform over the other users, or under fixed lists
    uniform over the user's own list, and with `source_all` the source
    uniform over the whole network."""
    n = st.n
    x = uniforms(st.rng, n)
    lists = st.contact_lists
    if lists is None:
        return _uniform_other(x, np.arange(n), n - 1)
    table = st.contact_table
    if table is None:  # the lists are fixed for the run: convert them once
        table = st.contact_table = np.array(lists, dtype=np.intp)
    m = table.shape[1]
    j = np.minimum((x * m).astype(np.intp), m - 1)
    targets = table[np.arange(n), j]
    s = st.source
    if source_all and s is not None:
        targets[s] = _uniform_other(x[s], s, n - 1)
    return targets


class Protocol:
    """A protocol's rule for one user in one slot, applied to every user.

    ``kind`` says whether ``act`` picks pieces to push or to request.  Each
    user's contact costs one ``rng.random()`` draw: uniform over the other
    n - 1 users, or under fixed contact lists uniform over the user's own
    list.

    ``draws`` says whether ``act`` draws from ``st.rng``.  If it does, each
    contact is drawn just before that user acts; if not, all contacts are
    drawn in one batch (:func:`draw_contacts`) before the first act, which
    consumes the same draws in the same order.

    A source-scheduled protocol sets ``spacing``: in slot t its source
    pushes :meth:`source_piece`, piece ``ceil(t / spacing)`` capped at k.
    Its source draws its contact from the whole network even under fixed
    contact lists, so that the pieces it releases are not bottled up
    inside its own list; only the batch draw does that, so its ``act``
    must not draw.
    """

    kind = PULL
    draws = True
    spacing: int | None = None

    def source_piece(self, slot: int, k: int) -> int:
        return min((slot + self.spacing - 1) // self.spacing, k)

    def release_slots(self, k: int, slots: int) -> list | None:
        """Per piece, the slot the source first pushes it, (p - 1) spacing + 1
        (a push is never refused), or None if past `slots`; None for a
        protocol without a source schedule."""
        l = self.spacing
        if l is None:
            return None
        return [t if t <= slots else None for t in range(1, k * l + 1, l)]

    def settled(self, st, events) -> bool:
        """Whether no slot after the one that granted `events` can change
        a holding; False unless a protocol can tell."""
        return False

    def __call__(self, st, slot: int):
        if self.draws:
            picked = self._draw_and_act(st, slot)
            if self.kind == PULL:
                return NO_PUSHES, picked
            rows = np.fromiter(chain.from_iterable(picked), np.int64, 3 * len(picked))
            return rows.reshape(-1, 3), []
        n = st.n
        targets = draw_contacts(st, self.spacing is not None)
        listed = targets.tolist()
        acts = map(self.act, repeat(st), range(n), listed, repeat(slot))
        if self.kind == PULL:
            return NO_PUSHES, [(u, t, p) for u, t, p in zip(range(n), listed, acts) if p]
        picks = np.fromiter(acts, np.int64, n)
        return np.array((np.arange(n), targets, picks)).T[picks > 0], []

    def _draw_and_act(self, st, slot: int) -> list:
        """Each user's contact draw and then its act, user by user; the
        ``(user, target, piece)`` of every user that does not idle."""
        act = self.act
        rnd = st.rng.random
        lists = st.contact_lists
        others = st.n - 1
        picked = []
        for u in range(st.n):
            if lists is None:
                t = int(rnd() * others)
                if t >= others:  # guard the float rounding edge
                    t = others - 1
                if t >= u:
                    t += 1
            else:
                lst = lists[u]
                t = int(rnd() * len(lst))
                if t >= len(lst):
                    t = len(lst) - 1
                t = lst[t]
            p = act(st, u, t, slot)
            if p:
                picked.append((u, t, p))
        return picked

    def act(self, st, user: int, target: int, slot: int):
        raise NotImplementedError


class RandomPull(Protocol):
    """Each user requests a uniformly random missing piece if its contact holds it."""

    def act(self, st, user: int, target: int, slot: int):
        missing = st.mask ^ st.pieces[user]
        p = missing and random_piece(missing, st.rng)  # drawn whatever the contact holds
        return p if p and st.pieces[target] >> p - 1 & 1 else 0


class SequentialPull(Protocol):
    """Each user requests its lowest-numbered missing piece if its contact holds it."""

    draws = False

    def act(self, st, user: int, target: int, slot: int):
        have = st.pieces[user]
        # the lowest missing piece's bit: for a complete user bit k, which
        # nobody holds
        return (st.pieces[target] & ~have & (have + 1)).bit_length()


class RandomPush(Protocol):
    """Each user holding anything pushes a uniformly random held piece."""

    kind = PUSH

    def act(self, st, user: int, target: int, slot: int):
        have = st.pieces[user]
        return have and random_piece(have, st.rng)


class PriorityPush(Protocol):
    """Source-paced priority push.

    The source works through the pieces in order, dwelling ``spacing``
    slots on each (:meth:`~Protocol.source_piece`).  Every other user
    pushes the highest-numbered piece it holds — the one injected most
    recently and therefore rarest — or idles while empty-handed.
    """

    kind = PUSH
    draws = False

    def __init__(self, spacing: int = 1):
        self.spacing = spacing

    def act(self, st, user: int, target: int, slot: int):
        if user == st.source:
            return self.source_piece(slot, st.k)
        return st.pieces[user].bit_length()

    def settled(self, st, events) -> bool:
        """From slot (k - 1) spacing + 1 on the source pushes k, and every
        other user its highest piece, which is k once it holds k: when all
        hold k, no push brings anything new."""
        return st.slot >= (st.k - 1) * self.spacing and bool((st.arrivals[:, -1] >= 0).all())


class Interleave(Protocol):
    """The odd/even interleave schedule over n users.

    Odd slots are the push channel: in slot t the source injects piece
    (t + 1) / 2, capped at k (``spacing`` 2), while every other user
    relays the highest piece it has ever received on the push channel,
    idling until the channel first reaches it.  Even slots are the pull
    channel, run as sequential pull: each user asks its contact for its
    lowest missing piece if the contact holds it; complete users idle (but
    still serve).  ``relayed[u]`` is user u's highest push-channel piece, 0
    before the first; pushes are never refused, so it takes in an odd
    slot's pushes once all have acted.
    """

    kind = PUSH
    draws = False
    spacing = 2

    def __init__(self, n: int):
        self.relayed = array("q", bytes(8 * n))

    def __call__(self, st, slot: int):
        if not slot & 1:
            return _PULL_CHANNEL(st, slot)
        pushes, pulls = super().__call__(st, slot)
        np.maximum.at(np.frombuffer(self.relayed, np.int64), pushes[:, 1], pushes[:, 2])
        return pushes, pulls

    def act(self, st, user: int, target: int, slot: int):
        if user == st.source:
            return self.source_piece(slot, st.k)
        return self.relayed[user]

    def settled(self, st, events) -> bool:
        """Tested under fixed lists (uniform contacts always complete) after
        a pull slot that granted no pull, from slot 2(k - 1) on.  The source
        then pushes k and the others their relay memory, a maximum of pushed
        pieces: no push is new if all hold k and every relayed piece, and no
        pull is made if no user's pull act asks any listed contact for a
        piece; by induction no holding ever changes."""
        if st.contact_lists is None or st.slot & 1 or events.pulls or st.slot < 2 * (st.k - 1):
            return False
        held = reduce(and_, st.pieces)  # the pieces every user holds
        if not held >> st.k - 1 or any(p and not held >> p - 1 & 1 for p in set(self.relayed)):
            return False
        act = _PULL_CHANNEL.act
        return not any(
            act(st, u, c, st.slot) for u, listed in enumerate(st.contact_lists) for c in listed
        )


_PULL_CHANNEL = SequentialPull()


class Advocate(Protocol):
    """Pull under the initial-piece advocacy rule.

    The contact's own initial piece takes priority whenever the requester
    is missing it; otherwise the requester pulls a uniformly random piece
    the contact has and it lacks, idling if there is none.
    """

    def act(self, st, user: int, target: int, slot: int):
        have = st.pieces[user]
        p = target + 1  # the one-unique start: user u began with piece u + 1
        if not have >> (p - 1) & 1:
            return p
        gain = st.pieces[target] & ~have
        return gain and random_piece(gain, st.rng)


_PROTOCOLS = {
    RANDOM_PULL: RandomPull,
    SEQUENTIAL_PULL: SequentialPull,
    RANDOM_PUSH: RandomPush,
    ADVOCATE: Advocate,
}


def make_protocol(config: SimulationConfig) -> Protocol:
    """Instantiate the protocol named by the config."""
    pid = config.protocol
    if pid == PRIORITY_PUSH:
        return PriorityPush(config.spacing)
    if pid == INTERLEAVE:
        return Interleave(config.n)
    try:
        return _PROTOCOLS[pid]()
    except KeyError:
        raise ValueError(f"unknown protocol id {pid!r}") from None
