"""Piece-selection policies, one :class:`Protocol` subclass per protocol.

A protocol's ``act(st, user, target, slot)`` is its rule for one user in one
slot: from the holdings at the start of the slot, the piece `user` pushes to
its contact `target` or requests from it, or a false value to idle.  Calling
the protocol, ``protocol(st, slot)``, draws every user's contact and applies
``act`` to each user in user order; it returns ``(pushes, pull_requests)``,
two lists of ``(user, target, piece)``.  The PRNG is consumed in that order:
per user, one contact draw and then that user's piece draws.
"""

from __future__ import annotations

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
    "Protocol",
    "RandomPull",
    "SequentialPull",
    "RandomPush",
    "PriorityPush",
    "Interleave",
    "Advocate",
    "make_protocol",
]

# Transfer kinds, as recorded in trace events.
PUSH = "push"
PULL = "pull"


class Protocol:
    """A protocol's rule for one user in one slot, applied to every user.

    ``kind`` says whether ``act`` picks pieces to push or to request.  Each
    user's contact costs one ``rng.random()`` draw: uniform over the other
    n - 1 users, or under fixed contact lists uniform over the user's own
    list.  With ``source_contacts_all`` the source draws from the whole
    network even under fixed contact lists, so that the pieces it releases
    are not bottled up inside its own list.
    """

    kind = PULL
    source_contacts_all = False

    def __call__(self, st, slot: int):
        act = self.act
        rnd = st.rng.random
        lists = st.contact_lists
        others = st.n - 1
        uniform_user = st.source if self.source_contacts_all else None
        picked = []
        for u in range(st.n):
            if lists is None or u == uniform_user:
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
        return (picked, []) if self.kind == PUSH else ([], picked)

    def act(self, st, user: int, target: int, slot: int):
        raise NotImplementedError


class RandomPull(Protocol):
    """Each user requests a uniformly random missing piece."""

    def act(self, st, user: int, target: int, slot: int):
        missing = st.mask ^ st.pieces[user]
        return missing and random_piece(missing, st.rng)


class SequentialPull(Protocol):
    """Each user requests its lowest-numbered missing piece."""

    def act(self, st, user: int, target: int, slot: int):
        missing = st.mask ^ st.pieces[user]
        return (missing & -missing).bit_length()


class RandomPush(Protocol):
    """Each user holding anything pushes a uniformly random held piece."""

    kind = PUSH

    def act(self, st, user: int, target: int, slot: int):
        have = st.pieces[user]
        return have and random_piece(have, st.rng)


class PriorityPush(Protocol):
    """Source-paced priority push.

    The source works through the pieces in order, dwelling ``spacing``
    slots on each: in slot t it pushes piece ``ceil(t / spacing)``, capped
    at k once the schedule is exhausted.  Every other user pushes the
    highest-numbered piece it holds — the one injected most recently and
    therefore rarest — or idles while empty-handed.
    """

    kind = PUSH
    source_contacts_all = True

    def __init__(self, spacing: int = 1):
        self.spacing = spacing

    def act(self, st, user: int, target: int, slot: int):
        if user == st.source:
            return min((slot + self.spacing - 1) // self.spacing, st.k)
        return st.pieces[user].bit_length()


class Interleave(Protocol):
    """The odd/even interleave schedule.

    Odd slots are the push channel: the source injects one new piece per
    odd slot (in order, capped at k), while every other user relays the
    highest piece it has ever received on the push channel, idling until
    the channel first reaches it.  Even slots are the pull channel, run as
    sequential pull: each user requests its lowest missing piece; complete
    users idle (but still serve requests).
    """

    kind = PUSH
    source_contacts_all = True

    def __call__(self, st, slot: int):
        if not slot & 1:
            return _PULL_CHANNEL(st, slot)
        actions = super().__call__(st, slot)
        st.next_source_piece = min(st.next_source_piece + 1, st.k)
        return actions

    def act(self, st, user: int, target: int, slot: int):
        if user == st.source:
            return st.next_source_piece
        return st.odd_channel_max[user]


_PULL_CHANNEL = SequentialPull()


class Advocate(Protocol):
    """Pull under the initial-piece advocacy rule.

    The contact's own initial piece takes priority whenever the requester
    is missing it; otherwise the requester pulls a uniformly random piece
    the contact has and it lacks, idling if there is none.
    """

    def act(self, st, user: int, target: int, slot: int):
        have = st.pieces[user]
        p = st.initial_piece[target]
        if not have >> (p - 1) & 1:
            return p
        gain = st.pieces[target] & ~have
        return gain and random_piece(gain, st.rng)


_PROTOCOLS = {
    RANDOM_PULL: RandomPull,
    SEQUENTIAL_PULL: SequentialPull,
    RANDOM_PUSH: RandomPush,
    INTERLEAVE: Interleave,
    ADVOCATE: Advocate,
}


def make_protocol(config: SimulationConfig) -> Protocol:
    """Instantiate the protocol named by the config."""
    pid = config.protocol
    if pid == PRIORITY_PUSH:
        return PriorityPush(config.spacing)
    try:
        return _PROTOCOLS[pid]()
    except KeyError:
        raise ValueError(f"unknown protocol id {pid!r}") from None
