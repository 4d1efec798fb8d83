"""Piece-selection policies, one class per slot shape.

Calling a protocol, ``protocol(st, slot)``, runs one slot: from the holdings
at its start, each user draws a contact and picks a piece to push to it or
request from it, or idles.  It returns ``(pushes, pull_requests)``: an
(m, 3) integer array and a list of tuples, both of ``(user, target,
piece)`` rows.  A pull rule asks only for a piece its contact holds, and a
slot either pushes or pulls, so the engine only arbitrates the requests.

:class:`DrawAndPick` runs random pull, random push and advocate in one
draw-and-pick loop, with the random piece selected inline; sequential pull
applies a per-user ``act``; priority push runs on columns, with the source
schedule and the relay memory.  Interleave is priority push in odd slots,
its picks made by a per-user ``act``, and sequential pull in even ones.
The PRNG is consumed in user order: per user, one contact draw and then
that user's piece draws.  A slot that draws no piece draws all n contacts
at once with :func:`uniforms`, which consumes exactly the words of n
``rng.random()`` calls, so both ways leave the same stream.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, insort
from functools import reduce
from itertools import chain, repeat
from operator import and_
from random import Random

import numpy as np

from .config import (
    ADVOCATE,
    CONSTRAINTS,
    INTERLEAVE,
    PRIORITY_PUSH,
    PROTOCOLS,
    RANDOM_PULL,
    RANDOM_PUSH,
    SEQUENTIAL_PULL,
    SOFT,
    SimulationConfig,
    check_choice,
)

__all__ = [
    "PUSH",
    "PULL",
    "NO_PUSHES",
    "Protocol",
    "DrawAndPick",
    "SequentialPull",
    "PriorityPush",
    "Interleave",
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
# to 512 KiB whatever n is.  A block of B slots' contacts (engine.run) is
# one call: B = min(64, _CHUNK // n), and n > _CHUNK / 2 draws per slot.
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
    """Contacts uniform over the other users: ``int(x * others)``, skipping
    the user itself.  Takes arrays or one user's scalars."""
    t = (x * others).astype(np.intp)
    return t + (t >= users)


def draw_contacts(st, source_all: bool = False) -> np.ndarray:
    """Every user's contact for one slot, drawn as :class:`Protocol` draws
    them one by one: uniform over the other users, or under fixed lists
    uniform over the user's own list, and with `source_all` the source
    uniform over the whole network.  With ``st.rows`` set, as by
    :func:`~gossipsim.engine.run`, it draws B = min(64, _CHUNK // n) slots
    at once and hands each slot its row: the values of B calls, in order.

    A draw x < 1 indexes a pool of m < 2**53 as ``int(x * m)``, which is
    below m: x is at most 1 - 2**-53, and x m rounds to a float below m.
    ``MAX_CELLS`` keeps n at most 2**28, so the contact draws, the piece
    selects and hard arbitration index with no guard for a rounding edge."""
    n, lists, s = st.n, st.contact_lists, st.source
    if not st.rows:
        b = 1 if st.rows is None else min(64, _CHUNK // n) or 1
        x = uniforms(st.rng, b * n).reshape(b, n) if b > 1 else uniforms(st.rng, n)
        if lists is None:
            targets = _uniform_other(x, np.arange(n), n - 1)
        else:
            table = st.contact_table
            if table is None:  # the lists are fixed for the run: convert them once
                table = st.contact_table = np.array(lists, dtype=np.intp)
            targets = table[np.arange(n), (x * table.shape[1]).astype(np.intp)]
        if b > 1:
            st.rows = list(zip(x, targets))[::-1]
    if st.rows:  # this slot's row of the block
        x, targets = st.rows.pop()
    if source_all and s is not None and lists is not None:
        targets[s] = _uniform_other(x[s], s, n - 1)
    return targets


class Protocol:
    """A protocol's rule for every user in one slot: ``protocol(st, slot)``.

    Each user's contact costs one ``rng.random()`` draw: uniform over the
    other n - 1 users, or under fixed contact lists uniform over the user's
    own list (:func:`draw_contacts`).  ``moves(have, held)`` is the set of
    pieces a user holding `have` can move with a contact holding `held`;
    it decides the fixed-list settle rule, :meth:`settled`."""

    contacts_only = ()  # constraints under which a slot draws only its contacts
    def release_slots(self, k: int, slots: int) -> list | None:
        """Per piece, the slot the source first pushes it; None without a schedule."""
        return None

    def settled(self, st, events) -> bool:
        """Whether no slot after the one that granted `events` can change
        a holding: under fixed lists, when no user and listed contact have
        a piece to move, no slot brings a new piece, so none ever will."""
        if not (lists := st.contact_lists):
            return False
        moves, pieces = self.moves, st.pieces
        return not any(moves(pieces[u], pieces[c]) for u, row in enumerate(lists) for c in row)


class DrawAndPick(Protocol):
    """Random pull, random push and advocate, by ``rule``: the set a piece
    is drawn from.  Random pull requests a uniformly random missing piece
    if the contact holds it; random push pushes a uniformly random held
    piece; advocate requests the contact's own initial piece whenever the
    requester is missing it, else a uniformly random piece the contact has
    and it lacks.  User by user: a contact draw, then a piece of the set,
    selected with the draws of :func:`~gossipsim.bitset.random_piece`,
    written out so that no call is made per user; an empty set idles.

    Random pull's set (missing pieces) and random push's (held pieces)
    depend on the user alone, so their sparse select indexes the set's
    sorted pieces with the same draw.  Per state and mask, each user's list
    follows its gains, or is rebuilt after a loss: at most k 4-byte entries,
    so no more than the ``arrivals`` matrix, which ``MAX_CELLS`` bounds."""

    def __init__(self, rule: str):
        check_choice("rule", rule, (RANDOM_PULL, RANDOM_PUSH, ADVOCATE))
        self.rule = rule
        self.pull, self.push = rule == RANDOM_PULL, rule == RANDOM_PUSH
        self.built = self.mask = None

    def moves(self, have: int, held: int) -> int:
        return have & ~held if self.push else held & ~have

    def __call__(self, st, slot: int):
        rnd = st.rng.random
        pieces, mask, lists, others = st.pieces, st.mask, st.contact_lists, st.n - 1
        if self.built is not st or self.mask != mask:  # lists of another state
            self.built, self.mask, self.bases, self.sorted_sets = st, mask, [-1] * st.n, [None] * st.n
        pull, push, bases, sets = self.pull, self.push, self.bases, self.sorted_sets
        picked = []
        add = picked.append
        # int(x * m) < m, so no index needs a guard (see draw_contacts)
        for u, have in enumerate(pieces):
            if lists is None:
                t = int(rnd() * others)
                if t >= u:
                    t += 1
            else:
                t = lists[u][int(rnd() * len(lists[u]))]
            if pull:
                bits = mask ^ have
            elif push:
                bits = have
            elif not have >> t & 1:  # the one-unique start: user t began with piece t + 1
                add((u, t, t + 1))
                continue
            else:
                bits = pieces[t] & ~have
            if not bits:
                continue
            c = bits.bit_count()
            if c == 1:
                p = bits.bit_length()
            elif c << 1 >= (span := bits.bit_length()):  # dense: rejection-sample the span
                p = int(rnd() * span)
                while not bits >> p & 1:
                    p = int(rnd() * span)
                p += 1
            elif pull or push:  # sparse: the j-th lowest piece of the user's sorted set
                if (base := bases[u]) != have:
                    if base & ~have:  # a lost piece, or no list yet (-1): rebuild
                        sets[u] = array("i", [p for p, b in enumerate(bin(bits)[:1:-1], 1) if b == "1"])
                    else:  # only gains: each leaves the missing set, or joins the held one
                        lst, new = sets[u], have & ~base
                        while new:
                            q = (new & -new).bit_length()
                            new &= new - 1
                            if pull:
                                del lst[bisect_left(lst, q)]
                            else:
                                insort(lst, q)
                    bases[u] = have
                p = sets[u][int(rnd() * c)]
            else:  # sparse advocate: select the j-th lowest set bit
                j = int(rnd() * c)
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
                    bits &= bits - 1
                p = offset + (bits & -bits).bit_length()
            if not pull or pieces[t] >> p - 1 & 1:  # pull: drawn whatever the contact holds
                add((u, t, p))
        if not push:
            return NO_PUSHES, picked
        rows = np.fromiter(chain.from_iterable(picked), np.int64, 3 * len(picked))
        return rows.reshape(-1, 3), []


class SequentialPull(Protocol):
    """Each user requests its lowest-numbered missing piece if its contact
    holds it: the contacts are drawn in one batch, then ``act`` is applied
    per user, in user order."""

    contacts_only = (SOFT,)  # hard arbitration draws
    def __call__(self, st, slot: int):
        targets = draw_contacts(st).tolist()
        acts = map(self.act, repeat(st), range(st.n), targets, repeat(slot))
        return NO_PUSHES, [(u, t, p) for u, t, p in zip(range(st.n), targets, acts) if p]

    def act(self, st, user: int, target: int, slot: int):
        have = st.pieces[user]
        return (st.pieces[target] & ~have & (have + 1)).bit_length()  # moves, with no call

    def moves(self, have: int, held: int) -> int:
        return held & ~have & (have + 1)  # the lowest missing piece; k + 1 (none) if complete


class PriorityPush(Protocol):
    """Source-paced priority push.

    The source works through the pieces in order, dwelling ``spacing``
    slots on each: in slot t it pushes :meth:`source_piece`, piece
    ``ceil(t / spacing)`` capped at k, and draws its contact from the whole
    network even under fixed contact lists, so that the pieces it releases
    are not bottled up inside its own list.  Every other user pushes the
    highest-numbered piece it holds — the one injected most recently and
    therefore rarest — or idles while empty-handed.

    The slot runs on columns.  Under the single-source start, pieces come
    only by push, so a user's highest piece is ``relayed[u]``, its relay
    memory: taken from the holdings at the first slot, then raised by each
    slot's pushes, which are never refused.
    """

    contacts_only = CONSTRAINTS  # no pulls, so no arbitration
    def __init__(self, spacing: int = 1):
        self.spacing = spacing
        self.relayed = None

    def source_piece(self, slot: int, k: int) -> int:
        return min((slot + self.spacing - 1) // self.spacing, k)

    def release_slots(self, k: int, slots: int) -> list:
        """Per piece, (p - 1) spacing + 1 (a push is never refused); None past `slots`."""
        l = self.spacing
        return [t if t <= slots else None for t in range(1, k * l + 1, l)]

    def __call__(self, st, slot: int):
        targets = draw_contacts(st, True)
        if self.relayed is None:
            self.relayed = array("q", [have.bit_length() for have in st.pieces])
        picks = self.picks(st, slot, targets)
        pushes = np.array((np.arange(st.n), targets, picks)).T[picks > 0]
        np.maximum.at(np.frombuffer(self.relayed, np.int64), pushes[:, 1], pushes[:, 2])
        return pushes, []

    def picks(self, st, slot: int, targets) -> np.ndarray:
        """Each user's piece to push, 0 to idle: the source's scheduled one, or the memory."""
        picks = np.array(self.relayed, np.int64)
        picks[st.source] = self.source_piece(slot, st.k)
        return picks

    def settled(self, st, events) -> bool:
        """From slot (k - 1) spacing + 1 on the source pushes k, and every
        other user its relay memory, its highest piece when run alone: when
        all hold k and every relayed piece, no push brings anything new."""
        if st.slot < (st.k - 1) * self.spacing or not (st.arrivals[:, -1] >= 0).all():
            return False
        held = reduce(and_, st.pieces)  # the pieces every user holds
        return all(held >> p - 1 & 1 for p in set(self.relayed or ()) if p)


class Interleave(PriorityPush):
    """Odd slots are the push channel, priority push with spacing 2: the
    source injects piece (t + 1) / 2, capped at k, and every other user
    relays the highest piece it got on the push channel, its relay memory,
    picked by a per-user ``act``.  Even slots are the pull channel, its
    own sequential pull, and leave the memory alone: a pulled piece is
    never relayed.  Complete users idle on the pull channel but still serve."""

    contacts_only = (SOFT,)
    def __init__(self):
        super().__init__(2)
        self.pull = SequentialPull()

    def __call__(self, st, slot: int):
        if slot & 1:
            return super().__call__(st, slot)
        return self.pull(st, slot)

    def picks(self, st, slot: int, targets) -> np.ndarray:
        acts = map(self.act, repeat(st), range(st.n), targets.tolist(), repeat(slot))
        return np.fromiter(acts, np.int64, st.n)

    def act(self, st, user: int, target: int, slot: int) -> int:
        if user == st.source:
            return self.source_piece(slot, st.k)
        return self.relayed[user]

    def settled(self, st, events) -> bool:
        """Under fixed lists (uniform contacts always complete), after a pull slot
        that granted no pull: the tail rule and its pull channel's fixed-list rule."""
        if st.slot & 1 or events.pulls or not st.contact_lists:
            return False
        return super().settled(st, events) and self.pull.settled(st, events)


def make_protocol(config: SimulationConfig) -> Protocol:
    """The protocol the config names; a ConfigError naming ``protocol`` if none."""
    pid = config.protocol
    check_choice("protocol", pid, PROTOCOLS)
    if pid == PRIORITY_PUSH:
        return PriorityPush(config.spacing)
    if pid == SEQUENTIAL_PULL:
        return SequentialPull()
    if pid == INTERLEAVE:
        return Interleave()
    return DrawAndPick(pid)
