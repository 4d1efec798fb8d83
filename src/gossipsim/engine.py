"""Slot-synchronous simulation engine.

One slot proceeds in three phases shared by every protocol:

1. every user samples one contact and picks an action (push, pull, idle).
   A protocol whose per-user rule draws nothing draws all n contacts in one
   batch that consumes the PRNG exactly as n single draws do; the pushes
   come back as an (m, 3) array of (user, target, piece) rows;
2. uploads are resolved against the per-user upload budget: pushes pass
   through as they are, pull requests are filtered, sorted and arbitrated
   in Python;
3. granted transfers are delivered through the ``arrivals`` matrix: the
   first copy of a piece sets the receiver's cell to the slot, and later
   copies find it set and are spent without new data.  Pushes are
   delivered as columns, with one gather and test on the flat matrix,
   then merged as (user, piece) rows; each pull is tested, set and merged
   at once.  Holdings are read only when users act, so a piece received
   in slot t is usable (pushable, servable) from slot t+1 on.

A slot's granted uploads are a :class:`SlotEvents`: ``len()`` counts them,
and iterating builds their :class:`TransferEvent` tuples only then, so an
untraced run builds no push events at all.

Pushes are resolved before pulls: a user's own push claims its upload
budget first, and under the hard constraint a pushed-at user therefore
serves no pull requests that slot.  Downloads are never constrained.

The engine holds no protocol's rule.  What a protocol remembers between
slots (interleave's relay memory) lives on its instance, one per run, and
a run's release slots come from the protocol's source schedule.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from itertools import chain, islice
from operator import itemgetter
from random import Random
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .bitset import full_mask
from .config import ETA_SEEDED, FIXED_LISTS, HARD, SINGLE_SOURCE, SimulationConfig, check_range
from .protocols import PULL, PUSH, make_protocol

__all__ = [
    "TransferEvent",
    "SlotEvents",
    "Trace",
    "SystemState",
    "RunResult",
    "Engine",
    "run",
    "init_state",
    "build_contact_lists",
    "resolve_uploads",
    "step_slot",
    "emergence",
    "trace_digest",
]


class TransferEvent(NamedTuple):
    """One granted upload: `frm` sent `piece` to `to` during `slot`."""

    slot: int
    frm: int
    to: int
    piece: int
    kind: str  # "push" or "pull"


# Builds a TransferEvent from a 5-tuple without NamedTuple's keyword layer.
_new = tuple.__new__
_target = itemgetter(1)


def _lines(events) -> str:
    """The canonical text of `events`: a ``slot,from,to,piece,kind\n`` line each."""
    return "".join(["%d,%d,%d,%d,%s\n" % e for e in events])


class SlotEvents:
    """One slot's granted uploads, in the order they were granted: first
    the pushes, an (m, 3) int array of ``(from, to, piece)`` rows in user
    order, then the pull grants, ``(from, to, piece)`` tuples listed by
    granting user.  ``len()`` counts them; iterating yields them as
    :class:`TransferEvent` tuples, built only then."""

    __slots__ = ("slot", "pushes", "pulls")

    def __init__(self, slot: int, pushes: np.ndarray, pulls: list):
        self.slot = slot
        self.pushes = pushes
        self.pulls = pulls

    def __len__(self) -> int:
        return len(self.pushes) + len(self.pulls)

    def __iter__(self) -> Iterator[TransferEvent]:
        slot = self.slot
        events = [_new(TransferEvent, (slot, f, t, p, PUSH)) for f, t, p in self.pushes.tolist()]
        events += [_new(TransferEvent, (slot, f, t, p, PULL)) for f, t, p in self.pulls]
        return iter(events)


class Trace:
    """A run's transfer events as their canonical text: :meth:`add` keeps
    one slot's lines as one string (a chunk), so a long trace holds no
    per-event objects.  ``len()`` counts the events; iterating parses the
    lines back into :class:`TransferEvent` tuples, in recording order."""

    def __init__(self):
        self.chunks: list[str] = []
        self.size = 0
        self._digits: list[str] = []  # _digits[i] == f"{i},"

    def add(self, events: SlotEvents) -> None:
        """Append one slot's events, as :func:`_lines` formats them; push
        lines are formatted straight from their rows.  Users and pieces are
        looked up in a table of decimal strings, which doubles when a
        number is past its end, so it stays below twice the largest number
        formatted."""
        if not len(events):
            return
        head = f"{events.slot},"
        d = self._digits
        pushes = events.pushes.tolist()
        pulls = events.pulls
        try:
            lines = [f"{head}{d[f]}{d[t]}{d[p]}push\n" for f, t, p in pushes]
            lines += [f"{head}{d[f]}{d[t]}{d[p]}pull\n" for f, t, p in pulls]
        except IndexError:  # a number past the table: grow it and retry
            top = max(map(max, chain(pushes, pulls)))
            d += [f"{i}," for i in range(len(d), max(top + 1, 2 * len(d)))]
            return self.add(events)
        self.chunks.append("".join(lines))
        self.size += len(lines)

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[TransferEvent]:
        for chunk in self.chunks:
            for line in chunk.splitlines():
                slot, frm, to, piece, kind = line.split(",")
                yield _new(TransferEvent, (int(slot), int(frm), int(to), int(piece), kind))


@dataclass
class SystemState:
    """Mutable world state for one run, the same for every protocol;
    emergence is derived (:func:`emergence`)."""

    n: int
    k: int
    mask: int
    constraint: str
    rng: Random
    pieces: list[int]
    arrivals: np.ndarray  # (n, k) int32; arrivals[u, p-1] = slot, -1 = never
    slot: int = 0
    num_complete: int = 0
    source: int | None = None
    contact_lists: list | None = None
    contact_table: np.ndarray | None = None  # contact_lists as an (n, m) array
    initial_piece: list | None = None  # one-unique start: piece per user


def build_contact_lists(n: int, m: int, rng: Random) -> list:
    """Sample each user's fixed contact list: m distinct others, immutable."""
    check_range("contact_list_size", m, int, 1, n - 1, "[]")
    lists = []
    ids = list(range(n))
    for u in range(n):
        ids[u] = ids[-1]  # swap self out of the pool
        lists.append(tuple(rng.sample(ids[: n - 1], m)))
        ids[u] = u
        ids[-1] = n - 1
    return lists


def init_state(config: SimulationConfig) -> SystemState:
    """Seed the PRNG, build contact lists, and place the initial pieces.

    The PRNG is consumed in a fixed order — contact lists first, then the
    seeded placement — so identical (config, seed) pairs always produce
    identical worlds.
    """
    config.validate()
    n, k = config.n, config.k
    rng = Random(config.seed)
    contact_lists = None
    if config.contact_model == FIXED_LISTS:
        contact_lists = build_contact_lists(n, config.contact_list_size, rng)
    pieces = [0] * n
    arrivals = np.full((n, k), -1, dtype=np.int32)
    mask = full_mask(k)
    initial_piece = None
    source = None
    if config.initial_state == SINGLE_SOURCE:
        source = 0
        pieces[0] = mask
        arrivals[0, :] = 0
    elif config.initial_state == ETA_SEEDED:
        holders = math.ceil(config.eta * n)
        for p in range(1, k + 1):
            bit = 1 << (p - 1)
            for u in rng.sample(range(n), holders):
                pieces[u] |= bit
                arrivals[u, p - 1] = 0
    else:  # one unique piece per user; validate() guarantees k == n
        for u in range(n):
            pieces[u] = 1 << u
            arrivals[u, u] = 0
        initial_piece = list(range(1, n + 1))
    return SystemState(
        n=n,
        k=k,
        mask=mask,
        constraint=config.constraint,
        rng=rng,
        pieces=pieces,
        arrivals=arrivals,
        source=source,
        contact_lists=contact_lists,
        initial_piece=initial_piece,
        num_complete=sum(1 for b in pieces if b == mask),
    )


def resolve_uploads(
    slot: int, pushes: np.ndarray, pull_requests: list, st: SystemState
) -> SlotEvents:
    """Grant uploads against the per-user budget ``st.constraint``, drawing
    from ``st.rng``; returns the slot's events.

    `pushes` is an (m, 3) int array and `pull_requests` a list, both of
    ``(user, target, piece)`` rows, as protocols return them.  Pushes are
    the uploader's own decision and always go through.  Pull requests
    compete for the *target's* budget: requests for pieces the target does
    not (yet) hold are dropped, and under the hard constraint a target that
    pushed this slot serves nobody while any other target serves exactly
    one surviving request, chosen uniformly at random.  The soft constraint
    serves every surviving request.  Pull grants are listed by target, and
    in request order within one target.
    """
    pieces = st.pieces
    valid = [q for q in pull_requests if pieces[q[1]] >> (q[2] - 1) & 1]
    if not valid:
        return SlotEvents(slot, pushes, [])
    valid.sort(key=_target)
    if st.constraint != HARD:
        return SlotEvents(slot, pushes, [(t, r, p) for r, t, p in valid])
    busy = set(pushes[:, 0].tolist())
    rng = st.rng
    grants = []
    end = len(valid)
    i = 0
    while i < end:
        t = valid[i][1]
        j = i + 1
        while j < end and valid[j][1] == t:
            j += 1
        if t not in busy:
            pick = i
            if j - i > 1:
                pick += int(rng.random() * (j - i))
                if pick >= j:  # guard the float rounding edge
                    pick = j - 1
            r, _t, p = valid[pick]
            grants.append((t, r, p))
        i = j
    return SlotEvents(slot, pushes, grants)


def _merge(st: SystemState, pairs) -> None:
    """Merge newly served ``(user, piece)`` pairs into the holdings and the
    complete count; a second copy of a pair finds the piece held and is skipped."""
    mask = st.mask
    pieces = st.pieces
    for to, piece in pairs:
        old = pieces[to]
        pieces[to] = have = old | 1 << piece - 1
        if have == mask and old != mask:
            st.num_complete += 1


def step_slot(st: SystemState, protocol) -> SlotEvents:
    """Advance the world by one slot under `protocol` (from
    :func:`~gossipsim.protocols.make_protocol`); returns the granted
    transfer events."""
    slot = st.slot + 1
    pushes, pulls = protocol(st, slot)
    events = resolve_uploads(slot, pushes, pulls, st)

    # Deliver: a cell of the arrivals matrix already >= 0 is a piece the
    # user held, or one that arrived earlier in this slot; the upload was
    # spent without new data.  New pieces merge into `pieces` at once:
    # nothing reads them before the next slot.
    k = st.k
    rows = events.pushes
    if len(rows):
        _frm, to, piece = rows.T
        flat = st.arrivals.reshape(-1)
        cells = to * k + (piece - 1)
        new = flat[cells] < 0
        flat[cells[new]] = slot
        _merge(st, zip(to[new].tolist(), piece[new].tolist()))
    if events.pulls:
        arrived = memoryview(st.arrivals).cast("B").cast("i")
        mask, pieces = st.mask, st.pieces
        for _frm, to, piece in events.pulls:
            cell = to * k + piece - 1
            if arrived[cell] < 0:  # so the holdings lack it
                arrived[cell] = slot
                pieces[to] = have = pieces[to] | 1 << piece - 1
                if have == mask:
                    st.num_complete += 1
    st.slot = slot
    return events


def emergence(st: SystemState) -> list:
    """Per piece, the first slot a copy existed outside the initial endowment:
    under a single source (user 0) the least slot in which another user holds
    it, or ``None``; 0 under any other start.  As uint32, -1 (never) is the
    largest slot, so a column minimum over a view of the other rows does it."""
    if st.source is None:
        return [0] * st.k
    first = st.arrivals[1:].view(np.uint32).min(axis=0).tolist()
    return [None if t == 0xFFFFFFFF else t for t in first]


@dataclass
class RunResult:
    """One run's outcome plus everything the metrics need."""

    config: SimulationConfig
    completed: bool
    completion_slot: int | None
    slots: int
    arrivals: np.ndarray
    emergence: list
    release_slots: list | None
    initial_piece: list | None
    trace: Trace | None
    trace_hash: str | None


class Engine:
    """Drives one seeded run of a protocol over the shared slot loop."""

    def __init__(self, config: SimulationConfig):
        self.config = config
        self.state = init_state(config)
        self.protocol = make_protocol(config)
        self.trace = Trace() if config.record_trace else None

    def step(self) -> SlotEvents:
        events = step_slot(self.state, self.protocol)
        if self.trace is not None:
            self.trace.add(events)
        return events

    def run(self) -> RunResult:
        st = self.state
        cap = self.config.effective_max_slots()
        completion = 0 if st.num_complete == st.n else None
        while completion is None and st.slot < cap:
            self.step()
            if st.num_complete == st.n:
                completion = st.slot
        return RunResult(
            config=self.config,
            completed=completion is not None,
            completion_slot=completion,
            slots=st.slot,
            arrivals=st.arrivals,
            emergence=emergence(st),
            release_slots=self.protocol.release_slots(st.k, st.slot),
            initial_piece=st.initial_piece,
            trace=self.trace,
            trace_hash=trace_digest(self.trace) if self.trace is not None else None,
        )


def run(config: SimulationConfig) -> RunResult:
    """Run one configuration to completion or its slot cap."""
    return Engine(config).run()


# Events serialized per hash update: bounds the joined buffer to a few MB.
_DIGEST_CHUNK = 20_000


def trace_digest(events: Trace | Iterable[TransferEvent]) -> str:
    """SHA-256 of the canonical event serialization; the regression anchor.

    Each event contributes the line ``slot,from,to,piece,kind\n``; lines
    are hashed in chunks, which gives the same digest as one update each.
    A :class:`Trace` is hashed from the text it already holds.
    """
    h = hashlib.sha256()
    if isinstance(events, Trace):
        chunks = events.chunks
    else:  # format _DIGEST_CHUNK events at a time until none are left
        events = iter(events)
        chunks = iter(lambda: _lines(islice(events, _DIGEST_CHUNK)), "")
    for text in chunks:
        h.update(text.encode())
    return h.hexdigest()
