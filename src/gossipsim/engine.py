"""Slot-synchronous simulation engine.

One slot proceeds in three phases shared by every protocol:

1. every user samples one contact and picks an action (push, pull, idle),
   in one protocol call per slot: a draw-and-pick loop, per-user ``act``
   on a batch of contacts, or columns; the pushes come back as an (m, 3)
   array of (user, target, piece) rows;
2. uploads are resolved against the per-user upload budget: pushes pass
   through as they are, and pull requests are sorted by target and
   arbitrated in Python;
3. granted transfers are delivered through the ``arrivals`` matrix: the
   first copy of a piece sets the receiver's cell to the slot, and later
   copies find it set and are spent without new data.  Pushes are
   delivered as columns, with one gather and test on the flat matrix,
   then merged as (user, piece) rows; each pull is tested, set and merged
   at once.  Holdings are read only when users act, so a piece received
   in slot t is usable (pushable, servable) from slot t+1 on.  The slot
   ends by counting the users whose holdings equal the full mask.

A slot's granted uploads are a :class:`SlotEvents`: ``len()`` counts them,
and iterating builds their :class:`TransferEvent` tuples only then, so an
untraced run builds no push events at all.

The protocols keep two rules that leave the budget to arbitration alone:
a pull asks only a contact that holds the piece, and no slot both pushes
and pulls (interleave pushes in odd slots and pulls in even ones).  So
under the hard constraint a user uploads at most once per slot when each
target grants one of its pull requests.  Downloads are never constrained.

The engine holds no protocol's rule.  What a protocol remembers between
slots (the relay memory) lives on its instance, one per run, and a run's
release slots come from the protocol's source schedule.

An untraced run stops stepping once its protocol says it is settled, when
no later slot can change a holding (a priority-push tail, an interleave
stall on fixed lists), and ends at its slot cap as stepping there would
have; a traced run steps every slot, since its trace records each push.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from random import Random
from typing import Iterator, NamedTuple

import numpy as np

from .config import ETA_SEEDED, FIXED_LISTS, HARD, SINGLE_SOURCE, SimulationConfig, check_range
from .protocols import PULL, PUSH, make_protocol

__all__ = [
    "TransferEvent",
    "SlotEvents",
    "Trace",
    "SystemState",
    "RunResult",
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
    """A run's transfer events as their canonical text: :meth:`add` hands
    one slot's lines as one string (a chunk) to the sink, by default
    ``chunks.append``, and hashes it into a running SHA-256, so a trace
    holds no per-event objects.  ``len()`` counts the events; iterating
    parses the kept chunks back into :class:`TransferEvent` tuples, in
    recording order, and raises if a sink of its own took them."""

    def __init__(self, sink=None):
        self.chunks: list[str] = []
        self._sink = self.chunks.append if sink is None else sink
        self.streamed = sink is not None
        self.size = 0
        self.sha256 = hashlib.sha256()
        self._digits: list[str] = []  # _digits[i] == f"{i},"

    def add(self, events: SlotEvents) -> None:
        """Pass on one slot's events, a ``slot,from,to,piece,kind\n`` line
        each; push lines are formatted straight from their rows.  Users and
        pieces are looked up in a table of decimal strings, which doubles
        when a number is past its end, so it stays below twice the largest
        number formatted."""
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
        text = "".join(lines)
        self.sha256.update(text.encode())
        self._sink(text)
        self.size += len(lines)

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[TransferEvent]:
        if self.streamed:
            raise ValueError("this trace's text went to its sink; it keeps no events to iterate")
        rows = (line.split(",") for chunk in self.chunks for line in chunk.splitlines())
        return (_new(TransferEvent, (int(s), int(f), int(t), int(p), k)) for s, f, t, p, k in rows)


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
    mask = (1 << k) - 1
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
        num_complete=pieces.count(mask),
    )


def resolve_uploads(
    slot: int, pushes: np.ndarray, pull_requests: list, st: SystemState
) -> SlotEvents:
    """Grant uploads against the per-user budget ``st.constraint``, drawing
    from ``st.rng``; returns the slot's events.

    `pushes` is an (m, 3) int array and `pull_requests` a list, both of
    ``(user, target, piece)`` rows, as protocols return them: a pull asks
    only a target that holds the piece, and no slot both pushes and pulls.
    Pushes are the uploader's own decision and always go through.  Pull
    requests compete for the *target's* budget: under the hard constraint
    each target serves exactly one, chosen uniformly at random, and the
    soft constraint serves them all.  Pull grants are listed by target, and
    in request order within one target.
    """
    if not pull_requests:
        return SlotEvents(slot, pushes, [])
    requests = sorted(pull_requests, key=_target)
    if st.constraint != HARD:
        return SlotEvents(slot, pushes, [(t, r, p) for r, t, p in requests])
    rng = st.rng
    grants = []
    end = len(requests)
    i = 0
    while i < end:
        t = requests[i][1]
        j = i + 1
        while j < end and requests[j][1] == t:
            j += 1
        pick = i
        if j - i > 1:
            pick += int(rng.random() * (j - i))
        r, _t, p = requests[pick]
        grants.append((t, r, p))
        i = j
    return SlotEvents(slot, pushes, grants)


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
    k, mask, pieces = st.k, st.mask, st.pieces
    rows = events.pushes
    if len(rows):
        _frm, to, piece = rows.T
        flat = st.arrivals.reshape(-1)
        cells = to * k + (piece - 1)
        new = flat[cells] < 0
        flat[cells[new]] = slot
        for to, piece in zip(to[new].tolist(), piece[new].tolist()):
            pieces[to] |= 1 << piece - 1
    if events.pulls:
        arrived = memoryview(st.arrivals).cast("B").cast("i")
        for _frm, to, piece in events.pulls:
            cell = to * k + piece - 1
            if arrived[cell] < 0:  # so the holdings lack it
                arrived[cell] = slot
                pieces[to] |= 1 << piece - 1
    st.num_complete = pieces.count(mask)
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
    trace: Trace | None
    trace_hash: str | None


def run(config: SimulationConfig, sink=None) -> RunResult:
    """Run one configuration to completion or its slot cap: seed the world
    (:func:`init_state`) and step it under the named protocol, adding each
    slot's events to a :class:`Trace` when ``config.record_trace`` is set.
    A `sink` takes each slot's trace text as it is formatted, and the trace
    keeps none (see :class:`Trace`); a run that records no trace refuses
    one.  An untraced run that the protocol finds settled skips to the cap."""
    if sink is not None and not config.record_trace:
        raise ValueError("sink: only a run with record_trace set formats a trace to pass on")
    st = init_state(config)
    protocol = make_protocol(config)
    trace = Trace(sink) if config.record_trace else None
    cap = config.effective_max_slots()
    completion = 0 if st.num_complete == st.n else None
    while completion is None and st.slot < cap:
        events = step_slot(st, protocol)
        if trace is not None:
            trace.add(events)
        if st.num_complete == st.n:
            completion = st.slot
        elif trace is None and protocol.settled(st, events):
            st.slot = cap  # what stepping to the cap would leave
    return RunResult(
        config=config,
        completed=completion is not None,
        completion_slot=completion,
        slots=st.slot,
        arrivals=st.arrivals,
        emergence=emergence(st),
        release_slots=protocol.release_slots(st.k, st.slot),
        trace=trace,
        trace_hash=trace_digest(trace) if trace is not None else None,
    )


def trace_digest(trace: Trace) -> str:
    """SHA-256 of the canonical event serialization; the regression anchor.

    Each event contributes the line ``slot,from,to,piece,kind\n``; the
    trace hashes its text chunk by chunk as it is added, which gives the
    same digest as one update per line, and holds for a streamed trace.
    """
    return trace.sha256.hexdigest()
