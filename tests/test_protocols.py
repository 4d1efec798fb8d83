"""Protocols on hand-built states, including every documented selection
example, and the contact draw.

Each hand-built state gives every user a one-entry contact list, so the
contact draw is forced and the test fixes who asks whom.
"""

from array import array
from collections import Counter
from random import Random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs
from scipy import stats

import gossipsim as g
from gossipsim.bitset import from_pieces, full_mask
from gossipsim.engine import Engine, SystemState, init_state
from gossipsim.protocols import (
    Advocate,
    Interleave,
    PriorityPush,
    Protocol,
    RandomPull,
    RandomPush,
    SequentialPull,
    draw_contacts,
    make_protocol,
    uniforms,
)

random_pull = RandomPull()
sequential_pull = SequentialPull()
random_push = RandomPush()
advocate = Advocate()


def state(holdings, k, targets, seed=0, **extra):
    """Users hold `holdings` (piece lists) of k pieces; user u always
    contacts ``targets[u]``; user 0 is the source."""
    n = len(holdings)
    return SystemState(
        n=n,
        k=k,
        mask=full_mask(k),
        constraint=g.HARD,
        rng=Random(seed),
        pieces=[from_pieces(h) for h in holdings],
        arrivals=np.full((n, k), -1, dtype=np.int32),
        source=0,
        contact_lists=[(t,) for t in targets],
        **extra,
    )


def uploads(actions):
    """A protocol's ``(pushes, pull_requests)`` with the push rows as
    tuples."""
    pushes, pulls = actions
    assert pushes.ndim == 2 and pushes.shape[1] == 3
    return [tuple(row) for row in pushes.tolist()], pulls


def draws(protocol, st, user, times):
    """Pieces `user` picks over `times` slots of an unchanging state."""
    picked = Counter()
    for slot in range(1, times + 1):
        pushes, pulls = uploads(protocol(st, slot))
        picked.update(p for u, _t, p in pushes + pulls if u == user)
    return picked


def assert_uniform(counts, support, times):
    assert set(counts) == set(support)
    assert sum(counts.values()) == times
    assert stats.chisquare([counts[p] for p in support]).pvalue > 1e-3


class RecordContacts(Protocol):
    """Idles every user and records each ``(user, contact)`` the slot loop
    draws.  With `draws` set, ``act`` also draws once from the PRNG, so
    contacts are drawn user by user; without it they come in one batch."""

    def __init__(self, draws):
        self.draws = draws
        self.seen = []

    def act(self, st, user, target, slot):
        self.seen.append((user, target))
        if self.draws:
            st.rng.random()
        return 0


# the contact draw of a protocol whose act draws, and of one whose act does not
CONTACT_PATHS = pytest.mark.parametrize("act_draws", [True, False], ids=["drawing", "batch"])


def contact_draws(st, slots, seed, act_draws):
    st.rng = Random(seed)
    record = RecordContacts(act_draws)
    for slot in range(1, slots + 1):
        assert uploads(record(st, slot)) == ([], [])
    return record.seen


@CONTACT_PATHS
def test_contact_draw_two_users_is_forced(act_draws):
    st = init_state(g.SimulationConfig(n=2, k=1, protocol=g.RANDOM_PULL, seed=0))
    assert contact_draws(st, 20, 0, act_draws) == [(0, 1), (1, 0)] * 20


@CONTACT_PATHS
def test_contact_draw_uniform_over_others(act_draws):
    st = init_state(g.SimulationConfig(n=100, k=1, protocol=g.RANDOM_PULL, seed=0))
    seen = contact_draws(st, 2000, 42, act_draws)
    assert [u for u, _t in seen] == list(range(100)) * 2000
    pairs = Counter(seen)
    # every user draws every other user and never itself
    assert set(pairs) == {(u, t) for u in range(100) for t in range(100) if t != u}
    _, p = stats.chisquare(list(pairs.values()))
    assert p > 0.01
    _, p = stats.chisquare([pairs[7, t] for t in range(100) if t != 7])
    assert p > 0.01


@CONTACT_PATHS
def test_contact_draw_fixed_lists_uniform_over_list(act_draws):
    cfg = g.SimulationConfig(
        n=10, k=1, protocol=g.RANDOM_PULL, seed=0, contact_model=g.FIXED_LISTS, contact_list_size=3
    )
    st = init_state(cfg)
    st.contact_lists[0] = (2, 5, 9)
    seen = contact_draws(st, 10_000, 1, act_draws)
    assert all(t in st.contact_lists[u] for u, t in seen)
    draws = Counter(t for u, t in seen if u == 0)
    assert set(draws) == {2, 5, 9}
    for target in (2, 5, 9):
        assert abs(draws[target] / 10_000 - 1 / 3) < 0.03


@settings(max_examples=200, deadline=None)
@given(seed=hs.integers(0, 2**64 - 1), n=hs.integers(1, 3000))
def test_batch_uniforms_equal_sequential_draws(seed, n):
    batch, single = Random(seed), Random(seed)
    x = uniforms(batch, n)
    assert x.dtype == np.float64
    assert x.tolist() == [single.random() for _ in range(n)]
    assert batch.random() == single.random()


def test_batch_uniforms_in_chunks(monkeypatch):
    monkeypatch.setattr("gossipsim.protocols._CHUNK", 7)
    batch, single = Random(5), Random(5)
    assert uniforms(batch, 30).tolist() == [single.random() for _ in range(30)]
    assert batch.getstate() == single.getstate()


class PerUserContacts(Protocol):
    """The user-by-user contact draw, with an act that draws nothing."""

    def __init__(self):
        self.seen = []

    def act(self, st, user, target, slot):
        self.seen.append(target)
        return 0


def reference_contacts(st, source_all):
    """Each user's contact from one ``rng.random()`` draw, in user order:
    ``int(x * len(pool))``, kept below ``len(pool)``, indexes the user's
    pool, which is its fixed list, or else every other user; with
    `source_all` the source's pool is every other user."""
    seen = []
    for u in range(st.n):
        if st.contact_lists is None or source_all and u == st.source:
            pool = [t for t in range(st.n) if t != u]
        else:
            pool = st.contact_lists[u]
        seen.append(pool[min(int(st.rng.random() * len(pool)), len(pool) - 1)])
    return seen


@settings(max_examples=150, deadline=None)
@given(
    n=hs.integers(2, 300),
    seed=hs.integers(0, 2**64 - 1),
    m=hs.integers(1, 299),
    fixed=hs.booleans(),
    source_all=hs.booleans(),
    source=hs.integers(0, 299),
)
def test_batch_contacts_equal_the_per_user_draw(n, seed, m, fixed, source_all, source):
    # uniform contacts, fixed lists, and the source drawing over the whole
    # network: one batch gives the contacts and PRNG state of n single draws
    extra = dict(contact_model=g.FIXED_LISTS, contact_list_size=min(m, n - 1)) if fixed else {}
    st = init_state(g.SimulationConfig(n=n, k=1, protocol=g.RANDOM_PULL, seed=seed, **extra))
    st.source = source % n
    start = st.rng.getstate()
    expected = reference_contacts(st, source_all)
    after = st.rng.getstate()
    if not source_all:  # the per-user path of a protocol whose act draws
        st.rng.setstate(start)
        per_user = PerUserContacts()
        per_user(st, 1)
        assert per_user.seen == expected and st.rng.getstate() == after
    st.rng.setstate(start)
    assert draw_contacts(st, source_all).tolist() == expected
    assert st.rng.getstate() == after


def test_sequential_pull_picks_lowest_missing():
    everything = range(1, 6)
    st = state([[1, 2, 4], [], everything, everything, [1, 2]], 5, [3, 3, 3, 0, 0])
    # owns {1, 2, 4} of 5 -> lowest missing is 3; owns nothing -> piece 1;
    # complete users idle.  User 4 asks for 3 although its contact lacks it:
    # requests ignore the contact's holdings, and resolve_uploads drops the
    # ones it cannot serve.
    assert uploads(sequential_pull(st, 1)) == ([], [(0, 3, 3), (1, 3, 1), (4, 0, 3)])


@settings(max_examples=300, deadline=None)
@given(
    data=hs.data(),
    k=hs.integers(1, 3000),
    shape=hs.sampled_from(["empty", "full", "prefix", "any"]),
)
def test_lowest_missing_rule_equals_the_lowest_missing_bit(data, k, shape):
    mask = full_mask(k)
    if shape == "empty":
        have = 0
    elif shape == "full":
        have = mask
    elif shape == "prefix":  # pieces 1..j held, maybe a few above j + 1
        j = data.draw(hs.integers(0, k))
        above = data.draw(hs.integers(0, mask)) << (j + 1)
        have = full_mask(j) | above & mask
    else:
        have = data.draw(hs.integers(0, mask))
    missing = mask ^ have
    # the rule reads the holdings and k only; complete users idle
    st = SimpleNamespace(pieces=[have], k=k)
    assert sequential_pull.act(st, 0, 1, 1) == (missing & -missing).bit_length()


def test_random_pull_uniform_over_missing():
    st = state([range(1, 6), [2, 4], range(1, 6)], 5, [1, 0, 0], seed=3)
    counts = draws(random_pull, st, 1, 6000)  # missing {1, 3, 5}
    assert_uniform(counts, (1, 3, 5), 6000)
    # the complete users 0 and 2 never pull
    assert all(u == 1 for u, _t, _p in uploads(random_pull(st, 1))[1])


def test_random_push_uniform_over_owned():
    st = state([range(1, 6), [1, 5], []], 5, [2, 2, 0], seed=4)
    counts = draws(random_push, st, 1, 4000)
    assert_uniform(counts, (1, 5), 4000)
    # the empty-handed user 2 never pushes
    assert all(u != 2 for u, _t, _p in uploads(random_push(st, 1))[0])


def test_priority_push_source_schedule():
    st = state([range(1, 7), []], 6, [1, 0])

    def source_piece(slot, spacing):
        pushes, pulls = uploads(PriorityPush(spacing)(st, slot))
        assert pulls == []
        return [p for u, _t, p in pushes if u == 0]

    # spacing 2: the source dwells two slots per piece -> slot 3 is piece 2
    assert source_piece(3, 2) == [2]
    # schedule start and cap
    assert source_piece(1, 2) == [1]
    assert source_piece(12, 2) == [6]
    assert source_piece(999, 2) == [6]
    # spacing 1: piece t until the cap
    assert source_piece(4, 1) == [4]


def test_priority_push_non_source_pushes_highest():
    st = state([range(1, 7), [1, 3], []], 6, [1, 0, 0])
    priority_push = PriorityPush(1)
    pushes, _pulls = uploads(priority_push(st, 9))
    assert [(u, p) for u, _t, p in pushes] == [(0, 6), (1, 3)]
    # the source's scheduled pushes ignore its contact list and reach the
    # whole network
    targets = {t for slot in range(1, 200) for u, t, _p in uploads(priority_push(st, slot))[0] if u == 0}
    assert targets == {1, 2}


def interleave_with(relay):
    """An interleave protocol whose relay memory is `relay`: `relay[u]` is
    the highest piece user u got on the push channel, 0 for none yet."""
    interleave = Interleave(len(relay))
    interleave.relayed[:] = array("q", relay)
    return interleave


def test_interleave_source_pushes_schedule_on_odd_slots():
    # odd slot t releases piece (t + 1) / 2: slot 9 gives piece 5
    st = state([range(1, 10), []], 9, [1, 0])
    interleave = interleave_with([0, 0])
    assert uploads(interleave(st, 9)) == ([(0, 1, 5)], [])
    # the push is relayed from the next odd slot on
    assert interleave.relayed.tolist() == [0, 5]
    # the schedule is capped at k: any odd slot >= 2k - 1 gives k
    for slot in (17, 19, 101):
        assert uploads(interleave_with([0, 0])(st, slot)) == ([(0, 1, 9)], [])


def test_interleave_relay_uses_odd_channel_memory_only():
    # user 1 saw piece 6 on the odd channel but piece 9 via even pulls:
    # it relays 6, never 9; user 2 has nothing from the odd channel yet
    # and idles on odd slots
    owned = [6, 9]
    st = state([range(1, 10), owned, owned], 9, [1, 0, 0])
    interleave = interleave_with([0, 6, 0])
    pushes, pulls = uploads(interleave(st, 5))
    assert pulls == []
    assert [(u, p) for u, _t, p in pushes] == [(0, 3), (1, 6)]
    # the memory keeps each user's highest push-channel piece: user 0 got
    # 6 from user 1, and the source's 3 went to user 1, which keeps its
    # 6, or to user 2
    source_target = pushes[0][1]
    assert interleave.relayed.tolist() == [6, 6, 3 if source_target == 2 else 0]


def test_interleave_even_slots_pull_lowest_missing():
    full = range(1, 7)
    st = state([full, [1, 2, 5], full], 6, [2, 0, 0])
    interleave = interleave_with([0, 5, 6])
    # user 1 pulls 3; the complete user 2 and the complete source idle on
    # the pull channel
    assert uploads(interleave(st, 8)) == ([], [(1, 0, 3)])
    assert interleave.relayed.tolist() == [0, 5, 6]  # even slots leave the memory alone


def test_interleave_relay_memory_is_the_highest_odd_slot_push():
    for overrides in (dict(), dict(contact_model=g.FIXED_LISTS, contact_list_size=2)):
        for seed in range(3):
            cfg = g.SimulationConfig(
                n=12, k=10, protocol=g.INTERLEAVE, seed=seed, record_trace=True, **overrides
            )
            engine = Engine(cfg)
            result = engine.run()
            highest = [0] * cfg.n
            for e in result.trace:
                if e.slot & 1:
                    assert e.kind == "push"
                    highest[e.to] = max(highest[e.to], e.piece)
            assert engine.protocol.relayed.tolist() == highest


def advocate_state(holdings, targets):
    n = len(holdings)
    return state(holdings, n, targets, initial_piece=list(range(1, n + 1)))


def test_advocate_prefers_target_initial_piece():
    # user 0 holds {1, 2}; its contact, user 2 (initial piece 3), holds
    # {3, 4, 8}
    st = advocate_state([[1, 2], [2], [3, 4, 8], [4], [5], [6], [7], [8]], [2] + [0] * 7)
    _pushes, pulls = uploads(advocate(st, 1))
    assert pulls[0] == (0, 2, 3)


def test_advocate_falls_back_to_uniform_gain():
    # user 0 already holds its contact's initial piece 3; the gain set is
    # {4, 8}
    holdings = [[1, 2, 3], [2], [1, 3, 4, 8], [4], [5], [6], [7], [8]]
    st = advocate_state(holdings, [2] + [1] * 7)
    st.rng = Random(5)
    counts = draws(advocate, st, 0, 4000)
    assert_uniform(counts, (4, 8), 4000)


def test_advocate_idles_when_target_offers_nothing():
    # user 1 holds {1, 2, 3}; its contact, user 0 (initial piece 1), holds
    # {1, 3}
    st = advocate_state([[1, 3], [1, 2, 3], [3]], [1, 0, 0])
    _pushes, pulls = uploads(advocate(st, 1))
    assert all(u != 1 for u, _t, _p in pulls)


@pytest.mark.parametrize("slot, released", [(2, 2), (4, 3), (100, 4)], ids=["2", "4", "100"])
def test_interleave_slot_parity_drives_channel(slot, released):
    st = state([range(1, 5), [2]], 4, [1, 0])
    interleave = interleave_with([0, 2])
    assert uploads(interleave(st, slot)) == ([], [(1, 0, 1)])
    assert uploads(interleave(st, slot + 1)) == ([(0, 1, released), (1, 0, 2)], [])


def test_make_protocol_returns_the_named_protocol():
    assert type(make_protocol(g.SimulationConfig(n=2, k=6, protocol=g.RANDOM_PULL))) is RandomPull
    spaced = make_protocol(g.SimulationConfig(n=2, k=6, protocol=g.PRIORITY_PUSH, spacing=2))
    st = state([range(1, 7), []], 6, [1, 0])
    assert uploads(spaced(st, 3)) == ([(0, 1, 2)], [])


@pytest.mark.parametrize(
    "overrides",
    [
        dict(protocol=g.RANDOM_PULL),
        dict(protocol=g.SEQUENTIAL_PULL),
        dict(protocol=g.RANDOM_PUSH),
        dict(protocol=g.PRIORITY_PUSH, spacing=2, contact_model=g.FIXED_LISTS, contact_list_size=2),
        dict(protocol=g.INTERLEAVE),
        dict(protocol=g.ADVOCATE, initial_state=g.ONE_UNIQUE),
    ],
    ids=lambda o: o["protocol"],
)
def test_act_runs_once_per_user_and_slot(monkeypatch, overrides):
    # act is the per-user unit of work: one call for every user in every
    # slot, the source and complete users included
    calls = Counter()
    for cls in Protocol.__subclasses__():
        def counted(self, st, user, target, slot, _act=cls.act):
            calls[slot, user] += 1
            return _act(self, st, user, target, slot)

        monkeypatch.setattr(cls, "act", counted)
    n = 8
    result = Engine(g.SimulationConfig(n=n, k=n, seed=3, **overrides)).run()
    assert result.slots > 0
    assert calls == Counter({(s, u): 1 for s in range(1, result.slots + 1) for u in range(n)})
