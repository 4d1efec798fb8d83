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
from gossipsim.bitset import random_piece
from gossipsim.engine import SlotEvents, SystemState, init_state, step_slot
from gossipsim.protocols import (
    _CHUNK,
    NO_PUSHES,
    DrawAndPick,
    Interleave,
    PriorityPush,
    SequentialPull,
    draw_contacts,
    make_protocol,
    uniforms,
)
from pieces import from_pieces

random_pull = DrawAndPick(g.RANDOM_PULL)
sequential_pull = SequentialPull()
random_push = DrawAndPick(g.RANDOM_PUSH)
advocate = DrawAndPick(g.ADVOCATE)


def state(holdings, k, targets, seed=0, **extra):
    """Users hold `holdings` (piece lists) of k pieces; user u always
    contacts ``targets[u]``; user 0 is the source."""
    n = len(holdings)
    return SystemState(
        n=n,
        k=k,
        mask=(1 << k) - 1,
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


class RecordContacts(SequentialPull):
    """Idles every user and records each ``(user, contact)`` that the
    batch draw gives the per-user rule ``act``."""

    def __init__(self):
        self.seen = []

    def act(self, st, user, target, slot):
        self.seen.append((user, target))
        return 0


# the contact draw of the draw-and-pick loop, where each user's contact
# draw is followed by its piece draws, and the batch draw of a slot that
# draws no piece
CONTACT_PATHS = pytest.mark.parametrize("drawing", [True, False], ids=["drawing", "batch"])


def contact_draws(st, slots, seed, drawing):
    st.rng = Random(seed)
    if drawing:
        # every user holds pieces 1 and 2: random push draws each user's
        # contact, then one of the two pieces, and pushes it to the contact
        st.k, st.mask, st.pieces = 2, 0b11, [0b11] * st.n
        seen = []
        for slot in range(1, slots + 1):
            pushes, pulls = uploads(random_push(st, slot))
            assert pulls == [] and all(p in (1, 2) for _u, _t, p in pushes)
            seen += [(u, t) for u, t, _p in pushes]
        return seen
    record = RecordContacts()
    for slot in range(1, slots + 1):
        assert uploads(record(st, slot)) == ([], [])
    return record.seen


@CONTACT_PATHS
def test_contact_draw_two_users_is_forced(drawing):
    st = init_state(g.SimulationConfig(n=2, k=1, protocol=g.RANDOM_PULL, seed=0))
    assert contact_draws(st, 20, 0, drawing) == [(0, 1), (1, 0)] * 20


@CONTACT_PATHS
def test_contact_draw_uniform_over_others(drawing):
    st = init_state(g.SimulationConfig(n=100, k=1, protocol=g.RANDOM_PULL, seed=0))
    seen = contact_draws(st, 2000, 42, drawing)
    assert [u for u, _t in seen] == list(range(100)) * 2000
    pairs = Counter(seen)
    # every user draws every other user and never itself
    assert set(pairs) == {(u, t) for u in range(100) for t in range(100) if t != u}
    _, p = stats.chisquare(list(pairs.values()))
    assert p > 0.01
    _, p = stats.chisquare([pairs[7, t] for t in range(100) if t != 7])
    assert p > 0.01


@CONTACT_PATHS
def test_contact_draw_fixed_lists_uniform_over_list(drawing):
    cfg = g.SimulationConfig(
        n=10, k=1, protocol=g.RANDOM_PULL, seed=0, contact_model=g.FIXED_LISTS, contact_list_size=3
    )
    st = init_state(cfg)
    st.contact_lists[0] = (2, 5, 9)
    seen = contact_draws(st, 10_000, 1, drawing)
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


@pytest.mark.parametrize(
    "n, chunk", [(1024, None), (75, 1000), (3, 7)], ids=["one-chunk", "chunked", "tiny"]
)
def test_a_block_of_draws_equals_its_slots_drawn_one_by_one(monkeypatch, n, chunk):
    # engine.run's block of B slots: at B n == _CHUNK it is one getrandbits
    # call, and with _CHUNK below B n its chunks give the same stream
    if chunk is not None:
        monkeypatch.setattr("gossipsim.protocols._CHUNK", chunk)
    b = 64
    assert (b * n == _CHUNK) if chunk is None else (b * n > chunk)
    for seed in range(3):
        blocked, single = Random(seed), Random(seed)
        rows = uniforms(blocked, b * n).reshape(b, n)
        assert rows.tolist() == [uniforms(single, n).tolist() for _ in range(b)]
        assert blocked.getstate() == single.getstate()


def reference_contact(st, user, source_all=False):
    """`user`'s contact from one ``rng.random()`` draw: ``int(x *
    len(pool))``, kept below ``len(pool)``, indexes the user's pool, which
    is its fixed list, or else every other user; with `source_all` the
    source's pool is every other user."""
    if st.contact_lists is None or source_all and user == st.source:
        pool = [t for t in range(st.n) if t != user]
    else:
        pool = st.contact_lists[user]
    return pool[min(int(st.rng.random() * len(pool)), len(pool) - 1)]


def reference_contacts(st, source_all):
    """Each user's contact, drawn in user order."""
    return [reference_contact(st, u, source_all) for u in range(st.n)]


def reference_slot(protocol, st, slot):
    """The slot of random pull, random push, advocate or priority push as
    their per-user rules made it: the uploads as :func:`uploads` lists
    them, and the users in the order they drew a contact.

    Random pull, random push and advocate draw user by user: the contact,
    then :func:`~gossipsim.bitset.random_piece` on the rule's set, if it
    is not empty; advocate first takes the contact's initial piece without
    a draw.  Priority push draws every contact first, its source's over
    the whole network, and each other user pushes its highest piece."""
    if type(protocol) is PriorityPush:
        contacts = reference_contacts(st, True)
        picks = [have.bit_length() for have in st.pieces]
        picks[st.source] = protocol.source_piece(slot, st.k)
        return ([(u, t, p) for u, (t, p) in enumerate(zip(contacts, picks)) if p], []), list(range(st.n))
    rule, picked, drew = protocol.rule, [], []
    for u, have in enumerate(st.pieces):
        t = reference_contact(st, u)
        drew.append(u)
        if rule == g.ADVOCATE and not have >> t & 1:
            picked.append((u, t, t + 1))
            continue
        bits = {g.RANDOM_PULL: st.mask ^ have, g.RANDOM_PUSH: have, g.ADVOCATE: st.pieces[t] & ~have}[rule]
        p = bits and random_piece(bits, st.rng)
        if p and (rule != g.RANDOM_PULL or st.pieces[t] >> p - 1 & 1):
            picked.append((u, t, p))
    return ((picked, []) if rule == g.RANDOM_PUSH else ([], picked)), drew


def checked_against_the_reference(protocol, drew=None):
    """`protocol`'s slot, checked against :func:`reference_slot` on the
    same PRNG stream: the same uploads, and the same state left behind.
    Appends ``(slot, user)`` to `drew` for each contact the reference drew."""

    def slot_call(st, slot):
        start = st.rng.getstate()
        expected, users = reference_slot(protocol, st, slot)
        after = st.rng.getstate()
        st.rng.setstate(start)
        actions = protocol(st, slot)
        assert uploads(actions) == expected
        assert st.rng.getstate() == after
        if drew is not None:
            drew.extend((slot, u) for u in users)
        return actions

    return slot_call


def mask_of(shape, k, rnd):
    """A k-piece mask of the given shape: empty, one piece, dense (about
    three quarters of the pieces), or sparse (about one in eight)."""
    if shape == "empty":
        return 0
    if shape == "one":
        return 1 << rnd.randrange(k)
    if shape == "dense":
        return (1 << k) - 1 & ~(rnd.getrandbits(k) & rnd.getrandbits(k))
    return rnd.getrandbits(k) & rnd.getrandbits(k) & rnd.getrandbits(k)


@settings(max_examples=200, deadline=None)
@given(
    data=hs.data(),
    n=hs.integers(2, 24),
    wider=hs.integers(0, 300),
    seed=hs.integers(0, 2**64 - 1),
    fixed=hs.booleans(),
    m=hs.integers(1, 23),
)
def test_draw_and_pick_equals_the_reference_draws(data, n, wider, seed, fixed, m):
    # random pull, random push and advocate select inline as random_piece
    # does: the same picks and the same PRNG state, on masks that are
    # empty, one bit, dense or sparse, and up to 324 bits wide, so that
    # the sparse select halves; k >= n keeps advocate's initial pieces
    k = n + wider
    rnd = Random(seed)
    shapes = data.draw(hs.lists(hs.sampled_from(["empty", "one", "dense", "sparse"]), min_size=n, max_size=n))
    st = state([[]] * n, k, [0] * n, seed=seed)
    st.pieces = [mask_of(shape, k, rnd) for shape in shapes]
    if fixed:
        st.contact_lists = [tuple(rnd.sample([t for t in range(n) if t != u], min(m, n - 1))) for u in range(n)]
    else:
        st.contact_lists = None
    for protocol in (random_pull, random_push, advocate):
        checked_against_the_reference(protocol)(st, 1)


def sorted_list_config(rule, n, k, seed, hard, m, eta, max_slots):
    """A random-pull or random-push run: hard or soft, on uniform contacts
    (m None) or fixed lists of m, from one source (eta None) or eta-seeded."""
    extra = {} if m is None else dict(contact_model=g.FIXED_LISTS, contact_list_size=min(m, n - 1))
    if eta is not None:
        extra.update(initial_state=g.ETA_SEEDED, eta=eta)
    constraint = g.HARD if hard else g.SOFT
    return g.SimulationConfig(n=n, k=k, protocol=rule, constraint=constraint, seed=seed, max_slots=max_slots, **extra)


SORTED_LIST_RUNS = dict(
    rule=hs.sampled_from([g.RANDOM_PULL, g.RANDOM_PUSH]),
    n=hs.integers(2, 10),
    k=hs.integers(1, 300),
    seed=hs.integers(0, 2**32),
    hard=hs.booleans(),
    m=hs.none() | hs.integers(1, 9),
    eta=hs.none() | hs.sampled_from([0.1, 0.3, 0.6]),
)


@settings(max_examples=80, deadline=None)
@given(**SORTED_LIST_RUNS)
def test_sorted_piece_lists_equal_the_reference_over_whole_runs(rule, n, k, seed, hard, m, eta):
    # random pull and random push take their sparse pick from each user's
    # sorted piece list, kept across the slots of a run: every slot makes
    # the reference's uploads and leaves its PRNG state, with k up to 300
    # so that the reference's sparse select halves
    cfg = sorted_list_config(rule, n, k, seed, hard, m, eta, max_slots=150)
    st = init_state(cfg)
    slot_call = checked_against_the_reference(make_protocol(cfg))
    while st.num_complete < n and st.slot < cfg.max_slots:
        step_slot(st, slot_call)


@settings(max_examples=40, deadline=None)
@given(first=hs.fixed_dictionaries(SORTED_LIST_RUNS), second=hs.fixed_dictionaries(SORTED_LIST_RUNS))
def test_one_instance_stepped_alternately_on_two_states(first, second):
    # the lists belong to the state they were built for: one instance,
    # stepped on two runs in turn, agrees with the reference on both
    second["rule"] = first["rule"]
    states = [init_state(sorted_list_config(**run, max_slots=None)) for run in (first, second)]
    slot_call = checked_against_the_reference(DrawAndPick(first["rule"]))
    for _ in range(60):
        for st in states:
            if st.num_complete < st.n:
                step_slot(st, slot_call)


@settings(max_examples=100, deadline=None)
@given(data=hs.data(), n=hs.integers(2, 12), k=hs.integers(20, 300), seed=hs.integers(0, 2**64 - 1))
def test_sorted_piece_lists_follow_holdings_that_lose_and_gain_pieces(data, n, k, seed):
    # between calls each user may lose a held piece and gain others: a list
    # is rebuilt after a loss and follows each gain; the module-level
    # instances also carry lists over from earlier examples' states
    rnd = Random(seed)
    shapes = data.draw(hs.lists(hs.sampled_from(["dense", "sparse"]), min_size=n, max_size=n))
    st = state([[]] * n, k, [0] * n, seed=seed)
    st.pieces = [mask_of(shape, k, rnd) for shape in shapes]
    st.contact_lists = None
    for slot in range(1, 6):
        for protocol in (random_pull, random_push):
            checked_against_the_reference(protocol)(st, slot)
        for u, have in enumerate(st.pieces):
            if have and rnd.random() < 0.5:  # lose one held piece
                have &= ~(1 << rnd.choice([p for p in range(k) if have >> p & 1]))
            st.pieces[u] = have | 1 << rnd.randrange(k) | 1 << rnd.randrange(k)


@settings(max_examples=60, deadline=None)
@given(
    n=hs.integers(2, 30),
    k=hs.integers(1, 40),
    spacing=hs.integers(1, 3),
    seed=hs.integers(0, 2**32),
    fixed=hs.booleans(),
    m=hs.integers(1, 29),
)
def test_priority_push_columns_equal_the_highest_piece_rule(n, k, spacing, seed, fixed, m):
    # the relay memory gives each user's highest held piece,
    # pieces[u].bit_length(), in every slot of a run, and the contacts are
    # the per-user draws
    extra = dict(contact_model=g.FIXED_LISTS, contact_list_size=min(m, n - 1)) if fixed else {}
    cfg = g.SimulationConfig(n=n, k=k, protocol=g.PRIORITY_PUSH, spacing=spacing, seed=seed, max_slots=k * spacing + 30, **extra)
    st = init_state(cfg)
    slot_call = checked_against_the_reference(make_protocol(cfg))
    while st.num_complete < n and st.slot < cfg.max_slots:
        step_slot(st, slot_call)


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
    if not source_all:  # the draw-and-pick loop: random push of one piece draws only contacts
        st.rng.setstate(start)
        st.pieces = [1] * n
        pushes, _pulls = uploads(random_push(st, 1))
        assert [t for _u, t, _p in pushes] == expected and st.rng.getstate() == after
    st.rng.setstate(start)
    assert draw_contacts(st, source_all).tolist() == expected
    assert st.rng.getstate() == after


def test_sequential_pull_picks_lowest_missing():
    everything = range(1, 6)
    st = state([[1, 2, 4], [], everything, everything, [1, 2]], 5, [3, 3, 3, 0, 0])
    # owns {1, 2, 4} of 5 -> lowest missing is 3; owns nothing -> piece 1;
    # complete users idle.  User 4 lacks 3 too, but its contact, user 0,
    # does not hold 3, so user 4 idles.
    assert uploads(sequential_pull(st, 1)) == ([], [(0, 3, 3), (1, 3, 1)])


@pytest.mark.parametrize("rule", [random_pull, sequential_pull], ids=["random-pull", "sequential-pull"])
def test_pull_rules_idle_when_the_contact_lacks_the_piece(rule):
    # user 1 lacks {1, 3, 5}; user 0 holds none of them, user 2 all
    holdings = [[2, 4], [2, 4], range(1, 6)]
    lacking, holding = state(holdings, 5, [1, 0, 0]), state(holdings, 5, [1, 2, 0])
    for seed in range(20):
        lacking.rng, holding.rng = Random(seed), Random(seed)
        assert [r for r in uploads(rule(lacking, 1))[1] if r[0] == 1] == []
        [(_u, target, piece)] = [r for r in uploads(rule(holding, 1))[1] if r[0] == 1]
        assert target == 2 and piece in (1, 3, 5)
        # the piece is drawn whatever the contact holds: same PRNG stream
        assert lacking.rng.getstate() == holding.rng.getstate()


@settings(max_examples=200, deadline=None)
@given(data=hs.data(), n=hs.integers(2, 12), seed=hs.integers(0, 2**32))
def test_pull_rules_request_only_pieces_the_contact_holds(data, n, seed):
    # a state of the one-unique start that advocate runs from: user u
    # still holds its initial piece u + 1, and any others
    pieces = [data.draw(hs.integers(0, (1 << n) - 1)) | 1 << u for u in range(n)]
    st = state([[]] * n, n, [0] * n, seed=seed)
    st.pieces = pieces
    # over the shifts, every user asks every other user
    for shift in range(1, n):
        st.contact_lists = [((u + shift) % n,) for u in range(n)]
        st.contact_table = None
        for rule in (advocate, random_pull, sequential_pull):
            for user, target, p in uploads(rule(st, 1))[1]:
                assert target == (user + shift) % n
                assert pieces[target] >> p - 1 & 1 and not pieces[user] >> p - 1 & 1


@settings(max_examples=300, deadline=None)
@given(
    data=hs.data(),
    k=hs.integers(1, 3000),
    shape=hs.sampled_from(["empty", "full", "prefix", "any"]),
)
def test_lowest_missing_rule_equals_the_lowest_missing_bit(data, k, shape):
    mask = (1 << k) - 1
    if shape == "empty":
        have = 0
    elif shape == "full":
        have = mask
    elif shape == "prefix":  # pieces 1..j held, maybe a few above j + 1
        j = data.draw(hs.integers(0, k))
        above = data.draw(hs.integers(0, mask)) << (j + 1)
        have = (1 << j) - 1 | above & mask
    else:
        have = data.draw(hs.integers(0, mask))
    missing = mask ^ have
    # the rule reads the holdings only; with a contact that holds every
    # piece, it asks for the lowest missing one, and complete users idle
    st = SimpleNamespace(pieces=[have, mask])
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
    interleave = Interleave()
    interleave.relayed = array("q", relay)
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
            cfg = g.SimulationConfig(n=12, k=10, protocol=g.INTERLEAVE, seed=seed, **overrides)
            st = init_state(cfg)
            interleave = make_protocol(cfg)
            # the memory starts from the holdings: the source's entry is k
            highest = [have.bit_length() for have in st.pieces]
            while st.num_complete < st.n and st.slot < cfg.effective_max_slots():
                for e in step_slot(st, interleave):
                    if e.slot & 1:
                        assert e.kind == "push"
                        highest[e.to] = max(highest[e.to], e.piece)
            assert st.num_complete == st.n
            assert interleave.relayed.tolist() == highest


def settled_state(holdings, k, lists, slot):
    """A state at the end of `slot` whose arrivals record `holdings`, with
    the contact lists `lists` (None for uniform contacts)."""
    st = state(holdings, k, [0] * len(holdings), slot=slot)
    st.contact_lists = lists
    for u, held in enumerate(holdings):
        st.arrivals[u, [p - 1 for p in held]] = 0
    return st


def test_priority_push_settles_once_all_hold_k_and_the_source_pushes_k():
    # l = 2, k = 4: from slot (k - 1) l + 1 = 7 on the source pushes 4
    holdings = [range(1, 5), [4], [2, 4]]
    for lists in (None, [(1,), (2,), (1,)]):
        assert PriorityPush(2).settled(settled_state(holdings, 4, lists, 6), None)
        # one slot earlier the source still pushes 3, which user 1 lacks
        assert not PriorityPush(2).settled(settled_state(holdings, 4, lists, 5), None)
    # user 2 lacks k
    assert not PriorityPush(2).settled(settled_state([range(1, 5), [4], [2]], 4, None, 6), None)


def test_interleave_settles_only_when_no_holding_can_change():
    # k = 4, source 0 complete; users 2 and 3 lack piece 3, and each lists
    # only the other; every relay memory is 4, which everyone holds
    holdings = [range(1, 5), range(1, 5), [1, 2, 4], [1, 2, 4]]
    lists = [(1,), (2,), (3,), (2,)]
    quiet = SlotEvents(6, NO_PUSHES, [])

    def settled(holdings=holdings, lists=lists, slot=6, events=quiet, relay=(0, 4, 4, 4)):
        return interleave_with(relay).settled(settled_state(holdings, 4, lists, slot), events)

    assert settled()
    assert settled(slot=100, events=SlotEvents(100, NO_PUSHES, []))
    # uniform contacts: some user can always reach a holder
    assert not settled(lists=None)
    # an odd slot, or a pull slot that granted a pull
    assert not settled(slot=7, events=SlotEvents(7, NO_PUSHES, []))
    assert not settled(events=SlotEvents(6, NO_PUSHES, [(1, 2, 3)]))
    # before slot 2(k - 1) the source's next push is below k
    assert not settled(slot=4, events=SlotEvents(4, NO_PUSHES, []))
    # user 3 lacks k (all relay memories hold 2, which everyone has)
    short = holdings[:3] + [[1, 2]]
    assert settled(relay=(0, 2, 2, 2), holdings=holdings)
    assert not settled(relay=(0, 2, 2, 2), holdings=short)
    # users 2 and 3 lack the relayed piece 3
    assert not settled(relay=(0, 3, 4, 4))
    # user 3 lists user 1, which holds its lowest missing piece 3
    assert not settled(lists=[(1,), (2,), (3,), (2, 1)])


def advocate_state(holdings, targets):
    """The one-unique start advocate runs from: user u's initial piece is
    u + 1, whatever it holds now."""
    return state(holdings, len(holdings), targets)


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
    for pid in (g.RANDOM_PULL, g.RANDOM_PUSH, g.ADVOCATE):
        protocol = make_protocol(g.SimulationConfig(n=2, k=6, protocol=pid))
        assert type(protocol) is DrawAndPick and protocol.rule == pid
    for pid, kind in ((g.SEQUENTIAL_PULL, SequentialPull), (g.INTERLEAVE, Interleave)):
        assert type(make_protocol(g.SimulationConfig(n=2, k=6, protocol=pid))) is kind
    spaced = make_protocol(g.SimulationConfig(n=2, k=6, protocol=g.PRIORITY_PUSH, spacing=2))
    st = state([range(1, 7), []], 6, [1, 0])
    assert uploads(spaced(st, 3)) == ([(0, 1, 2)], [])


def test_make_protocol_refuses_an_unknown_id_naming_protocol():
    cfg = g.SimulationConfig(n=2, k=6, protocol="flooding")
    with pytest.raises(g.ConfigError, match=r"^protocol: .*'flooding'"):
        make_protocol(cfg)
    for rule in (g.SEQUENTIAL_PULL, g.PRIORITY_PUSH, g.INTERLEAVE, "flooding"):
        with pytest.raises(g.ConfigError, match=r"^rule: "):
            DrawAndPick(rule)


def run_slots(cfg, slot_call=None):
    """Step a run of `cfg` until it completes or reaches its cap, calling
    `slot_call` (the protocol's slot by default); the number of slots."""
    st = init_state(cfg)
    slot_call = slot_call or make_protocol(cfg)
    while st.num_complete < cfg.n and st.slot < cfg.effective_max_slots():
        step_slot(st, slot_call)
    assert st.slot > 0
    return st.slot


@pytest.mark.parametrize(
    "overrides",
    [dict(protocol=g.SEQUENTIAL_PULL), dict(protocol=g.INTERLEAVE)],
    ids=lambda o: o["protocol"],
)
def test_act_runs_once_per_user_and_slot(monkeypatch, overrides):
    # act is the per-user unit of work of the batch slot: one call for
    # every user in every slot, the source and complete users included
    calls = Counter()
    for cls in (SequentialPull, Interleave):
        def counted(self, st, user, target, slot, _act=cls.act):
            calls[slot, user] += 1
            return _act(self, st, user, target, slot)

        monkeypatch.setattr(cls, "act", counted)
    n = 8
    slots = run_slots(g.SimulationConfig(n=n, k=n, seed=3, **overrides))
    assert calls == Counter({(s, u): 1 for s in range(1, slots + 1) for u in range(n)})


@pytest.mark.parametrize(
    "overrides",
    [
        dict(protocol=g.RANDOM_PULL),
        dict(protocol=g.RANDOM_PUSH),
        dict(protocol=g.PRIORITY_PUSH, spacing=2, contact_model=g.FIXED_LISTS, contact_list_size=2),
        dict(protocol=g.ADVOCATE, initial_state=g.ONE_UNIQUE),
    ],
    ids=lambda o: o["protocol"],
)
def test_every_user_draws_a_contact_in_every_slot(overrides):
    # the slot leaves the PRNG as the reference does, which draws one
    # contact for every user in every slot, the source and complete users
    # included, and gives the same uploads
    n = 8
    cfg = g.SimulationConfig(n=n, k=n, seed=3, **overrides)
    drew = []
    slots = run_slots(cfg, checked_against_the_reference(make_protocol(cfg), drew))
    assert Counter(drew) == Counter({(s, u): 1 for s in range(1, slots + 1) for u in range(n)})


@pytest.mark.parametrize("fixed", [False, True], ids=["uniform", "fixed-lists"])
@pytest.mark.parametrize("protocol", g.PROTOCOLS)
def test_no_slot_both_pushes_and_pulls(protocol, fixed):
    # so the hard budget needs no rule for a user that pushes and is asked
    # for a piece in the same slot: arbitration among a target's pull
    # requests keeps it
    extra = dict(contact_model=g.FIXED_LISTS, contact_list_size=2) if fixed else {}
    if protocol == g.ADVOCATE:
        extra["initial_state"] = g.ONE_UNIQUE
    kinds = Counter()
    for seed in range(3):
        cfg = g.SimulationConfig(n=10, k=10, protocol=protocol, seed=seed, max_slots=200, **extra)
        st = init_state(cfg)
        protocol_slot = make_protocol(cfg)

        def checked(st, slot):
            pushes, pulls = protocol_slot(st, slot)
            assert not (len(pushes) and pulls), f"slot {slot} pushes and pulls"
            kinds.update(push=len(pushes), pull=len(pulls))
            return pushes, pulls

        while st.num_complete < st.n and st.slot < cfg.effective_max_slots():
            step_slot(st, checked)
    assert sum(kinds.values()) > 0  # the runs uploaded something
