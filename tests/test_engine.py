"""Engine mechanics: seeding, contact draws, arbitration, the slot loop."""

import hashlib
from collections import Counter
from dataclasses import replace
from random import Random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

import gossipsim as g
from gossipsim import engine, figures
from gossipsim.engine import (
    SlotEvents,
    Trace,
    build_contact_lists,
    emergence,
    init_state,
    resolve_uploads,
    step_slot,
    trace_digest,
)
from gossipsim.protocols import NO_PUSHES, make_protocol
from gossipsim.sweep import plan
from pieces import from_pieces, to_pieces


def config(**overrides):
    data = dict(n=4, k=2, protocol=g.RANDOM_PULL, seed=0)
    data.update(overrides)
    return g.SimulationConfig(**data)


def lines(events):
    """The canonical text of `events`, a ``slot,from,to,piece,kind``
    line each: the reference ``Trace.add`` must match."""
    return "".join(["%d,%d,%d,%d,%s\n" % e for e in events])


def line_digest(events):
    """SHA-256 of `events` with one hash update per canonical line."""
    h = hashlib.sha256()
    for e in events:
        h.update(b"%d,%d,%d,%d,%s\n" % (e.slot, e.frm, e.to, e.piece, e.kind.encode()))
    return h.hexdigest()


# ---------------------------------------------------------------- init_state


def test_single_source_start():
    st = init_state(config(n=3, k=2))
    assert st.source == 0
    assert st.pieces[0] == (1 << 2) - 1
    assert st.pieces[1] == 0 and st.pieces[2] == 0
    assert list(st.arrivals[0]) == [0, 0]
    assert emergence(st) == [None, None]
    assert st.num_complete == 1


def test_one_unique_start():
    st = init_state(
        config(n=4, k=4, protocol=g.ADVOCATE, constraint=g.SOFT, initial_state=g.ONE_UNIQUE)
    )
    for u in range(4):
        assert to_pieces(st.pieces[u]) == [u + 1]
        assert st.arrivals[u, u] == 0
    assert emergence(st) == [0, 0, 0, 0]


def test_eta_seeded_start_places_exact_holder_counts():
    # ceil(0.5 * 10) = 5 holders per piece, independently placed per piece
    placements = set()
    for seed in range(100):
        st = init_state(
            config(n=10, k=3, initial_state=g.ETA_SEEDED, eta=0.5, seed=seed)
        )
        for p in range(3):
            holders = [u for u in range(10) if st.pieces[u] >> p & 1]
            assert len(holders) == 5
            assert (st.arrivals[holders, p] == 0).all()
        placements.add(tuple(st.pieces))
    assert len(placements) > 1  # placement varies with the seed
    assert emergence(st) == [0, 0, 0]


# ------------------------------------------------------------- contact lists


def test_build_contact_lists_two_users():
    lists = build_contact_lists(2, 1, Random(0))
    assert lists == [(1,), (0,)]


def test_build_contact_lists_distinct_no_self():
    lists = build_contact_lists(500, 8, Random(3))
    assert len(lists) == 500
    for u, lst in enumerate(lists):
        assert len(lst) == 8
        assert len(set(lst)) == 8
        assert u not in lst
        assert all(0 <= v < 500 for v in lst)


def test_build_contact_lists_seed_sensitive():
    assert build_contact_lists(50, 4, Random(1)) != build_contact_lists(50, 4, Random(2))


# ------------------------------------------------------------ resolve_uploads


def _arbitration_state(constraint=g.HARD, seed=0):
    st = init_state(config(n=3, k=1, protocol=g.RANDOM_PULL, constraint=constraint))
    st.pieces[2] = from_pieces([1])
    st.rng = Random(seed)
    return st


def test_hard_constraint_grants_exactly_one_pull_uniformly():
    st = _arbitration_state(seed=9)
    grants = Counter()
    for _ in range(10_000):
        events = list(resolve_uploads(1, NO_PUSHES, [(0, 2, 1), (1, 2, 1)], st))
        assert len(events) == 1
        assert events[0].frm == 2 and events[0].kind == "pull"
        grants[events[0].to] += 1
    for requester in (0, 1):
        assert abs(grants[requester] / 10_000 - 0.5) < 0.03


def test_soft_constraint_grants_every_valid_pull():
    st = _arbitration_state(g.SOFT)
    events = resolve_uploads(1, NO_PUSHES, [(0, 2, 1), (1, 2, 1)], st)
    assert len(events) == 2
    assert {(e.frm, e.to, e.piece) for e in events} == {(2, 0, 1), (2, 1, 1)}


def test_no_requests_yield_no_events():
    st = _arbitration_state()
    assert list(resolve_uploads(1, NO_PUSHES, [], st)) == []


def per_target_grants(requests, constraint, rng):
    """Reference arbitration, one target at a time in ascending order: its
    requests in request order, all granted when soft; when hard, one, the
    ``int(x * size)``-th for one draw x if two or more ask, else the one."""
    grants = []
    for t in sorted({t for _r, t, _p in requests}):
        asking = [(t, r, p) for r, to, p in requests if to == t]
        if constraint == g.HARD:
            asking = [asking[int(rng.random() * len(asking)) if len(asking) > 1 else 0]]
        grants += asking
    return grants


@settings(deadline=None)
@given(
    hs.lists(hs.tuples(hs.integers(0, 7), hs.integers(0, 4), hs.integers(1, 4)), max_size=24),
    hs.sampled_from([g.HARD, g.SOFT]),
    hs.integers(0, 2**32 - 1),
)
def test_arbitration_draws_once_per_contested_target_in_target_order(requests, constraint, seed):
    # arbitration reads only the constraint and the stream
    st = SimpleNamespace(constraint=constraint, rng=Random(seed))
    ref_rng = Random(seed)
    events = resolve_uploads(1, NO_PUSHES, list(requests), st)
    assert events.pulls == per_target_grants(requests, constraint, ref_rng)
    assert st.rng.random() == ref_rng.random()  # the same draws, no more


# -------------------------------------------------------------------- stepping


def test_step_slot_two_user_push_and_availability_delay():
    cfg = config(n=2, k=1, protocol=g.RANDOM_PUSH, seed=1)
    st = init_state(cfg)
    proto = make_protocol(cfg)
    events1 = step_slot(st, proto)
    assert [(e.slot, e.frm, e.to, e.piece, e.kind) for e in events1] == [
        (1, 0, 1, 1, "push")
    ]
    # user 1 received the piece in slot 1, so it pushes only from slot 2 on
    events2 = step_slot(st, proto)
    assert any(e.frm == 1 for e in events2)
    assert st.arrivals[1, 0] == 1


def _delivery_state(constraint):
    # the source 0 and user 1 (since slot 3) hold the only piece; user 2 lacks it
    st = init_state(config(n=3, k=1, constraint=constraint))
    st.pieces[1] = (1 << 1) - 1
    st.arrivals[1, 0] = 3
    st.num_complete = 2
    st.slot = 4
    return st


@pytest.mark.parametrize("constraint", [g.HARD, g.SOFT])
@pytest.mark.parametrize(
    "pushes, pulls",
    [([(0, 2, 1)], [(2, 1, 1)]), ([(0, 2, 1), (1, 2, 1)], [])],
    ids=["push-and-pull", "pushed-twice"],
)
def test_only_the_first_copy_of_a_piece_counts(pushes, pulls, constraint):
    st = _delivery_state(constraint)
    rows = np.array(pushes, dtype=np.int64)  # as protocols return pushes
    events = step_slot(st, lambda _st, _slot: (rows, pulls))
    assert [(e.to, e.piece) for e in events] == [(2, 1), (2, 1)]  # both uploads spent
    assert st.slot == 5
    assert st.arrivals[2, 0] == 5
    assert st.pieces == [1, 1, 1]
    assert st.num_complete == 3
    assert emergence(st) == [3]  # user 1's copy came first


def test_completed_state_is_a_fixed_point():
    cfg = config(n=2, k=1, protocol=g.RANDOM_PUSH, seed=1)
    st = init_state(cfg)
    protocol = make_protocol(cfg)
    while st.num_complete < st.n and st.slot < 100:
        step_slot(st, protocol)
    assert st.slot == g.run(cfg).completion_slot
    frozen = st.arrivals.copy()
    for _ in range(5):
        step_slot(st, protocol)
    assert (st.arrivals == frozen).all()
    assert st.num_complete == 2


def test_step_slot_determinism_and_seed_sensitivity():
    cfg = config(n=20, k=5, protocol=g.RANDOM_PUSH, seed=11, record_trace=True)
    h1 = g.run(cfg).trace_hash
    h2 = g.run(cfg).trace_hash
    assert h1 == h2
    other = config(n=20, k=5, protocol=g.RANDOM_PUSH, seed=12, record_trace=True)
    assert g.run(other).trace_hash != h1


def trace_of(batches):
    """A Trace holding `batches`, one slot's events each, in order."""
    trace = Trace()
    for events in batches:
        trace.add(events)
    return trace


def test_trace_digest_matches_one_update_per_event():
    # thousands of slot chunks, a run's real trace, and no events at all
    rng = Random(4)

    def uploads():
        return [
            (rng.randrange(500), rng.randrange(500), rng.randrange(1, 1001))
            for _ in range(rng.randrange(4))
        ]

    batches = [slot_events(s, uploads(), uploads()) for s in range(1, 5001)]
    synthetic = [e for events in batches for e in events]
    assert len(synthetic) > 10_000
    traced = g.run(config(n=20, k=5, protocol=g.RANDOM_PUSH, seed=11, record_trace=True))
    cases = ((trace_of(batches), synthetic), (traced.trace, list(traced.trace)), (Trace(), []))
    for trace, events in cases:
        assert trace_digest(trace) == line_digest(events)


def test_trace_holds_the_events_each_step_returned():
    cfg = config(n=40, k=60, protocol=g.INTERLEAVE, seed=3, record_trace=True)
    st = init_state(cfg)
    protocol = make_protocol(cfg)
    slots = []
    while st.num_complete < st.n and st.slot < cfg.effective_max_slots():
        slots.append(step_slot(st, protocol))
    res = g.run(cfg)
    events = [e for slot in slots for e in slot]
    assert res.completed and res.slots == len(slots) > 100
    assert {e.kind for e in events} == {"push", "pull"}
    traced = list(res.trace)
    assert traced == events
    assert all(type(e) is g.TransferEvent for e in traced)
    assert all(type(v) is int for e in traced[:50] for v in e[:4])
    assert len(res.trace) == len(events)
    assert line_digest(events) == trace_digest(trace_of(slots)) == res.trace_hash


def slot_events(slot, pushes=(), pulls=()):
    """A slot's events as step_slot returns them: pushes as (m, 3) rows,
    pull grants as tuples, each (from, to, piece)."""
    return SlotEvents(slot, np.array(pushes, dtype=np.int64).reshape(-1, 3), list(pulls))


@hs.composite
def slot_batches(draw):
    """One run's events, slot by slot: users up to n - 1, pieces up to k,
    pushes and pull grants, and a last slot past max(n, k) holding user
    n - 1 and piece k."""
    n = draw(hs.integers(2, 600))
    k = draw(hs.integers(1, 1200))
    slots = draw(hs.lists(hs.integers(1, 3 * max(n, k)), max_size=8, unique=True))
    upload = hs.tuples(hs.integers(0, n - 1), hs.integers(0, n - 1), hs.integers(1, k))
    batches = []
    for slot in sorted(slots):
        pushes = draw(hs.lists(upload, max_size=6))
        batches.append(slot_events(slot, pushes, draw(hs.lists(upload, max_size=6))))
    last = max(n, k) + draw(hs.integers(1, 10**7))
    batches.append(slot_events(last, [(n - 1, 0, k)], [(0, n - 1, 1)]))
    return n, k, batches


@settings(deadline=None)
@given(slot_batches())
def test_trace_text_matches_the_canonical_lines(case):
    n, k, batches = case
    trace = Trace()
    for events in batches:
        trace.add(events)
    flat = [e for events in batches for e in events]
    assert all(type(v) is int for e in flat for v in e[:4])
    assert "".join(trace.chunks) == lines(flat)
    assert trace.chunks == [lines(events) for events in batches if len(events)]
    assert len(trace) == len(flat)
    assert list(trace) == flat
    # the digit table stays below twice the largest number formatted
    assert len(trace._digits) <= 2 * max(n - 1, k) + 1


def test_slot_events_list_pushes_then_pulls():
    events = slot_events(3, [(0, 1, 2), (4, 0, 1)], [(1, 2, 2)])
    assert len(events) == 3
    assert list(events) == [
        g.TransferEvent(3, 0, 1, 2, "push"),
        g.TransferEvent(3, 4, 0, 1, "push"),
        g.TransferEvent(3, 1, 2, 2, "pull"),
    ]
    assert len(slot_events(3)) == 0 and list(slot_events(3)) == []


def test_trace_table_grows_for_a_later_slot():
    trace = Trace()
    small = slot_events(1, [(0, 1, 1)], [(1, 0, 2)])
    large = slot_events(2, [(2, 0, 999)], [(3, 499, 1000)])
    trace.add(small)
    before = len(trace._digits)
    trace.add(large)
    assert before == 3  # the numbers 0, 1 and 2
    assert 1000 < len(trace._digits) <= 2001
    trace.add(small)
    assert trace.chunks == [lines(small), lines(large), lines(small)]


def test_trace_digest_is_order_sensitive():
    first, second = (0, 1, 1), (2, 3, 1)
    forward = trace_digest(trace_of([slot_events(1, [first, second])]))
    assert forward != trace_digest(trace_of([slot_events(1, [second, first])]))
    assert forward != trace_digest(trace_of([slot_events(1, [first]), slot_events(2, [second])]))


# ------------------------------------------------------------------------ run


def test_two_user_single_piece_completes_in_one_slot():
    result = g.run(config(n=2, k=1, protocol=g.RANDOM_PUSH, seed=123))
    assert result.completed and result.completion_slot == 1


def test_single_user_population_is_rejected():
    with pytest.raises(g.ConfigError):
        g.run(config(n=1, k=1))


def test_interleave_run_within_its_completion_bound():
    result = g.run(config(n=32, k=8, protocol=g.INTERLEAVE, seed=5))
    bound = g.bound_value("thm6", n=32, k=8, eps=0.1)
    assert result.completed
    assert result.completion_slot <= bound


def test_emergence_tracks_first_non_endowed_arrival():
    result = g.run(config(n=6, k=2, protocol=g.RANDOM_PUSH, seed=2))
    for p in range(2):
        non_source = result.arrivals[1:, p]
        assert result.emergence[p] == non_source[non_source >= 0].min()


def per_cell_emergence(cfg, trace):
    """The rule emergence was once kept by, slot by slot: a piece emerges
    with its first delivered copy that is new to its receiver, or at 0 if
    the start endows anyone but a single source with it."""
    st = init_state(cfg)
    held = {(u, p) for u, p in zip(*np.nonzero(st.arrivals >= 0))}
    first = [None if st.source is not None else 0] * cfg.k
    for e in trace:
        if (e.to, e.piece - 1) not in held:
            held.add((e.to, e.piece - 1))
            if first[e.piece - 1] is None:
                first[e.piece - 1] = e.slot
    return first


def test_derived_emergence_equals_the_per_cell_rule():
    seen = set()
    for protocol in g.PROTOCOLS:
        for start in g.INITIAL_STATES:
            for constraint in (g.HARD, g.SOFT):
                extra = dict(eta=0.25) if start == g.ETA_SEEDED else {}
                cfg = config(
                    n=8, k=8, protocol=protocol, initial_state=start, constraint=constraint,
                    record_trace=True, seed=11, **extra,
                )
                try:
                    result = g.run(cfg)
                except g.ConfigError:  # a protocol that does not run from this start
                    continue
                assert result.emergence == per_cell_emergence(cfg, result.trace), cfg
                seen.add((protocol, start, constraint))
    assert {p for p, _s, _c in seen} == set(g.PROTOCOLS)
    assert {s for _p, s, _c in seen} == set(g.INITIAL_STATES)
    assert {c for _p, _s, c in seen} == {g.HARD, g.SOFT}
    # a capped run: pieces 3..8 were never released, so never emerged
    cfg = config(n=16, k=8, protocol=g.PRIORITY_PUSH, spacing=2, max_slots=4, record_trace=True)
    result = g.run(cfg)
    assert not result.completed and result.emergence[2:] == [None] * 6
    assert result.emergence == per_cell_emergence(cfg, result.trace)


def first_source_pushes(k, trace):
    """The rule release slots were once kept by, slot by slot: a piece is
    released in the first slot the source (user 0) pushes it."""
    first = [None] * k
    for e in trace:
        if e.frm == 0 and e.kind == "push" and first[e.piece - 1] is None:
            first[e.piece - 1] = e.slot
    return first


FIXED = dict(contact_model=g.FIXED_LISTS, contact_list_size=2)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(protocol=g.INTERLEAVE),
        dict(protocol=g.INTERLEAVE, **FIXED),
        dict(protocol=g.INTERLEAVE, max_slots=7),
        dict(protocol=g.PRIORITY_PUSH, spacing=1),
        dict(protocol=g.PRIORITY_PUSH, spacing=2),
        dict(protocol=g.PRIORITY_PUSH, spacing=3),
        dict(protocol=g.PRIORITY_PUSH, spacing=2, max_slots=9),
        dict(protocol=g.PRIORITY_PUSH, spacing=2, **FIXED),
    ],
    ids=lambda o: "-".join(str(v) for v in o.values()),
)
def test_derived_release_slots_equal_the_first_source_push(overrides):
    for seed in range(4):
        cfg = config(n=12, k=8, seed=seed, record_trace=True, **overrides)
        result = g.run(cfg)
        assert result.release_slots == first_source_pushes(cfg.k, result.trace), cfg
    if "max_slots" in overrides:  # a capped run leaves pieces unreleased
        assert not result.completed and result.release_slots[-1] is None


def test_release_slots_follow_the_priority_schedule():
    result = g.run(
        config(n=8, k=4, protocol=g.PRIORITY_PUSH, spacing=2, max_slots=30, seed=3)
    )
    assert result.release_slots == [1, 3, 5, 7]
    pull_result = g.run(config(n=8, k=4, seed=3))
    assert pull_result.release_slots is None


def test_incomplete_run_reports_completed_false():
    result = g.run(config(n=16, k=4, protocol=g.PRIORITY_PUSH, max_slots=8, seed=0))
    assert not result.completed
    assert result.completion_slot is None
    assert result.slots == 8


def test_runs_stepped_alternately_in_one_process_share_no_state():
    # interleave shares one pull channel object between runs, so a protocol
    # that kept state there would leak it from one run into another
    lists = dict(contact_model=g.FIXED_LISTS, contact_list_size=4)
    configs = [
        config(n=40, k=20, protocol=g.INTERLEAVE, seed=3, record_trace=True),
        config(n=40, k=20, protocol=g.INTERLEAVE, seed=4, record_trace=True, **lists),
        config(n=40, k=20, protocol=g.SEQUENTIAL_PULL, seed=5, record_trace=True),
        config(n=40, k=20, protocol=g.PRIORITY_PUSH, spacing=2, seed=6, record_trace=True),
    ]
    runs = [(cfg, init_state(cfg), make_protocol(cfg), Trace()) for cfg in configs]
    completion = {}
    while len(completion) < len(runs):
        for i, (cfg, st, protocol, trace) in enumerate(runs):
            if i in completion:
                continue
            if st.num_complete == st.n or st.slot == cfg.effective_max_slots():
                completion[i] = st.slot if st.num_complete == st.n else None
                continue
            trace.add(step_slot(st, protocol))
    for i, (cfg, st, _protocol, trace) in enumerate(runs):
        alone = g.run(cfg)
        assert trace_digest(trace) == alone.trace_hash, cfg.protocol
        assert (completion[i], st.slot) == (alone.completion_slot, alone.slots), cfg.protocol
    assert completion[0] is not None and completion[2] is not None


# ---------------------------------------------------------------- settled runs


def outcome(result):
    """The fields of a :class:`RunResult` that stepping decides."""
    return (
        result.completed,
        result.completion_slot,
        result.slots,
        result.arrivals.tolist(),
        result.emergence,
        result.release_slots,
    )


def stepped(cfg):
    """The outcome of stepping `cfg` slot by slot until it completes or
    reaches its cap, with no settled test, and the digest of every slot's
    events: what :func:`g.run` must give."""
    st = init_state(cfg)
    protocol = make_protocol(cfg)
    trace = Trace()
    completion = 0 if st.num_complete == st.n else None
    while completion is None and st.slot < cfg.effective_max_slots():
        trace.add(step_slot(st, protocol))
        if st.num_complete == st.n:
            completion = st.slot
    result = (
        completion is not None,
        completion,
        st.slot,
        st.arrivals.tolist(),
        emergence(st),
        protocol.release_slots(st.k, st.slot),
    )
    return result, trace_digest(trace)


@hs.composite
def settling_configs(draw):
    """Small runs of the protocols that can settle: priority push under
    uniform contacts or fixed lists with l from 1 to 4, and interleave on
    fixed lists of 1 to 3 contacts; hard or soft, with caps from one slot
    to the default horizon."""
    protocol = draw(hs.sampled_from([g.PRIORITY_PUSH, g.INTERLEAVE]))
    n = draw(hs.integers(2, 10))
    k = draw(hs.integers(1, 10))
    fields = dict(
        n=n,
        k=k,
        protocol=protocol,
        constraint=draw(hs.sampled_from([g.HARD, g.SOFT])),
        seed=draw(hs.integers(0, 2**32)),
    )
    if protocol == g.PRIORITY_PUSH:
        fields["spacing"] = draw(hs.integers(1, 4))
    if protocol == g.INTERLEAVE or draw(hs.booleans()):
        top = min(n - 1, 3) if protocol == g.INTERLEAVE else n - 1
        fields.update(contact_model=g.FIXED_LISTS, contact_list_size=draw(hs.integers(1, top)))
    fields["max_slots"] = draw(hs.none() | hs.integers(1, 4 * k * fields.get("spacing", 2) + 40))
    return g.SimulationConfig(**fields)


@settings(max_examples=150, deadline=None)
@given(settling_configs())
def test_a_settled_run_ends_as_stepping_to_its_cap_would(cfg):
    reference, digest = stepped(cfg)
    assert outcome(g.run(cfg)) == reference
    # a traced run steps, and records, every slot to the same end
    traced = g.run(replace(cfg, record_trace=True))
    assert outcome(traced) == reference
    assert traced.trace_hash == digest


def count_steps(monkeypatch):
    """Make `engine.run` count its `step_slot` calls in the returned list."""
    calls = []

    def counted(st, protocol):
        calls.append(st.slot)
        return step_slot(st, protocol)

    monkeypatch.setattr(engine, "step_slot", counted)
    return calls


def test_a_run_that_cannot_settle_steps_to_its_cap(monkeypatch):
    # priority push with its source still releasing: every slot is stepped
    calls = count_steps(monkeypatch)
    result = g.run(config(n=16, k=40, protocol=g.PRIORITY_PUSH, spacing=2, max_slots=70, seed=1))
    assert result.slots == len(calls) == 70


def test_the_readme_fig1_stall_settles_at_its_last_arrival(monkeypatch):
    # README, "Figures": this master seed completes 1 of the 2 m = 2 runs
    master = 98964393963311
    rows = figures.reproduce("fig1", scale=0.15, seeds=2, master_seed=master).rows
    assert [row["completed_runs"] for row in rows if row["m"] == 2] == [1]
    cell = ((("figure", "fig1"), ("m", 2)), figures._interleave_config(75, 150, 2))
    configs = [p.config for p in plan([cell], 2, master)]
    results = [g.run(cfg) for cfg in configs]
    [cfg] = [cfg for cfg, result in zip(configs, results) if not result.completed]
    calls = count_steps(monkeypatch)
    result = g.run(cfg)
    assert result.arrivals.max() == 646
    assert len(calls) <= 650
    assert cfg.effective_max_slots() == 8600
    assert outcome(result) == stepped(cfg)[0]
