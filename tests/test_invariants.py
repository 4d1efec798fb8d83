"""Engine invariants checked by replaying full event traces, plus golden
trace digests that pin the exact sampled behavior per protocol.

The audit rebuilds every user's holdings slot by slot from the trace and
cross-checks the arrivals matrix, so a violation anywhere in the upload
pipeline (budget, delivery, availability delay) surfaces as a failed replay.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gossipsim as g
from gossipsim.bitset import to_pieces
from gossipsim.engine import init_state, resolve_uploads, step_slot
from gossipsim.protocols import NO_PUSHES, PULL, PUSH, make_protocol


def config(**kw):
    base = dict(n=16, k=4, protocol=g.RANDOM_PULL, seed=7, record_trace=True)
    base.update(kw)
    return g.SimulationConfig(**base)


def audit_trace(result):
    """Replay the trace against the arrivals matrix.

    Checks, for every slot: senders hold what they send and held it before
    this slot (one-slot availability delay); under the hard constraint no
    user uploads twice; each (user, piece) pair arrives at most once and
    exactly at its recorded slot; and the final holdings equal the served
    pairs (conservation).
    """
    cfg = result.config
    n, k = cfg.n, cfg.k
    arrivals = result.arrivals
    have = [
        {p for p in range(1, k + 1) if arrivals[u, p - 1] == 0} for u in range(n)
    ]
    by_slot: dict = {}
    for e in result.trace:
        by_slot.setdefault(e.slot, []).append(e)
    assert all(slot >= 1 for slot in by_slot)
    seen = set()
    for slot in sorted(by_slot):
        events = by_slot[slot]
        if cfg.constraint == g.HARD:
            uploaders = [e.frm for e in events]
            assert len(uploaders) == len(set(uploaders)), f"slot {slot}: budget"
        for e in events:
            assert 0 <= e.frm < n and 0 <= e.to < n and e.frm != e.to
            assert 1 <= e.piece <= k
            assert e.piece in have[e.frm], f"slot {slot}: sent unheld piece"
        for e in events:
            if e.piece not in have[e.to]:
                have[e.to].add(e.piece)
                assert (e.to, e.piece) not in seen
                seen.add((e.to, e.piece))
                assert arrivals[e.to, e.piece - 1] == slot
    for u in range(n):
        assert have[u] == {p for p in range(1, k + 1) if arrivals[u, p - 1] >= 0}


def audit_occupancy_doubling(result):
    """Hard constraint: one upload per holder per slot means a piece's
    holder count can at most double each slot."""
    for piece in range(1, result.config.k + 1):
        counts = g.occupancy(result, piece).counts
        assert counts[0] >= 1
        assert all(b <= 2 * a for a, b in zip(counts, counts[1:]))


AUDIT_CONFIGS = [
    config(),
    config(protocol=g.SEQUENTIAL_PULL),
    config(protocol=g.RANDOM_PUSH),
    config(protocol=g.INTERLEAVE),
    config(protocol=g.PRIORITY_PUSH, spacing=2, max_slots=40),
    config(n=12, k=12, protocol=g.ADVOCATE, constraint=g.SOFT, initial_state=g.ONE_UNIQUE),
    config(
        protocol=g.SEQUENTIAL_PULL,
        contact_model=g.FIXED_LISTS,
        contact_list_size=3,
    ),
    config(protocol=g.RANDOM_PULL, constraint=g.SOFT),
    config(n=10, k=3, protocol=g.RANDOM_PULL, initial_state=g.ETA_SEEDED, eta=0.4),
]


def test_trace_audit_across_protocols():
    for cfg in AUDIT_CONFIGS:
        audit_trace(g.run(cfg))


def test_occupancy_doubles_at_most_under_hard_budget():
    for cfg in AUDIT_CONFIGS:
        if cfg.constraint == g.HARD:
            audit_occupancy_doubling(g.run(cfg))


def test_sequential_pull_fills_prefixes():
    # single source, ordered pulls: every user's holdings are always a
    # prefix of the piece sequence, so arrival slots rise with piece index
    res = g.run(config(protocol=g.SEQUENTIAL_PULL, n=20, k=6))
    assert res.completed
    arr = res.arrivals
    for u in range(20):
        slots = list(arr[u])
        if u == 0:
            assert slots == [0] * 6
            continue
        assert all(b > a for a, b in zip(slots, slots[1:]))


def test_interleave_separates_channels():
    res = g.run(config(protocol=g.INTERLEAVE, n=24, k=6))
    assert res.completed
    for e in res.trace:
        if e.kind == PUSH:
            assert e.slot % 2 == 1, "push on an even slot"
        else:
            assert e.kind == PULL and e.slot % 2 == 0, "pull on an odd slot"


def test_advocate_needs_a_slot_per_user():
    res = g.run(config(n=12, k=12, protocol=g.ADVOCATE, constraint=g.SOFT, initial_state=g.ONE_UNIQUE))
    assert res.completed
    assert res.completion_slot >= 12 - 1


@pytest.mark.parametrize(
    "overrides",
    [
        dict(protocol=g.RANDOM_PULL),
        dict(protocol=g.SEQUENTIAL_PULL),
        dict(protocol=g.RANDOM_PUSH),
        dict(protocol=g.PRIORITY_PUSH, spacing=2),
        dict(protocol=g.INTERLEAVE),
        dict(protocol=g.ADVOCATE, initial_state=g.ONE_UNIQUE),
    ],
    ids=lambda o: o["protocol"],
)
def test_holdings_match_arrivals_after_every_slot(overrides):
    # a delivery sets the arrival cell and merges the piece at once, so
    # between slots the arrivals matrix and the holdings say the same
    contacts = [dict(), dict(contact_model=g.FIXED_LISTS, contact_list_size=3)]
    for contact in contacts:
        for constraint in (g.HARD, g.SOFT):
            cfg = config(n=12, k=12, constraint=constraint, max_slots=300, **contact, **overrides)
            state = init_state(cfg)
            protocol = make_protocol(cfg)
            delivered = 0
            while state.num_complete < state.n and state.slot < 300:
                delivered += len(step_slot(state, protocol))
                held = [[p >> i & 1 for i in range(12)] for p in state.pieces]
                assert ((state.arrivals >= 0) == np.array(held, dtype=bool)).all(), cfg
                assert state.num_complete == sum(p == state.mask for p in state.pieces)
                assert (state.arrivals <= state.slot).all()
            assert delivered > 0


@settings(max_examples=25, deadline=None)
@given(
    protocol=st.sampled_from([g.RANDOM_PULL, g.SEQUENTIAL_PULL, g.RANDOM_PUSH, g.INTERLEAVE]),
    n=st.integers(min_value=4, max_value=20),
    k=st.integers(min_value=1, max_value=5),
    soft=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_trace_audit_property(protocol, n, k, soft, seed):
    cfg = g.SimulationConfig(
        n=n,
        k=k,
        protocol=protocol,
        constraint=g.SOFT if soft else g.HARD,
        seed=seed,
        record_trace=True,
    )
    res = g.run(cfg)
    assert res.completed
    audit_trace(res)
    if not soft:
        audit_occupancy_doubling(res)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_upload_arbitration_property(data):
    # requests as pull rules make them: each asks a target that holds the
    # piece, in a slot without pushes
    n = data.draw(st.integers(min_value=3, max_value=10), label="n")
    k = 3
    seed = data.draw(st.integers(min_value=0, max_value=2**16), label="seed")
    state = init_state(
        g.SimulationConfig(
            n=n,
            k=k,
            protocol=g.RANDOM_PULL,
            initial_state=g.ETA_SEEDED,
            eta=0.7,
            seed=seed,
        )
    )
    users = list(range(n))
    pairs = data.draw(
        st.lists(st.tuples(st.sampled_from(users), st.sampled_from(users)), max_size=3 * n),
        label="pairs",
    )
    pulls = [
        (r, t, data.draw(st.sampled_from(to_pieces(state.pieces[t])), label="piece"))
        for r, t in pairs
        if r != t and state.pieces[t]
    ]
    hard = data.draw(st.booleans(), label="hard")
    state.constraint = g.HARD if hard else g.SOFT
    events = resolve_uploads(1, NO_PUSHES, pulls, state)
    grants = [(e.frm, e.to, e.piece) for e in events]
    assert all(e.kind == PULL for e in events)
    # every grant answers a request, listed by target
    assert all((r, t, p) in pulls for t, r, p in grants)
    assert [t for t, _r, _p in grants] == sorted(t for t, _r, _p in grants)
    targets = {t for _r, t, _p in pulls}
    if hard:
        # each asked target serves exactly one of its requests
        assert [t for t, _r, _p in grants] == sorted(targets)
    else:
        # soft: every request is served, in request order within a target
        assert grants == [(t, r, p) for r, t, p in sorted(pulls, key=lambda q: q[1])]


# Frozen digests: any change to the sampling order, tie-breaking, or event
# schema shows up here before it shows up in statistics.  All runs use
# seed 7 with full traces.
GOLDEN = {
    "random-pull": (
        config(),
        "d3939ed3dc22572d9204c09d7059b5508e096b0829dbf1b1add267596f7bcd70",
        21,
        60,
    ),
    "sequential-pull": (
        config(protocol=g.SEQUENTIAL_PULL),
        "d3d21668483fac640d5be9d95adfe3c5e5171a0395d8082359ca61a85a2f9fd4",
        26,
        60,
    ),
    "random-push": (
        config(protocol=g.RANDOM_PUSH),
        "eff977b4401b398e732e15b1077e36a73c642bb8bd9323b7d1b5f3c0325ad098",
        37,
        535,
    ),
    "priority-push": (
        config(protocol=g.PRIORITY_PUSH, spacing=2, max_slots=40),
        "e3660a33e49262b7406caa129a96778193a3a71dc180645889775133fde399bd",
        None,
        576,
    ),
    "interleave": (
        config(protocol=g.INTERLEAVE),
        "0dae584067f9724200aaf1585899e89de5f9745744652c752397fea9bfc5f120",
        16,
        100,
    ),
    "advocate": (
        config(n=12, k=12, protocol=g.ADVOCATE, constraint=g.SOFT, initial_state=g.ONE_UNIQUE),
        "1890ab4fa3ac89726f1061d1b44aff92bc053612532a06a0883778163582f8ab",
        12,
        132,
    ),
    "fixed-lists": (
        config(protocol=g.SEQUENTIAL_PULL, contact_model=g.FIXED_LISTS, contact_list_size=3),
        "ae6b3f74e36c0c7322b185444c35dfbeeb7b3d7c3463f4738dea5a4dc475387f",
        22,
        60,
    ),
}


def test_golden_traces():
    for name, (cfg, digest, completion, events) in GOLDEN.items():
        res = g.run(cfg)
        assert res.trace_hash == digest, f"{name}: digest changed"
        assert res.completion_slot == completion, f"{name}: completion changed"
        assert len(res.trace) == events, f"{name}: event count changed"

# Frozen digests of larger runs, captured before the engine's slot loop was
# rewritten.  The configs above have k <= 12; these reach what they cannot:
# masks wider than 64 bits (the sparse branch of `random_piece`), heavy
# hard-constraint arbitration, the soft constraint with k > 64, and the
# source's network-wide pushes under fixed contact lists.
LARGER_K = {
    "random-pull, k = 256": (
        config(n=64, k=256),
        "aa8f531714f2064d60f611851de860f46bed7a4b098c9470f3708d4f9b18fdb7",
        1510,
        16128,
    ),
    "advocate, n = k = 150": (
        config(n=150, k=150, protocol=g.ADVOCATE, constraint=g.SOFT, initial_state=g.ONE_UNIQUE),
        "57ed84e649c97433512222e46e46ebed8dd8c25b0ebc891fef75b65aa493d250",
        149,
        22350,
    ),
    "random-push, k = 200": (
        config(n=24, k=200, protocol=g.RANDOM_PUSH),
        "70fd4c52a6012b8f9860b63e413f4fd5754de9d1872201a3d7e4238a5a0802d3",
        3194,
        76553,
    ),
    "interleave, fixed lists": (
        config(n=40, k=80, protocol=g.INTERLEAVE, contact_model=g.FIXED_LISTS, contact_list_size=4),
        "1ec9672f191b946900d1ce9f0e1b4b2c2078556a94098a6c2f9ec0484b04af37",
        222,
        5814,
    ),
    "priority-push, fixed lists": (
        config(
            n=40,
            k=120,
            protocol=g.PRIORITY_PUSH,
            contact_model=g.FIXED_LISTS,
            contact_list_size=3,
            max_slots=300,
        ),
        "4a8b3ce817bdef9a7f995a952d29660efcd6006b32ac3e9a24fce8e694623642",
        None,
        11779,
    ),
    "random-pull, soft, eta-seeded": (
        config(n=48, k=100, constraint=g.SOFT, initial_state=g.ETA_SEEDED, eta=0.1),
        "5dc96f0a9e8c62d0edabea170529c164576022a88ca879d0bc0d2fd26e7fbc54",
        244,
        4300,
    ),
}


def test_larger_k_golden_traces():
    for name, (cfg, digest, completion, events) in LARGER_K.items():
        res = g.run(cfg)
        assert res.trace_hash == digest, f"{name}: digest changed"
        assert res.completion_slot == completion, f"{name}: completion changed"
        assert len(res.trace) == events, f"{name}: event count changed"
