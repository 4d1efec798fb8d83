"""Metrics: delay profiles, failure classification, reach, occupancy."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gossipsim as g
from gossipsim.engine import RunResult, emergence
from gossipsim.metrics import FAILURE_FRACTION


def make_result(
    arrivals,
    *,
    protocol=g.PRIORITY_PUSH,
    emergence=None,
    release_slots=None,
    slots=None,
    epsilon=0.1,
):
    arr = np.asarray(arrivals, dtype=np.int32)
    n, k = arr.shape
    cfg = g.SimulationConfig(n=n, k=k, protocol=protocol, epsilon=epsilon)
    last = int(arr.max(initial=0))
    return RunResult(
        config=cfg,
        completed=bool((arr >= 0).all()),
        completion_slot=last if (arr >= 0).all() else None,
        slots=slots if slots is not None else last,
        arrivals=arr,
        emergence=emergence if emergence is not None else [None] * k,
        release_slots=release_slots,
        trace=None,
        trace_hash=None,
    )


# ------------------------------------------------------------- delay profile


def test_delay_profile_hand_trace():
    # user 0 endowed with both pieces at slot 0; user 1 receives them at
    # slots 1 and 2.  With emergence at slot 0 the delays are 0, 0, 1, 2.
    res = make_result([[0, 0], [1, 2]])
    prof = g.delay_profile(res)
    assert prof.at(0) == pytest.approx(0.5)
    assert prof.at(1) == pytest.approx(0.75)
    assert prof.at(2) == pytest.approx(1.0)
    assert prof.limit == pytest.approx(1.0)
    assert prof.max_delay == 2


def test_delay_profile_unserved_pairs_contribute_zero():
    res = make_result([[0, 0], [1, -1]])
    prof = g.delay_profile(res)
    assert prof.limit == pytest.approx(0.75)
    assert prof.at(10**6) == pytest.approx(0.75)


def test_delay_profile_measures_from_emergence():
    # piece 2 emerged at slot 3, so its slot-5 arrival is a delay of 2
    res = make_result([[0, 0], [1, 5]], emergence=[1, 3])
    prof = g.delay_profile(res)
    assert prof.at(0) == pytest.approx(0.75)  # two endowed + slot-1 arrival
    assert prof.at(1) == pytest.approx(0.75)
    assert prof.at(2) == pytest.approx(1.0)


def test_delay_profile_boundaries():
    prof = g.delay_profile(make_result([[0, 0], [1, 2]]))
    assert prof.at(-1) == 0.0
    assert prof.at(prof.max_delay) == prof.limit


def reference_delay_profile(result):
    """delay_profile as it was written on int64 copies of the (n, k)
    matrix, with the endowed pairs set to delay 0 by their arrival."""
    arrivals = result.arrivals
    n, k = arrivals.shape
    emergence = np.array(
        [0 if e is None else e for e in result.emergence], dtype=np.int64
    )
    served = arrivals >= 0
    delays = arrivals.astype(np.int64) - emergence[np.newaxis, :]
    delays[arrivals == 0] = 0
    delays = delays[served]
    if delays.size == 0:
        return g.DelayProfile(np.zeros(1))
    counts = np.bincount(delays)
    return g.DelayProfile(np.cumsum(counts) / (n * k))


def random_arrivals(rng, start, n, k):
    """Arrivals as a run under `start` leaves them: the endowed cells at 0,
    the rest never served (-1) or served in slots 1..3k, and each piece's
    emergence by the engine's rule; some single-source pieces never leave
    the source."""
    arr = np.where(rng.random((n, k)) < 0.3, -1, rng.integers(1, 3 * k + 1, (n, k)))
    if start == g.SINGLE_SOURCE:
        arr[0] = 0
        arr[1:, rng.random(k) < 0.2] = -1
    elif start == g.ETA_SEEDED:
        arr[rng.random((n, k)) < 0.25] = 0
    else:
        np.fill_diagonal(arr, 0)
    arr = arr.astype(np.int32)
    source = 0 if start == g.SINGLE_SOURCE else None
    return arr, emergence(SimpleNamespace(arrivals=arr, k=k, source=source))


@pytest.mark.parametrize("start", [g.SINGLE_SOURCE, g.ETA_SEEDED, g.ONE_UNIQUE])
def test_delay_profile_equals_the_int64_reference(start):
    rng = np.random.default_rng(19)
    for _ in range(40):
        n = int(rng.integers(2, 40))
        k = n if start == g.ONE_UNIQUE else int(rng.integers(1, 60))
        arrivals, first = random_arrivals(rng, start, n, k)
        res = make_result(arrivals, emergence=first)
        got, want = g.delay_profile(res).cumulative, reference_delay_profile(res).cumulative
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_delay_profile_on_real_run():
    res = g.run(g.SimulationConfig(n=8, k=3, protocol=g.RANDOM_PULL, seed=3))
    prof = g.delay_profile(res)
    assert res.completed and prof.limit == pytest.approx(1.0)
    values = [prof.at(d) for d in range(prof.max_delay + 1)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert 0.0 < values[0] <= 1.0


# -------------------------------------------------------------- failed pieces


def test_failure_fraction_constant():
    assert FAILURE_FRACTION == pytest.approx(math.e / 5)


def test_failed_pieces_hand_case():
    # n=8: a piece needs ceil(8 e/5) = 5 holders within floor(2.2 log2 8) = 6
    # slots of release.  Piece 1 clears the bar, piece 2 is never released,
    # piece 3 is released but stalls at 2 holders.
    arrivals = [
        [0, -1, 0],
        [1, -1, 3],
        [2, -1, 9],
        [3, -1, -1],
        [4, -1, -1],
        [-1, -1, -1],
        [-1, -1, -1],
        [-1, -1, -1],
    ]
    res = make_result(arrivals, release_slots=[1, None, 2], slots=12)
    assert g.failed_pieces(res) == [2, 3]


def test_failed_pieces_window_is_epsilon_sensitive():
    # piece 2 picks up its 5th holder at slot 9 — inside the wide window
    # (epsilon=0.9 -> floor(3.8 log2 8) = 11 slots) but outside the tight one
    # (epsilon=0.1 -> 6 slots after its slot-2 release)
    arrivals = [
        [0, 0],
        [1, 3],
        [2, 9],
        [3, 9],
        [4, 9],
        [-1, -1],
        [-1, -1],
        [-1, -1],
    ]
    res = make_result(arrivals, release_slots=[1, 2], slots=12)
    assert g.failed_pieces(res, epsilon=0.9) == []
    assert g.failed_pieces(res, epsilon=0.1) == [2]


def test_failed_pieces_requires_source_schedule():
    res = make_result([[0, 0], [1, 2]], protocol=g.RANDOM_PULL)
    with pytest.raises(ValueError):
        g.failed_pieces(res)


def test_no_failed_pieces_on_healthy_run():
    res = g.run(g.SimulationConfig(n=32, k=4, protocol=g.INTERLEAVE, seed=1))
    assert res.completed
    assert g.failed_pieces(res) == []


# --------------------------------------------------------------------- reach


def test_pieces_reached_hand_case():
    arrivals = [
        [0, -1, 0],
        [1, -1, 3],
        [2, -1, 9],
        [3, -1, -1],
        [4, -1, -1],
        [-1, -1, -1],
        [-1, -1, -1],
        [-1, -1, -1],
    ]
    res = make_result(arrivals, release_slots=[1, None, 2], slots=12)
    # need ceil(0.5 * 8) = 4 holders within 6 slots of release: only piece 1
    assert g.pieces_reached(res, 0.5, 6) == pytest.approx(1 / 3)
    # with a 1-slot window piece 1 has holders at slots 0..2 only: 3 < 4
    assert g.pieces_reached(res, 0.5, 1) == 0.0
    assert g.pieces_reached(res, 0.125, 0) == pytest.approx(2 / 3)


def test_pieces_reached_requires_source_schedule():
    res = make_result([[0, 0], [1, 2]], protocol=g.SEQUENTIAL_PULL)
    with pytest.raises(ValueError):
        g.pieces_reached(res, 0.5, 6)


def loop_failed_pieces(result, epsilon):
    """Reference for failed_pieces: one numpy reduction per piece."""
    arrivals = result.arrivals
    n, k = arrivals.shape
    need = math.ceil(n * FAILURE_FRACTION)
    window = math.floor(2.0 * (1.0 + epsilon) * math.log2(n))
    failed = []
    for p in range(1, k + 1):
        release = result.release_slots[p - 1]
        col = arrivals[:, p - 1]
        if release is None or int(((col >= 0) & (col <= release + window)).sum()) < need:
            failed.append(p)
    return failed


def loop_pieces_reached(result, fraction, window):
    """Reference for pieces_reached: one numpy reduction per piece."""
    arrivals = result.arrivals
    n, k = arrivals.shape
    need = math.ceil(fraction * n)
    span = math.floor(window)
    reached = 0
    for p in range(1, k + 1):
        release = result.release_slots[p - 1]
        if release is None:
            continue
        col = arrivals[:, p - 1]
        if int(((col >= 0) & (col <= release + span)).sum()) >= need:
            reached += 1
    return reached / k


@st.composite
def scheduled_runs(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    k = draw(st.integers(min_value=1, max_value=10))
    slot = st.integers(min_value=-1, max_value=30)
    arrivals = draw(st.lists(st.lists(slot, min_size=k, max_size=k), min_size=n, max_size=n))
    release = draw(
        st.lists(st.none() | st.integers(min_value=1, max_value=30), min_size=k, max_size=k)
    )
    return make_result(arrivals, release_slots=release, slots=30)


@settings(max_examples=300, deadline=None)
@given(
    res=scheduled_runs(),
    epsilon=st.floats(min_value=0.01, max_value=0.99),
    fraction=st.floats(min_value=-0.5, max_value=1.0),
    window=st.floats(min_value=-3.0, max_value=30.0),
)
def test_reach_metrics_match_the_per_piece_loop(res, epsilon, fraction, window):
    assert g.failed_pieces(res, epsilon=epsilon) == loop_failed_pieces(res, epsilon)
    if window < 0:
        with pytest.raises(g.ConfigError, match="window"):
            g.pieces_reached(res, fraction, window)
    else:
        assert g.pieces_reached(res, fraction, window) == loop_pieces_reached(res, fraction, window)


@pytest.mark.parametrize("epsilon", [-2.0, 0, 0.0, 1, 1.5, math.nan, math.inf, True, "0.1"])
def test_failed_pieces_refuses_an_epsilon_outside_the_open_unit_interval(epsilon):
    # the range config.validate gives the same field
    res = g.run(g.SimulationConfig(n=32, k=16, protocol=g.PRIORITY_PUSH, max_slots=40))
    with pytest.raises(g.ConfigError, match=r"epsilon: need a number in \(0, 1\)"):
        g.failed_pieces(res, epsilon)


@pytest.mark.parametrize("window", [-5, -0.5, math.nan, math.inf, None, True])
def test_pieces_reached_refuses_a_window_outside_zero_to_infinity(window):
    res = g.run(g.SimulationConfig(n=32, k=16, protocol=g.PRIORITY_PUSH, max_slots=40))
    with pytest.raises(g.ConfigError, match=r"window: need a number in \[0, inf\)"):
        g.pieces_reached(res, 0.5, window)
    # the fraction may put the bar below 0: every released piece meets it
    assert g.pieces_reached(res, -1.0, 0) == 1.0


@pytest.mark.parametrize("fraction", [math.nan, True, "0.5", None])
def test_pieces_reached_refuses_a_fraction_that_is_nan_or_not_a_number(fraction):
    res = g.run(g.SimulationConfig(n=32, k=16, protocol=g.PRIORITY_PUSH, max_slots=40))
    with pytest.raises(g.ConfigError, match=r"^fraction: need a number in \[-inf, inf\]"):
        g.pieces_reached(res, fraction, 3)


def test_pieces_reached_reads_an_infinite_fraction_as_any_past_its_end():
    # 8 of the 16 pieces are released by the cap: -inf, like any bar below
    # 0, counts those 8; +inf, like any fraction above 1, counts none
    res = g.run(g.SimulationConfig(n=32, k=16, protocol=g.PRIORITY_PUSH, max_slots=8))
    assert g.pieces_reached(res, -math.inf, 3) == g.pieces_reached(res, -1.0, 3) == 0.5
    assert g.pieces_reached(res, math.inf, 3) == g.pieces_reached(res, 1.5, 3) == 0.0


# ----------------------------------------------------------------- occupancy


def test_occupancy_hand_case():
    arrivals = [[0], [2], [2], [-1]]
    res = make_result(arrivals, slots=4)
    series = g.occupancy(res, 1)
    assert series.piece == 1
    assert [series.at(t) for t in range(5)] == [1, 1, 3, 3, 3]
    assert len(series.counts) == 3  # slots 0..2, the last arrival
    assert series.at(-1) == 0
    assert series.at(100) == 3


def test_occupancy_of_a_settled_run_ends_at_the_last_arrival():
    # priority push settles after a few slots and reports its cap unstepped
    res = g.run(g.SimulationConfig(n=16, k=4, protocol=g.PRIORITY_PUSH, max_slots=10**6))
    assert res.slots == 10**6
    for piece in range(1, 5):
        series = g.occupancy(res, piece)
        col = res.arrivals[:, piece - 1]
        assert len(series.counts) == col.max() + 1
        assert series.at(res.slots) == (col >= 0).sum()


def test_occupancy_validates_piece():
    res = make_result([[0, 0], [1, 2]])
    with pytest.raises(ValueError):
        g.occupancy(res, 0)
    with pytest.raises(ValueError):
        g.occupancy(res, 3)


def test_occupancy_on_real_run_reaches_n():
    res = g.run(g.SimulationConfig(n=16, k=2, protocol=g.RANDOM_PUSH, seed=9))
    assert res.completed
    for piece in (1, 2):
        series = g.occupancy(res, piece)
        assert series.at(res.slots) == 16
        counts = list(series.counts)
        assert all(b >= a for a, b in zip(counts, counts[1:]))


# ------------------------------------------------------------ series values


def test_profiles_and_occupancy_series_compare_by_value():
    cfg = g.SimulationConfig(n=40, k=20, protocol=g.INTERLEAVE, seed=1)
    a, b, other = g.run(cfg), g.run(cfg), g.run(g.SimulationConfig(**{**cfg.to_dict(), "seed": 2}))
    assert g.delay_profile(a) == g.delay_profile(b)
    assert g.delay_profile(a) != g.delay_profile(other)
    assert g.occupancy(a, 2) == g.occupancy(b, 2)
    assert g.occupancy(a, 2) != g.occupancy(other, 2)
    assert g.delay_profile(a) != g.occupancy(a, 2)
    # the same counts for another piece is another series
    res = make_result([[0, 0], [1, 1]])
    first, second = g.occupancy(res, 1), g.occupancy(res, 2)
    assert list(first.counts) == list(second.counts) and first != second


@pytest.mark.parametrize("index", [2.5, math.nan, True, np.True_, 10**6 + 0.5, "1", None])
def test_series_refuse_an_index_that_is_not_an_integer(index):
    res = make_result([[0, 0], [1, 2]])
    for series, name, last in ((g.delay_profile(res), "d", 1.0), (g.occupancy(res, 1), "t", 2)):
        with pytest.raises(g.ConfigError, match=rf"^{name}: need an integer in \(-inf, inf\), got "):
            series.at(index)
        # an integer before the start reads 0, and one past the end the last value
        assert (series.at(-(10**6)), series.at(10**6)) == (0, last)


# ------------------------------------------------------------------- speedup


def test_splitting_speedup_values():
    assert g.splitting_speedup(10, 1024) == pytest.approx(5.0, abs=1e-12)
    assert g.splitting_speedup(10**6, 1024) == pytest.approx(10.0, rel=1e-3)
    assert g.splitting_speedup(1, 2) == pytest.approx(0.5)


def test_splitting_speedup_validation():
    with pytest.raises(ValueError):
        g.splitting_speedup(0, 1024)
    with pytest.raises(ValueError):
        g.splitting_speedup(10, 1)