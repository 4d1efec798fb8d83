"""Analytic oracle: mean map, curves, samplers, bound catalog.

Numeric expectations here were computed independently (closed forms and
high-precision iteration) before being frozen; sampler tests use seeded
generators with tolerances stated next to each assertion.
"""

import math

import numpy as np
import pytest

from gossipsim.config import ConfigError
from gossipsim.oracle import (
    THEOREMS,
    UNIFORM_CONTACTS,
    bound_value,
    classical_gossip_sample,
    deterministic_gossip,
    geo_sum_mean,
    geo_sum_sample,
    geo_sum_tail,
    gossip_mean_map,
    theorem_entry,
)
from gossipsim.sweep import AXIS_FIELDS, RUN_COLUMNS

# ------------------------------------------------------------------ mean map


def test_mean_map_endpoints():
    for n in (2, 10, 1000):
        assert gossip_mean_map(1, n) == pytest.approx(2 - 1 / n, rel=1e-12)
        assert gossip_mean_map(n, n) == pytest.approx(n, rel=1e-12)


def test_mean_map_worked_example():
    # n=4, y=2: 2 + 2 (1 - (3/4)^2) = 2.875
    assert gossip_mean_map(2, 4) == pytest.approx(2.875, abs=1e-12)


def test_mean_map_accepts_arrays():
    out = gossip_mean_map(np.array([1.0, 2.0, 4.0]), 4)
    assert out == pytest.approx([1.75, 2.875, 4.0], abs=1e-12)


def test_mean_map_rejects_out_of_range():
    with pytest.raises(ValueError):
        gossip_mean_map(0.5, 10)
    with pytest.raises(ValueError):
        gossip_mean_map(11, 10)
    with pytest.raises(ValueError):
        gossip_mean_map(1, 1)


@pytest.mark.parametrize(
    "y",
    [
        "3",
        True,
        [1, "2"],
        math.nan,
        [2.0, math.nan],
        [2, True],
        (3, True),
        [[2.0], [np.True_]],
        [[1, 2], [3]],
    ],
)
def test_mean_map_refuses_a_y_that_is_not_a_count(y):
    # strings and bools are not converted, also inside a list, where numpy
    # would read True as the count 1; NaN lies in no range; and a ragged
    # list is no array of counts
    with pytest.raises(ConfigError, match=r"^y: need values in \[1, n\]"):
        gossip_mean_map(y, 10)


def test_mean_map_range_is_contained():
    # G maps [1, n] into [2 - 1/n, n]
    for n in (10, 1000, 10**6):
        ys = np.linspace(1, n, 2001)
        out = gossip_mean_map(ys, n)
        assert out.min() >= 2 - 1 / n - 1e-9
        assert out.max() <= n * (1 + 1e-12)


def test_mean_map_matches_one_round_of_sampling():
    # Monte Carlo for the map's own model: y informed users each push to a
    # uniform user (self allowed — that's the idealization G encodes).
    # 3-sigma band on 4000 trials.
    n, y = 50, 7
    rng = np.random.default_rng(123)
    counts = []
    for _ in range(4000):
        informed = np.zeros(n, dtype=bool)
        informed[:y] = True
        informed[rng.integers(0, n, size=y)] = True
        counts.append(informed.sum())
    mean = float(np.mean(counts))
    sem = float(np.std(counts) / math.sqrt(len(counts)))
    assert abs(mean - gossip_mean_map(y, n)) < 3 * sem + 0.02


# -------------------------------------------------------------------- curves


def test_deterministic_curve_first_steps():
    curve = deterministic_gossip(4, 2)
    assert curve[0] == 1.0
    assert curve[1] == pytest.approx(1.75, abs=1e-12)
    assert curve[2] == pytest.approx(gossip_mean_map(1.75, 4), rel=1e-12)


def test_deterministic_curve_is_monotone_and_converges():
    curve = deterministic_gossip(1000, 60)
    assert all(b >= a for a, b in zip(curve, curve[1:]))
    assert curve[-1] == pytest.approx(1000, rel=1e-6)


def test_deterministic_curve_frozen_saturation_points():
    # Frozen from high-precision iteration of the map itself: the curve
    # crosses 0.95n roughly 4.2 rounds after log2(n), at every scale.
    n = 10**5
    curve = deterministic_gossip(n, 25)
    assert curve[18] / n == pytest.approx(0.80337, abs=5e-4)
    assert curve[19] / n == pytest.approx(0.91202, abs=5e-4)
    assert curve[20] / n > 0.95
    n = 10**6
    curve = deterministic_gossip(n, 30)
    assert curve[22] / n == pytest.approx(0.88420, abs=5e-4)
    assert curve[23] / n > 0.95


def test_classical_sampler_two_users():
    rng = np.random.default_rng(0)
    assert classical_gossip_sample(2, rng) == [1, 2]


def test_classical_sampler_trajectory_shape():
    rng = np.random.default_rng(7)
    ys = classical_gossip_sample(200, rng)
    assert ys[0] == 1 and ys[-1] == 200
    assert all(b >= a for a, b in zip(ys, ys[1:]))
    assert all(b <= 2 * a for a, b in zip(ys, ys[1:]))  # pushes at most double


def test_classical_sampler_respects_max_rounds():
    rng = np.random.default_rng(7)
    ys = classical_gossip_sample(10**4, rng, max_rounds=5)
    assert len(ys) == 6


@pytest.mark.parametrize("max_rounds", [-3, 2.5, True, "5"])
def test_classical_sampler_refuses_max_rounds_outside_zero_to_infinity(max_rounds):
    rng = np.random.default_rng(7)
    with pytest.raises(ConfigError, match=r"^max_rounds: need an integer in \[0, inf\)"):
        classical_gossip_sample(10, rng, max_rounds=max_rounds)
    assert classical_gossip_sample(10, rng, max_rounds=0) == [1]


# ------------------------------------------------------------------- geo sums


def test_geo_sum_certain_success_contributes_zero():
    # success probability 1 at i = n: that term is always 0
    rng = np.random.default_rng(0)
    assert all(geo_sum_sample(1, 1, rng) == 0 for _ in range(50))


def test_geo_sum_two_user_mean():
    # B_1 at n=2 is Geo(1/2) counting failures: mean 1.0
    rng = np.random.default_rng(42)
    samples = [geo_sum_sample(2, 1, rng) for _ in range(100_000)]
    assert np.mean(samples) == pytest.approx(1.0, abs=0.02)


def test_geo_sum_mean_matches_closed_form():
    n = 1000
    k = n // math.ceil(math.log(n))  # 142
    expected = geo_sum_mean(n, k)
    assert expected == pytest.approx(sum((n - i) / i for i in range(1, k + 1)))
    rng = np.random.default_rng(5)
    samples = np.array([geo_sum_sample(n, k, rng) for _ in range(10_000)])
    # within 2% of the expectation (and comfortably within 3 standard errors)
    assert abs(samples.mean() - expected) / expected < 0.02
    assert abs(samples.mean() - expected) < 3 * samples.std() / 99.5


@pytest.mark.parametrize(
    "call",
    [
        lambda: geo_sum_mean(2.5, 2),
        lambda: geo_sum_mean(True, 1),
        lambda: geo_sum_mean(math.inf, 3),
        lambda: geo_sum_mean(0, 1),
        lambda: geo_sum_sample(2.0, 1, np.random.default_rng(0)),
        lambda: geo_sum_tail(math.nan, 3, 0.5),
        lambda: geo_sum_tail("1000", 145, 0.5),
    ],
    ids=[
        "mean-float", "mean-bool", "mean-inf", "mean-zero", "sample-float", "tail-nan", "tail-text",
    ],
)
def test_geo_sums_refuse_an_n_that_is_not_a_positive_integer(call):
    # n is checked first, so a bad n is never blamed on k
    with pytest.raises(ConfigError, match=r"^n: need an integer in \[1, inf\)"):
        call()


def test_geo_sum_tail_values():
    # 2 exp(-k n^{-(1-eps)}) at the documented operating points
    assert geo_sum_tail(1000, 145, 0.5) == pytest.approx(0.020389, abs=2e-5)
    assert geo_sum_tail(1000, 145, 0.5) == pytest.approx(
        2 * math.exp(-145 / math.sqrt(1000)), rel=1e-12
    )
    # a weaker claim (larger eps) and a longer climb (larger k) both
    # shrink the failure probability
    assert geo_sum_tail(1000, 145, 0.75) < geo_sum_tail(1000, 145, 0.5)
    assert geo_sum_tail(1000, 500, 0.5) < geo_sum_tail(1000, 145, 0.5)


def test_geo_sum_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        geo_sum_sample(10, 11, rng)
    with pytest.raises(ValueError):
        geo_sum_sample(10, 0, rng)
    with pytest.raises(ValueError):
        geo_sum_tail(10, 5, 1.5)


# -------------------------------------------------------------- bound catalog


def test_bound_catalog_ids_and_kinds():
    assert sorted(THEOREMS) == [f"thm{i}" for i in range(1, 8)]
    assert THEOREMS["thm1"]["kind"] == "lower"
    assert THEOREMS["thm6"]["kind"] == "upper"
    assert THEOREMS["thm5"]["kind"] == "pair"


def test_pull_and_push_lower_bounds():
    expected = 0.5 * 0.9 * 20 * math.log(100)
    assert bound_value("thm1", n=100, k=20, beta=0.5, eps=0.1) == pytest.approx(expected)
    assert bound_value("thm4", n=100, k=20, beta=0.5, eps=0.1) == pytest.approx(expected)


def test_seeded_pull_bound_coefficient():
    # k-coefficient ln(1 + e/eta) / ln(1 + eta/e) at eta = 1 is about 4.19
    coeff = math.log(1 + math.e) / math.log(1 + 1 / math.e)
    assert coeff == pytest.approx(4.1922, abs=5e-4)
    value = bound_value("thm2", n=1000, k=50, eta=1.0, c=1.0)
    assert value == pytest.approx(coeff * 50 + 2 / math.log(1 + 1 / math.e) * math.log(1000))
    at_half = bound_value("thm2", n=1000, k=50, eta=0.5, c=1.0)
    assert at_half == pytest.approx(633.16, abs=0.5)


def test_single_source_pull_bound():
    value = bound_value("thm3", n=256, k=8, delta=0.1, c=1.0)
    expected = 4 * math.e * 1.1 * (8 * math.log(8) + 2 * 8 * math.log(256))
    assert value == pytest.approx(expected)


def test_coverage_pair_bound():
    frac, window = bound_value("thm5", n=500, l=1, delta=0.05)
    assert frac == pytest.approx(0.582, abs=5e-4)
    assert window == pytest.approx(1.05 * math.log2(500))


def test_interleave_bound_value():
    assert bound_value("thm6", n=500, k=1000, eps=0.1) == pytest.approx(9019.7, abs=0.1)


def test_linear_bound_value():
    assert bound_value("thm7", n=1024, C=3.0) == pytest.approx(1024 + 3 * math.log(1024))


def test_bound_catalog_validates_parameters():
    with pytest.raises(ValueError):
        bound_value("thm1", n=100, k=20, beta=1.5, eps=0.1)
    with pytest.raises(ValueError):
        bound_value("thm2", n=100, k=20, eta=0.0, c=1.0)
    with pytest.raises(ValueError):
        bound_value("thm6", n=100, k=20)  # missing eps
    with pytest.raises(ValueError):
        bound_value("thm5", n=100, l=0.5, delta=0.1)
    with pytest.raises(ConfigError, match=r"^theorem: need one of \(.*\), got 'thm0'$"):
        bound_value("thm0", n=10)
    with pytest.raises(ConfigError, match=r"^thm1: unknown keys \['eta'\]; known: "):
        bound_value("thm1", n=100, k=20, beta=0.5, eps=0.1, eta=0.5)
    # each end of a range is open or closed as stated
    with pytest.raises(ConfigError, match=r"^thm6: eps: need a number in \(0, 1\), got 1$"):
        bound_value("thm6", n=100, k=20, eps=1)
    assert bound_value("thm2", n=100, k=20, eta=1, c=1.0) > 0  # eta in (0, 1]


@pytest.mark.parametrize(
    "theorem, params, field, low",
    [
        ("thm1", dict(n=2.5, k=3, beta=0.5, eps=0.1), "n", 2),
        ("thm1", dict(n=64, k=3.0, beta=0.5, eps=0.1), "k", 1),
        ("thm5", dict(n=64, l=1.5, delta=0.08), "l", 1),
        ("thm7", dict(n=True, C=3.0), "n", 2),
    ],
)
def test_bound_counts_are_integers(theorem, params, field, low):
    with pytest.raises(ConfigError) as err:
        bound_value(theorem, **params)
    expected = f"{theorem}: {field}: need an integer in [{low}, inf), got {params[field]!r}"
    assert str(err.value) == expected


def test_theorem_ids_are_refused_as_names():
    for theorem in ("thm0", ["thm1"], None):
        with pytest.raises(ConfigError, match=r"^theorem: need one of \('thm1', .*'thm7'\), got "):
            theorem_entry(theorem)


# the keys the comment above oracle.THEOREMS documents
CATALOG_KEYS = {"kind", "fn", "summary", "params", "defaults", "applies", "whp", "floor", "band"}


@pytest.mark.parametrize("theorem", sorted(THEOREMS))
def test_catalog_entry_is_consistent(theorem):
    entry = THEOREMS[theorem]
    # verify_rows tells the kinds apart by these names alone, so a mistyped
    # kind or a qualifier on the wrong kind would pass unchecked
    assert entry["kind"] in ("lower", "upper", "pair")
    assert ("floor" in entry) == ("band" in entry)
    assert "whp" not in entry or entry["kind"] == "upper"
    assert set(entry) <= CATALOG_KEYS
    # every parameter without a default is read from the run column its
    # sweep axis name gives
    runs = set(entry["params"]) - set(entry["defaults"])
    assert set(entry["defaults"]) <= set(entry["params"])
    assert runs <= set(AXIS_FIELDS)
    assert {AXIS_FIELDS[name] for name in runs} <= set(RUN_COLUMNS)
    # a count (an int parameter) is always the run's own: verify_rows lets a
    # caller set only the defaults
    counts = {name for name, rng in entry["params"].items() if rng[0] is int}
    assert not counts & set(entry["defaults"])
    # the uniform-contacts hypothesis is stated once, for every entry
    assert not set(entry["applies"]) & set(UNIFORM_CONTACTS)
    assert set(entry["applies"]) | set(UNIFORM_CONTACTS) <= set(RUN_COLUMNS)
    n, k = (64, 64) if theorem == "thm7" else (64, 32)
    row = {"n": n, "k": k, "eta": 0.5, "spacing": 2}
    values = {name: row[AXIS_FIELDS[name]] for name in runs}
    bound_value(theorem, **values, **entry["defaults"])
