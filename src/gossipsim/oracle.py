"""Analytic companion: mean-field gossip curves, coupon-style samplers,
and the catalog of completion-time bounds used by ``verify``.

Everything here is independent of the simulation engine — these are the
closed forms and reference samplers the simulator is checked against.
"""

from __future__ import annotations

import math

import numpy as np

from .config import (
    ADVOCATE,
    ETA_SEEDED,
    INTERLEAVE,
    ONE_UNIQUE,
    PRIORITY_PUSH,
    RANDOM_PULL,
    RANDOM_PUSH,
    SEQUENTIAL_PULL,
    SINGLE_SOURCE,
    SOFT,
    ConfigError,
    check_range,
)

__all__ = [
    "gossip_mean_map",
    "deterministic_gossip",
    "classical_gossip_sample",
    "geo_sum_sample",
    "geo_sum_mean",
    "geo_sum_tail",
    "REACH_DELTA",
    "THEOREMS",
    "theorem_entry",
    "check_params",
    "bound_value",
]


def gossip_mean_map(y, n: int):
    """Expected informed count after one push round of single-message gossip.

    G(y) = y + (n - y) (1 - (1 - 1/n)^y): each of the n - y uninformed
    users stays uninformed only if all y informed pushes miss it.  The
    power is evaluated via log1p so the result stays accurate to ~1e-12
    relative even for n in the millions.  Accepts scalars or arrays.
    """
    check_range("n", n, int, 2, math.inf, "[)")
    arr = np.asarray(y, dtype=float)
    if np.any(arr < 1.0) or np.any(arr > n):
        raise ConfigError(f"y: need values in [1, n], got {y!r}")
    miss = np.exp(arr * math.log1p(-1.0 / n))
    out = arr + (n - arr) * (1.0 - miss)
    return float(out) if out.ndim == 0 else out


def deterministic_gossip(n: int, t_max: int) -> list[float]:
    """Mean-field informed-count curve: Ybar_0 = 1, Ybar_{t+1} = G(Ybar_t).

    Returns the curve as a list of t_max + 1 values.
    """
    check_range("n", n, int, 2, math.inf, "[)")
    check_range("t_max", t_max, int, 0, math.inf, "[)")
    log_miss = math.log1p(-1.0 / n)
    curve = [1.0]
    y = 1.0
    for _ in range(t_max):
        y = y + (n - y) * (1.0 - math.exp(y * log_miss))
        curve.append(y)
    return curve


def classical_gossip_sample(
    n: int, rng: np.random.Generator, max_rounds: int | None = None
) -> list[int]:
    """One informed-count trajectory of single-message push gossip.

    One user starts informed; each round every informed user pushes to a
    uniformly random *other* user.  Returns the count after each round,
    starting at 1, ending at n (or truncated at max_rounds).
    """
    check_range("n", n, int, 2, math.inf, "[)")
    informed = np.zeros(n, dtype=bool)
    informed[0] = True
    counts = [1]
    count = 1
    while count < n:
        if max_rounds is not None and len(counts) > max_rounds:
            break
        senders = np.flatnonzero(informed)
        targets = rng.integers(0, n - 1, size=senders.size)
        targets += targets >= senders  # shift past self: uniform over others
        informed[targets] = True
        count = int(np.count_nonzero(informed))
        counts.append(count)
    return counts


def geo_sum_sample(n: int, k: int, rng: np.random.Generator) -> int:
    """One sample of B_k: total failed requests while a piece climbs from
    one holder to k + 1 holders under ideal sequential pulling.

    When i users hold the piece, a uniform request hits a holder with
    probability i/n, so the climb is a sum of independent geometric
    failure counts with success probabilities 1/n, 2/n, .., k/n.
    """
    check_range("k", k, int, 1, n, "[]")
    trials = rng.geometric(np.arange(1, k + 1) / n)  # support {1, 2, ...}
    return int(trials.sum()) - k


def geo_sum_mean(n: int, k: int) -> float:
    """Exact mean of B_k: sum over i of (1 - i/n) / (i/n)."""
    check_range("k", k, int, 1, n, "[]")
    return sum((n - i) / i for i in range(1, k + 1))


def geo_sum_tail(n: int, k: int, eps: float) -> float:
    """Bound on B_k falling a (1 - eps) factor below its typical value:
    2 exp(-k n^{-(1-eps)}), vanishing whenever k is polynomial in n."""
    check_range("eps", eps, float, 0, 1, "()")
    check_range("k", k, int, 1, n, "[]")
    return 2.0 * math.exp(-k * n ** (eps - 1.0))


# Spaced-push runs record reach_fraction at this delta (see
# `sweep.reach_summary`), so the coverage pair is checked at it only.
REACH_DELTA = 0.08

# Parameter ranges: (low, high, brackets), where "(" and ")" exclude an end.
_N = (2, math.inf, "[)")
_K = (1, math.inf, "[)")
_POSITIVE = (0, math.inf, "()")
_OPEN_UNIT = (0, 1, "()")
_HALF_OPEN_UNIT = (0, 1, "(]")


def _pull_lower(n, k, beta, eps):
    return beta * (1.0 - eps) * k * math.log(n)


def _seeded_pull_upper(n, k, eta, c):
    growth = math.log1p(eta / math.e)
    return (math.log1p(math.e / eta) / growth) * k + ((1.0 + c) / growth) * math.log(n)


_PULL = (RANDOM_PULL, SEQUENTIAL_PULL)

# Catalog of completion-time bounds.  Each entry is all `verify` knows of
# its theorem:
#   kind     -- "lower" or "upper" on completion slots, or "pair" for a
#               (coverage fraction, slot window) guarantee
#   fn       -- the bound, called with one keyword per parameter
#   params   -- each parameter's range
#   defaults -- the values `verify` uses for parameters not given
#   columns  -- the run column each remaining parameter is read from
#   applies  -- the run values the theorem's hypotheses allow
# Two optional keys qualify the kind.  "whp": an upper bound that holds
# with probability 1 - n^-c, so that share of runs may straggle.  "floor"
# and "band": a lower bound whose runs must also finish, between floor
# and fn slots; "band" states the two ends for reports.
THEOREMS = {
    "thm1": {
        "kind": "lower",
        "fn": _pull_lower,
        "summary": "pull protocols need at least beta (1-eps) k ln n slots",
        "params": {"n": _N, "k": _K, "beta": _HALF_OPEN_UNIT, "eps": _OPEN_UNIT},
        "defaults": {"beta": 0.5, "eps": 0.1},
        "columns": {"n": "n", "k": "k"},
        "applies": {"protocol": _PULL},
    },
    "thm2": {
        "kind": "upper",
        "fn": _seeded_pull_upper,
        "summary": "seeded random pull finishes in O(k + ln n) slots whp",
        "params": {"n": _N, "k": _K, "eta": _HALF_OPEN_UNIT, "c": _POSITIVE},
        "defaults": {"c": 1.0},
        "columns": {"n": "n", "k": "k", "eta": "eta"},
        "applies": {"protocol": _PULL, "initial_state": (ETA_SEEDED,)},
        "whp": True,
    },
    "thm3": {
        "kind": "upper",
        "fn": lambda n, k, delta, c: 4.0 * math.e * (1.0 + delta) * (
            k * math.log(k) + (1.0 + c) * k * math.log(n)
        ),
        "summary": "random pull from one source finishes in O(k ln(kn)) slots whp",
        "params": {"n": _N, "k": _K, "delta": _POSITIVE, "c": _POSITIVE},
        "defaults": {"delta": 0.1, "c": 1.0},
        "columns": {"n": "n", "k": "k"},
        "applies": {"protocol": _PULL, "initial_state": (SINGLE_SOURCE, ONE_UNIQUE)},
    },
    "thm4": {
        "kind": "lower",
        "fn": _pull_lower,
        "summary": "push protocols need at least beta (1-eps) k ln n slots",
        "params": {"n": _N, "k": _K, "beta": _HALF_OPEN_UNIT, "eps": _OPEN_UNIT},
        "defaults": {"beta": 0.5, "eps": 0.1},
        "columns": {"n": "n", "k": "k"},
        "applies": {"protocol": (RANDOM_PUSH, PRIORITY_PUSH)},
    },
    "thm5": {
        "kind": "pair",
        "fn": lambda n, l, delta: (1.0 - math.exp(-l) - delta, (1.0 + delta) * math.log2(n)),
        "summary": "spaced priority push reaches most users within ~log2 n slots per piece",
        "params": {"n": _N, "l": _K, "delta": _OPEN_UNIT},
        "defaults": {"delta": REACH_DELTA},
        "columns": {"n": "n", "l": "spacing"},
        "applies": {"protocol": (PRIORITY_PUSH,)},
    },
    "thm6": {
        "kind": "upper",
        "fn": lambda n, k, eps: 9.0 * k + 2.0 * (1.0 + eps) * math.log2(n),
        "summary": "interleave completes within 9k + 2(1+eps) log2 n slots whp",
        "params": {"n": _N, "k": _K, "eps": _OPEN_UNIT},
        "defaults": {"eps": 0.1},
        "columns": {"n": "n", "k": "k"},
        "applies": {"protocol": (INTERLEAVE,), "initial_state": (SINGLE_SOURCE,)},
    },
    "thm7": {
        "kind": "lower",
        "fn": lambda n, C: n + C * math.log(n),
        "summary": "advocate pull completes in n + O(ln n) slots",
        "params": {"n": _N, "C": _POSITIVE},
        "defaults": {"C": 3.0},
        "columns": {"n": "n"},
        "applies": {
            "protocol": (ADVOCATE,),
            "initial_state": (ONE_UNIQUE,),
            "constraint": (SOFT,),
        },
        "floor": lambda n, C: n - 1,
        "band": {"floor": "n - 1", "ceiling": "n + {C} ln n"},
    },
}


def theorem_entry(theorem: str) -> dict:
    """The catalog entry of `theorem`; an unknown id is a :class:`ConfigError`."""
    entry = THEOREMS.get(theorem)
    if entry is None:
        raise ConfigError(f"unknown theorem id {theorem!r}; known: {sorted(THEOREMS)}")
    return entry


def check_params(theorem: str, params: dict) -> None:
    """Refuse a parameter `theorem` does not take, then each given one
    outside its catalog range, in catalog order."""
    ranges = theorem_entry(theorem)["params"]
    for name in params:
        if name not in ranges:
            raise ConfigError(f"{theorem}: takes no parameter {name!r}; takes {sorted(ranges)}")
    for name, (lo, hi, brackets) in ranges.items():
        if name in params:
            check_range(f"{theorem}: {name}", params[name], float, lo, hi, brackets)


def bound_value(theorem: str, **params):
    """Evaluate one catalog entry; returns a float, or a pair for a "pair" kind.

    Raises :class:`ConfigError` for an unknown id, and for a parameter that
    is not one the theorem takes, outside its range, or missing.
    """
    check_params(theorem, params)
    entry = THEOREMS[theorem]
    for name in entry["params"]:
        if name not in params:
            raise ConfigError(f"{theorem}: missing parameter {name!r}")
    return entry["fn"](**params)
