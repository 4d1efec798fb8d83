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
    HARD,
    INTERLEAVE,
    ONE_UNIQUE,
    PRIORITY_PUSH,
    RANDOM_PULL,
    RANDOM_PUSH,
    SEQUENTIAL_PULL,
    SINGLE_SOURCE,
    SOFT,
    UNIFORM,
    ConfigError,
    check_choice,
    check_keys,
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
    "UNIFORM_CONTACTS",
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
    try:
        arr = np.asarray(y)
    except ValueError:  # a ragged list: kept as objects, refused below
        arr = np.asarray(y, dtype=object)
    # a bool, a string or a NaN is no count of users, nor a bool in a list,
    # which numpy reads as 0 or 1
    listed = () if isinstance(y, np.ndarray) else np.asarray(y, dtype=object).flat
    if (
        arr.dtype.kind not in "iuf"
        or any(isinstance(v, (bool, np.bool_)) for v in listed)
        or not np.all((arr >= 1) & (arr <= n))
    ):
        raise ConfigError(f"y: need values in [1, n], got {y!r}")
    arr = arr.astype(float)
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
    if max_rounds is not None:
        check_range("max_rounds", max_rounds, int, 0, math.inf, "[)")
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
    check_range("n", n, int, 1, math.inf, "[)")
    check_range("k", k, int, 1, n, "[]")
    trials = rng.geometric(np.arange(1, k + 1) / n)  # support {1, 2, ...}
    return int(trials.sum()) - k


def geo_sum_mean(n: int, k: int) -> float:
    """Exact mean of B_k: sum over i of (1 - i/n) / (i/n)."""
    check_range("n", n, int, 1, math.inf, "[)")
    check_range("k", k, int, 1, n, "[]")
    return sum((n - i) / i for i in range(1, k + 1))


def geo_sum_tail(n: int, k: int, eps: float) -> float:
    """Bound on B_k falling a (1 - eps) factor below its typical value:
    2 exp(-k n^{-(1-eps)}), vanishing whenever k is polynomial in n."""
    check_range("n", n, int, 1, math.inf, "[)")
    check_range("eps", eps, float, 0, 1, "()")
    check_range("k", k, int, 1, n, "[]")
    return 2.0 * math.exp(-k * n ** (eps - 1.0))


# Spaced-push runs record reach_fraction at this delta (see
# `metrics.run_metrics`), so the coverage pair is checked at it only.
REACH_DELTA = 0.08

# Parameter ranges: (kind, low, high, brackets), the arguments of
# `config.check_range`: counts are integers, the rest numbers.
_N = (int, 2, math.inf, "[)")
_K = (int, 1, math.inf, "[)")
_POSITIVE = (float, 0, math.inf, "()")
_OPEN_UNIT = (float, 0, 1, "()")
_HALF_OPEN_UNIT = (float, 0, 1, "(]")


def _pull_lower(n, k, beta, eps):
    return beta * (1.0 - eps) * k * math.log(n)


def _seeded_pull_upper(n, k, eta, c):
    growth = math.log1p(eta / math.e)
    return (math.log1p(math.e / eta) / growth) * k + ((1.0 + c) / growth) * math.log(n)


_PULL = (RANDOM_PULL, SEQUENTIAL_PULL)
# The paper states every bound for users that contact each other uniformly
# at random, not over fixed contact lists: a hypothesis of every entry,
# which `verify` adds to the entry's own.
UNIFORM_CONTACTS = {"contact_model": (UNIFORM,)}

# Catalog of completion-time bounds.  Each entry is all `verify` knows of
# its theorem:
#   kind     -- "lower" or "upper" on completion slots, or "pair" for a
#               (coverage fraction, slot window) guarantee
#   fn       -- the bound, called with one keyword per parameter
#   summary  -- the theorem in one line, for a reader of the catalog; the
#               "whp" key below, not a "whp" in the summary, decides the
#               check (thm3 and thm6 read "whp", yet every run must meet them)
#   params   -- each parameter's kind and range; one without a default is
#               read from its sweep axis's run column (`sweep.AXIS_FIELDS`)
#   defaults -- the values `verify` uses for parameters not given
#   applies  -- the run values the theorem's own hypotheses allow
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
        "applies": {"protocol": _PULL},
    },
    "thm2": {
        "kind": "upper",
        "fn": _seeded_pull_upper,
        "summary": "seeded random pull finishes in O(k + ln n) slots whp",
        "params": {"n": _N, "k": _K, "eta": _HALF_OPEN_UNIT, "c": _POSITIVE},
        "defaults": {"c": 1.0},
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
        "applies": {"protocol": _PULL, "initial_state": (SINGLE_SOURCE, ONE_UNIQUE)},
    },
    "thm4": {
        "kind": "lower",
        "fn": _pull_lower,
        "summary": "push protocols need at least beta (1-eps) k ln n slots",
        "params": {"n": _N, "k": _K, "beta": _HALF_OPEN_UNIT, "eps": _OPEN_UNIT},
        "defaults": {"beta": 0.5, "eps": 0.1},
        "applies": {"protocol": (RANDOM_PUSH, PRIORITY_PUSH)},
    },
    "thm5": {
        "kind": "pair",
        "fn": lambda n, l, delta: (1.0 - math.exp(-l) - delta, (1.0 + delta) * math.log2(n)),
        "summary": "spaced priority push reaches most users within ~log2 n slots per piece",
        "params": {"n": _N, "l": _K, "delta": _OPEN_UNIT},
        "defaults": {"delta": REACH_DELTA},
        "applies": {"protocol": (PRIORITY_PUSH,)},
    },
    "thm6": {
        "kind": "upper",
        "fn": lambda n, k, eps: 9.0 * k + 2.0 * (1.0 + eps) * math.log2(n),
        "summary": "interleave completes within 9k + 2(1+eps) log2 n slots whp",
        "params": {"n": _N, "k": _K, "eps": _OPEN_UNIT},
        "defaults": {"eps": 0.1},
        "applies": {
            "protocol": (INTERLEAVE,),
            "initial_state": (SINGLE_SOURCE,),
            "constraint": (HARD,),
        },
    },
    "thm7": {
        "kind": "lower",
        "fn": lambda n, C: n + C * math.log(n),
        "summary": "advocate pull completes in n + O(ln n) slots",
        "params": {"n": _N, "C": _POSITIVE},
        "defaults": {"C": 3.0},
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
    check_choice("theorem", theorem, tuple(THEOREMS))
    return THEOREMS[theorem]


def check_params(theorem: str, params: dict, required=()) -> None:
    """Refuse a parameter `theorem` does not take or a `required` one that
    is missing, then each given one outside its catalog range, in catalog
    order."""
    ranges = theorem_entry(theorem)["params"]
    check_keys(theorem, params, ranges, required)
    for name, rng in ranges.items():
        if name in params:
            check_range(f"{theorem}: {name}", params[name], *rng)


def bound_value(theorem: str, **params):
    """Evaluate one catalog entry: a float, or a pair for a "pair" kind.  An
    unknown id, or a parameter the theorem does not take, missing or out of
    its range, is a :class:`ConfigError`."""
    entry = theorem_entry(theorem)
    check_params(theorem, params, entry["params"])
    return entry["fn"](**params)
