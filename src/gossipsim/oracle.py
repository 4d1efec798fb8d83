"""Analytic companion: mean-field gossip curves, coupon-style samplers,
and the catalog of completion-time bounds used by ``verify``.

Everything here is independent of the simulation engine — these are the
closed forms and reference samplers the simulator is checked against.
"""

from __future__ import annotations

import math

import numpy as np

from .config import ConfigError

__all__ = [
    "gossip_mean_map",
    "deterministic_gossip",
    "classical_gossip_sample",
    "geo_sum_sample",
    "geo_sum_mean",
    "geo_sum_tail",
    "THEOREMS",
    "bound_value",
]


def gossip_mean_map(y, n: int):
    """Expected informed count after one push round of single-message gossip.

    G(y) = y + (n - y) (1 - (1 - 1/n)^y): each of the n - y uninformed
    users stays uninformed only if all y informed pushes miss it.  The
    power is evaluated via log1p so the result stays accurate to ~1e-12
    relative even for n in the millions.  Accepts scalars or arrays.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    arr = np.asarray(y, dtype=float)
    if np.any(arr < 1.0) or np.any(arr > n):
        raise ValueError(f"y must lie in [1, n], got {y!r}")
    miss = np.exp(arr * math.log1p(-1.0 / n))
    out = arr + (n - arr) * (1.0 - miss)
    return float(out) if out.ndim == 0 else out


def deterministic_gossip(n: int, t_max: int) -> list[float]:
    """Mean-field informed-count curve: Ybar_0 = 1, Ybar_{t+1} = G(Ybar_t).

    Returns the curve as a list of t_max + 1 values.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if t_max < 0:
        raise ValueError("need t_max >= 0")
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
    if n < 2:
        raise ValueError("need n >= 2")
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
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    trials = rng.geometric(np.arange(1, k + 1) / n)  # support {1, 2, ...}
    return int(trials.sum()) - k


def geo_sum_mean(n: int, k: int) -> float:
    """Exact mean of B_k: sum over i of (1 - i/n) / (i/n)."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return sum((n - i) / i for i in range(1, k + 1))


def geo_sum_tail(n: int, k: int, eps: float) -> float:
    """Bound on B_k falling a (1 - eps) factor below its typical value:
    2 exp(-k n^{-(1-eps)}), vanishing whenever k is polynomial in n."""
    if not 0 < eps < 1:
        raise ValueError(f"need eps in (0, 1), got {eps!r}")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return 2.0 * math.exp(-k * n ** (eps - 1.0))


def _require(params: dict, theorem: str, **ranges):
    """Pull named parameters out of `params`, checking presence and range;
    a missing or out-of-range parameter is a :class:`ConfigError`."""
    out = []
    for name, (lo, hi, lo_open, hi_open) in ranges.items():
        if name not in params:
            raise ConfigError(f"{theorem}: missing parameter {name!r}")
        v = params[name]
        if not isinstance(v, (int, float)):
            raise ConfigError(f"{theorem}: {name} must be a number, got {v!r}")
        ok_lo = v > lo if lo_open else v >= lo
        ok_hi = v < hi if hi_open else v <= hi
        if not (ok_lo and ok_hi):
            bra = "(" if lo_open else "["
            ket = ")" if hi_open else "]"
            raise ConfigError(
                f"{theorem}: {name} must lie in {bra}{lo}, {hi}{ket}, got {v}"
            )
        out.append(v)
    return out


_INF = math.inf


def _pull_lower(theorem: str, params: dict) -> float:
    n, k, beta, eps = _require(
        params,
        theorem,
        n=(2, _INF, False, True),
        k=(1, _INF, False, True),
        beta=(0, 1, True, False),
        eps=(0, 1, True, True),
    )
    return beta * (1.0 - eps) * k * math.log(n)


def _thm2(params: dict) -> float:
    n, k, eta, c = _require(
        params,
        "thm2",
        n=(2, _INF, False, True),
        k=(1, _INF, False, True),
        eta=(0, 1, True, False),
        c=(0, _INF, True, True),
    )
    ratio = math.e / eta
    growth = math.log1p(eta / math.e)
    return (math.log1p(ratio) / growth) * k + ((1.0 + c) / growth) * math.log(n)


def _thm3(params: dict) -> float:
    n, k, delta, c = _require(
        params,
        "thm3",
        n=(2, _INF, False, True),
        k=(1, _INF, False, True),
        delta=(0, _INF, True, True),
        c=(0, _INF, True, True),
    )
    return 4.0 * math.e * (1.0 + delta) * (
        k * math.log(k) + (1.0 + c) * k * math.log(n)
    )


def _thm5(params: dict) -> tuple[float, float]:
    n, l, delta = _require(
        params,
        "thm5",
        n=(2, _INF, False, True),
        l=(1, _INF, False, True),
        delta=(0, 1, True, True),
    )
    return (1.0 - math.exp(-l) - delta, (1.0 + delta) * math.log2(n))


def _thm6(params: dict) -> float:
    n, k, eps = _require(
        params,
        "thm6",
        n=(2, _INF, False, True),
        k=(1, _INF, False, True),
        eps=(0, 1, True, True),
    )
    return 9.0 * k + 2.0 * (1.0 + eps) * math.log2(n)


def _thm7(params: dict) -> float:
    n, C = _require(
        params,
        "thm7",
        n=(2, _INF, False, True),
        C=(0, _INF, True, True),
    )
    return n + C * math.log(n)


# Catalog of completion-time bounds.  Values:
#   kind  -- "lower" or "upper" on completion slots, or "pair" for a
#            (coverage fraction, slot window) guarantee
#   fn    -- params dict -> bound value
# Logs: thm1-thm4 and thm7 use natural log; thm5 and thm6 use log base 2.
THEOREMS = {
    "thm1": {
        "kind": "lower",
        "fn": lambda params: _pull_lower("thm1", params),
        "summary": "pull protocols need at least beta (1-eps) k ln n slots",
    },
    "thm2": {
        "kind": "upper",
        "fn": _thm2,
        "summary": "seeded random pull finishes in O(k + ln n) slots whp",
    },
    "thm3": {
        "kind": "upper",
        "fn": _thm3,
        "summary": "random pull from one source finishes in O(k ln(kn)) slots whp",
    },
    "thm4": {
        "kind": "lower",
        "fn": lambda params: _pull_lower("thm4", params),
        "summary": "push protocols need at least beta (1-eps) k ln n slots",
    },
    "thm5": {
        "kind": "pair",
        "fn": _thm5,
        "summary": "spaced priority push reaches most users within ~log2 n slots per piece",
    },
    "thm6": {
        "kind": "upper",
        "fn": _thm6,
        "summary": "interleave completes within 9k + 2(1+eps) log2 n slots whp",
    },
    "thm7": {
        "kind": "lower",
        "fn": _thm7,
        "summary": "advocate pull completes in n + O(ln n) slots",
    },
}


def bound_value(theorem: str, **params):
    """Evaluate one catalog entry; returns a float, or a pair for thm5.

    Raises ValueError for unknown ids, missing parameters, or parameters
    outside the stated range.
    """
    entry = THEOREMS.get(theorem)
    if entry is None:
        raise ValueError(
            f"unknown theorem id {theorem!r}; known: {sorted(THEOREMS)}"
        )
    return entry["fn"](params)
