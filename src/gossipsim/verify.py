"""Check recorded runs against the analytic bound catalog.

``verify_rows`` takes result rows (from a sweep CSV or simulate JSONL),
confirms the requested bound actually applies to those runs — protocol,
initial state, and constraint must match the bound's hypotheses — and then
evaluates the bound per row.  Verification never passes while any member
run violates a bound claimed to hold for all runs, and it refuses outright
(rather than failing) when the results cannot support the claim at all.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from statistics import fmean
from typing import Any

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
)
from .oracle import THEOREMS, bound_value
from .sweep import REACH_DELTA

__all__ = [
    "VerificationRefusal",
    "BoundReport",
    "load_results",
    "verify_rows",
]

_PULL_PROTOCOLS = (RANDOM_PULL, SEQUENTIAL_PULL)

# Hypotheses each bound needs from the runs it is checked against.
_GUARDS: dict[str, dict[str, tuple]] = {
    "thm1": {"protocol": _PULL_PROTOCOLS},
    "thm2": {"protocol": _PULL_PROTOCOLS, "initial_state": (ETA_SEEDED,)},
    "thm3": {
        "protocol": _PULL_PROTOCOLS,
        "initial_state": (SINGLE_SOURCE, ONE_UNIQUE),
    },
    "thm4": {"protocol": (RANDOM_PUSH, PRIORITY_PUSH)},
    "thm5": {"protocol": (PRIORITY_PUSH,)},
    "thm6": {"protocol": (INTERLEAVE,), "initial_state": (SINGLE_SOURCE,)},
    "thm7": {
        "protocol": (ADVOCATE,),
        "initial_state": (ONE_UNIQUE,),
        "constraint": (SOFT,),
    },
}

# Fraction of runs an all-but-vanishing-probability upper bound must cover:
# 0.999 of the bound's own success probability 1 - n^(-c).
_WHP_MARGIN = 0.999


class VerificationRefusal(Exception):
    """The results cannot support the requested bound at all — wrong
    protocol, missing statistics, or no rows."""


@dataclass
class BoundReport:
    """Outcome of checking one bound against a set of runs."""

    theorem: str
    kind: str
    params: dict[str, Any]
    rows: int
    bound: Any
    empirical: dict[str, Any]
    fraction_within: float
    verdict: bool
    details: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, default=str)


_INT_FIELDS = (
    "schema_version",
    "n",
    "k",
    "contact_list_size",
    "spacing",
    "seed_index",
    "seed",
    "completion_slot",
    "slots",
    "failed_piece_count",
)
_FLOAT_FIELDS = ("eta", "delay_limit", "reach_fraction", "wall_time_s")


def _coerce(row: dict, where: str) -> dict:
    out = dict(row)
    for names, kind, what in (
        (_INT_FIELDS, int, "an integer"),
        (_FLOAT_FIELDS, float, "a number"),
    ):
        for name in names:
            v = out.get(name)
            if isinstance(v, str):
                try:
                    out[name] = kind(v) if v else None
                except ValueError:
                    raise ConfigError(f"{where}: {name}: need {what}, got {v!r}") from None
    v = out.get("completed")
    if isinstance(v, str):
        out["completed"] = v.strip().lower() in ("true", "1", "yes")
    return out


def load_results(path: str | Path) -> list:
    """Load result rows from a sweep CSV or a simulate JSONL file; a line
    that does not parse is a :class:`ConfigError` naming the file and line."""
    path = Path(path)
    if path.suffix == ".jsonl":
        rows = []
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: line {number}: not JSON: {exc.msg}") from None
            if not isinstance(rec, dict):
                raise ConfigError(f"{path}: line {number}: need a JSON object")
            row = dict(rec.get("config", {}))
            for key, value in rec.items():
                if key != "config" and not isinstance(value, dict):
                    row[key] = value
            for key, value in rec.get("metrics", {}).items():
                row[key] = value
            rows.append(row)
        return rows
    import csv

    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return [_coerce(row, f"{path}: line {reader.line_num}") for row in reader]


def _check_applicability(theorem: str, rows: list) -> None:
    if theorem not in THEOREMS:
        raise ConfigError(
            f"unknown theorem id {theorem!r}; known: {sorted(THEOREMS)}"
        )
    if not rows:
        raise VerificationRefusal(f"{theorem}: no result rows to check")
    for name, allowed in _GUARDS[theorem].items():
        seen = {row.get(name) for row in rows}
        bad = seen - set(allowed)
        if bad:
            raise VerificationRefusal(
                f"{theorem}: bound applies only to runs with {name} in "
                f"{sorted(allowed)}, but results contain {sorted(map(str, bad))}"
            )


def _completion_or_cap(row: dict) -> int:
    """Completion slot, or the slot cap reached for an unfinished run."""
    slot = row.get("completion_slot")
    return row["slots"] if slot is None else slot


def _bound_params(row: dict, theorem: str, params: dict) -> dict:
    merged = {"n": row["n"], "k": row["k"]}
    if theorem == "thm2":
        merged["eta"] = row.get("eta")
    if theorem == "thm5":
        merged["l"] = row.get("spacing")
        merged.pop("k")
    if theorem == "thm7":
        merged.pop("k")
    merged.update(params)
    return merged


_DEFAULTS = {
    "thm1": {"beta": 0.5, "eps": 0.1},
    "thm2": {"c": 1.0},
    "thm3": {"delta": 0.1, "c": 1.0},
    "thm4": {"beta": 0.5, "eps": 0.1},
    "thm5": {"delta": REACH_DELTA},
    "thm6": {"eps": 0.1},
    "thm7": {"C": 3.0},
}


def verify_rows(rows: list, theorem: str, params: dict | None = None) -> BoundReport:
    """Check one catalog bound against result rows.

    Lower bounds (thm1, thm4, thm7) must hold for every run — a run that
    hit its slot cap counts as satisfying a lower bound only if the cap
    already exceeds it.  Upper bounds hold either for every run (thm3,
    thm6) or for at least 0.999 (1 - n^-c) of runs (thm2).  thm5 checks
    the recorded coverage pair per run.  Parameters not supplied fall back
    to documented defaults.
    """
    _check_applicability(theorem, rows)
    merged_params = dict(_DEFAULTS[theorem])
    merged_params.update(params or {})
    kind = THEOREMS[theorem]["kind"]

    if theorem == "thm5":
        return _verify_reach(rows, theorem, merged_params)
    if theorem == "thm7":
        return _verify_linear(rows, theorem, merged_params)

    bounds = []
    times = []
    violations = []
    for row in rows:
        b = bound_value(theorem, **_bound_params(row, theorem, merged_params))
        t = _completion_or_cap(row)
        bounds.append(b)
        times.append(t)
        ok = t >= b if kind == "lower" else (row["completed"] and t <= b)
        if not ok:
            violations.append(row.get("run_id") or f"row{len(times) - 1}")
    within = 1.0 - len(violations) / len(rows)
    if theorem == "thm2":
        n_min = min(row["n"] for row in rows)
        required = _WHP_MARGIN * (1.0 - n_min ** (-merged_params["c"]))
        verdict = within >= required
    else:
        required = 1.0
        verdict = not violations
    return BoundReport(
        theorem=theorem,
        kind=kind,
        params=merged_params,
        rows=len(rows),
        bound=min(bounds) if kind == "upper" else max(bounds),
        empirical={
            "min_time": min(times),
            "max_time": max(times),
            "mean_time": round(fmean(times), 3),
        },
        fraction_within=round(within, 6),
        verdict=verdict,
        details={
            "required_fraction": round(required, 6),
            "violations": violations[:10],
            "violation_count": len(violations),
        },
    )


def _verify_reach(rows: list, theorem: str, params: dict) -> BoundReport:
    """Coverage pair for spaced priority push: each run's recorded
    reach_fraction must show ~all pieces hitting the target fraction of
    users within the per-piece window."""
    missing = [r for r in rows if r.get("reach_fraction") is None]
    if missing:
        raise VerificationRefusal(
            f"{theorem}: results lack the per-run reach_fraction statistic "
            "(re-run the sweep with a spaced-push protocol to record it)"
        )
    if abs(params["delta"] - REACH_DELTA) > 1e-12:
        raise VerificationRefusal(
            f"{theorem}: recorded reach_fraction uses delta={REACH_DELTA}; "
            f"cannot re-check at delta={params['delta']}"
        )
    fractions = []
    windows = []
    reaches = [row["reach_fraction"] for row in rows]
    for row in rows:
        frac, window = bound_value(theorem, **_bound_params(row, theorem, params))
        fractions.append(frac)
        windows.append(window)
    mean_reach = fmean(reaches)
    verdict = mean_reach >= 0.9
    return BoundReport(
        theorem=theorem,
        kind="pair",
        params=params,
        rows=len(rows),
        bound={"fraction": min(fractions), "window_slots": max(windows)},
        empirical={
            "mean_reach_fraction": round(mean_reach, 6),
            "min_reach_fraction": round(min(reaches), 6),
        },
        fraction_within=round(mean_reach, 6),
        verdict=verdict,
        details={"required_mean_reach": 0.9},
    )


def _verify_linear(rows: list, theorem: str, params: dict) -> BoundReport:
    """Advocate pull: every run needs at least n - 1 slots, and the excess
    over n must grow only logarithmically — checked as max excess within
    the supplied C times ln n on every run."""
    violations = []
    excess_ratios = []
    for i, row in enumerate(rows):
        t = _completion_or_cap(row)
        n = row["n"]
        if t < n - 1 or not row["completed"]:
            violations.append(row.get("run_id") or f"row{i}")
            continue
        bound = bound_value(theorem, **_bound_params(row, theorem, params))
        excess_ratios.append((t - n) / math.log(n))
        if t > bound:
            violations.append(row.get("run_id") or f"row{i}")
    within = 1.0 - len(violations) / len(rows)
    fitted = max(excess_ratios) if excess_ratios else None
    return BoundReport(
        theorem=theorem,
        kind="lower",
        params=params,
        rows=len(rows),
        bound={"floor": "n - 1", "ceiling": f"n + {params['C']} ln n"},
        empirical={
            "max_excess_over_n_per_ln_n": round(fitted, 3) if fitted is not None else None,
        },
        fraction_within=round(within, 6),
        verdict=not violations,
        details={"violations": violations[:10], "violation_count": len(violations)},
    )
