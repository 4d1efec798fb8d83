"""Check recorded runs against the analytic bound catalog.

``verify_rows`` takes result rows (from a sweep CSV or simulate JSONL),
confirms the requested bound actually applies to those runs — uniform
contacts, and the protocol, initial state and constraint its catalog entry
allows — and then evaluates the bound per row.  Verification never passes
while any member run violates a bound claimed to hold for all runs, and it
refuses outright (rather than failing) when the results cannot support the
claim at all.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from statistics import fmean
from typing import Any

from .config import NEED, ConfigError, check_keys, check_range, is_kind
from .metrics import reach_window
from .oracle import REACH_DELTA, UNIFORM_CONTACTS, check_params, theorem_entry
from .sweep import AXIS_FIELDS, RUN_COLUMNS

__all__ = [
    "VerificationRefusal",
    "BoundReport",
    "load_results",
    "verify_rows",
]

# Fraction of runs an all-but-vanishing-probability upper bound must cover:
# 0.999 of the bound's own success probability 1 - n^(-c).
_WHP_MARGIN = 0.999

# Columns the completion-time check and the reach check read from each run.
_TIME_COLUMNS = ("completed", "completion_slot", "slots")
_REACH_COLUMNS = ("reach_fraction",)


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


_FLAGS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _column_value(name: str, value, where: str, cell: bool):
    """`value` read as run column `name`'s type.  A CSV `cell` is text: an
    empty one is None, and a number or a flag is parsed from it.  A JSONL
    value must have the type already; None passes, and so does an int where
    a float is wanted, but a bool is never a number."""
    kind = RUN_COLUMNS[name]
    if cell and kind is not str:
        if not value:
            return None
        try:
            return _FLAGS[value.strip().lower()] if kind is bool else kind(value)
        except (KeyError, ValueError):
            pass
    elif value is None or is_kind(value, kind):
        return value
    raise ConfigError(f"{where}: {name}: need {NEED[kind]}, got {value!r}")


def _typed(row: dict, where: str, cell: bool = False) -> dict:
    return {
        name: _column_value(name, value, where, cell) if name in RUN_COLUMNS else value
        for name, value in row.items()
    }


def load_results(path: str | Path) -> list:
    """Load result rows from a sweep CSV or a simulate JSONL file, each run
    column read as its :data:`~gossipsim.sweep.RUN_COLUMNS` type; a line
    that does not parse, or a value of the wrong type, is a
    :class:`ConfigError` naming the file and line."""
    path = Path(path)
    if path.suffix != ".jsonl":
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            return [_typed(row, f"{path}: line {reader.line_num}", cell=True) for row in reader]
    rows = []
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip():
            continue
        where = f"{path}: line {number}"
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{where}: not JSON: {exc.msg}") from None
        if not isinstance(rec, dict):
            raise ConfigError(f"{where}: need a JSON object")
        for key in ("config", "metrics"):
            if not isinstance(rec.get(key, {}), dict):
                raise ConfigError(f"{where}: {key}: need a JSON object, got {rec[key]!r}")
        top = {key: value for key, value in rec.items() if not isinstance(value, dict)}
        rows.append(_typed({**rec.get("config", {}), **top, **rec.get("metrics", {})}, where))
    return rows


def _require_columns(rows: list, columns, theorem: str, where: str) -> None:
    for column in columns:
        if any(column not in row for row in rows):
            raise ConfigError(f"{where}: no {column!r} column, which {theorem} reads")


def verify_rows(
    rows: list, theorem: str, params: dict | None = None, where: str = "results"
) -> BoundReport:
    """Check one catalog bound against result rows, one pass for every kind.

    Lower bounds must hold for every run — a run that hit its slot cap
    counts as satisfying a lower bound only if the cap already exceeds it.
    Upper bounds hold for every run, or for at least 0.999 (1 - n^-c) of
    runs where the entry says "whp".  A band needs every run to finish
    between its floor and the bound.  A coverage pair reads each run's
    reach fraction, recorded at delta ``REACH_DELTA``, and needs a mean of
    at least 0.9; the report states the window that statistic used.  `params`
    may set only the entry's defaults (the bound's numbers, such as beta and
    c); every other parameter is read from the run column of its sweep axis
    name (n, k, eta, and spacing for l).  Every bound also needs uniform
    contacts.  Rows missing a column the check reads, or with a value out of
    its parameter's range there (None included), or a completion slot, slot
    count, completed flag or reach fraction that no run can have, are a
    :class:`ConfigError` naming `where`, the run if a value, and the column.
    """
    entry = theorem_entry(theorem)
    if not rows:
        raise VerificationRefusal(f"{theorem}: no result rows to check")
    applies = {**entry["applies"], **UNIFORM_CONTACTS}
    _require_columns(rows, applies, theorem, where)
    for name, allowed in applies.items():
        bad = {str(row[name]) for row in rows if row[name] not in allowed}
        if bad:
            raise VerificationRefusal(
                f"{theorem}: bound applies only to runs with {name} in "
                f"{sorted(allowed)}, but results contain {sorted(bad)}"
            )
    kind, floor = entry["kind"], entry.get("floor")
    reads = _REACH_COLUMNS if kind == "pair" else _TIME_COLUMNS
    ranges = entry["params"]
    columns = [(p, AXIS_FIELDS[p]) for p in ranges if p not in entry["defaults"]]
    _require_columns(rows, (*(c for _, c in columns), *reads), theorem, where)
    given = {} if params is None else params
    check_keys(theorem, given, entry["defaults"])
    check_params(theorem, given)  # the defaults are in range by the catalog's own test
    params = {**entry["defaults"], **given}
    if kind == "pair" and any(row["reach_fraction"] is None for row in rows):
        raise VerificationRefusal(
            f"{theorem}: results lack the per-run reach_fraction statistic "
            "(re-run the sweep with a spaced-push protocol to record it)"
        )
    if kind == "pair" and abs(params["delta"] - REACH_DELTA) > 1e-12:
        raise VerificationRefusal(
            f"{theorem}: recorded reach_fraction uses delta={REACH_DELTA}; "
            f"cannot re-check at delta={params['delta']}"
        )

    bounds = []
    measures = []
    excess = []
    violations = []
    for i, row in enumerate(rows):
        run = row.get("run_id") or f"row{i}"
        at = f"{where}: {run}"
        values = {p: check_range(f"{at}: {c}", row[c], *ranges[p]) for p, c in columns} | params
        b = entry["fn"](**values)
        bounds.append(b)
        if kind == "pair":
            reach = check_range(f"{at}: reach_fraction", row["reach_fraction"], float, 0, 1, "[]")
            measures.append(reach)
            continue
        for column in ("completion_slot", "slots"):
            if row[column] is not None:
                check_range(f"{at}: {column}", row[column], int, 0, math.inf, "[)")
        t = row["completion_slot"]
        if t is None:  # an unfinished run: the slot cap it reached
            t = row["slots"]
        done = _column_value("completed", row["completed"], at, cell=False)
        if t is None or done is None:
            raise ConfigError(f"{at}: need completed, and slots if no completion_slot")
        measures.append(t)
        if floor is not None:
            ok = done and t >= floor(**values)
            if ok:
                excess.append((t - row["n"]) / math.log(row["n"]))
            ok = ok and t <= b
        else:
            ok = t >= b if kind == "lower" else (done and t <= b)
        if not ok:
            violations.append(run)
    within = 1.0 - len(violations) / len(rows)
    details = {"violations": violations[:10], "violation_count": len(violations)}
    required = 1.0
    if kind == "pair":
        within, required = fmean(measures), 0.9
        details = {
            "required_mean_reach": required,
            "reach_window_slots": max(reach_window(row["n"]) for row in rows),
        }
        bound = {
            "fraction": min(frac for frac, _ in bounds),
            "window_slots": max(window for _, window in bounds),
        }
        empirical = {
            "mean_reach_fraction": round(within, 6),
            "min_reach_fraction": round(min(measures), 6),
        }
    elif floor is not None:
        bound = {side: text.format(**params) for side, text in entry["band"].items()}
        fitted = round(max(excess), 3) if excess else None
        empirical = {"max_excess_over_n_per_ln_n": fitted}
    else:
        if entry.get("whp"):
            n_min = min(row["n"] for row in rows)
            required = _WHP_MARGIN * (1.0 - n_min ** (-params["c"]))
        bound = min(bounds) if kind == "upper" else max(bounds)
        empirical = {
            "min_time": min(measures),
            "max_time": max(measures),
            "mean_time": round(fmean(measures), 3),
        }
        details["required_fraction"] = round(required, 6)
    return BoundReport(
        theorem=theorem,
        kind=kind,
        params=params,
        rows=len(rows),
        bound=bound,
        empirical=empirical,
        fraction_within=round(within, 6),
        verdict=within >= required,
        details=details,
    )
