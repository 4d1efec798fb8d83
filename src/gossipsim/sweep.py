"""Seeded sweeps: run grids expanded deterministically, executed serially
or across processes, and written as versioned CSVs.

Per-run seeds are derived by hashing (master seed, cell, seed index), so a
sweep's outcome is independent of execution order and worker count, and any
single run can be reproduced from its row plus the sweep's ``base`` (which
may set fields, such as ``max_slots``, that the row does not carry).
Sweeps and the report figures plan their runs through the one :func:`plan`.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import math
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from statistics import fmean
from typing import Any, Mapping

from .config import (
    CONFIG_FIELDS,
    PRIORITY_PUSH,
    SCHEMA_VERSION,
    ConfigError,
    SimulationConfig,
    check_keys,
    check_range,
    read_versioned_yaml,
)
from .engine import RunResult, run as run_engine
from .metrics import DelayProfile, delay_profile, failed_pieces, pieces_reached
from .oracle import REACH_DELTA
from .version import VERSION

__all__ = [
    "AXIS_FIELDS",
    "MAX_JOBS",
    "REACH_DELTA",
    "REACH_WINDOW_FACTOR",
    "SweepSpec",
    "RunPlan",
    "load_sweep",
    "check_seeds",
    "derive_seed",
    "plan",
    "expand",
    "execute",
    "reach_window",
    "reach_summary",
    "summarize_run",
    "aggregate",
    "run_sweep",
    "write_rows_csv",
    "RUN_COLUMNS",
    "AGGREGATE_COLUMNS",
]

# Sweep axis names -> config fields.  Axes use the short names that appear
# in result tables; everything else in a sweep file sits under `base`.
AXIS_FIELDS = {
    "n": "n",
    "k": "k",
    "m": "contact_list_size",
    "l": "spacing",
    "protocol": "protocol",
    "constraint": "constraint",
    "initial_state": "initial_state",
    "eta": "eta",
}

# Convention for the per-piece reach diagnostic recorded for spaced-push
# runs: a piece "reaches" when ceil((1 - e^{-l} - REACH_DELTA) n) users hold
# it within ceil(REACH_WINDOW_FACTOR * log2 n) slots of its release.  This
# is the desk-scale relaxation of the (1 - e^{-l} - delta, (1 + delta)
# log2 n) coverage guarantee of spaced push that `verify` checks.
REACH_WINDOW_FACTOR = 1.3

# Most worker processes a sweep or figure may ask for: a process pool
# starts all its workers at once, however few runs there are.
MAX_JOBS = 64

# The run row schema: each column of a sweep's runs.csv, in order, with the
# type `verify` reads it as.  A sweep cell is keyed by its nine config
# columns, which both result tables carry.
_CELL_KEY = {
    "protocol": str,
    "n": int,
    "k": int,
    "constraint": str,
    "contact_model": str,
    "contact_list_size": int,
    "initial_state": str,
    "eta": float,
    "spacing": int,
}
_VERSION_COLUMNS = {"schema_version": int, "tool_version": str}

RUN_COLUMNS = {
    **_VERSION_COLUMNS,
    "run_id": str,
    **_CELL_KEY,
    "seed_index": int,
    "seed": int,
    "completed": bool,
    "completion_slot": int,
    "slots": int,
    "delay_limit": float,
    "failed_piece_count": int,
    "reach_fraction": float,
    "wall_time_s": float,
}

AGGREGATE_COLUMNS = (
    *_VERSION_COLUMNS,
    *_CELL_KEY,
    "runs",
    "completed_runs",
    "mean_completion",
    "min_completion",
    "max_completion",
    "mean_delay_limit",
)


@dataclass
class SweepSpec:
    """A base config, a grid of axes, and a seed plan."""

    base: dict[str, Any]
    axes: list[tuple[str, list[Any]]]
    seeds: int
    master_seed: int

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any], where: str = "sweep") -> "SweepSpec":
        check_keys(where, data, ("base", "axes", "seeds", "master_seed"), ("base",))
        base = check_keys(f"{where}: base", data["base"], CONFIG_FIELDS)
        if "seed" in base:
            raise ConfigError(
                f"{where}: base.seed is not used: each run's seed is derived "
                "from 'master_seed'; set that instead"
            )
        if base.get("record_trace"):
            raise ConfigError(
                f"{where}: base.record_trace is not used: a sweep writes no "
                "trace; use 'simulate --trace' for one run's events"
            )
        axes = []
        axes_raw = check_keys(f"{where}: axes", data.get("axes", {}), AXIS_FIELDS)
        for name, values in axes_raw.items():
            if not isinstance(values, list) or not values:
                raise ConfigError(f"{where}: axis {name!r} needs a non-empty list")
            for i, value in enumerate(values):
                if value in values[:i]:  # by ==: unhashable values are compared too
                    raise ConfigError(f"{where}: axis {name!r} lists {value!r} twice")
            axes.append((name, list(values)))
        seeds = data.get("seeds", 1)
        master_seed = data.get("master_seed", 0)
        check_seeds(seeds, master_seed, where)
        return cls(base=dict(base), axes=axes, seeds=seeds, master_seed=master_seed)


def check_seeds(seeds, master_seed, where: str) -> None:
    """The seed plan rule shared by sweeps and figures: at least one seed
    per cell and a non-negative master seed, both integers."""
    check_range(f"{where}: seeds", seeds, int, 1, math.inf, "[)")
    check_range(f"{where}: master_seed", master_seed, int, 0, math.inf, "[)")


def load_sweep(path: str | Path) -> SweepSpec:
    """Load a sweep spec from a YAML file (schema-versioned like configs)."""
    return SweepSpec.from_mapping(read_versioned_yaml(path), where=str(Path(path)))


@dataclass(frozen=True)
class RunPlan:
    """One fully specified run within a sweep."""

    run_id: str
    seed_index: int
    config: SimulationConfig


def derive_seed(master_seed: int, cell, seed_index: int) -> int:
    """Stable 64-bit seed for one (cell, seed index) pair."""
    tag = (
        f"{master_seed}|"
        + ",".join(f"{name}={value}" for name, value in cell)
        + f"|{seed_index}"
    )
    return int.from_bytes(hashlib.sha256(tag.encode()).digest()[:8], "big")


def plan(cells, seeds: int, master_seed: int) -> list[RunPlan]:
    """`seeds` run plans for each (cell, config data) pair, in cell order.

    A run's seed and run id hash (master seed, cell, seed index), so they
    depend on the cell's tag and not on its position.  Every config is
    validated up front, so a bad cell fails before any simulation starts.
    """
    plans = []
    for cell, data in cells:
        where = "sweep cell " + ",".join(f"{a}={v}" for a, v in cell) if cell else "sweep base"
        for seed_index in range(seeds):
            seed = derive_seed(master_seed, cell, seed_index)
            config = SimulationConfig.from_mapping({**data, "seed": seed}, where=where)
            tag = f"{master_seed}|{cell}|{seed_index}"
            run_id = hashlib.sha256(tag.encode()).hexdigest()[:12]
            plans.append(RunPlan(run_id=run_id, seed_index=seed_index, config=config))
    return plans


def expand(spec: SweepSpec) -> list[RunPlan]:
    """All run plans for a sweep: the base config under each axis cell, last axis fastest."""
    axes = [[(name, value) for value in values] for name, values in spec.axes]
    cells = [
        (cell, {**spec.base, **{AXIS_FIELDS[name]: value for name, value in cell}})
        for cell in itertools.product(*axes)
    ]
    return plan(cells, spec.seeds, spec.master_seed)


def reach_window(n: int) -> int:
    """The window of ``reach_fraction`` in a run of n users, in slots."""
    return math.ceil(REACH_WINDOW_FACTOR * math.log2(n))


def reach_summary(result: RunResult) -> dict:
    """``failed_piece_count`` (source-scheduled runs) and ``reach_fraction``
    (priority-push runs) of one run; None where a statistic is undefined."""
    cfg = result.config
    summary = {"failed_piece_count": None, "reach_fraction": None}
    if result.release_slots is not None:
        summary["failed_piece_count"] = len(failed_pieces(result))
    if cfg.protocol == PRIORITY_PUSH:
        fraction = 1.0 - math.exp(-cfg.spacing) - REACH_DELTA
        summary["reach_fraction"] = round(pieces_reached(result, fraction, reach_window(cfg.n)), 6)
    return summary


def summarize_run(
    plan: RunPlan, result: RunResult, wall_time: float, profile: DelayProfile
) -> dict:
    """Flatten one run, with its delay profile, into a result row."""
    cfg = result.config
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": VERSION,
        "run_id": plan.run_id,
        **{name: getattr(cfg, name) for name in _CELL_KEY},
        "seed_index": plan.seed_index,
        "seed": cfg.seed,
        "completed": result.completed,
        "completion_slot": result.completion_slot,
        "slots": result.slots,
        "delay_limit": round(profile.limit, 6),
        **reach_summary(result),
        "wall_time_s": round(wall_time, 3),
    }


def _execute_plan(plan: RunPlan, keep_profile: bool = False) -> dict:
    start = time.perf_counter()
    result = run_engine(plan.config)
    wall_time = time.perf_counter() - start
    profile = delay_profile(result)
    row = summarize_run(plan, result, wall_time, profile)
    if keep_profile:
        row["profile"] = profile
    return row


def ProcessPoolExecutor(max_workers: int):
    """The process pool, imported on first use: most commands run none."""
    from concurrent.futures import ProcessPoolExecutor as Pool

    return Pool(max_workers=max_workers)


def execute(plans: list, jobs: int = 1, keep_profile: bool = False) -> list:
    """Run all plans, serially or with a process pool; row order follows
    plan order either way.  With `keep_profile` each row also carries the
    run's :class:`DelayProfile` under ``"profile"``, so that a pool worker
    returns the profile rather than the run's (n, k) arrivals matrix.
    `jobs` is an integer in [1, MAX_JOBS]; the pool has at most one
    worker per plan."""
    check_range("jobs", jobs, int, 1, MAX_JOBS, "[]")
    task = partial(_execute_plan, keep_profile=keep_profile)
    if jobs == 1 or len(plans) <= 1:
        return [task(plan) for plan in plans]
    with ProcessPoolExecutor(max_workers=min(jobs, len(plans))) as pool:
        return list(pool.map(task, plans))


def aggregate(rows: list) -> list:
    """Per-cell mean/min/max summary over seeds."""
    groups: dict = {}
    for row in rows:
        groups.setdefault(tuple(row[c] for c in _CELL_KEY), []).append(row)
    out = []
    for key, members in groups.items():
        completions = [
            r["completion_slot"] for r in members if r["completion_slot"] is not None
        ]
        agg = dict(zip(_CELL_KEY, key))
        agg["schema_version"] = SCHEMA_VERSION
        agg["tool_version"] = VERSION
        agg["runs"] = len(members)
        agg["completed_runs"] = sum(1 for r in members if r["completed"])
        agg["mean_completion"] = round(fmean(completions), 3) if completions else None
        agg["min_completion"] = min(completions) if completions else None
        agg["max_completion"] = max(completions) if completions else None
        agg["mean_delay_limit"] = round(
            fmean(r["delay_limit"] for r in members), 6
        )
        out.append(agg)
    return out


def run_sweep(spec: SweepSpec, jobs: int = 1):
    """Expand, execute, aggregate: returns (run rows, aggregate rows)."""
    rows = execute(expand(spec), jobs=jobs)
    return rows, aggregate(rows)


def write_rows_csv(rows: list, path: str | Path, columns) -> Path:
    """Write rows as CSV with the fixed, versioned column set."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow(
                {c: ("" if row.get(c) is None else row.get(c)) for c in columns}
            )
    return path
