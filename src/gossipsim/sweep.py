"""Seeded sweeps: run grids expanded deterministically, executed in this
process or split across forked workers, and written as versioned CSVs.

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
import os
import pickle
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean
from typing import Any, Mapping

from .config import (
    CONFIG_FIELDS,
    HEADER,
    ConfigError,
    SimulationConfig,
    check_keys,
    check_range,
    read_versioned_yaml,
)
from .engine import RunResult, run as run_engine
from .metrics import delay_profile, run_metrics

__all__ = [
    "AXIS_FIELDS",
    "MAX_JOBS",
    "SweepSpec",
    "RunPlan",
    "load_sweep",
    "check_seeds",
    "derive_seed",
    "plan",
    "expand",
    "execute",
    "summarize_run",
    "aggregate",
    "run_sweep",
    "write_rows_csv",
    "written",
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

# Most worker processes a sweep or figure may ask for: each is a fork of the
# caller, and all of them run at once.
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

RUN_COLUMNS = {
    **{name: type(value) for name, value in HEADER.items()},
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
    *HEADER,
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


def summarize_run(plan: RunPlan, result: RunResult, wall_time: float) -> dict:
    """Flatten one run, with its :func:`~gossipsim.metrics.run_metrics`
    that are run columns, into a result row."""
    cfg = result.config
    return {
        **HEADER,
        "run_id": plan.run_id,
        **{name: getattr(cfg, name) for name in _CELL_KEY},
        "seed_index": plan.seed_index,
        "seed": cfg.seed,
        "completed": result.completed,
        "completion_slot": result.completion_slot,
        "slots": result.slots,
        **{name: value for name, value in run_metrics(result).items() if name in RUN_COLUMNS},
        "wall_time_s": round(wall_time, 3),
    }


def _execute_plan(plan: RunPlan, keep_profile: bool = False) -> dict:
    start = time.perf_counter()
    result = run_engine(plan.config)
    row = summarize_run(plan, result, time.perf_counter() - start)
    if keep_profile:
        row["profile"] = delay_profile(result)
    return row


def _work(share: list, keep_profile: bool, fd: int) -> None:
    """A forked worker: pipe `share`'s rows, or what stopped them, to `fd`
    as one pickle, and exit without returning into the caller's stack."""
    try:
        try:
            out = pickle.dumps([_execute_plan(plan, keep_profile) for plan in share])
        except BaseException as exc:
            try:
                pickle.loads(out := pickle.dumps(exc))
            except Exception:
                import traceback
                out = pickle.dumps(RuntimeError("".join(traceback.format_exception(exc))))
        with open(fd, "wb") as fh:
            fh.write(out)
        os._exit(0)
    finally:
        os._exit(1)


def execute(plans: list, jobs: int = 1, keep_profile: bool = False) -> list:
    """Run all plans, in this process or in forked workers; row order
    follows plan order either way.  Each row holds the run's
    :func:`~gossipsim.metrics.run_metrics` run columns; only with
    `keep_profile` is the run's full :class:`~gossipsim.metrics.DelayProfile`
    built, and carried under ``"profile"``, so that a worker returns the
    profile rather than the run's (n, k) arrivals matrix.
    `jobs` is an integer in [1, MAX_JOBS], above 1 only with `os.fork`: then
    worker i of w = min(jobs, plans) runs ``plans[i::w]``, and none outlives
    the call."""
    check_range("jobs", jobs, int, 1, MAX_JOBS, "[]")
    if jobs > 1 and not hasattr(os, "fork"):
        raise ConfigError(f"jobs: {jobs} needs os.fork, which this platform lacks; use 1")
    w = min(jobs, len(plans))
    if w <= 1:
        return [_execute_plan(plan, keep_profile) for plan in plans]
    workers = []  # (pid, read end of its pipe) of each worker not yet reaped
    rows = [None] * len(plans)
    try:
        for i in range(w):
            r, fd = os.pipe()
            if (pid := os.fork()) == 0:
                _work(plans[i::w], keep_profile, fd)
            os.close(fd)
            workers.append((pid, open(r, "rb")))
        for i in range(w):
            pid, fh = workers[0]
            with fh:
                data = fh.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del workers[0]
            if status or not data:
                raise RuntimeError(f"worker {pid} exited with status {status} without its rows")
            if isinstance(out := pickle.loads(data), BaseException):
                raise out
            rows[i::w] = out
    finally:
        import signal  # here, not at module import: most commands fork no worker
        for pid, fh in workers:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            fh.close()
    return rows


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
        agg = {**HEADER, **dict(zip(_CELL_KEY, key))}
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


@contextmanager
def written(path: str | Path):
    """A text file for `path`'s whole content: a hidden file beside it, moved to
    `path` when the block ends and removed if it raises, leaving any older file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    part = path.with_name(f".{path.name}.{os.getpid()}.part")
    try:
        with open(part, "w", newline="") as fh:
            yield fh
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def write_rows_csv(rows: list, path: str | Path, columns) -> Path:
    """Write rows as CSV with the fixed, versioned column set."""
    path = Path(path)
    with written(path) as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow(
                {c: ("" if row.get(c) is None else row.get(c)) for c in columns}
            )
    return path
