"""Datasets behind the report figures.

Each figure is a named, seeded experiment grid producing a tidy CSV:

* ``fig1`` — interleave completion time vs contact-list size, full view
  included as the rightmost cell;
* ``fig2`` — interleave delay profiles D(d) for a few contact-list sizes
  vs the full view, pointwise over d;
* ``fig3`` — delay-profile plateaus of spaced priority push for release
  spacings l = 1..4 under the full view.

``scale`` shrinks the canonical population (n=500, k=1000) for quick runs
while keeping every structural feature of the experiment intact.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Any

from .config import (
    FIXED_LISTS,
    HARD,
    INTERLEAVE,
    PRIORITY_PUSH,
    SCHEMA_VERSION,
    SINGLE_SOURCE,
    UNIFORM,
    ConfigError,
    SimulationConfig,
)
from .sweep import RunPlan, derive_seed, execute, write_rows_csv
from .version import VERSION

__all__ = ["FIGURES", "FULL_VIEW", "FigureDataset", "reproduce"]

FULL_VIEW = "full"

FIG1_LIST_SIZES = (2, 3, 4, 5, 8, 16, 32)
FIG2_LIST_SIZES = (2, 4, 5)
FIG3_SPACINGS = (1, 2, 3, 4)

FIGURES = ("fig1", "fig2", "fig3")

_BASE_N = 500
_BASE_K = 1000
_DEFAULT_MASTER_SEED = 97


@dataclass
class FigureDataset:
    """Tidy rows for one figure, ready to plot or write as CSV."""

    figure: str
    params: dict[str, Any]
    columns: tuple
    rows: list

    def write_csv(self, path):
        return write_rows_csv(self.rows, path, self.columns)


def _scaled(scale: float) -> tuple[int, int]:
    if not 0 < scale <= 1:
        raise ConfigError(f"scale: need a value in (0, 1], got {scale!r}")
    n = max(16, round(_BASE_N * scale))
    k = max(4, round(_BASE_K * scale))
    return n, k


def _plan_cell(figure: str, cell: tuple, config_data: dict, seeds: int, master_seed: int):
    plans = []
    tagged_cell = (("figure", figure),) + cell
    for seed_index in range(seeds):
        data = dict(config_data)
        data["seed"] = derive_seed(master_seed, tagged_cell, seed_index)
        config = SimulationConfig.from_mapping(
            data, where=f"{figure} cell {cell}"
        )
        run_id = hashlib.sha256(
            f"{master_seed}|{tagged_cell}|{seed_index}".encode()
        ).hexdigest()[:12]
        plans.append(
            RunPlan(run_id=run_id, cell=tagged_cell, seed_index=seed_index, config=config)
        )
    return plans


def _interleave_config(n: int, k: int, m) -> dict:
    data = {
        "n": n,
        "k": k,
        "protocol": INTERLEAVE,
        "constraint": HARD,
        "initial_state": SINGLE_SOURCE,
    }
    if m != FULL_VIEW:
        data["contact_model"] = FIXED_LISTS
        data["contact_list_size"] = m
    else:
        data["contact_model"] = UNIFORM
    return data


def _fig1(scale: float, seeds: int, jobs: int, master_seed: int) -> FigureDataset:
    n, k = _scaled(scale)
    cells = [m for m in FIG1_LIST_SIZES if m <= n - 1] + [FULL_VIEW]
    plans = []
    for m in cells:
        plans += _plan_cell(
            "fig1", (("m", m),), _interleave_config(n, k, m), seeds, master_seed
        )
    run_rows = execute(plans, jobs=jobs)
    rows = []
    for i, m in enumerate(cells):
        member_rows = run_rows[i * seeds : (i + 1) * seeds]
        completions = [
            r["completion_slot"] for r in member_rows if r["completion_slot"] is not None
        ]
        rows.append(
            {
                "schema_version": SCHEMA_VERSION,
                "tool_version": VERSION,
                "figure": "fig1",
                "m": m,
                "n": n,
                "k": k,
                "seeds": seeds,
                "completed_runs": len(completions),
                "mean_completion": (
                    round(sum(completions) / len(completions), 3) if completions else None
                ),
                "min_completion": min(completions) if completions else None,
                "max_completion": max(completions) if completions else None,
            }
        )
    return FigureDataset(
        figure="fig1",
        params={"n": n, "k": k, "seeds": seeds, "master_seed": master_seed},
        columns=(
            "schema_version",
            "tool_version",
            "figure",
            "m",
            "n",
            "k",
            "seeds",
            "completed_runs",
            "mean_completion",
            "min_completion",
            "max_completion",
        ),
        rows=rows,
    )


def _profile_rows(figure: str, label_name: str, labels: list, plans: list, jobs: int) -> list:
    """Pointwise mean/min/max of D(d) across seeds, on each cell's common
    d-grid.  `plans` holds the same number of seeds per cell, cells in the
    order of their `labels`."""
    run_rows = execute(plans, jobs=jobs, keep_profile=True)
    seeds = len(plans) // len(labels)
    rows = []
    for i, label in enumerate(labels):
        profiles = [r["profile"] for r in run_rows[i * seeds : (i + 1) * seeds]]
        max_d = max(p.max_delay for p in profiles)
        for d in range(max_d + 1):
            values = [p.at(d) for p in profiles]
            rows.append(
                {
                    "schema_version": SCHEMA_VERSION,
                    "tool_version": VERSION,
                    "figure": figure,
                    label_name: label,
                    "d": d,
                    "mean_D": round(sum(values) / len(values), 6),
                    "min_D": round(min(values), 6),
                    "max_D": round(max(values), 6),
                }
            )
    return rows


def _fig2(scale: float, seeds: int, jobs: int, master_seed: int) -> FigureDataset:
    n, k = _scaled(scale)
    cells = [m for m in FIG2_LIST_SIZES if m <= n - 1] + [FULL_VIEW]
    plans = []
    for m in cells:
        plans += _plan_cell(
            "fig2", (("m", m),), _interleave_config(n, k, m), seeds, master_seed
        )
    rows = _profile_rows("fig2", "m", cells, plans, jobs)
    return FigureDataset(
        figure="fig2",
        params={"n": n, "k": k, "seeds": seeds, "master_seed": master_seed},
        columns=(
            "schema_version",
            "tool_version",
            "figure",
            "m",
            "d",
            "mean_D",
            "min_D",
            "max_D",
        ),
        rows=rows,
    )


def _fig3(scale: float, seeds: int, jobs: int, master_seed: int) -> FigureDataset:
    n, k = _scaled(scale)
    plans = []
    for spacing in FIG3_SPACINGS:
        # The profile's plateau needs the run to settle, not to complete:
        # cap the horizon at the release schedule plus a spread margin.
        horizon = k * spacing + 6 * math.ceil(math.log2(n)) + 24
        data = {
            "n": n,
            "k": k,
            "protocol": PRIORITY_PUSH,
            "constraint": HARD,
            "initial_state": SINGLE_SOURCE,
            "spacing": spacing,
            "max_slots": horizon,
        }
        plans += _plan_cell("fig3", (("l", spacing),), data, seeds, master_seed)
    rows = _profile_rows("fig3", "l", FIG3_SPACINGS, plans, jobs)
    return FigureDataset(
        figure="fig3",
        params={"n": n, "k": k, "seeds": seeds, "master_seed": master_seed},
        columns=(
            "schema_version",
            "tool_version",
            "figure",
            "l",
            "d",
            "mean_D",
            "min_D",
            "max_D",
        ),
        rows=rows,
    )


def reproduce(
    figure: str,
    scale: float = 1.0,
    seeds: int = 10,
    jobs: int = 1,
    master_seed: int = _DEFAULT_MASTER_SEED,
) -> FigureDataset:
    """Regenerate one figure's dataset; deterministic in all arguments."""
    if seeds < 1:
        raise ConfigError(f"seeds: need an integer >= 1, got {seeds!r}")
    if figure == "fig1":
        return _fig1(scale, seeds, jobs, master_seed)
    if figure == "fig2":
        return _fig2(scale, seeds, jobs, master_seed)
    if figure == "fig3":
        return _fig3(scale, seeds, jobs, master_seed)
    raise ConfigError(f"figure: unknown id {figure!r}; known: {FIGURES}")
