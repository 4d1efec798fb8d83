"""Datasets behind the report figures.

Each figure is a named, seeded experiment grid producing a tidy CSV:

* ``fig1`` — interleave completion time vs contact-list size, full view
  included as the rightmost cell;
* ``fig2`` — interleave delay profiles D(d) for a few contact-list sizes
  vs the full view, pointwise over d;
* ``fig3`` — delay-profile plateaus of spaced priority push for release
  spacings l = 1..4 under the full view.

A figure's runs are planned like sweep cells, by :func:`sweep.plan`, over
cells tagged ``(("figure", name), (label, value))``; fig1's statistics are
those of :func:`sweep.aggregate`.  ``scale`` shrinks the canonical
population (n=500, k=1000) for quick runs while keeping every structural
feature of the experiment intact.
"""

from __future__ import annotations

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
    check_choice,
    check_range,
)
from .sweep import aggregate, check_seeds, execute, plan, write_rows_csv
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

# Each figure's columns after the schema_version, tool_version, figure
# header; the first names the figure's cell label.
_PROFILE_COLUMNS = ("d", "mean_D", "min_D", "max_D")
_COLUMNS = {
    "fig1": (
        "m",
        "n",
        "k",
        "seeds",
        "completed_runs",
        "mean_completion",
        "min_completion",
        "max_completion",
    ),
    "fig2": ("m",) + _PROFILE_COLUMNS,
    "fig3": ("l",) + _PROFILE_COLUMNS,
}


@dataclass
class FigureDataset:
    """Tidy rows for one figure, ready to plot or write as CSV."""

    figure: str
    params: dict[str, Any]
    columns: tuple
    rows: list

    def write_csv(self, path):
        return write_rows_csv(self.rows, path, self.columns)


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


def _spaced_push_config(n: int, k: int, spacing: int) -> dict:
    # The profile's plateau needs the run to settle, not to complete:
    # cap the horizon at the release schedule plus a spread margin.
    horizon = k * spacing + 6 * math.ceil(math.log2(n)) + 24
    return {
        "n": n,
        "k": k,
        "protocol": PRIORITY_PUSH,
        "constraint": HARD,
        "initial_state": SINGLE_SOURCE,
        "spacing": spacing,
        "max_slots": horizon,
    }


def _cells(figure: str, n: int, k: int) -> list:
    """(label value, config data) for each of the figure's cells."""
    if figure == "fig3":
        return [(l, _spaced_push_config(n, k, l)) for l in FIG3_SPACINGS]
    sizes = FIG1_LIST_SIZES if figure == "fig1" else FIG2_LIST_SIZES
    labels = [m for m in sizes if m <= n - 1] + [FULL_VIEW]
    return [(m, _interleave_config(n, k, m)) for m in labels]


def _profile_rows(label_name: str, labels: list, run_rows: list, seeds: int):
    """Pointwise mean/min/max of D(d) across seeds, on each cell's common
    d-grid; `run_rows` holds `seeds` rows per cell in `labels` order."""
    for i, label in enumerate(labels):
        profiles = [r["profile"] for r in run_rows[i * seeds : (i + 1) * seeds]]
        for d in range(max(p.max_delay for p in profiles) + 1):
            values = [p.at(d) for p in profiles]
            yield {
                label_name: label,
                "d": d,
                "mean_D": round(sum(values) / len(values), 6),
                "min_D": round(min(values), 6),
                "max_D": round(max(values), 6),
            }


def reproduce(
    figure: str,
    scale: float = 1.0,
    seeds: int = 10,
    jobs: int = 1,
    master_seed: int = _DEFAULT_MASTER_SEED,
) -> FigureDataset:
    """Regenerate one figure's dataset; deterministic in all arguments."""
    check_seeds(seeds, master_seed, "reproduce")
    check_choice("figure", figure, FIGURES)
    check_range("scale", scale, float, 0, 1, "(]")
    n = max(16, round(_BASE_N * scale))
    k = max(4, round(_BASE_K * scale))
    label_name = _COLUMNS[figure][0]
    cells = _cells(figure, n, k)
    labels = [label for label, _ in cells]
    plans = plan(
        [((("figure", figure), (label_name, label)), data) for label, data in cells],
        seeds,
        master_seed,
    )
    run_rows = execute(plans, jobs=jobs, keep_profile=figure != "fig1")
    if figure == "fig1":
        # Each m cell differs in its contact model or list size, so it is
        # one aggregate group, and groups come in plan order.
        rows = (
            {"m": m, "seeds": agg["runs"], **agg}
            for m, agg in zip(labels, aggregate(run_rows), strict=True)
        )
    else:
        rows = _profile_rows(label_name, labels, run_rows, seeds)
    header = {"schema_version": SCHEMA_VERSION, "tool_version": VERSION, "figure": figure}
    return FigureDataset(
        figure=figure,
        params={"n": n, "k": k, "seeds": seeds, "master_seed": master_seed},
        columns=tuple(header) + _COLUMNS[figure],
        rows=[{**header, **{c: row[c] for c in _COLUMNS[figure]}} for row in rows],
    )
