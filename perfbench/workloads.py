"""The three workloads: their inputs, their CLI flows, and their checks.

`prepare(seed, inputs)` writes the workload's config files, derived from
the seed alone, and returns a `plan(out)` function giving the flow's
operations for one round writing under `out`.  For one round's output
files, `fingerprint(out)` returns per operation a value that must not
change from round to round of one run, and `validate(out)` returns per
operation the failed output checks.  The rounds of a run repeat the same
inputs, so a round whose fingerprints equal those of a validated round
has passed the same checks.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import checks

# pull-sweep: pull cells n = k = PULL_N, single source, hard constraint;
# advocate cells n = k = PULL_N, one unique piece per user, soft.
PULL_N = 150
PULL_SEEDS = 2
# reproduce-jobs2: fig2 and fig3 at scale 0.15, that is n = 75, k = 150,
# and a priority-push sweep of that size on the process pool.  fig1 is left
# out: interleave on contact lists of size 2 stalls for some seeds, so its
# completion check fails on those seeds only (README, "fig1 is left out").
REPRODUCE_SCALE = 0.15
REPRODUCE_N, REPRODUCE_K = 75, 150
REPRODUCE_SEEDS = 2
REPRODUCE_JOBS = 2
# simulate-trace: one interleave run at the paper's figure size.
TRACE_N, TRACE_K = 500, 1000


def derive(workload: str, seed: int) -> int:
    """The program's master seed (or run seed) for one benchmark seed."""
    return int(hashlib.sha256(f"{workload}|{seed}".encode()).hexdigest()[:12], 16)


def _config(path: Path, data: dict) -> str:
    """Write a config file; JSON is a subset of the YAML the CLI reads."""
    path.write_text(json.dumps({"schema_version": 1, **data}, indent=1) + "\n")
    return str(path)


def _strip_wall_time(path: Path) -> list:
    return [
        {k: v for k, v in row.items() if k != "wall_time_s"} for row in checks.read_csv(path)
    ]


# -- pull-sweep ---------------------------------------------------------
def _pull_prepare(seed: int, inputs: Path):
    master = derive("pull-sweep", seed)
    pull_base = {
        "n": PULL_N,
        "k": PULL_N,
        "protocol": "random-pull",
        "constraint": "hard",
        "initial_state": "single-source",
    }
    advocate_base = {
        "n": PULL_N,
        "k": PULL_N,
        "protocol": "advocate",
        "constraint": "soft",
        "initial_state": "one-unique-per-user",
    }
    seeds = {"seeds": PULL_SEEDS, "master_seed": master}
    pull = _config(
        inputs / "pull.yaml",
        {"base": pull_base, "axes": {"protocol": ["random-pull", "sequential-pull"]}, **seeds},
    )
    advocate = _config(inputs / "advocate.yaml", {"base": advocate_base, **seeds})
    row = _config(inputs / "advocate-run.yaml", advocate_base)

    def plan(out: Path) -> list:
        return [
            {"name": "sweep-pull", "argv": ["sweep", "--config", pull, "--jobs", "1", "--out", f"{out}/pull"]},
            {"name": "sweep-advocate", "argv": ["sweep", "--config", advocate, "--jobs", "1", "--out", f"{out}/advocate"]},
            {"name": "verify-thm3", "argv": ["verify", "--results", f"{out}/pull/runs.csv", "--theorem", "thm3", "--out", f"{out}/thm3.json"]},
            {"name": "verify-thm7", "argv": ["verify", "--results", f"{out}/advocate/runs.csv", "--theorem", "thm7", "--out", f"{out}/thm7.json"]},
            {
                "name": "simulate-row",
                "argv": ["simulate", "--config", row, "--out", f"{out}/row.jsonl"],
                "seed_from": [f"{out}/advocate/runs.csv", 0],
            },
        ]

    return plan


def _pull_fingerprint(out: Path) -> dict:
    return {
        "sweep-pull": (_strip_wall_time(out / "pull" / "runs.csv"), (out / "pull" / "aggregate.csv").read_bytes()),
        "sweep-advocate": (
            _strip_wall_time(out / "advocate" / "runs.csv"),
            (out / "advocate" / "aggregate.csv").read_bytes(),
        ),
        "verify-thm3": (out / "thm3.json").read_bytes(),
        "verify-thm7": (out / "thm7.json").read_bytes(),
        "simulate-row": (out / "row.jsonl").read_bytes(),
    }


def _pull_validate(out: Path) -> dict:
    result = {}
    for name, rows_check in (("pull", checks.pull_rows), ("advocate", checks.advocate_rows)):
        runs = checks.read_csv(out / name / "runs.csv")
        agg = checks.read_csv(out / name / "aggregate.csv")
        result[f"sweep-{name}"] = rows_check(runs) + checks.aggregate_matches(runs, agg)
    record = json.loads((out / "row.jsonl").read_text())
    row = checks.read_csv(out / "advocate" / "runs.csv")[0]
    result["simulate-row"] = []
    if str(record["completion_slot"]) != row["completion_slot"]:
        result["simulate-row"].append(
            f"completion {record['completion_slot']}, sweep row says {row['completion_slot']}"
        )
    return result


# -- reproduce-jobs2 ----------------------------------------------------
FIGURE_CHECKS = {"fig2": checks.fig2_rows, "fig3": checks.fig3_rows}


def _reproduce_prepare(seed: int, inputs: Path):
    master = derive("reproduce-jobs2", seed)
    n, k = REPRODUCE_N, REPRODUCE_K
    spacings = [1, 2, 3, 4]
    horizon = k * max(spacings) + 6 * math.ceil(math.log2(n)) + 24  # fig3's longest
    sweep = _config(
        inputs / "priority-push.yaml",
        {
            "base": {
                "n": n,
                "k": k,
                "protocol": "priority-push",
                "constraint": "hard",
                "initial_state": "single-source",
                "max_slots": horizon,
            },
            "axes": {"l": spacings},
            "seeds": REPRODUCE_SEEDS,
            "master_seed": master,
        },
    )

    def plan(out: Path) -> list:
        figures = [
            {
                "name": f"reproduce-{figure}",
                "argv": [
                    "reproduce", "--figure", figure,
                    "--scale", str(REPRODUCE_SCALE),
                    "--seeds", str(REPRODUCE_SEEDS),
                    "--jobs", str(REPRODUCE_JOBS),
                    "--master-seed", str(master),
                    "--out", str(out),
                ],
            }
            for figure in FIGURE_CHECKS
        ]
        pool = {
            "name": "sweep-pool",
            "argv": ["sweep", "--config", sweep, "--jobs", str(REPRODUCE_JOBS), "--out", f"{out}/pool"],
        }
        return figures + [pool]

    return plan


def _reproduce_fingerprint(out: Path) -> dict:
    prints = {f"reproduce-{figure}": (out / f"{figure}.csv").read_bytes() for figure in FIGURE_CHECKS}
    prints["sweep-pool"] = (_strip_wall_time(out / "pool" / "runs.csv"), (out / "pool" / "aggregate.csv").read_bytes())
    return prints


def _reproduce_validate(out: Path) -> dict:
    result = {
        f"reproduce-{figure}": check(checks.read_csv(out / f"{figure}.csv"))
        for figure, check in FIGURE_CHECKS.items()
    }
    runs = checks.read_csv(out / "pool" / "runs.csv")
    agg = checks.read_csv(out / "pool" / "aggregate.csv")
    result["sweep-pool"] = checks.priority_push_cells(runs, agg) + checks.aggregate_matches(runs, agg)
    return result


# -- simulate-trace -----------------------------------------------------
def _trace_prepare(seed: int, inputs: Path):
    config = _config(
        inputs / "interleave.yaml",
        {
            "n": TRACE_N,
            "k": TRACE_K,
            "protocol": "interleave",
            "constraint": "hard",
            "contact_model": "uniform",
            "initial_state": "single-source",
            "seed": derive("simulate-trace", seed),
        },
    )

    def plan(out: Path) -> list:
        return [
            {
                "name": "simulate-trace",
                "argv": ["simulate", "--config", config, "--out", f"{out}/run.jsonl", "--trace", f"{out}/trace.csv"],
            }
        ]

    return plan


def _trace_fingerprint(out: Path) -> dict:
    digest = hashlib.sha256((out / "trace.csv").read_bytes()).hexdigest()
    return {"simulate-trace": ((out / "run.jsonl").read_bytes(), digest)}


def _trace_validate(out: Path) -> dict:
    record = json.loads((out / "run.jsonl").read_text())
    with open(out / "trace.csv", newline="") as fh:
        return {"simulate-trace": checks.trace_replay(record, fh)}


# name -> (prepare, fingerprint, validate, CPUs the flow keeps busy)
WORKLOADS = {
    "pull-sweep": (_pull_prepare, _pull_fingerprint, _pull_validate, 1),
    "reproduce-jobs2": (_reproduce_prepare, _reproduce_fingerprint, _reproduce_validate, REPRODUCE_JOBS),
    "simulate-trace": (_trace_prepare, _trace_fingerprint, _trace_validate, 1),
}
