"""Command line interface.

Subcommands:

* ``simulate`` — one run from a YAML config; JSONL record, optional trace CSV
* ``sweep``    — a YAML-described grid; per-run and aggregate CSVs
* ``verify``   — check recorded results against a catalog bound
* ``reproduce``— regenerate a report figure's dataset

Exit codes: 0 success (verify: bound holds), 1 failure (verify: bound
violated), 2 configuration or usage error (including verify refusals and
a path that cannot be read or written).
Output locations default to the ``GOSSIPSIM_OUT`` environment variable,
then the current directory.  Result files carry no timestamps, so repeated
invocations with the same inputs are byte-identical, except for the
``wall_time_s`` column of a sweep's ``runs.csv``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from .config import SCHEMA_VERSION, ConfigError, load_config
from .engine import run as run_engine
from .figures import FIGURES, reproduce
from .metrics import delay_profile
from .oracle import THEOREMS
from .sweep import (
    AGGREGATE_COLUMNS,
    RUN_COLUMNS,
    load_sweep,
    reach_summary,
    run_sweep,
    write_rows_csv,
)
from .verify import VerificationRefusal, load_results, verify_rows
from .version import VERSION

__all__ = ["main", "ENV_OUT"]

ENV_OUT = "GOSSIPSIM_OUT"


def _out_dir(arg: str | None) -> Path:
    return Path(arg or os.environ.get(ENV_OUT) or ".")


def run_record(result) -> dict:
    """The JSONL record for one run: config echo, outcome, metric summary."""
    cfg = result.config
    arrivals = result.arrivals
    served = int((arrivals >= 0).sum())
    record = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": VERSION,
        "config": cfg.to_dict(),
        "completed": result.completed,
        "completion_slot": result.completion_slot,
        "slots": result.slots,
        "metrics": {
            "delay_limit": round(delay_profile(result).limit, 6),
            "pairs_served": served,
            "max_arrival_slot": int(arrivals.max()) if served else None,
        },
        "trace_hash": result.trace_hash,
    }
    for name, value in reach_summary(result).items():
        if value is not None:
            record["metrics"][name] = value
    return record


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.trace:
        config = replace(config, record_trace=True)
    result = run_engine(config)
    line = json.dumps(run_record(result), sort_keys=True, separators=(",", ":"))
    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(line + "\n")
        print(path)
    else:
        print(line)
    if args.trace:
        trace_path = Path(args.trace)
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        # Each canonical trace line behind the schema and tool versions,
        # ended by "\r\n": the bytes csv.writer writes for the same rows.
        prefix = f"{SCHEMA_VERSION},{VERSION},"
        newline = "\r\n" + prefix
        with open(trace_path, "w", newline="") as fh:
            fh.write("schema_version,tool_version,slot,from,to,piece,kind\r\n")
            for chunk in result.trace.chunks:
                fh.write(prefix + chunk[:-1].replace("\n", newline) + "\r\n")
        print(trace_path)
    return 0


def cmd_sweep(args) -> int:
    spec = load_sweep(args.config)
    rows, agg = run_sweep(spec, jobs=args.jobs)
    out = _out_dir(args.out)
    runs_path = write_rows_csv(rows, out / "runs.csv", RUN_COLUMNS)
    agg_path = write_rows_csv(agg, out / "aggregate.csv", AGGREGATE_COLUMNS)
    print(runs_path)
    print(agg_path)
    return 0


def cmd_verify(args) -> int:
    rows = load_results(args.results)
    given = {name: getattr(args, name) for name in ("beta", "eps", "delta", "c", "eta", "C")}
    params = {name: value for name, value in given.items() if value is not None}
    report = verify_rows(rows, args.theorem, params, where=str(args.results))
    out = report.to_json()
    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(out + "\n")
    print(out)
    print(f"{args.theorem}: {'PASS' if report.verdict else 'FAIL'}")
    return 0 if report.verdict else 1


def cmd_reproduce(args) -> int:
    dataset = reproduce(
        args.figure,
        scale=args.scale,
        seeds=args.seeds,
        jobs=args.jobs,
        master_seed=args.master_seed,
    )
    out = _out_dir(args.out)
    path = dataset.write_csv(out / f"{args.figure}.csv")
    print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gossipsim",
        description="Simulate and analyze multi-piece gossip dissemination.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one configuration")
    p.add_argument("--config", required=True, help="YAML run configuration")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", default=None, help="JSONL output path (default: stdout)")
    p.add_argument("--trace", default=None, help="also write the full event trace CSV here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="run a parameter grid")
    p.add_argument("--config", required=True, help="YAML sweep specification")
    p.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    p.add_argument("--out", default=None, help=f"output directory (default ${ENV_OUT} or .)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="check results against an analytic bound")
    p.add_argument("--results", required=True, help="runs.csv or simulate JSONL")
    p.add_argument(
        "--theorem",
        required=True,
        choices=sorted(THEOREMS),
        help="bound catalog entry",
    )
    p.add_argument("--beta", type=float, default=None, help="lower-bound coefficient")
    p.add_argument("--eps", type=float, default=None, help="slack parameter")
    p.add_argument("--delta", type=float, default=None, help="slack parameter")
    p.add_argument("--c", type=float, default=None, help="probability exponent")
    p.add_argument("--eta", type=float, default=None, help="seeding density override")
    p.add_argument(
        "--const", type=float, default=None, dest="C", help="band constant C in n + C ln n"
    )
    p.add_argument("--out", default=None, help="also write the JSON report here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reproduce", help="regenerate a report figure dataset")
    p.add_argument("--figure", required=True, choices=list(FIGURES))
    p.add_argument("--scale", type=float, default=1.0, help="population scale in (0, 1]")
    p.add_argument("--seeds", type=int, default=10, help="seeds per cell (default 10)")
    p.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    p.add_argument("--master-seed", type=int, default=97, dest="master_seed")
    p.add_argument("--out", default=None, help=f"output directory (default ${ENV_OUT} or .)")
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except VerificationRefusal as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
