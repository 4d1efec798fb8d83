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
import errno
import inspect
import json
import os
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from pathlib import Path

from .config import HEADER, ConfigError, load_config
from .engine import run as run_engine
from .figures import FIGURES, reproduce
from .metrics import run_metrics
from .oracle import THEOREMS
from .sweep import AGGREGATE_COLUMNS, RUN_COLUMNS, load_sweep, run_sweep, write_rows_csv, written
from .verify import VerificationRefusal, load_results, verify_rows
from .version import VERSION

__all__ = ["main", "ENV_OUT"]

ENV_OUT = "GOSSIPSIM_OUT"


def _out_dir(arg: str | None) -> Path:
    """The output directory: `arg`, else $GOSSIPSIM_OUT, else the current one."""
    return Path(arg or os.environ.get(ENV_OUT) or ".")


def _out_files(*outs, source=None) -> None:
    """Refuse, before any work, a result file of `outs` that names the input `source` or
    an earlier result, is a directory, or lies under a file; each is an (option, path)."""
    seen = {Path(source[1]).resolve(): source[0]} if source else {}
    for name, arg in outs:
        if arg is None:
            continue
        path = Path(arg)
        if (other := seen.setdefault(path.resolve(), name)) != name:
            raise ConfigError(f"--{other} and --{name} name the same file {arg}")
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(arg))
        # a file at the result's directory, or at its nearest parent that exists
        place = next(p for p in path.parents if p.exists())
        if not place.is_dir():
            code = errno.EEXIST if place == path.parent else errno.ENOTDIR
            raise OSError(code, os.strerror(code), str(path.parent))


def run_record(result) -> dict:
    """The JSONL record for one run: config echo, outcome, and each of its
    :func:`~gossipsim.metrics.run_metrics` that is defined."""
    stats = run_metrics(result)
    return {
        **HEADER,
        "config": result.config.to_dict(),
        "completed": result.completed,
        "completion_slot": result.completion_slot,
        "slots": result.slots,
        "metrics": {name: value for name, value in stats.items() if value is not None},
        "trace_hash": result.trace_hash,
    }


@contextmanager
def _trace_csv(path: Path):
    """A sink writing trace text as CSV rows to `path` through
    :func:`~gossipsim.sweep.written`, named on stdout once it is in place."""
    # csv.writer's bytes: each canonical trace line behind the header values, ended by "\r\n"
    prefix = "".join(f"{value}," for value in HEADER.values())
    newline = "\r\n" + prefix
    with written(path) as fh:
        fh.write(",".join((*HEADER, "slot", "from", "to", "piece", "kind")) + "\r\n")
        yield lambda chunk: fh.write(prefix + chunk[:-1].replace("\n", newline) + "\r\n")
    print(path)


def cmd_simulate(args) -> int:
    _out_files(("out", args.out), ("trace", args.trace), source=("config", args.config))
    config = load_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.trace:
        config = replace(config, record_trace=True)
    with _trace_csv(Path(args.trace)) if args.trace else nullcontext() as sink:
        result = run_engine(config, sink=sink)
        line = json.dumps(run_record(result), sort_keys=True, separators=(",", ":"))
        if args.out:
            with written(args.out) as fh:
                fh.write(line + "\n")
            print(Path(args.out))
        else:
            print(line)
    return 0


def cmd_sweep(args) -> int:
    out = _out_dir(args.out)
    runs_path, agg_path = out / "runs.csv", out / "aggregate.csv"
    _out_files(("out", runs_path), ("out", agg_path), source=("config", args.config))
    rows, agg = run_sweep(load_sweep(args.config), jobs=args.jobs)
    print(write_rows_csv(rows, runs_path, RUN_COLUMNS))
    print(write_rows_csv(agg, agg_path, AGGREGATE_COLUMNS))
    return 0


def cmd_verify(args) -> int:
    _out_files(("out", args.out), source=("results", args.results))
    rows = load_results(args.results)
    names = dict.fromkeys(name for entry in THEOREMS.values() for name in entry["defaults"])
    params = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
    report = verify_rows(rows, args.theorem, params, where=str(args.results))
    out = report.to_json()
    if args.out:
        with written(args.out) as fh:
            fh.write(out + "\n")
    print(out)
    print(f"{args.theorem}: {'PASS' if report.verdict else 'FAIL'}")
    return 0 if report.verdict else 1


def cmd_reproduce(args) -> int:
    path = _out_dir(args.out) / f"{args.figure}.csv"
    _out_files(("out", path))
    dataset = reproduce(
        args.figure,
        scale=args.scale,
        seeds=args.seeds,
        jobs=args.jobs,
        master_seed=args.master_seed,
    )
    print(write_rows_csv(dataset.rows, path, dataset.columns))
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
    p.add_argument(
        "--const", type=float, default=None, dest="C", help="band constant C in n + C ln n"
    )
    p.add_argument("--out", default=None, help="also write the JSON report here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reproduce", help="regenerate a report figure dataset")
    p.add_argument("--figure", required=True, choices=list(FIGURES))
    p.add_argument("--scale", type=float, help="population scale in (0, 1] (default %(default)s)")
    p.add_argument("--seeds", type=int, help="seeds per cell (default %(default)s)")
    p.add_argument("--jobs", type=int, help="worker processes (default %(default)s)")
    p.add_argument("--master-seed", type=int, help="master seed (default %(default)s)")
    p.add_argument("--out", default=None, help=f"output directory (default ${ENV_OUT} or .)")
    # reproduce's own defaults, so that each value is stated once
    params = inspect.signature(reproduce).parameters.values()
    defaults = {arg.name: arg.default for arg in params if arg.default is not arg.empty}
    p.set_defaults(func=cmd_reproduce, **defaults)
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
