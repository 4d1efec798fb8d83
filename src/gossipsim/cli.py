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

from .config import SCHEMA_VERSION, ConfigError, load_config
from .engine import run as run_engine
from .figures import FIGURES, reproduce
from .metrics import run_metrics
from .oracle import THEOREMS
from .sweep import AGGREGATE_COLUMNS, RUN_COLUMNS, load_sweep, run_sweep, write_rows_csv
from .verify import VerificationRefusal, load_results, verify_rows
from .version import VERSION

__all__ = ["main", "ENV_OUT"]

ENV_OUT = "GOSSIPSIM_OUT"


def _out_dir(arg: str | None) -> Path:
    """The output directory, refused before any run if a file stands at it
    or at the nearest of its parents that exists."""
    out = Path(arg or os.environ.get(ENV_OUT) or ".")
    place = next(path for path in (out, *out.parents) if path.exists())
    if not place.is_dir():
        code = errno.EEXIST if place == out else errno.ENOTDIR
        raise OSError(code, os.strerror(code), str(out))
    return out


def _out_files(args, source: str, *outs: str) -> None:
    """Refuse, before any work, an output option of `outs` that names the
    input file `source` or an earlier output, a directory, or a path under a file."""
    seen = {Path(getattr(args, source)).resolve(): source}
    for name in outs:
        if (arg := getattr(args, name)) is None:
            continue
        if (other := seen.setdefault(Path(arg).resolve(), name)) != name:
            raise ConfigError(f"--{other} and --{name} name the same file {arg}")
        if Path(arg).is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), arg)
        _out_dir(str(Path(arg).parent))


def run_record(result) -> dict:
    """The JSONL record for one run: config echo, outcome, and each of its
    :func:`~gossipsim.metrics.run_metrics` that is defined."""
    stats = run_metrics(result)
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": VERSION,
        "config": result.config.to_dict(),
        "completed": result.completed,
        "completion_slot": result.completion_slot,
        "slots": result.slots,
        "metrics": {name: value for name, value in stats.items() if value is not None},
        "trace_hash": result.trace_hash,
    }


@contextmanager
def _trace_csv(path: Path):
    """A sink writing trace text as CSV rows to a file next to `path`, moved
    to `path` (and named on stdout) when the block ends and removed if it
    raises, so a failed run leaves no partial trace."""
    path.parent.mkdir(parents=True, exist_ok=True)
    part = path.with_name(f".{path.name}.{os.getpid()}.part")
    # Each canonical trace line behind the schema and tool versions, ended
    # by "\r\n": the bytes csv.writer writes for the same rows.
    prefix = f"{SCHEMA_VERSION},{VERSION},"
    newline = "\r\n" + prefix
    try:
        with open(part, "w", newline="") as fh:
            fh.write("schema_version,tool_version,slot,from,to,piece,kind\r\n")
            yield lambda chunk: fh.write(prefix + chunk[:-1].replace("\n", newline) + "\r\n")
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise
    print(path)


def cmd_simulate(args) -> int:
    _out_files(args, "config", "out", "trace")
    config = load_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.trace:
        config = replace(config, record_trace=True)
    with _trace_csv(Path(args.trace)) if args.trace else nullcontext() as sink:
        result = run_engine(config, sink=sink)
        line = json.dumps(run_record(result), sort_keys=True, separators=(",", ":"))
        if args.out:
            path = Path(args.out)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(line + "\n")
            print(path)
        else:
            print(line)
    return 0


def cmd_sweep(args) -> int:
    spec = load_sweep(args.config)
    out = _out_dir(args.out)
    rows, agg = run_sweep(spec, jobs=args.jobs)
    runs_path = write_rows_csv(rows, out / "runs.csv", RUN_COLUMNS)
    agg_path = write_rows_csv(agg, out / "aggregate.csv", AGGREGATE_COLUMNS)
    print(runs_path)
    print(agg_path)
    return 0


def cmd_verify(args) -> int:
    _out_files(args, "results", "out")
    rows = load_results(args.results)
    names = dict.fromkeys(name for entry in THEOREMS.values() for name in entry["defaults"])
    params = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
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
    out = _out_dir(args.out)
    dataset = reproduce(
        args.figure,
        scale=args.scale,
        seeds=args.seeds,
        jobs=args.jobs,
        master_seed=args.master_seed,
    )
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
