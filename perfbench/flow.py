"""One process of a workload: set-up probe, or a flow of CLI commands.

    python3 flow.py setup PLAN
        imports gossipsim, parses every command of the plan and loads and
        expands its configs, then prints the monotonic clock and exits;
    python3 flow.py run PLAN REPORT MODE
        runs the plan's commands in order through `gossipsim.cli.main` in
        this one process, with the tracer in MODE (plain, layers or hot),
        times the reference probe (reference.py) between the commands and,
        in plain mode, inside them, and writes exit codes, timings, probe
        times, peak RSS and tracer state to REPORT.

`PYTHONPATH` must name the checkout's `src` directory.  The caller times
the set-up path from before this interpreter starts; this file imports
almost nothing before gossipsim, so that time is the program's own.
"""

import sys
import time


def _setup(plan: dict) -> None:
    from gossipsim import cli
    from gossipsim.config import load_config
    from gossipsim.sweep import expand, load_sweep

    for op in plan["ops"]:
        args = cli.build_parser().parse_args(op["argv"])
        if args.command == "sweep":
            expand(load_sweep(args.config))
        elif args.command == "simulate":
            load_config(args.config).validate()
    print(time.monotonic(), flush=True)


def _argv(op: dict) -> list:
    """The command line of one operation; `seed_from` appends the seed of
    one row of a CSV that an earlier operation of the flow wrote."""
    argv = list(op["argv"])
    if "seed_from" in op:
        import csv

        path, index = op["seed_from"]
        with open(path, newline="") as fh:
            row = list(csv.DictReader(fh))[index]
        argv += ["--seed", row["seed"]]
    return argv


def _run(plan: dict, report_path: str, mode: str) -> None:
    import json
    import os
    import resource
    import traceback

    import reference
    from gossipsim import cli
    from tracer import Tracer

    tracer = Tracer(mode, plan["spool"])
    tracer.install()
    # Probes inside a command would count in the wrapped functions' times,
    # so traced rounds probe between commands only.  The CPUs are those
    # this flow may use: one when the caller pinned it.
    sampler = reference.Sampler(sorted(os.sched_getaffinity(0)), interior=mode == "plain")
    ops = []
    sampler.between()
    for i, op in enumerate(plan["ops"]):
        sampler.start(i)
        try:
            code = cli.main(_argv(op))
        except SystemExit as exc:  # argparse usage errors exit
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = "exception"
        sampler.between()
        ops.append(
            {
                "name": op["name"],
                "code": code,
                "seconds": sampler.seconds[i],
                "norm_seconds": sampler.norm_seconds[i],
            }
        )
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    report = {
        "ops": ops,
        "wall_s": sum(op["seconds"] for op in ops),
        "probes": sampler.probes,
        "peak_rss_kb": peak_kb,
        "trace": tracer.collect(),
    }
    with open(report_path, "w") as fh:
        json.dump(report, fh)


def main() -> int:
    import json

    command, plan_path = sys.argv[1], sys.argv[2]
    with open(plan_path) as fh:
        plan = json.load(fh)
    if command == "setup":
        _setup(plan)
    else:
        _run(plan, sys.argv[3], sys.argv[4])
    return 0


if __name__ == "__main__":
    sys.exit(main())
