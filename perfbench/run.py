"""gossipsim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/`.
Each round runs the workload's CLI flow in one fresh interpreter
(`flow.py`), then checks its output files here.  Rounds repeat until S
seconds have passed.  Times are reported at the reference speed: the flow
process times a reference probe (reference.py) between its commands and
inside them, and each stretch of a command's time is scaled by the probes
on either side of it.  With `--trace 0` the last line of output is a JSON
object with the end-to-end metrics; with `--trace 1` it holds the
per-layer metrics, from rounds that cycle through the tracer modes plain,
layers and hot (see tracer.py).  Exit code 0 when every operation passed,
1 when one failed, 2 when the checkout has no gossipsim sources.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, median_low

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from reference import REF_NOMINAL_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = HERE.parent
FLOW = HERE / "flow.py"
OUT = HERE / "out"
# Set-up is measured in separate interpreters, after one warm-up (which
# also fills the bytecode cache, if written): one before each round, so
# that the median spans the whole run, and at least this many.
SETUP_PROBES = 7
# No round starts that could end past this many seconds after launch.
RUN_LIMIT_S = 170.0

# Per-layer metrics: name, unit, tracer mode, wrapped functions needed,
# value from one round's (stats, counts).  stats[key] = [calls, s, self s].
# A value of None means the layer did no such work in this workload: a
# function never called, or a ratio over nothing.
PROTOCOLS = ("random-pull", "sequential-pull", "advocate", "interleave", "priority-push")


def _per_user_slot(protocol):
    def value(s, c):
        work = c.get(f"user_slots.{protocol}", 0)
        return c[f"run_s.{protocol}"] / work * 1e6 if work else None

    return value


def _ratio(num, den):
    return lambda s, c: c.get(num, 0) / c[den] if c.get(den) else None


def _seconds(key):
    return lambda s, c: s[key][1] if s[key][0] else None


def _counted(key):
    return lambda s, c: c.get(key)


PER_LAYER = (
    [("engine.user_slots", "count", "layers", ("engine.run",), lambda s, c: c.get("user_slots", 0))]
    + [
        (f"engine.us_per_user_slot.{p}", "us", "layers", ("engine.run",), _per_user_slot(p))
        for p in PROTOCOLS
    ]
    + [
        ("engine.resolve_uploads_s", "s", "layers", ("engine.resolve_uploads",), _seconds("engine.resolve_uploads")),
        ("engine.pull_requests", "count", "layers", ("engine.resolve_uploads",), lambda s, c: c.get("pull_requests", 0)),
        ("engine.pulls_granted", "count", "layers", ("engine.resolve_uploads",), lambda s, c: c.get("pulls_granted", 0)),
        ("engine.pull_grant_ratio", "ratio", "layers", ("engine.resolve_uploads",), _ratio("pulls_granted", "pull_requests")),
        ("engine.uploads_granted", "count", "layers", ("engine.resolve_uploads",), lambda s, c: c.get("uploads_granted", 0)),
        ("engine.new_arrivals", "count", "layers", ("engine.run",), lambda s, c: c.get("new_arrivals", 0)),
        ("engine.useful_upload_ratio", "ratio", "layers", ("engine.run", "engine.resolve_uploads"), _ratio("new_arrivals", "uploads_granted")),
        ("engine.init_state_s", "s", "layers", ("engine.init_state",), _seconds("engine.init_state")),
        ("engine.trace_events", "count", "layers", ("engine.run",), lambda s, c: c.get("trace_events", 0)),
        ("engine.trace_digest_s", "s", "layers", ("engine.trace_digest",), _seconds("engine.trace_digest")),
        ("cli.trace_csv_s", "s", "layers", ("cli.cmd_simulate",), _counted("trace_csv_s")),
        ("cli.trace_csv_bytes", "bytes", "layers", ("cli.cmd_simulate",), _counted("trace_csv_bytes")),
        ("cli.run_record_s", "s", "layers", ("cli.run_record",), _seconds("cli.run_record")),
        ("protocols.act_s", "s", "hot", ("protocols.act",), _seconds("protocols.act")),
        ("bitset.random_piece_calls", "count", "hot", ("bitset.random_piece",), lambda s, c: s["bitset.random_piece"][0]),
        ("bitset.random_piece_s", "s", "hot", ("bitset.random_piece",), _seconds("bitset.random_piece")),
        ("metrics.delay_profile_s", "s", "layers", ("metrics.delay_profile",), _seconds("metrics.delay_profile")),
        ("metrics.failed_pieces_s", "s", "layers", ("metrics.failed_pieces",), _seconds("metrics.failed_pieces")),
        ("metrics.pieces_reached_s", "s", "layers", ("metrics.pieces_reached",), _seconds("metrics.pieces_reached")),
    ]
    + [
        (f"figures.{f}_s", "s", "layers", ("figures.reproduce",), _counted(f"{f}_s"))
        for f in ("fig1", "fig2", "fig3")
    ]
    + [
        ("sweep.parallel_efficiency", "ratio", "layers", ("sweep.execute",), _ratio("execute_run_s", "execute_capacity_s")),
        ("config.load_s", "s", "layers", ("config.load",), _seconds("config.load")),
        ("sweep.expand_s", "s", "layers", ("sweep.expand",), _seconds("sweep.expand")),
        ("sweep.write_rows_csv_s", "s", "layers", ("sweep.write_rows_csv",), _seconds("sweep.write_rows_csv")),
        ("verify.verify_rows_s", "s", "layers", ("verify.verify_rows",), _seconds("verify.verify_rows")),
    ]
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="gossipsim benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Bench:
    """One benchmark run: its scratch directory, clock and child processes."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.started = time.monotonic()
        self.work = work
        self.inputs = work / "inputs"
        self.inputs.mkdir(parents=True)
        prepare, self.fingerprint, self.validate, busy = WORKLOADS[workload]
        # A flow that keeps fewer CPUs busy than the run may use is pinned
        # to that many (its child processes inherit this), so that the
        # reference probe times the CPUs the commands run on.
        os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:busy])
        self.plan = prepare(seed, self.inputs)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.reference: dict = {}
        self.attempted = 0
        self.failed = 0

    def _spawn(self, argv: list, stdout) -> tuple:
        """Run a child interpreter to completion within the run's time
        limit; a child that overruns is killed with its process group."""
        proc = subprocess.Popen(
            [sys.executable, *map(str, argv)],
            cwd=ROOT,
            env=self.env,
            stdout=stdout,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        limit = max(5.0, RUN_LIMIT_S - (time.monotonic() - self.started))
        try:
            out, _ = proc.communicate(timeout=limit)
        except subprocess.TimeoutExpired:
            out = b"timed out"
        except BaseException:  # SIGTERM or ^C: stop the child, then leave
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
        return proc.returncode, out

    def setup_seconds(self) -> float:
        """Launch to first simulation: interpreter start, import, config
        load and validation, and plan expansion."""
        plan_path = self.work / "setup-plan.json"
        if not plan_path.exists():
            plan_path.write_text(json.dumps({"ops": self.plan(self.work / "setup")}))
        launched = time.monotonic()
        code, out = self._spawn([FLOW, "setup", plan_path], subprocess.PIPE)
        if code != 0:
            raise RuntimeError(f"set-up probe failed: {out.decode(errors='replace')[-2000:]}")
        return float(out.split()[-1]) - launched

    def round(self, index: int, mode: str) -> dict | None:
        """One flow in a fresh interpreter, then its output checks."""
        rdir = self.work / f"round{index}"
        rdir.mkdir()
        ops = self.plan(rdir)
        plan_path, report_path, log_path = rdir / "plan.json", rdir / "report.json", rdir / "flow.log"
        plan_path.write_text(json.dumps({"ops": ops, "spool": str(rdir / "spool")}))
        with open(log_path, "wb") as log:
            code, _ = self._spawn([FLOW, "run", plan_path, report_path, mode], log)
        fails = {op["name"]: [] for op in ops}
        report = None
        if code == 0 and report_path.exists():
            report = json.loads(report_path.read_text())
            for op in report["ops"]:
                if op["code"] != 0:
                    fails[op["name"]].append(f"exit code {op['code']}")
            self._check_outputs(rdir, fails)
        else:
            tail = log_path.read_text(errors="replace")[-2000:]
            for name in fails:
                fails[name].append(f"flow process exited with {code}: {tail}")
        for name, messages in fails.items():
            for message in messages:
                print(f"FAIL {mode} round {index} {name}: {message}", file=sys.stderr)
        self.attempted += len(fails)
        self.failed += sum(1 for messages in fails.values() if messages)
        shutil.rmtree(rdir)
        return report if not any(fails.values()) else None

    def _check_outputs(self, rdir: Path, fails: dict) -> None:
        """Validate the first round's outputs; later rounds must repeat
        them byte for byte (runs.csv up to its wall_time_s column)."""
        try:
            prints = self.fingerprint(rdir)
            checked = self.validate(rdir) if not self.reference else {}
        except (OSError, ValueError, KeyError, IndexError) as exc:
            for messages in fails.values():
                messages.append(f"outputs unreadable: {exc!r}")
            return
        for name, messages in checked.items():
            fails[name] += messages
        if not self.reference:
            if not any(fails.values()):
                self.reference = prints
            return
        for name, fingerprint in prints.items():
            if fingerprint != self.reference[name]:
                fails[name].append("output differs from the first round of this run")


def _norm_s(report: dict) -> float:
    """The round's wall time at the reference speed (reference.Sampler)."""
    return sum(op["norm_seconds"] for op in report["ops"])


def _layer_metrics(rounds: dict) -> tuple[dict, list]:
    metrics, absent = {}, []
    for name, unit, mode, needs, value in PER_LAYER:
        values = []
        for report in rounds[mode]:
            trace = report["trace"]
            stats, counts = trace["stats"], trace["counts"]
            if "pool" in trace["broken"] or any(
                k not in stats or k in trace["broken"] for k in needs
            ):
                break
            v = value(stats, counts)
            if v is not None:
                values.append(v)
        if values:
            middle = median_low if unit in ("count", "bytes") else median
            metrics[name] = {"value": middle(values), "unit": unit}
        else:
            metrics[name] = {"value": 0, "unit": unit}
            absent.append(name)
    plain = median(map(_norm_s, rounds["plain"]))
    for mode in ("layers", "hot"):
        traced = median(map(_norm_s, rounds[mode]))
        metrics[f"trace.overhead_{mode}"] = {"value": traced / plain - 1.0, "unit": "ratio"}
    return metrics, absent


def _end_to_end(rounds: list, setups: list) -> dict:
    for report in rounds:
        trace = report["trace"]
        if {"pool", "engine.run"} & (set(trace["broken"]) | set(trace["missing"])):
            raise RuntimeError(f"user-slots not countable: {trace['broken']} {trace['missing']}")
    return {
        # Set-up runs in interpreters too short to probe; the probes of the
        # rounds it was interleaved with give the run's speed.
        "setup_s": {
            "value": median(setups) * REF_NOMINAL_S / median(p for r in rounds for p in r["probes"]),
            "unit": "s",
        },
        "wall_norm_s": {"value": median(map(_norm_s, rounds)), "unit": "s"},
        "user_slots_per_norm_s": {
            "value": median(r["trace"]["counts"]["user_slots"] / _norm_s(r) for r in rounds),
            "unit": "user-slots/s",
        },
        "peak_rss_mb": {"value": median(r["peak_rss_kb"] for r in rounds) / 1024, "unit": "MB"},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run still stops its child and deletes its directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "gossipsim" / "cli.py").is_file():
        print(f"perfbench: no gossipsim sources in {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    bench = Bench(args.workload, args.seed, work)
    modes = ("plain", "layers", "hot") if args.trace else ("plain",)
    rounds: dict = {mode: [] for mode in modes}
    try:
        setups = []
        if not args.trace:
            bench.setup_seconds()  # warm-up
        measuring = time.monotonic()
        index = 0
        while True:
            cycle = time.monotonic()
            if not args.trace:
                setups.append(bench.setup_seconds())
            for mode in modes:
                report = bench.round(index, mode)
                index += 1
                if report is not None:
                    rounds[mode].append(report)
            now = time.monotonic()
            if now - measuring >= args.seconds:
                break
            if now - bench.started + (now - cycle) > RUN_LIMIT_S:
                print("perfbench: stopping early to stay within the time limit", file=sys.stderr)
                break
        while not args.trace and len(setups) < SETUP_PROBES:
            setups.append(bench.setup_seconds())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left while another run uses it
            OUT.rmdir()

    correct = bench.failed == 0
    metrics: dict = {}
    if correct:
        if args.trace:
            metrics, absent = _layer_metrics(rounds)
            if absent:
                print("absent per-layer metrics (reported as 0): " + ", ".join(absent))
        else:
            metrics = _end_to_end(rounds["plain"], setups)
        if setups:
            print("setup_s raw " + " ".join(f"{t:.3f}" for t in setups))
        for mode, reports in rounds.items():
            print(f"{mode}: {len(reports)} rounds")
            print("  wall_s      " + " ".join(f"{r['wall_s']:.3f}" for r in reports))
            print("  probe_s     " + " ".join(f"{median(r['probes']):.3f}" for r in reports))
            print("  wall_norm_s " + " ".join(f"{_norm_s(r):.3f}" for r in reports))
    print(
        json.dumps(
            {"correct": correct, "attempted": bench.attempted, "failed": bench.failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
