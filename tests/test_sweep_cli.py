"""Sweeps, result files, bound verification, figures, and the CLI."""

import argparse
import csv
import errno
import hashlib
import inspect
import json
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest
import yaml

import gossipsim as g
from gossipsim import cli, engine, sweep
from gossipsim.cli import build_parser, main
from gossipsim.config import ConfigError
from gossipsim.engine import init_state, step_slot
from gossipsim.figures import reproduce
from gossipsim.oracle import THEOREMS, bound_value
from gossipsim.protocols import make_protocol
from gossipsim.sweep import (
    AGGREGATE_COLUMNS,
    MAX_JOBS,
    RUN_COLUMNS,
    SweepSpec,
    aggregate,
    derive_seed,
    execute,
    expand,
    load_sweep,
    run_sweep,
    write_rows_csv,
)
from gossipsim.verify import VerificationRefusal, load_results, verify_rows


def small_spec(**overrides):
    data = {
        "base": {"k": 2, "protocol": g.RANDOM_PULL},
        "axes": {"n": [8, 12]},
        "seeds": 3,
        "master_seed": 3,
    }
    data.update(overrides)
    return SweepSpec.from_mapping(data)


# ------------------------------------------------------------------- sweeps


def test_spec_from_mapping_rejects_bad_shapes():
    with pytest.raises(ConfigError, match="unknown keys"):
        SweepSpec.from_mapping({"base": {}, "extra": 1})
    with pytest.raises(ConfigError, match="'base'"):
        SweepSpec.from_mapping({"axes": {"n": [8]}})
    with pytest.raises(ConfigError, match=r"^sweep: axes: unknown keys \['population'\]; known: "):
        small_spec(axes={"population": [8]})
    with pytest.raises(ConfigError, match="non-empty list"):
        small_spec(axes={"n": []})
    with pytest.raises(ConfigError, match=r"^sweep: seeds: need an integer in \[1, inf\), got 0$"):
        small_spec(seeds=0)
    with pytest.raises(ConfigError, match=r"^sweep: master_seed: need an integer in \[0, inf\), got -1$"):
        small_spec(master_seed=-1)


def test_spec_refuses_base_seed_and_repeated_axis_values():
    # every run's seed is derived from master_seed, so a base seed would be ignored
    with pytest.raises(ConfigError, match="base.seed .*'master_seed'"):
        small_spec(base={"k": 2, "protocol": g.RANDOM_PULL, "seed": 5})
    # a sweep writes no trace, so a base trace would be recorded and dropped
    with pytest.raises(ConfigError, match="base.record_trace .*'simulate --trace'"):
        small_spec(base={"k": 2, "protocol": g.RANDOM_PULL, "record_trace": True})
    # a repeated value would run its cell's runs twice
    with pytest.raises(ConfigError, match="axis 'n' lists 8 twice"):
        small_spec(axes={"n": [8, 12, 8]})
    with pytest.raises(ConfigError, match="axis 'n' lists \\[1\\] twice"):
        small_spec(axes={"n": [[1], [1]]})
    # an unhashable value stays a config error of its cell
    with pytest.raises(ConfigError, match="n: need an integer"):
        expand(small_spec(axes={"n": [[1]]}))


def test_expand_cell_and_seed_counts():
    plans = expand(small_spec())
    assert len(plans) == 6  # 2 cells x 3 seeds
    assert len({p.run_id for p in plans}) == 6
    assert len({p.config.seed for p in plans}) == 6
    assert {p.config.n for p in plans} == {8, 12}
    assert all(p.config.k == 2 for p in plans)


def test_expand_fails_fast_on_invalid_cells():
    # eta axis without eta seeding: rejected before any run executes
    bad = small_spec(axes={"eta": [0.5]})
    with pytest.raises(ConfigError, match="eta"):
        expand(bad)
    # fixed lists not selected in base, so an m axis cannot apply
    bad = small_spec(base={"n": 8, "k": 2, "protocol": g.RANDOM_PULL}, axes={"m": [4]})
    with pytest.raises(ConfigError, match="contact_list_size"):
        expand(bad)


def test_derive_seed_is_stable_and_sensitive():
    cell = (("n", 8),)
    s = derive_seed(3, cell, 0)
    assert s == derive_seed(3, cell, 0)
    assert 0 <= s < 2**64
    assert s != derive_seed(4, cell, 0)
    assert s != derive_seed(3, (("n", 12),), 0)
    assert s != derive_seed(3, cell, 1)


def test_run_sweep_rows_and_aggregate():
    rows, agg = run_sweep(small_spec())
    assert len(rows) == 6
    assert all(set(RUN_COLUMNS) == set(r) for r in rows)
    assert all(r["completed"] for r in rows)
    assert len(agg) == 2
    by_n = {a["n"]: a for a in agg}
    for n in (8, 12):
        members = [r["completion_slot"] for r in rows if r["n"] == n]
        assert by_n[n]["runs"] == 3
        assert by_n[n]["completed_runs"] == 3
        assert by_n[n]["mean_completion"] == pytest.approx(
            sum(members) / 3, abs=5e-4
        )
        assert by_n[n]["min_completion"] == min(members)
        assert by_n[n]["max_completion"] == max(members)


def strip_wall_time(rows):
    return [{k: v for k, v in r.items() if k != "wall_time_s"} for r in rows]


def test_parallel_sweep_matches_serial():
    spec = small_spec()
    rows1, agg1 = run_sweep(spec, jobs=1)
    rows2, agg2 = run_sweep(spec, jobs=2)
    assert strip_wall_time(rows1) == strip_wall_time(rows2)
    assert agg1 == agg2


def record_run_pids(tmp_path, monkeypatch):
    """Wrap sweep._execute_plan so that each run, in whichever process runs
    it, appends that process's pid to a file under `tmp_path`.  Returns a
    function that yields the set of pids recorded since its last call."""
    log = tmp_path / "run_pids"
    run_plan = sweep._execute_plan

    def recording(plan, keep_profile=False):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return run_plan(plan, keep_profile)

    monkeypatch.setattr(sweep, "_execute_plan", recording)

    def pids():
        found = set(map(int, log.read_text().split())) if log.exists() else set()
        log.unlink(missing_ok=True)
        return found

    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_jobs_out_of_range_is_refused_before_any_run(tmp_path, capsys, monkeypatch):
    def no_run(config):
        raise AssertionError("a run started")

    pids = record_run_pids(tmp_path, monkeypatch)
    monkeypatch.setattr(sweep, "run_engine", no_run)
    plans = expand(small_spec())
    for jobs in (0, -3, MAX_JOBS + 1, True, 2.0, "2"):
        expected = rf"^jobs: need an integer in \[1, {MAX_JOBS}\], got {re.escape(repr(jobs))}$"
        with pytest.raises(ConfigError, match=expected):
            execute(plans, jobs=jobs)
    cfg = sweep_yaml(tmp_path)
    assert main(["sweep", "--config", cfg, "--jobs", "0", "--out", str(tmp_path)]) == 2
    assert "config error: jobs" in capsys.readouterr().err
    argv = ["reproduce", "--figure", "fig3", "--scale", "0.04", "--seeds", "1"]
    assert main(argv + ["--jobs", "-3", "--out", str(tmp_path)]) == 2
    assert "config error: jobs" in capsys.readouterr().err
    assert pids() == set()  # no run, so no worker was forked
    assert not (tmp_path / "runs.csv").exists() and not (tmp_path / "fig3.csv").exists()


def test_pool_has_at_most_one_worker_per_plan(tmp_path, monkeypatch):
    pids = record_run_pids(tmp_path, monkeypatch)
    plans = expand(small_spec())  # 6 plans
    serial = execute(plans, jobs=1)
    assert pids() == {os.getpid()}
    for jobs, workers in ((2, 2), (MAX_JOBS, 6)):
        assert strip_wall_time(execute(plans, jobs=jobs)) == strip_wall_time(serial)
        seen = pids()
        assert len(seen) == workers and os.getpid() not in seen
    assert execute(plans[:1], jobs=MAX_JOBS)[0]["run_id"] == serial[0]["run_id"]
    assert pids() == {os.getpid()}  # one plan runs in the caller, unforked
    assert_no_child_left()


def test_jobs_above_one_needs_fork(tmp_path, capsys, monkeypatch):
    pids = record_run_pids(tmp_path, monkeypatch)
    monkeypatch.delattr(os, "fork")
    plans = expand(small_spec())
    for jobs in (2, MAX_JOBS):
        for share in (plans, plans[:1]):
            with pytest.raises(ConfigError, match=rf"^jobs: {jobs} needs os\.fork"):
                execute(share, jobs=jobs)
    assert pids() == set()
    cfg = sweep_yaml(tmp_path)
    assert main(["sweep", "--config", cfg, "--jobs", "2", "--out", str(tmp_path)]) == 2
    assert "config error: jobs: 2 needs os.fork" in capsys.readouterr().err
    assert pids() == set() and not (tmp_path / "runs.csv").exists()
    assert len(execute(plans, jobs=1)) == len(plans)
    assert pids() == {os.getpid()}


class Unpicklable(Exception):
    """An exception that holds a lock, so pickle refuses it."""

    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()


def fail_in_worker(monkeypatch, plans, failure):
    """Patch sweep.run_engine so that the run of plans[3] (the second
    worker's, with two workers) calls `failure`; the forks inherit it."""
    caller, bad_seed, run = os.getpid(), plans[3].config.seed, sweep.run_engine

    def engine(config):
        assert os.getpid() != caller, "a pooled run ran in the caller"
        if config.seed == bad_seed:
            failure(config)
        return run(config)

    monkeypatch.setattr(sweep, "run_engine", engine)


def test_a_worker_exception_is_raised_in_the_caller(monkeypatch):
    plans = expand(small_spec())

    def raise_value_error(config):
        raise ValueError(f"no run for seed {config.seed}")

    fail_in_worker(monkeypatch, plans, raise_value_error)
    with pytest.raises(ValueError, match=rf"^no run for seed {plans[3].config.seed}$"):
        execute(plans, jobs=2)
    assert_no_child_left()


def test_an_unpicklable_worker_exception_arrives_as_its_traceback(monkeypatch):
    plans = expand(small_spec())

    def raise_unpicklable(config):
        raise Unpicklable("holds a lock")

    fail_in_worker(monkeypatch, plans, raise_unpicklable)
    with pytest.raises(RuntimeError) as info:
        execute(plans, jobs=2)
    text = str(info.value)
    assert text.startswith("Traceback (most recent call last):")
    assert "in raise_unpicklable" in text
    assert text.rstrip().endswith("Unpicklable: holds a lock")
    assert_no_child_left()


@pytest.mark.parametrize(
    "die, status",
    [(lambda config: os._exit(3), 3), (lambda config: os.kill(os.getpid(), signal.SIGKILL), -9)],
    ids=["exit-3", "sigkill"],
)
def test_a_worker_that_dies_without_rows_is_an_error(monkeypatch, die, status):
    plans = expand(small_spec())
    fail_in_worker(monkeypatch, plans, die)
    with pytest.raises(RuntimeError, match=rf"^worker \d+ exited with status {status} without its rows$"):
        execute(plans, jobs=2)
    assert_no_child_left()


def test_an_interrupt_kills_and_reaps_every_worker(monkeypatch):
    # The first worker interrupts the caller once both workers are forked;
    # every worker then sleeps far longer than the test waits.
    caller, first = os.getpid(), expand(small_spec())[0].config.seed

    def engine(config):
        assert os.getpid() != caller, "a pooled run ran in the caller"
        if config.seed == first:
            time.sleep(0.5)
            os.kill(caller, signal.SIGINT)
        time.sleep(60)

    monkeypatch.setattr(sweep, "run_engine", engine)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        execute(expand(small_spec()), jobs=2)
    assert time.monotonic() - started < 30
    assert_no_child_left()


def test_a_sweep_imports_no_process_pool(tmp_path):
    # forked workers need no pool module, so no sweep loads one
    cfg = sweep_yaml(tmp_path)
    out = str(tmp_path / "jobs")
    code = (
        "import sys; from gossipsim.cli import main; "
        f"rc = [main(['sweep', '--config', {cfg!r}, '--jobs', j, '--out', {out!r} + j]) for j in '12']; "
        "print(*rc, any(m.split('.')[0] in ('concurrent', 'multiprocessing') for m in sys.modules))"
    )
    src = str(Path(g.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.stdout.split()[-3:] == ["0", "0", "False"], proc.stderr
    assert csv_digest(tmp_path / "jobs1" / "runs.csv") == csv_digest(tmp_path / "jobs2" / "runs.csv")


def test_priority_push_rows_record_reach():
    spec = SweepSpec.from_mapping(
        {
            "base": {"n": 64, "k": 8, "protocol": g.PRIORITY_PUSH, "max_slots": 60},
            "axes": {"l": [1, 2]},
            "seeds": 2,
            "master_seed": 11,
        }
    )
    rows, _ = run_sweep(spec)
    assert all(r["reach_fraction"] is not None for r in rows)
    assert all(0.0 <= r["reach_fraction"] <= 1.0 for r in rows)
    assert all(r["failed_piece_count"] is not None for r in rows)
    # pull rows carry neither statistic
    pull_rows, _ = run_sweep(small_spec())
    assert all(r["reach_fraction"] is None for r in pull_rows)
    assert all(r["failed_piece_count"] is None for r in pull_rows)


def test_csv_round_trip_and_coercion(tmp_path):
    rows, agg = run_sweep(small_spec())
    # rows that fill the columns a plain pull sweep leaves empty
    rows += sweep_rows(
        {"k": 2, "protocol": g.PRIORITY_PUSH, "spacing": 2,
         "contact_model": g.FIXED_LISTS, "contact_list_size": 3},
        {"n": [8]},
    )
    rows += sweep_rows(
        {"n": 8, "k": 2, "protocol": g.RANDOM_PULL, "initial_state": g.ETA_SEEDED},
        {"eta": [0.5]},
    )
    runs_path = write_rows_csv(rows, tmp_path / "runs.csv", RUN_COLUMNS)
    agg_path = write_rows_csv(agg, tmp_path / "aggregate.csv", AGGREGATE_COLUMNS)
    with open(runs_path, newline="") as fh:
        raw = list(csv.DictReader(fh))
    assert list(raw[0]) == list(RUN_COLUMNS)
    assert raw[0]["schema_version"] == "1"
    assert raw[0]["tool_version"] == g.__version__
    assert raw[0]["eta"] == ""  # None round-trips as empty
    back = load_results(runs_path)
    assert len(back) == 12
    # every column reads back as its declared type, or None from an empty cell
    assert all(any(cells[name] for cells in raw) for name in RUN_COLUMNS)
    for row, cells in zip(back, raw):
        for name, kind in RUN_COLUMNS.items():
            assert row[name] is None if cells[name] == "" else type(row[name]) is kind, name
    assert isinstance(back[0]["n"], int)
    assert isinstance(back[0]["completed"], bool) and back[0]["completed"]
    assert back[0]["eta"] is None
    assert isinstance(back[0]["delay_limit"], float)
    with open(agg_path, newline="") as fh:
        assert list(next(iter(csv.DictReader(fh)))) == list(AGGREGATE_COLUMNS)


# ------------------------------------------------------------- verification


def sweep_rows(base, axes):
    spec = SweepSpec.from_mapping({"base": base, "axes": axes, "seeds": 3, "master_seed": 7})
    return run_sweep(spec)[0]


def interleave_rows():
    return sweep_rows({"k": 8, "protocol": g.INTERLEAVE}, {"n": [16, 32]})


def test_verify_upper_bound_passes_on_real_runs():
    rows = interleave_rows()
    report = verify_rows(rows, "thm6")
    assert report.verdict is True
    assert report.kind == "upper"
    assert report.rows == 6
    assert report.fraction_within == 1.0
    # bound reported is the tightest across rows: the n=16 cell
    assert report.bound == pytest.approx(9 * 8 + 2.2 * 4)
    assert max(r["completion_slot"] for r in rows) <= report.bound


def test_verify_lower_bound_passes_on_real_runs():
    rows = sweep_rows({"k": 8, "protocol": g.RANDOM_PULL}, {"n": [32]})
    for theorem in ("thm1", "thm3"):
        report = verify_rows(rows, theorem)
        assert report.verdict is True, theorem


def test_verify_refuses_wrong_protocol():
    rows = interleave_rows()
    with pytest.raises(VerificationRefusal, match="thm1"):
        verify_rows(rows, "thm1")
    with pytest.raises(VerificationRefusal, match="thm7"):
        verify_rows(rows, "thm7")


def test_verify_refuses_empty_and_rejects_unknown():
    with pytest.raises(VerificationRefusal):
        verify_rows([], "thm6")
    with pytest.raises(ConfigError, match=r"^theorem: need one of \(.*\), got 'thm9'$"):
        verify_rows(interleave_rows(), "thm9")


def test_verify_reads_the_counts_of_a_bound_as_integers():
    rows = [dict(r) for r in sweep_rows({"k": 8, "protocol": g.RANDOM_PULL}, {"n": [32]})]
    rows[0]["n"] = 32.5
    run = rows[0]["run_id"]
    with pytest.raises(ConfigError, match=rf"^results: {run}: n: need an integer in \[2, inf\), got 32.5$"):
        verify_rows(rows, "thm1")


def test_verify_never_passes_with_a_violation():
    rows = interleave_rows()
    doctored = [dict(r) for r in rows]
    doctored[0]["completion_slot"] = 10**6  # exceeds every thm6 bound
    report = verify_rows(doctored, "thm6")
    assert report.verdict is False
    assert report.details["violation_count"] == 1
    assert doctored[0]["run_id"] in report.details["violations"]
    # a capped, unfinished run can never satisfy an upper bound either
    doctored[0]["completion_slot"] = None
    doctored[0]["completed"] = False
    doctored[0]["slots"] = 5
    assert verify_rows(doctored, "thm6").verdict is False


def test_verify_whp_margin_mechanics():
    # thm2 tolerates a vanishing fraction of stragglers: with n = 1000 the
    # required coverage is 0.999 (1 - 1/1000) ~ 0.998001
    template = {
        "run_id": "r0",
        "protocol": g.RANDOM_PULL,
        "initial_state": g.ETA_SEEDED,
        "contact_model": g.UNIFORM,
        "n": 1000,
        "k": 50,
        "eta": 0.5,
        "completed": True,
        "completion_slot": 60,
        "slots": 60,
    }
    rows = [dict(template, run_id=f"r{i}") for i in range(1000)]
    assert verify_rows(rows, "thm2").verdict is True
    rows[0]["completion_slot"] = 10**6
    assert verify_rows(rows, "thm2").verdict is True  # 0.999 >= 0.998001
    rows[1]["completion_slot"] = 10**6
    assert verify_rows(rows, "thm2").verdict is False


def test_verify_reach_mechanics():
    template = {
        "run_id": "r0",
        "protocol": g.PRIORITY_PUSH,
        "contact_model": g.UNIFORM,
        "n": 500,
        "k": 600,
        "spacing": 1,
        "completed": False,
        "completion_slot": None,
        "slots": 700,
        "reach_fraction": 0.95,
    }
    rows = [dict(template, run_id=f"r{i}") for i in range(4)]
    report = verify_rows(rows, "thm5")
    assert report.verdict is True
    assert report.bound["fraction"] == pytest.approx(1 - math.exp(-1) - 0.08)
    low = [dict(r, reach_fraction=0.5) for r in rows]
    assert verify_rows(low, "thm5").verdict is False
    # recorded statistic pins delta: re-checking at another delta refuses
    with pytest.raises(VerificationRefusal, match="delta"):
        verify_rows(rows, "thm5", {"delta": 0.2})
    missing = [dict(r, reach_fraction=None) for r in rows]
    with pytest.raises(VerificationRefusal, match="reach_fraction"):
        verify_rows(missing, "thm5")


def test_verify_linear_mechanics():
    template = {
        "run_id": "r0",
        "protocol": g.ADVOCATE,
        "initial_state": g.ONE_UNIQUE,
        "constraint": g.SOFT,
        "contact_model": g.UNIFORM,
        "n": 128,
        "k": 128,
        "completed": True,
        "completion_slot": 127,
        "slots": 127,
    }
    rows = [dict(template, run_id=f"r{i}") for i in range(5)]
    report = verify_rows(rows, "thm7")
    assert report.verdict is True
    assert report.empirical["max_excess_over_n_per_ln_n"] <= 0.0
    fast = [dict(r, completion_slot=100) for r in rows]  # below the n-1 floor
    assert verify_rows(fast, "thm7").verdict is False
    slow = [dict(r, completion_slot=128 + 200, slots=128 + 200) for r in rows]
    assert verify_rows(slow, "thm7").verdict is False  # exceeds n + C ln n


def capped_pull_run(**changes):
    """One thm1/thm3 row for a random-pull run that stopped at its 60-slot cap."""
    row = {
        "run_id": "r0",
        "protocol": g.RANDOM_PULL,
        "initial_state": g.SINGLE_SOURCE,
        "contact_model": g.UNIFORM,
        "n": 32,
        "k": 8,
        "completed": False,
        "completion_slot": None,
        "slots": 60,
    }
    return {**row, **changes}


@pytest.mark.parametrize("flag", ["no", 1])
def test_verify_refuses_a_completed_that_is_not_a_flag(flag):
    # rows handed to verify_rows are not read from a file, so nothing else
    # checks the flag; a truthy "no" would count an unfinished run as done
    assert verify_rows([capped_pull_run()], "thm3").verdict is False
    with pytest.raises(ConfigError, match=rf"^results: r0: completed: need true or false, got {flag!r}$"):
        verify_rows([capped_pull_run(completed=flag)], "thm3")


@pytest.mark.parametrize("params", [[("beta", 0.9)], [], "beta=0.9"])
def test_verify_refuses_params_that_are_not_a_mapping(params):
    name = type(params).__name__
    with pytest.raises(ConfigError, match=rf"^thm1: need a mapping, got {name}$"):
        verify_rows([capped_pull_run()], "thm1", params)


# capped_pull_run's changes that make it a run each bound applies to
BOUND_RUNS = {
    "thm1": {},
    "thm2": {"initial_state": g.ETA_SEEDED, "eta": 0.5},
    "thm5": {"protocol": g.PRIORITY_PUSH, "spacing": 1, "reach_fraction": 0.95},
    "thm7": {"protocol": g.ADVOCATE, "initial_state": g.ONE_UNIQUE, "constraint": g.SOFT},
}


@pytest.mark.parametrize(
    "theorem, params, unknown, known",
    [
        ("thm1", {"n": 2, "k": 1}, ["k", "n"], ["beta", "eps"]),
        ("thm2", {"k": 1, "eta": 0.25}, ["eta", "k"], ["c"]),
        ("thm5", {"l": 3}, ["l"], ["delta"]),
        ("thm7", {"n": 64, "C": 1.0}, ["n"], ["C"]),
        ("thm2", {"eta": 0.25}, ["eta"], ["c"]),  # a run column too, like the counts
    ],
)
def test_verify_takes_a_bounds_counts_only_from_the_runs(theorem, params, unknown, known):
    # a count set by the caller would check the bound on a network the runs
    # never had: thm1 at n = 2, k = 1 is 0.31 slots, at n = 16, k = 4 it is 4.99
    row = capped_pull_run(**BOUND_RUNS[theorem])
    with pytest.raises(ConfigError) as err:
        verify_rows([row], theorem, params)
    assert str(err.value) == f"{theorem}: unknown keys {unknown}; known: {known}"


@pytest.mark.parametrize("theorem, column", [("thm1", "n"), ("thm5", "spacing"), ("thm2", "eta")])
def test_verify_reads_a_bound_parameter_from_its_axis_column(theorem, column):
    # thm5's l is the sweep axis l, whose run column is spacing
    row = capped_pull_run(**BOUND_RUNS[theorem])
    del row[column]
    with pytest.raises(ConfigError) as err:
        verify_rows([row], theorem)
    assert str(err.value) == f"results: no {column!r} column, which {theorem} reads"


def test_thm5_reports_the_window_its_reach_statistic_used():
    # the theorem's window at n = 500 is 9.683 slots; the recorded reach
    # fraction counts holders within ceil(1.3 log2 500) = 12
    rows = [capped_pull_run(**BOUND_RUNS["thm5"], n=n, run_id=f"n{n}") for n in (64, 500)]
    report = verify_rows(rows, "thm5")
    assert report.bound["window_slots"] == pytest.approx(1.08 * math.log2(500))
    assert report.details["reach_window_slots"] == g.metrics.reach_window(500) == 12


def test_thm2_reads_each_runs_own_eta():
    # 200 slots at eta = 1.0 is past that run's bound (55.7 slots); a caller's
    # eta = 0.25 would have checked it against 303.8 and passed it
    seeded = {"initial_state": g.ETA_SEEDED, "completed": True}
    late = capped_pull_run(**seeded, eta=1.0, completion_slot=200, slots=200)
    report = verify_rows([late], "thm2")
    assert report.verdict is False
    assert report.bound == bound_value("thm2", n=32, k=8, eta=1.0, c=1.0)
    with pytest.raises(ConfigError, match=r"^thm2: unknown keys \['eta'\]; known: \['c'\]$"):
        verify_rows([late], "thm2", {"eta": 0.25})
    # 100 slots is within the bound at eta = 0.5 (129.3 slots), not at 1.0
    rows = [
        capped_pull_run(**seeded, run_id=f"eta{eta}", eta=eta, completion_slot=100, slots=100)
        for eta in (0.5, 1.0)
    ]
    report = verify_rows(rows, "thm2")
    assert report.bound == min(bound_value("thm2", n=32, k=8, eta=eta, c=1.0) for eta in (0.5, 1.0))
    assert report.details["violations"] == ["eta1.0"]


def test_verify_refuses_a_hypothesis_value_that_is_not_hashable():
    row = capped_pull_run(protocol=[g.RANDOM_PULL])
    with pytest.raises(VerificationRefusal) as err:
        verify_rows([row], "thm1")
    assert str(err.value) == (
        "thm1: bound applies only to runs with protocol in ['random-pull', 'sequential-pull'], "
        f"but results contain {[str([g.RANDOM_PULL])]}"
    )


def golden_report_cases():
    """(name, rows, theorem, params): every bound on small seeded sweeps,
    at its defaults and at other parameters, passing and failing."""
    pull = sweep_rows({"k": 8, "protocol": g.RANDOM_PULL}, {"n": [16, 32]})
    seeded = sweep_rows(
        {"k": 8, "protocol": g.RANDOM_PULL, "initial_state": g.ETA_SEEDED},
        {"n": [16, 32], "eta": [0.5, 1.0]},
    )
    push = sweep_rows({"k": 8, "protocol": g.RANDOM_PUSH}, {"n": [16, 32]})
    spaced = sweep_rows({"k": 24, "protocol": g.PRIORITY_PUSH}, {"n": [32, 64], "l": [1, 2]})
    interleave = interleave_rows()
    late = [dict(r) for r in interleave]
    late[0]["completion_slot"] = 10**6
    advocate = [
        row
        for n in (16, 32)
        for row in sweep_rows(
            {"k": n, "protocol": g.ADVOCATE, "initial_state": g.ONE_UNIQUE, "constraint": g.SOFT},
            {"n": [n]},
        )
    ]
    whp = [
        {
            "run_id": f"r{i}",
            "protocol": g.RANDOM_PULL,
            "initial_state": g.ETA_SEEDED,
            "contact_model": g.UNIFORM,
            "n": 1000,
            "k": 50,
            "eta": 0.5,
            "completed": True,
            "completion_slot": 10**6 if i == 0 else 60,
            "slots": 10**6 if i == 0 else 60,
        }
        for i in range(1000)
    ]
    return [
        ("thm1", pull, "thm1", {}),
        ("thm1-beta-eps", pull, "thm1", {"beta": 0.9, "eps": 0.05}),
        ("thm2", seeded, "thm2", {}),
        ("thm2-c", seeded, "thm2", {"c": 2.0}),
        ("thm2-whp-margin", whp, "thm2", {}),
        ("thm3", pull, "thm3", {}),
        ("thm3-delta-c", pull, "thm3", {"delta": 0.5, "c": 0.5}),
        ("thm4", push, "thm4", {}),
        ("thm4-beta", push, "thm4", {"beta": 1.0}),
        ("thm5-fail", spaced, "thm5", {}),  # mean reach 0.70 at these small n
        ("thm5-pass", [dict(r, reach_fraction=0.95) for r in spaced], "thm5", {}),
        ("thm6", interleave, "thm6", {}),
        ("thm6-eps", interleave, "thm6", {"eps": 0.5}),
        ("thm6-late", late, "thm6", {}),
        ("thm7", advocate, "thm7", {}),
        ("thm7-const", advocate, "thm7", {"C": 0.25}),
        ("thm7-floor", [dict(r, completion_slot=5) for r in advocate], "thm7", {}),
    ]


# sha256 of each report's to_json(): the reports are part of the CLI's output
GOLDEN_REPORTS = {
    "thm1": "0fd13a3b43c9a28cd4bf7de3d38a27ec6760234f38f5e98a99aa469dba8f5f34",  # PASS
    "thm1-beta-eps": "e61073f49099e22919e9979a82dcc97177877864ac907ebf7ce43f182fa2cf54",  # PASS
    "thm2": "010b396aaad39ccf67ee8045213f7736df0b301dbfddb40f4bec487704b3e6bf",  # PASS
    "thm2-c": "1cf8de9d7e8d31fe6bd7b58017b1388b60d830df7bcecf1e17ee5383e6a23023",  # PASS
    "thm2-whp-margin": "4e1eef2aaba0f0f10b9c20014b9650c2c625204d8b294283f2158ae626355988",  # PASS
    "thm3": "4aa5875eaac8ed02e7afcfc7478f60764cd8541258cba340f5dcaa0506df98c5",  # PASS
    "thm3-delta-c": "8854b140cb3e9b2edf57d4e36d296da15c6c322ae7a3266ddbb5a8153d3f6b65",  # PASS
    "thm4": "89ca4ca6862a27c82ae49a3b9387347005b206b6eb006733e20cbd6a71a59fcb",  # PASS
    "thm4-beta": "ff80c03869df43e3f0a93906620ceebf6c0b5816d0f0eb9ba90b81fc31650969",  # PASS
    "thm5-fail": "653368716c12853c4485da71c9643f021afe373a8e2ccf107731fcd5ec844f8f",  # FAIL
    "thm5-pass": "37c598f645afca45f16fb6ebf4fe4939c1e50a8b2048d494e1e8d0f676145246",  # PASS
    "thm6": "02af5dcd1048ed4c4c4ae1267d5f0fe41d6f2f328b90c09143506963e6ec38cd",  # PASS
    "thm6-eps": "a1326f04f242935df7b1f282daeb93fa9c1ea658ea082f18dd7fd8063eb248e1",  # PASS
    "thm6-late": "9ec983539ac7e5ec42f7c4d4e0e21df25eb12b60f97ca7dc70dd338a272f809b",  # FAIL
    "thm7": "67dc7893e80a83bd7d106055b298bd02e7cebb999f1594d29011c5f0c5597692",  # PASS
    "thm7-const": "9c9d7aab05e76b16f8076a8353ff64027939af8983d6ef00fe52c93a244f89c8",  # FAIL
    "thm7-floor": "3ced4403e7f77dbcc249b739a9783541a661e5d2e190091b4b78e9b67d7cf8f1",  # FAIL
}


def test_verify_reports_match_golden_digests():
    digests = {
        name: hashlib.sha256(verify_rows(rows, theorem, params).to_json().encode()).hexdigest()
        for name, rows, theorem, params in golden_report_cases()
    }
    assert digests == GOLDEN_REPORTS


# ------------------------------------------------------------------ figures


def test_fig1_completion_falls_as_lists_grow():
    ds = reproduce("fig1", scale=0.1, seeds=2, master_seed=97)
    assert ds.params["n"] == 50 and ds.params["k"] == 100
    means = {r["m"]: r["mean_completion"] for r in ds.rows}
    fixed = [means[m] for m in (2, 3, 4, 5, 8, 16, 32)]
    assert all(b <= a for a, b in zip(fixed, fixed[1:]))
    assert means["full"] <= means[8]
    assert means[2] > 1.5 * means["full"]
    assert all(r["completed_runs"] == 2 for r in ds.rows)


def test_fig2_small_lists_track_the_full_view():
    ds = reproduce("fig2", scale=0.12, seeds=2, master_seed=97)
    by_m = {}
    for r in ds.rows:
        by_m.setdefault(r["m"], {})[r["d"]] = r["mean_D"]
    for prof in by_m.values():
        values = [prof[d] for d in sorted(prof)]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0)
    full = by_m["full"]
    full_limit = full[max(full)]
    worst = max(
        by_m[2][d] - full.get(d, full_limit) for d in sorted(by_m[2])
    )
    assert worst <= 0.05


def test_fig3_plateaus_match_release_spacing():
    ds = reproduce("fig3", scale=0.2, seeds=2, master_seed=97)
    assert ds.params["n"] == 100 and ds.params["k"] == 200
    plateaus = {}
    for r in ds.rows:  # rows are in d order per spacing: keep the last
        plateaus[r["l"]] = r["mean_D"]
    for l in (1, 2, 3, 4):
        assert plateaus[l] == pytest.approx(1 - math.exp(-l), abs=0.05)
    ordered = [plateaus[l] for l in (1, 2, 3, 4)]
    assert all(b > a for a, b in zip(ordered, ordered[1:]))


def test_reproduce_is_deterministic_and_validates():
    a = reproduce("fig1", scale=0.04, seeds=1, master_seed=5)
    b = reproduce("fig1", scale=0.04, seeds=1, master_seed=5)
    assert a.rows == b.rows
    c = reproduce("fig1", scale=0.04, seeds=1, master_seed=6)
    assert c.rows != a.rows
    with pytest.raises(ConfigError):
        reproduce("fig9")
    with pytest.raises(ConfigError):
        reproduce("fig1", scale=0.0)
    with pytest.raises(ConfigError):
        reproduce("fig1", seeds=0)
    # the sweep's seed-plan rule: integers, not bools or floats
    for bad in ({"seeds": True}, {"seeds": 1.5}, {"master_seed": -7}, {"master_seed": True}):
        with pytest.raises(ConfigError):
            reproduce("fig1", scale=0.04, **bad)


# ---------------------------------------------------------------------- CLI


def write_yaml(path, data):
    path.write_text(yaml.safe_dump(data))
    return str(path)


def sim_config(tmp_path, **overrides):
    data = {
        "schema_version": 1,
        "n": 16,
        "k": 4,
        "protocol": g.INTERLEAVE,
        "seed": 5,
    }
    data.update(overrides)
    return write_yaml(tmp_path / "run.yaml", data)


def test_cli_refuses_repeated_keys_and_files_that_are_not_utf8(tmp_path, capsys):
    # a key given twice (PyYAML's safe loader would keep the last) and a file
    # that is not UTF-8 text are config errors naming the file: exit 2
    twice = tmp_path / "twice.yaml"
    twice.write_text("schema_version: 1\nn: 4\nk: 4\nprotocol: random-pull\nn: 5\n")
    sweep_twice = tmp_path / "sweep_twice.yaml"
    sweep_twice.write_text("schema_version: 1\nbase: {n: 4, k: 4, protocol: random-pull}\nseeds: 1\nseeds: 3\n")
    nested_twice = tmp_path / "nested_twice.yaml"
    nested_twice.write_text("schema_version: 1\nbase: {n: 1, n: 2}\n")
    elf = b"\x7fELF\x02\x01\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x03\x00>\x00\x01\x00\x00\x00\xb0\x6b"
    binary = {name: tmp_path / name for name in ("bin.yaml", "bin.csv", "bin.jsonl")}
    for path in binary.values():
        path.write_bytes(elf)
    not_utf8 = "not UTF-8 text: invalid start byte at byte 24"
    cases = [
        (["simulate", "--config", twice], f"{twice}: invalid YAML: line 5: duplicate key 'n'"),
        (["sweep", "--config", sweep_twice, "--out", tmp_path / "a"], f"{sweep_twice}: invalid YAML: line 4: duplicate key 'seeds'"),
        (["sweep", "--config", nested_twice, "--out", tmp_path / "b"], f"{nested_twice}: invalid YAML: line 2: duplicate key 'n'"),
        (["simulate", "--config", binary["bin.yaml"]], f"{binary['bin.yaml']}: {not_utf8}"),
        (["verify", "--results", binary["bin.csv"], "--theorem", "thm3"], f"{binary['bin.csv']}: {not_utf8}"),
        (["verify", "--results", binary["bin.jsonl"], "--theorem", "thm3"], f"{binary['bin.jsonl']}: {not_utf8}"),
    ]
    for argv, message in cases:
        assert main([str(arg) for arg in argv]) == 2, argv
        assert capsys.readouterr() == ("", f"config error: {message}\n")
    assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()


def test_cli_simulate_outputs_versioned_record(tmp_path, capsys):
    cfg = sim_config(tmp_path)
    assert main(["simulate", "--config", cfg]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["schema_version"] == 1
    assert record["tool_version"] == g.__version__
    assert record["config"]["n"] == 16
    assert record["completed"] is True
    assert record["metrics"]["pairs_served"] == 16 * 4
    assert record["metrics"]["failed_piece_count"] == 0
    assert "reach_fraction" not in record["metrics"]
    assert record["trace_hash"] is None


def test_cli_simulate_is_byte_identical(tmp_path, capsys):
    cfg = sim_config(tmp_path)
    main(["simulate", "--config", cfg])
    first = capsys.readouterr().out
    main(["simulate", "--config", cfg])
    assert capsys.readouterr().out == first


def test_cli_simulate_seed_override_and_out(tmp_path, capsys):
    cfg = sim_config(tmp_path)
    out = tmp_path / "res" / "run.jsonl"
    assert main(["simulate", "--config", cfg, "--seed", "9", "--out", str(out)]) == 0
    capsys.readouterr()
    record = json.loads(out.read_text())
    assert record["config"]["seed"] == 9


def test_cli_simulate_trace_csv(tmp_path, capsys):
    # pull grants are always novel, so events = pairs minus endowed pairs
    cfg = sim_config(tmp_path, n=8, k=2, protocol=g.RANDOM_PULL)
    trace = tmp_path / "trace.csv"
    assert main(["simulate", "--config", cfg, "--trace", str(trace)]) == 0
    record = json.loads(capsys.readouterr().out.splitlines()[0])
    assert record["trace_hash"] is not None
    with open(trace, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "schema_version",
        "tool_version",
        "slot",
        "from",
        "to",
        "piece",
        "kind",
    ]
    assert len(rows) == 1 + record["metrics"]["pairs_served"] - 2  # minus endowed
    traced = g.run(replace(g.load_config(cfg), record_trace=True))
    assert rows[1:] == [[str(v) for v in (1, g.__version__, *e)] for e in traced.trace]


@pytest.mark.parametrize(
    "overrides",
    [
        {"protocol": g.INTERLEAVE},
        {"protocol": g.PRIORITY_PUSH},
        {"protocol": g.RANDOM_PULL},
        # every user starts with every piece: no slot runs, no event is written
        {"protocol": g.RANDOM_PULL, "initial_state": g.ETA_SEEDED, "eta": 1.0},
    ],
    ids=["interleave", "priority-push", "random-pull", "no-events"],
)
def test_cli_simulate_trace_csv_bytes_match_csv_writer(tmp_path, capsys, overrides):
    path = sim_config(tmp_path, n=30, k=20, max_slots=400, **overrides)
    trace = tmp_path / "trace.csv"
    assert main(["simulate", "--config", path, "--trace", str(trace)]) == 0
    capsys.readouterr()
    cfg = g.load_config(path)
    st = init_state(cfg)
    protocol = make_protocol(cfg)
    events = []
    while st.num_complete < st.n and st.slot < cfg.effective_max_slots():
        events.extend(step_slot(st, protocol))
    reference = tmp_path / "reference.csv"
    with open(reference, "w", newline="") as fh:  # the rows as csv.writer writes them
        writer = csv.writer(fh)
        writer.writerow(["schema_version", "tool_version", "slot", "from", "to", "piece", "kind"])
        writer.writerows((g.SCHEMA_VERSION, g.__version__, *e) for e in events)
    assert trace.read_bytes() == reference.read_bytes()


def test_cli_rejects_bad_configs(tmp_path, capsys):
    missing = write_yaml(tmp_path / "bad.yaml", {"schema_version": 1, "n": 16})
    assert main(["simulate", "--config", missing]) == 2
    assert "config error" in capsys.readouterr().err
    unversioned = write_yaml(tmp_path / "old.yaml", {"n": 16, "k": 4, "protocol": "random-pull"})
    assert main(["simulate", "--config", unversioned]) == 2
    capsys.readouterr()
    assert main(["simulate", "--config", str(tmp_path / "absent.yaml")]) == 2
    capsys.readouterr()
    # a string where a number belongs is a config error, not a TypeError
    quoted = write_yaml(
        tmp_path / "eps.yaml",
        {"schema_version": 1, "n": 16, "k": 4, "protocol": "random-pull", "epsilon": "0.1"},
    )
    assert main(["simulate", "--config", quoted]) == 2
    assert f"config error: {quoted}: epsilon" in capsys.readouterr().err
    # reproduce applies the sweep's seed-plan rule
    argv = ["reproduce", "--figure", "fig1", "--scale", "0.04", "--out", str(tmp_path)]
    assert main(argv + ["--master-seed", "-7"]) == 2
    assert "config error: reproduce: master_seed: need an integer in [0, inf), got -7" in capsys.readouterr().err
    # a sweep refuses a base seed and an axis value given twice
    spec = {"schema_version": 1, "base": {"k": 8, "protocol": g.RANDOM_PULL}, "seeds": 2}
    seeded = write_yaml(tmp_path / "seeded.yaml", {**spec, "base": {**spec["base"], "seed": 5}})
    repeated = write_yaml(tmp_path / "repeated.yaml", {**spec, "axes": {"n": [16, 16]}})
    # a cell's validation error names the cell, and without axes the base
    bad_cell = write_yaml(tmp_path / "cell.yaml", {**spec, "axes": {"n": [[1]]}})
    bad_base = write_yaml(tmp_path / "base.yaml", {**spec, "base": {**spec["base"], "n": 1}})
    for path, expected in (
        (seeded, "base.seed"),
        (repeated, "axis 'n'"),
        (bad_cell, "sweep cell n=[1]: n: need an integer in [2, inf), got [1]"),
        (bad_base, "config error: sweep base: n: need an integer in [2, inf), got 1"),
    ):
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and expected in err
    assert not (tmp_path / "out").exists()


def no_slot(st, protocol):
    raise AssertionError("a slot ran")


@pytest.mark.parametrize("command", ["sweep", "reproduce"])
def test_an_out_a_file_blocks_fails_before_any_run(tmp_path, capsys, monkeypatch, command):
    # the results could not be written: refuse before stepping the grid
    monkeypatch.setattr(engine, "step_slot", no_slot)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    spec = {"schema_version": 1, "base": {"k": 4, "protocol": g.INTERLEAVE}, "axes": {"n": [8, 16]}}
    if command == "sweep":
        argv = ["sweep", "--config", write_yaml(tmp_path / "s.yaml", spec)]
        names = ["runs.csv", "aggregate.csv"]
    else:
        argv = ["reproduce", "--figure", "fig3", "--scale", "0.04", "--seeds", "1"]
        names = ["fig3.csv"]
    cases = [
        (argv + ["--out", str(out)], f"error: [Errno {code}] {os.strerror(code)}: '{out}'")
        for out, code in ((blocker, errno.EEXIST), (blocker / "sub", errno.ENOTDIR))
    ]
    for name in names:  # one result file is a directory
        out = tmp_path / f"dir-{name}"
        (out / name).mkdir(parents=True)
        message = f"error: [Errno {errno.EISDIR}] Is a directory: '{out / name}'"
        cases.append((argv + ["--out", str(out)], message))
    if command == "sweep":  # the runs would overwrite the spec they come from
        (tmp_path / "o").mkdir()
        config = write_yaml(tmp_path / "o" / "runs.csv", spec)
        message = f"config error: --config and --out name the same file {config}"
        cases.append((["sweep", "--config", config, "--out", str(tmp_path / "o")], message))
    before = {path: path.is_file() and path.read_bytes() for path in tmp_path.rglob("*")}
    for args, message in cases:
        assert main(args) == 2, args
        assert capsys.readouterr() == ("", message + "\n")
    assert {path: path.is_file() and path.read_bytes() for path in tmp_path.rglob("*")} == before


def refuse_replace(src, dst):
    raise OSError(errno.EIO, "replace refused", str(dst))


@pytest.mark.parametrize("command", ["simulate", "simulate-trace", "sweep", "verify", "reproduce"])
def test_every_command_writes_its_results_through_one_hidden_file(tmp_path, capsys, monkeypatch, command):
    # a result file is moved into place whole, or not at all
    spec = {"schema_version": 1, "base": {"k": 4, "protocol": g.RANDOM_PULL}, "axes": {"n": [8]}}
    sweep_config = write_yaml(tmp_path / "s.yaml", spec)
    assert main(["sweep", "--config", sweep_config, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    out = tmp_path / "results"
    argv = {
        "simulate": ["simulate", "--config", sim_config(tmp_path), "--out", str(out / "run.jsonl")],
        "sweep": ["sweep", "--config", sweep_config, "--out", str(out)],
        "verify": ["verify", "--results", str(tmp_path / "runs.csv"), "--theorem", "thm3",
                   "--out", str(out / "report.json")],
        "reproduce": ["reproduce", "--figure", "fig3", "--scale", "0.04", "--seeds", "1", "--out", str(out)],
    }
    argv["simulate-trace"] = argv["simulate"] + ["--trace", str(out / "trace.csv")]
    before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    monkeypatch.setattr(os, "replace", refuse_replace)
    assert main(argv[command]) == 2
    assert capsys.readouterr().err.startswith(f"error: [Errno {errno.EIO}] replace refused: '{out}")
    assert {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()} == before


def test_a_failed_written_block_leaves_the_older_file(tmp_path):
    path = tmp_path / "runs.csv"
    path.write_bytes(b"older\r\n")
    with pytest.raises(RuntimeError, match="stopped"), sweep.written(path) as fh:
        fh.write("newer")
        fh.flush()
        assert sorted(p.name for p in tmp_path.iterdir()) == [f".runs.csv.{os.getpid()}.part", "runs.csv"]
        raise RuntimeError("stopped")
    assert path.read_bytes() == b"older\r\n"
    assert list(tmp_path.iterdir()) == [path]


def no_read(*args, **kwargs):
    raise AssertionError("the results were read")


@pytest.mark.parametrize("flag", ["--out", "--trace"])
def test_simulate_refuses_an_output_that_names_its_config(tmp_path, capsys, monkeypatch, flag):
    # the record or the trace would overwrite the config it was run from
    monkeypatch.setattr(engine, "step_slot", no_slot)
    config = sim_config(tmp_path, n=8)
    text = Path(config).read_text()
    same = f"{tmp_path}/./run.yaml"  # another spelling of the one file
    for path in (config, same):
        assert main(["simulate", "--config", config, flag, path]) == 2
        message = f"config error: --config and {flag} name the same file {path}\n"
        assert capsys.readouterr() == ("", message)
    assert Path(config).read_text() == text
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.yaml"]


def test_verify_refuses_an_out_that_names_its_results(tmp_path, capsys, monkeypatch):
    # sweep ... --out o; verify --results o/runs.csv --out o/runs.csv would
    # leave the JSON report in place of the rows
    spec = {"schema_version": 1, "base": {"k": 4, "protocol": g.RANDOM_PULL}, "axes": {"n": [8]}}
    out = tmp_path / "o"
    spec_path = write_yaml(tmp_path / "s.yaml", spec)
    assert main(["sweep", "--config", spec_path, "--out", str(out)]) == 0
    capsys.readouterr()
    runs = out / "runs.csv"
    text = runs.read_text()

    monkeypatch.setattr(cli, "load_results", no_read)
    for path in (runs, out / ".." / "o" / "runs.csv"):
        argv = ["verify", "--results", str(runs), "--theorem", "thm3", "--out", str(path)]
        assert main(argv) == 2
        message = f"config error: --results and --out name the same file {path}\n"
        assert capsys.readouterr() == ("", message)
    assert runs.read_text() == text


def test_verify_refuses_an_out_that_is_a_directory_before_reading(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "load_results", no_read)
    place = tmp_path / "place"
    place.mkdir()
    argv = ["verify", "--results", str(tmp_path / "runs.csv"), "--theorem", "thm1"]
    assert main(argv + ["--out", str(place)]) == 2
    assert capsys.readouterr() == ("", f"error: [Errno {errno.EISDIR}] Is a directory: '{place}'\n")
    assert list(place.iterdir()) == []


def test_cli_verify_usage_errors_exit_2(tmp_path, capsys):
    # exit 1 means a violated bound; bad parameters and unreadable rows are usage errors
    spec = {"schema_version": 1, "base": {"k": 4, "protocol": g.RANDOM_PULL}, "axes": {"n": [8]}}
    assert main(["sweep", "--config", write_yaml(tmp_path / "s.yaml", spec), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    runs = tmp_path / "runs.csv"
    header, row = runs.read_text().splitlines()
    bad_n = tmp_path / "bad_n.csv"
    bad_n.write_text(header + "\n" + row.replace(",random-pull,8,", ",random-pull,abc,") + "\n")
    bad_json = tmp_path / "bad.jsonl"
    bad_json.write_text('{"n": 3\n')
    scalar_json = tmp_path / "scalar.jsonl"
    scalar_json.write_text("5\n")
    maybe = tmp_path / "maybe.csv"
    maybe.write_text(header + "\n" + row.replace(",True,", ",maybe,") + "\n")
    columns = header.split(",")
    keep = [i for i, name in enumerate(columns) if name != "n"]
    no_n = tmp_path / "no_n.csv"
    no_n.write_text("\n".join(",".join(line.split(",")[i] for i in keep) for line in (header, row)) + "\n")
    assert main(["simulate", "--config", sim_config(tmp_path, protocol=g.RANDOM_PULL)]) == 0
    record = json.loads(capsys.readouterr().out)

    def jsonl(name, **changes):  # the simulate record with some entries replaced
        path = tmp_path / f"{name}.jsonl"
        path.write_text(json.dumps({**record, **changes}) + "\n")
        return path

    list_config = jsonl("list_config", config=[1, 2])
    scalar_metrics = jsonl("scalar_metrics", metrics=5)
    text_slot = jsonl("text_slot", completion_slot="30")
    maybe_json = jsonl("maybe_json", completed="maybe")
    bool_slots = jsonl("bool_slots", slots=True)
    null_completed = jsonl("null_completed", completed=None)
    null_slots = jsonl("null_slots", completion_slot=None, slots=None)
    null_n = jsonl("null_n", config={**record["config"], "n": None})
    one_user = jsonl("one_user", config={**record["config"], "n": 1})
    negative_slot = jsonl("negative_slot", completion_slot=-500)
    negative_cap = jsonl("negative_cap", completed=False, completion_slot=None, slots=-1)
    assert main(["simulate", "--config", sim_config(tmp_path, protocol=g.PRIORITY_PUSH, max_slots=30)]) == 0
    record = json.loads(capsys.readouterr().out)  # jsonl() now varies this record
    over_reach = jsonl("over_reach", metrics={**record["metrics"], "reach_fraction": 1.7})
    nan_reach = jsonl("nan_reach", metrics={**record["metrics"], "reach_fraction": math.nan})
    null_message = "row0: need completed, and slots if no completion_slot"
    is_dir = f"error: [Errno {errno.EISDIR}] Is a directory: '{tmp_path}'"
    cases = [
        (runs, ["--eps", "5"], "config error: thm1: eps: need a number in (0, 1), got 5.0"),
        (runs, ["--beta", "-1"], "config error: thm1: beta: need a number in (0, 1], got -1.0"),
        (bad_json, [], f"config error: {bad_json}: line 1: not JSON"),
        (scalar_json, [], f"config error: {scalar_json}: line 1: need a JSON object"),
        (bad_n, [], f"config error: {bad_n}: line 2: n: need an integer, got 'abc'"),
        (maybe, [], f"config error: {maybe}: line 2: completed: need true or false, got 'maybe'"),
        (no_n, [], f"config error: {no_n}: no 'n' column, which thm1 reads"),
        (runs, ["--delta", "0.5"], "config error: thm1: unknown keys ['delta']; known: "),
        (list_config, [], f"config error: {list_config}: line 1: config: need a JSON object, got [1, 2]"),
        (scalar_metrics, [], f"config error: {scalar_metrics}: line 1: metrics: need a JSON object, got 5"),
        (text_slot, [], f"config error: {text_slot}: line 1: completion_slot: need an integer, got '30'"),
        (maybe_json, [], f"config error: {maybe_json}: line 1: completed: need true or false, got 'maybe'"),
        (bool_slots, [], f"config error: {bool_slots}: line 1: slots: need an integer, got True"),
        (null_completed, [], f"config error: {null_completed}: {null_message}"),
        (null_slots, [], f"config error: {null_slots}: {null_message}"),
        (null_n, [], f"config error: {null_n}: row0: n: need an integer in [2, inf), got None"),
        (one_user, [], f"config error: {one_user}: row0: n: need an integer in [2, inf), got 1"),
        (tmp_path, [], is_dir),
        (runs, ["--out", str(tmp_path)], is_dir),
    ]
    cases = [(results, ["--theorem", "thm1", *extra], expected) for results, extra, expected in cases]
    bad_values = [
        (negative_slot, "thm3", "completion_slot: need an integer in [0, inf), got -500"),
        (negative_cap, "thm3", "slots: need an integer in [0, inf), got -1"),
        (over_reach, "thm5", "reach_fraction: need a number in [0, 1], got 1.7"),
        (nan_reach, "thm5", "reach_fraction: need a number in [0, 1], got nan"),
    ]
    cases += [
        (path, ["--theorem", thm], f"config error: {path}: row0: {message}")
        for path, thm, message in bad_values
    ]
    # every bound is the paper's, for uniform contacts; thm6 also only under
    # the hard constraint
    models = {
        "thm1": dict(protocol=g.RANDOM_PULL),
        "thm2": dict(protocol=g.RANDOM_PULL, initial_state=g.ETA_SEEDED),
        "thm3": dict(protocol=g.RANDOM_PULL),
        "thm4": dict(protocol=g.RANDOM_PUSH),
        "thm5": dict(protocol=g.PRIORITY_PUSH),
        "thm6": dict(protocol=g.INTERLEAVE),
        "thm7": dict(protocol=g.ADVOCATE, initial_state=g.ONE_UNIQUE, constraint=g.SOFT),
    }
    applies = "bound applies only to runs with {} in ['{}'], but results contain ['{}']"
    for thm, run in models.items():
        lists = {**record["config"], **run, "contact_model": g.FIXED_LISTS, "contact_list_size": 2}
        message = applies.format("contact_model", g.UNIFORM, g.FIXED_LISTS)
        cases.append((jsonl(f"{thm}_lists", config=lists), ["--theorem", thm], f"refused: {thm}: {message}"))
    soft = jsonl("thm6_soft", config={**record["config"], **models["thm6"], "constraint": g.SOFT})
    message = applies.format("constraint", g.HARD, g.SOFT)
    cases.append((soft, ["--theorem", "thm6"], f"refused: thm6: {message}"))
    for results, argv, expected in cases:
        assert main(["verify", "--results", str(results), *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(expected) and err.count("\n") == 1, err


def test_cli_verify_flags_are_the_catalogs_defaults(capsys):
    # a caller sets only what a bound defaults; a run column such as eta has no flag
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    numbers = {a.dest for a in sub.choices["verify"]._actions if a.type is float}
    assert numbers == {name for entry in THEOREMS.values() for name in entry["defaults"]}
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--results", "x.csv", "--theorem", "thm2", "--eta", "0.5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --eta 0.5" in capsys.readouterr().err


def test_cli_rejects_unknown_subcommand_and_theorem(tmp_path):
    with pytest.raises(SystemExit):
        main(["discombobulate"])
    with pytest.raises(SystemExit):
        main(["verify", "--results", "x.csv", "--theorem", "thm9"])


def sweep_yaml(tmp_path, name="sweep.yaml"):
    return write_yaml(
        tmp_path / name,
        {
            "schema_version": 1,
            "base": {"k": 8, "protocol": g.INTERLEAVE},
            "axes": {"n": [16, 32]},
            "seeds": 3,
            "master_seed": 7,
        },
    )


def test_cli_sweep_writes_both_csvs(tmp_path, capsys):
    cfg = sweep_yaml(tmp_path)
    out = tmp_path / "results"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed == [str(out / "runs.csv"), str(out / "aggregate.csv")]
    rows = load_results(out / "runs.csv")
    assert len(rows) == 6
    assert {r["n"] for r in rows} == {16, 32}


def test_cli_out_dir_from_environment(tmp_path, capsys, monkeypatch):
    cfg = sweep_yaml(tmp_path)
    monkeypatch.setenv("GOSSIPSIM_OUT", str(tmp_path / "envout"))
    assert main(["sweep", "--config", cfg]) == 0
    capsys.readouterr()
    assert (tmp_path / "envout" / "runs.csv").exists()
    assert (tmp_path / "envout" / "aggregate.csv").exists()


def test_cli_verify_exit_codes(tmp_path, capsys):
    cfg = sweep_yaml(tmp_path)
    out = tmp_path / "results"
    main(["sweep", "--config", cfg, "--out", str(out)])
    capsys.readouterr()
    runs = str(out / "runs.csv")

    assert main(["verify", "--results", runs, "--theorem", "thm6"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[-1] == "thm6: PASS"
    report = json.loads(printed[0])
    assert report["verdict"] is True and report["rows"] == 6

    # wrong hypothesis: refusal, not failure
    assert main(["verify", "--results", runs, "--theorem", "thm1"]) == 2
    assert "refused" in capsys.readouterr().err

    # doctor one run to violate the bound: exit 1
    rows = load_results(runs)
    rows[0]["completion_slot"] = 10**6
    doctored = tmp_path / "doctored.csv"
    write_rows_csv(rows, doctored, RUN_COLUMNS)
    assert main(["verify", "--results", str(doctored), "--theorem", "thm6"]) == 1
    assert "thm6: FAIL" in capsys.readouterr().out


def test_cli_verify_reads_jsonl(tmp_path, capsys):
    cfg = sim_config(tmp_path)
    out = tmp_path / "run.jsonl"
    main(["simulate", "--config", cfg, "--out", str(out)])
    capsys.readouterr()
    assert main(["verify", "--results", str(out), "--theorem", "thm6"]) == 0
    assert "thm6: PASS" in capsys.readouterr().out
    # a record's integer eta reads as a number
    eta_cfg = sim_config(tmp_path, protocol=g.SEQUENTIAL_PULL, initial_state=g.ETA_SEEDED, eta=1)
    main(["simulate", "--config", eta_cfg, "--out", str(out)])
    assert load_results(out)[0]["eta"] == 1


def test_load_results_skips_blank_jsonl_lines(tmp_path, capsys):
    main(["simulate", "--config", sim_config(tmp_path)])
    record = capsys.readouterr().out.strip()
    path = tmp_path / "runs.jsonl"
    path.write_text(f"{record}\n\n{record}\n  \n")
    assert [row["seed"] for row in load_results(path)] == [5, 5]
    # a skipped line still counts toward the line a refusal names
    path.write_text(f"{record}\n\nnot json\n")
    with pytest.raises(ConfigError, match="line 3: not JSON"):
        load_results(path)


def test_cli_verify_writes_report(tmp_path, capsys):
    cfg = sweep_yaml(tmp_path)
    out = tmp_path / "results"
    main(["sweep", "--config", cfg, "--out", str(out)])
    report_path = tmp_path / "report.json"
    assert (
        main(
            [
                "verify",
                "--results",
                str(out / "runs.csv"),
                "--theorem",
                "thm6",
                "--eps",
                "0.5",
                "--out",
                str(report_path),
            ]
        )
        == 0
    )
    capsys.readouterr()
    report = json.loads(report_path.read_text())
    assert report["params"]["eps"] == 0.5


def test_cli_reproduce_writes_figure_csv(tmp_path, capsys):
    out = tmp_path / "figs"
    code = main(
        [
            "reproduce",
            "--figure",
            "fig1",
            "--scale",
            "0.04",
            "--seeds",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    capsys.readouterr()
    with open(out / "fig1.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["schema_version"] == "1"
    assert rows[-1]["m"] == "full"
    assert all(r["figure"] == "fig1" for r in rows)


def test_cli_reproduce_defaults_are_reproduces_own():
    args = build_parser().parse_args(["reproduce", "--figure", "fig1"])
    for name, arg in inspect.signature(reproduce).parameters.items():
        if arg.default is not arg.empty:
            assert getattr(args, name) == arg.default, name


@pytest.mark.parametrize("figure", ["fig1", "fig2", "fig3"])
def test_cli_reproduce_csv_does_not_depend_on_jobs(tmp_path, capsys, figure):
    written = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        argv = ["reproduce", "--figure", figure, "--scale", "0.04", "--seeds", "2"]
        assert main(argv + ["--jobs", jobs, "--out", str(out)]) == 0
        written.append((out / f"{figure}.csv").read_bytes())
    capsys.readouterr()
    assert written[0] == written[1]


def csv_digest(path):
    """sha256 of a result CSV without its wall_time_s and tool_version
    columns, the only ones that may differ between commits or runs."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    keep = [i for i, c in enumerate(rows[0]) if c not in ("wall_time_s", "tool_version")]
    text = "\n".join(",".join(row[i] for i in keep) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


# Frozen digests of figure and sweep CSVs: any change to how runs are
# planned (seed derivation, run ids, cell order) or summarised shows up
# here.  Figures at scale 0.04 with 2 seeds and the default master seed.
GOLDEN_CSVS = {
    "fig1": "6277cf02186551bfe5ffc0651536f9acdd8b264bad6f4bd3e66b89301845fd09",
    "fig2": "efec81d92a66ce7dd87f2163be80df2c6bde1b812070ceffbaa88d0f6012bf0e",
    "fig3": "7228ef0a633ccd30de7536bff8ac0ab5cf43ca795868d249c7d9302f43c64546",
    "runs": "d3c4d68260877e1e9df6324aa21c3de41e7eca91db01e32a23ae627d9db14719",
    "aggregate": "590c05312d922be29e359dade13615bccbd54d4e39e13ef6a460fc595f800ad7",
}


def test_figure_and_sweep_csvs_match_golden_digests(tmp_path, capsys):
    for figure in ("fig1", "fig2", "fig3"):
        argv = ["reproduce", "--figure", figure, "--scale", "0.04", "--seeds", "2"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
    spec = {
        "schema_version": 1,
        "base": {"k": 8},
        "axes": {
            "protocol": [
                g.RANDOM_PULL,
                g.SEQUENTIAL_PULL,
                g.RANDOM_PUSH,
                g.PRIORITY_PUSH,
                g.INTERLEAVE,
            ],
            "n": [16, 24],
            "constraint": [g.HARD, g.SOFT],
        },
        "seeds": 2,
        "master_seed": 11,
    }
    cfg = write_yaml(tmp_path / "sweep.yaml", spec)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    for name, digest in GOLDEN_CSVS.items():
        assert csv_digest(tmp_path / f"{name}.csv") == digest, f"{name}: digest changed"


def test_load_sweep_requires_schema_version(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_text(yaml.safe_dump({"base": {"k": 2, "protocol": "random-pull"}}))
    with pytest.raises(ConfigError, match="schema_version"):
        load_sweep(path)