"""Properties the benchmark relies on: outputs that repeat, tracer counts
that agree with the trace, and a refusal to run without the program."""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from gossipsim import cli, engine
from tracer import Tracer
from workloads import _strip_wall_time

BENCH = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("figure", ["fig1", "fig2", "fig3"])
def test_reproduce_csv_does_not_depend_on_jobs(tmp_path, figure):
    written = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        argv = ["reproduce", "--figure", figure, "--scale", "0.04", "--seeds", "2", "--jobs", jobs, "--out", str(out)]
        assert cli.main(argv) == 0
        written.append((out / f"{figure}.csv").read_bytes())
    assert written[0] == written[1]


def test_sweep_runs_repeat_once_wall_time_is_dropped(tmp_path):
    config = tmp_path / "sweep.yaml"
    config.write_text(
        "schema_version: 1\nbase: {k: 8, protocol: random-pull}\n"
        "axes: {n: [16, 24]}\nseeds: 2\nmaster_seed: 5\n"
    )
    runs = []
    for name in ("a", "b"):
        assert cli.main(["sweep", "--config", str(config), "--out", str(tmp_path / name)]) == 0
        runs.append(_strip_wall_time(tmp_path / name / "runs.csv"))
    assert runs[0] == runs[1]
    assert len(runs[0]) == 4


def test_layer_counts_agree_with_the_trace(tmp_path):
    n, k = 16, 12
    config = tmp_path / "run.yaml"
    config.write_text(f"schema_version: 1\nn: {n}\nk: {k}\nprotocol: interleave\nseed: 9\n")
    original = engine.run
    tracer = Tracer("hot", tmp_path / "spool")
    tracer.install()
    try:
        argv = ["simulate", "--config", str(config), "--out", str(tmp_path / "run.jsonl"), "--trace", str(tmp_path / "t.csv")]
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert engine.run is original and cli.run_engine is original
    state = tracer.collect()
    counts = state["counts"]
    record = json.loads((tmp_path / "run.jsonl").read_text())
    with open(tmp_path / "t.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert state["missing"] == [] and state["broken"] == {}
    assert counts["user_slots"] == n * record["slots"]
    assert counts["uploads_granted"] == counts["trace_events"] == len(rows)
    assert counts["pulls_granted"] == sum(r["kind"] == "pull" for r in rows)
    assert counts["pushes"] == sum(r["kind"] == "push" for r in rows)
    assert counts["new_arrivals"] == n * k - k  # all but the source's pieces
    assert counts["trace_csv_bytes"] == (tmp_path / "t.csv").stat().st_size
    assert state["stats"]["protocols.act"][0] == n * record["slots"]


def test_pool_workers_report_their_runs(tmp_path):
    counted = []
    for jobs in ("1", "2"):
        tracer = Tracer("plain", tmp_path / f"spool{jobs}")
        tracer.install()
        try:
            argv = ["reproduce", "--figure", "fig1", "--scale", "0.04", "--seeds", "2", "--jobs", jobs, "--out", str(tmp_path)]
            assert cli.main(argv) == 0
        finally:
            tracer.uninstall()
        state = tracer.collect()
        assert state["broken"] == {}
        counted.append(state["counts"]["user_slots"])
    assert counted[0] == counted[1] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, "perfbench/run.py", "--workload", "pull-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
