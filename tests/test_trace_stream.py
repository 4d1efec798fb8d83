"""`simulate --trace` streams its trace: each slot's text goes to the CSV,
and into the running digest, as the run goes.

The streamed CSV and digest must equal those built from an in-memory
:class:`~gossipsim.engine.Trace` of the same run, a failed run must leave
no trace file, and the memory of a traced run must not grow with its trace.
"""

import csv
import errno
import io
import json
import os
import tracemalloc
from dataclasses import asdict, replace

import pytest

import gossipsim as g
from gossipsim import cli, engine
from gossipsim.cli import main
from make_behaviour_pin import PIN

HEADER = ["schema_version", "tool_version", "slot", "from", "to", "piece", "kind"]


def first_pin_case_of_each_kind() -> dict:
    """The behaviour pin's first case for each protocol, constraint and
    contact model: 24 kinds, starts and caps as the pin draws them."""
    kinds = {}
    for case in json.loads(PIN.read_text()):
        c = case["config"]
        kinds.setdefault(f"{c['protocol']}-{c['constraint']}-{c['contact_model']}", case)
    return kinds


PIN_KINDS = first_pin_case_of_each_kind()


def write_config(path, config: g.SimulationConfig) -> str:
    # JSON is a subset of the YAML the CLI reads
    path.write_text(json.dumps({"schema_version": g.SCHEMA_VERSION, **asdict(config)}))
    return str(path)


def csv_bytes(events) -> bytes:
    """A trace CSV as csv.writer writes it."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(HEADER)
    writer.writerows((g.SCHEMA_VERSION, g.__version__, *e) for e in events)
    return buf.getvalue().encode()


def test_the_pin_covers_every_protocol_constraint_and_contact_model():
    assert len(PIN_KINDS) == len(g.PROTOCOLS) * 2 * 2


@pytest.mark.parametrize("kind", sorted(PIN_KINDS))
def test_streamed_csv_and_digest_equal_the_in_memory_trace(tmp_path, capsys, kind):
    case = PIN_KINDS[kind]
    config = g.SimulationConfig(**case["config"])
    trace, out = tmp_path / "trace.csv", tmp_path / "run.jsonl"
    argv = ["simulate", "--config", write_config(tmp_path / "run.yaml", config)]
    assert main(argv + ["--out", str(out), "--trace", str(trace)]) == 0
    assert capsys.readouterr().out.splitlines() == [str(out), str(trace)]
    kept = g.run(replace(config, record_trace=True))
    assert trace.read_bytes() == csv_bytes(kept.trace)
    record = json.loads(out.read_text())
    assert record["trace_hash"] == g.trace_digest(kept.trace) == case["outcome"]["trace_hash"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.jsonl", "run.yaml", "trace.csv"]


def test_run_hands_each_chunk_to_the_sink():
    config = g.SimulationConfig(n=30, k=40, protocol=g.INTERLEAVE, seed=8, record_trace=True)
    chunks = []
    streamed = g.run(config, sink=chunks.append)
    kept = g.run(config)
    assert chunks == kept.trace.chunks and len(chunks) > 40
    assert streamed.trace.chunks == []
    assert len(streamed.trace) == len(kept.trace) == len(list(kept.trace))
    assert streamed.trace_hash == kept.trace_hash == g.trace_digest(streamed.trace)
    with pytest.raises(ValueError, match="went to its sink"):
        iter(streamed.trace)
    # a streamed trace with no events still refuses, rather than yield nothing
    with pytest.raises(ValueError, match="went to its sink"):
        list(engine.Trace(sink=chunks.append))
    assert list(engine.Trace()) == []


def test_run_refuses_a_sink_without_a_trace():
    # an untraced run formats no text, so a sink would never be called
    config = g.SimulationConfig(n=8, k=4, protocol=g.INTERLEAVE, seed=8)
    chunks = []
    with pytest.raises(ValueError, match="record_trace"):
        g.run(config, sink=chunks.append)
    assert chunks == []


def sim_yaml(tmp_path, **fields) -> str:
    config = g.SimulationConfig(**{"n": 16, "k": 8, "protocol": g.INTERLEAVE, "seed": 5, **fields})
    return write_config(tmp_path / "run.yaml", config)


def test_a_refused_config_leaves_no_trace(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["simulate", "--config", sim_yaml(tmp_path), "--seed", "-1"]
    assert main(argv + ["--out", str(out / "run.jsonl"), "--trace", str(out / "trace.csv")]) == 2
    assert "config error: seed" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_a_run_that_raises_leaves_no_trace(tmp_path, capsys, monkeypatch):
    step = engine.step_slot
    slots = []

    def failing_step(st, protocol):
        slots.append(st.slot)
        if len(slots) == 3:
            raise RuntimeError("slot 3 failed")
        return step(st, protocol)

    monkeypatch.setattr(engine, "step_slot", failing_step)
    out = tmp_path / "out"
    argv = ["simulate", "--config", sim_yaml(tmp_path), "--out", str(out / "run.jsonl")]
    with pytest.raises(RuntimeError, match="slot 3 failed"):
        main(argv + ["--trace", str(out / "trace.csv")])
    assert len(slots) == 3
    assert list(out.iterdir()) == []


def test_an_unwritable_trace_path_fails_before_any_slot(tmp_path, capsys, monkeypatch):
    def no_step(st, protocol):
        raise AssertionError("a slot ran")

    monkeypatch.setattr(engine, "step_slot", no_step)
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = ["simulate", "--config", sim_yaml(tmp_path), "--trace", str(blocker / "trace.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "run.yaml"]


def no_slot(st, protocol):
    raise AssertionError("a slot ran")


def test_out_and_trace_on_one_path_fail_before_any_slot(tmp_path, capsys, monkeypatch):
    # the trace would be moved over the JSONL record
    monkeypatch.setattr(engine, "step_slot", no_slot)
    path = tmp_path / "run.out"
    argv = ["simulate", "--config", sim_yaml(tmp_path, n=8, k=4), "--out", str(path)]
    assert main(argv + ["--trace", str(path)]) == 2
    assert capsys.readouterr() == ("", f"config error: --out and --trace name the same file {path}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.yaml"]


@pytest.mark.parametrize("flag", ["--trace", "--out"])
def test_a_directory_as_destination_fails_before_any_slot(tmp_path, capsys, monkeypatch, flag):
    monkeypatch.setattr(engine, "step_slot", no_slot)
    place = tmp_path / "place"
    place.mkdir()
    assert main(["simulate", "--config", sim_yaml(tmp_path, n=8, k=4), flag, str(place)]) == 2
    assert capsys.readouterr() == ("", f"error: [Errno {errno.EISDIR}] Is a directory: '{place}'\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["place", "run.yaml"]
    assert list(place.iterdir()) == []


def test_an_out_under_a_file_fails_before_any_slot(tmp_path, capsys, monkeypatch):
    # the record could not be written: refuse before the run
    monkeypatch.setattr(engine, "step_slot", no_slot)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    config = sim_yaml(tmp_path, n=8, k=4)
    for parent, code in ((blocker, errno.EEXIST), (blocker / "sub", errno.ENOTDIR)):
        assert main(["simulate", "--config", config, "--out", str(parent / "run.jsonl")]) == 2
        assert capsys.readouterr() == ("", f"error: [Errno {code}] {os.strerror(code)}: '{parent}'\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "run.yaml"]
    assert blocker.read_text() == ""


def test_a_trace_that_cannot_be_moved_into_place_is_removed(tmp_path, capsys, monkeypatch):
    # a directory takes the trace's place during the run: the run completes,
    # the move fails
    trace = tmp_path / "trace.csv"

    def run_then_block(config, sink):
        result = engine.run(config, sink=sink)
        trace.mkdir()
        return result

    monkeypatch.setattr(cli, "run_engine", run_then_block)
    argv = ["simulate", "--config", sim_yaml(tmp_path), "--out", str(tmp_path / "run.jsonl")]
    assert main(argv + ["--trace", str(trace)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.jsonl", "run.yaml", "trace.csv"]
    assert list(trace.iterdir()) == []


def memory_bound(n: int, k: int) -> int:
    """Bytes a traced simulate may peak at: the (n, k) arrivals matrix and
    the metrics' transients over it, per-user and per-piece tables, and a
    constant; nothing in the length of the trace."""
    return 24 * n * k + 256 * (n + k) + 2**18


def test_traced_simulate_memory_does_not_grow_with_the_trace(tmp_path, capsys):
    # Random push keeps pushing held pieces until the last user completes,
    # so its trace is many events per (user, piece) pair.
    n, k = 30, 200
    cfg = sim_yaml(tmp_path, n=n, k=k, protocol=g.RANDOM_PUSH, seed=3)
    trace = tmp_path / "trace.csv"
    argv = ["simulate", "--config", cfg, "--out", str(tmp_path / "run.jsonl"), "--trace", str(trace)]
    assert main(argv + ["--seed", "4"]) == 0  # warm the caches a first run fills
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.stat().st_size > 3 * memory_bound(n, k)
    assert peak < memory_bound(n, k)
