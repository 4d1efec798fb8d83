"""Each output check passes on output of the shape the paper predicts and
fails on output of a shape it rules out."""

import io
import json
import math

import pytest

import checks
from gossipsim import cli


def _run_row(protocol, n, k, t, **extra):
    row = {
        "protocol": protocol,
        "n": str(n),
        "k": str(k),
        "constraint": "hard",
        "contact_model": "uniform",
        "contact_list_size": "",
        "initial_state": "single-source",
        "eta": "",
        "spacing": "1",
        "completed": "True",
        "completion_slot": str(t),
        "delay_limit": "1.0",
    }
    row.update(extra)
    return row


def test_pull_rows_accept_pull_speed():
    assert checks.pull_rows([_run_row("random-pull", 200, 200, 1451)]) == []


@pytest.mark.parametrize(
    "n, k, t, extra, message",
    [
        (1024, 1, 9, {}, "k + ceil(log2 n) - 1"),  # faster than the centralised optimum
        (200, 200, 400, {}, "0.45 k ln n"),  # optimum-like speed, ruled out for pull
        (200, 200, 1451, {"completed": "False", "completion_slot": ""}, "did not complete"),
        (200, 200, 1451, {"delay_limit": "0.99"}, "delay_limit"),
    ],
)
def test_pull_rows_reject_wrong_shape(n, k, t, extra, message):
    fails = checks.pull_rows([_run_row("random-pull", n, k, t, **extra)])
    assert any(message in f for f in fails), fails


@pytest.mark.parametrize("t, ok", [(199, True), (200, True), (215, True), (198, False), (216, False)])
def test_advocate_rows_band(t, ok):
    # n + 3 ln n = 215.9 at n = 200
    fails = checks.advocate_rows([_run_row("advocate", 200, 200, t)])
    assert (fails == []) is ok, fails


def test_aggregate_matches_recomputed_cells():
    runs = [_run_row("random-pull", 200, 200, t) for t in (1451, 1500)]
    agg = [dict(runs[0], runs="2", mean_completion="1475.5", min_completion="1451", max_completion="1500")]
    assert checks.aggregate_matches(runs, agg) == []
    bad = [dict(agg[0], mean_completion="1470.0")]
    assert any("mean_completion" in f for f in checks.aggregate_matches(runs, bad))
    assert any("cells" in f for f in checks.aggregate_matches(runs + [_run_row("advocate", 200, 200, 200)], agg))


def test_priority_push_cells_plateau_and_reach():
    runs = [_run_row("priority-push", 75, 150, "", completed="False", reach_fraction="0.9") for _ in range(2)]
    for row in runs:
        row["spacing"] = "2"
    cell = dict(runs[0], runs="2", mean_completion="", min_completion="", max_completion="")
    good = 1 - math.exp(-2)
    assert checks.priority_push_cells(runs, [dict(cell, mean_delay_limit=str(good))]) == []
    fails = checks.priority_push_cells(runs, [dict(cell, mean_delay_limit=str(good - 0.06))])
    assert any("plateau" in f for f in fails), fails
    fails = checks.priority_push_cells([dict(runs[0], reach_fraction="1.5")], [])
    assert any("reach_fraction" in f for f in fails), fails


def _curve(label, value, points):
    return [
        {label: value, "d": str(d), "min_D": str(lo), "mean_D": str(mean), "max_D": str(hi)}
        for d, (lo, mean, hi) in enumerate(points)
    ]


GOOD_FULL = [(0.0, 0.0, 0.0), (0.4, 0.5, 0.6), (1.0, 1.0, 1.0)]


def test_fig2_accepts_valid_curves():
    rows = _curve("m", "2", [(0.0, 0.1, 0.2), (0.7, 0.8, 0.9), (1.0, 1.0, 1.0)]) + _curve("m", "full", GOOD_FULL)
    assert checks.fig2_rows(rows) == []


@pytest.mark.parametrize(
    "points, message",
    [
        ([(0.0, 0.0, 0.0), (0.4, 0.5, 0.6), (0.3, 0.4, 0.6), (1.0, 1.0, 1.0)], "decreases"),
        ([(0.0, 0.0, 0.0), (0.6, 0.5, 0.7), (1.0, 1.0, 1.0)], "outside ["),
        ([(0.0, 0.0, 0.0), (0.4, 0.5, 1.2), (1.0, 1.0, 1.0)], "outside [0, 1]"),
        ([(0.0, 0.0, 0.0), (0.4, 0.5, 0.6), (0.9, 0.95, 1.0)], "not 1"),
    ],
)
def test_fig2_rejects_wrong_shape(points, message):
    fails = checks.fig2_rows(_curve("m", "full", points))
    assert any(message in f for f in fails), fails


def test_fig3_plateau_near_one_minus_exp():
    good = 1 - math.exp(-2)
    assert checks.fig3_rows(_curve("l", "2", [(0.0, 0.0, 0.0), (good - 0.01, good, good + 0.01)])) == []
    off = good - 0.06
    fails = checks.fig3_rows(_curve("l", "2", [(0.0, 0.0, 0.0), (off, off, off)]))
    assert any("plateau" in f for f in fails), fails


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """A real interleave run's JSONL record and trace CSV lines."""
    tmp = tmp_path_factory.mktemp("trace")
    config = tmp / "run.yaml"
    config.write_text("schema_version: 1\nn: 12\nk: 6\nprotocol: interleave\nseed: 3\n")
    assert cli.main(["simulate", "--config", str(config), "--out", str(tmp / "run.jsonl"), "--trace", str(tmp / "trace.csv")]) == 0
    record = json.loads((tmp / "run.jsonl").read_text())
    return record, (tmp / "trace.csv").read_text().splitlines(keepends=True)


def _replay(record, lines):
    return checks.trace_replay(record, io.StringIO("".join(lines)))


def _edit(lines, index, **changes):
    columns = checks.TRACE_HEADER
    fields = lines[index].rstrip("\n").split(",")
    for name, value in changes.items():
        fields[columns.index(name)] = str(value)
    return lines[:index] + [",".join(fields) + "\n"] + lines[index + 1 :]


def test_trace_replay_accepts_real_trace(traced_run):
    assert _replay(*traced_run) == []


def test_trace_replay_rejects_sender_without_piece(traced_run):
    record, lines = traced_run
    # Slot 2 is the first pull slot: only the source and the slot-1
    # recipient hold anything, so another user cannot have served it.
    first_push = lines[1].split(",")
    holders = {"0", first_push[4]}
    index = next(i for i, line in enumerate(lines) if line.split(",")[2] == "2")
    sender = next(u for u in range(record["config"]["n"]) if str(u) not in holders and str(u) != lines[index].split(",")[4])
    fails = _replay(record, _edit(lines, index, **{"from": sender}))
    assert any("lacked" in f for f in fails), fails


def test_trace_replay_rejects_double_upload(traced_run):
    record, lines = traced_run
    index = next(i for i, line in enumerate(lines) if line.split(",")[2] == "2")
    duplicate = lines[index]
    fails = _replay(record, lines[: index + 1] + [duplicate] + lines[index + 1 :])
    assert any("uploaded twice" in f for f in fails), fails


def test_trace_replay_rejects_wrong_channel(traced_run):
    record, lines = traced_run
    fails = _replay(record, _edit(lines, 1, kind="pull"))
    assert any("slot for pushes" in f for f in fails), fails


def test_trace_replay_rejects_truncated_trace_and_wrong_record(traced_run):
    record, lines = traced_run
    fails = _replay(record, lines[:-1])
    assert any("lack pieces" in f for f in fails), fails
    assert any("SHA-256" in f for f in fails), fails
    wrong = dict(record, completion_slot=record["completion_slot"] + 1, metrics=dict(record["metrics"], pairs_served=1))
    fails = _replay(wrong, lines)
    assert any("last arrival" in f for f in fails), fails
    assert any("pairs_served" in f for f in fails), fails
