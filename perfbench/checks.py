"""Output checks: properties the paper's method must have, computed here.

Every check is a pure function over parsed output (CSV rows as dicts of
strings, the simulate JSONL record, trace CSV lines) and returns a list of
failure messages; an empty list means the output passed.  Nothing is
compared against stored output, so the checks hold for every seed.
"""

from __future__ import annotations

import csv
import hashlib
import math
from statistics import fmean

# Rows of runs.csv and aggregate.csv that identify one grid cell.
CELL_COLUMNS = (
    "protocol",
    "n",
    "k",
    "constraint",
    "contact_model",
    "contact_list_size",
    "initial_state",
    "eta",
    "spacing",
)
TRACE_HEADER = ["schema_version", "tool_version", "slot", "from", "to", "piece", "kind"]
# Fraction of 1 - e^{-l} within which each fig3 plateau must lie.
PLATEAU_TOLERANCE = 0.05
# Float slack for values the program rounds to 6 decimals.
_EPS = 1e-9


def read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _completion(row: dict) -> int | None:
    value = row.get("completion_slot", "")
    return int(value) if value else None


def _completed_with_full_delivery(row: dict, where: str) -> list[str]:
    fails = []
    if row.get("completed") != "True" or _completion(row) is None:
        fails.append(f"{where}: run did not complete")
    if float(row.get("delay_limit") or 0) != 1.0:
        fails.append(f"{where}: delay_limit {row.get('delay_limit')} != 1")
    return fails


def pull_rows(rows: list[dict]) -> list[str]:
    """Single-source, hard-constraint pull runs: every run completes with
    every pair served, no faster than the centralised optimum
    k + ceil(log2 n) - 1 and no faster than the pull-only bound
    0.45 k ln n (thm1 at beta 0.5, eps 0.1)."""
    if not rows:
        return ["pull sweep: no rows"]
    fails = []
    for i, row in enumerate(rows):
        where = f"pull row {i} ({row.get('protocol')})"
        fails += _completed_with_full_delivery(row, where)
        t = _completion(row)
        if t is None:
            continue
        n, k = int(row["n"]), int(row["k"])
        optimum = k + math.ceil(math.log2(n)) - 1
        if t < optimum:
            fails.append(f"{where}: T={t} < k + ceil(log2 n) - 1 = {optimum}")
        pull_floor = 0.45 * k * math.log(n)
        if t < pull_floor:
            fails.append(f"{where}: T={t} < 0.45 k ln n = {pull_floor:.1f}")
    return fails


def advocate_rows(rows: list[dict]) -> list[str]:
    """Advocate runs from one unique piece per user: n - 1 <= T <= n + 3 ln n."""
    if not rows:
        return ["advocate sweep: no rows"]
    fails = []
    for i, row in enumerate(rows):
        where = f"advocate row {i}"
        fails += _completed_with_full_delivery(row, where)
        t = _completion(row)
        if t is None:
            continue
        n = int(row["n"])
        if not n - 1 <= t <= n + 3 * math.log(n):
            fails.append(f"{where}: T={t} outside [n-1, n + 3 ln n] for n={n}")
    return fails


def aggregate_matches(runs: list[dict], agg: list[dict]) -> list[str]:
    """aggregate.csv holds each cell's run count and completion mean/min/max
    as recomputed from runs.csv."""
    cells: dict = {}
    for row in runs:
        cells.setdefault(tuple(row[c] for c in CELL_COLUMNS), []).append(row)
    fails = []
    if len(agg) != len(cells):
        fails.append(f"aggregate: {len(agg)} cells, runs.csv has {len(cells)}")
    for row in agg:
        key = tuple(row[c] for c in CELL_COLUMNS)
        members = cells.get(key)
        if members is None:
            fails.append(f"aggregate: cell {key} has no runs")
            continue
        done = [t for t in map(_completion, members) if t is not None]
        expect = {
            "runs": str(len(members)),
            "mean_completion": f"{round(fmean(done), 3)}" if done else "",
            "min_completion": f"{min(done)}" if done else "",
            "max_completion": f"{max(done)}" if done else "",
        }
        for column, value in expect.items():
            if row[column] != value:
                fails.append(
                    f"aggregate {key}: {column}={row[column]!r}, runs.csv gives {value!r}"
                )
    return fails


def priority_push_cells(runs: list[dict], agg: list[dict]) -> list[str]:
    """Spaced priority-push runs cut at a fixed horizon: each run's reach
    fraction lies in [0, 1], and each cell's mean delay limit (the fraction
    of pairs served) lies within PLATEAU_TOLERANCE of 1 - e^{-l}."""
    if not runs:
        return ["priority-push sweep: no rows"]
    fails = []
    for i, row in enumerate(runs):
        reach = row.get("reach_fraction", "")
        if reach == "" or not 0.0 <= float(reach) <= 1.0:
            fails.append(f"priority-push row {i}: reach_fraction {reach!r} not in [0, 1]")
    for row in agg:
        target = 1.0 - math.exp(-int(row["spacing"]))
        plateau = float(row["mean_delay_limit"])
        if abs(plateau - target) > PLATEAU_TOLERANCE:
            fails.append(
                f"priority-push l={row['spacing']}: plateau {plateau} not within 0.05 of {target:.4f}"
            )
    return fails


def profile_curves(rows: list[dict], label: str) -> dict:
    """Group fig2/fig3 rows by `label` and check each D(d) curve; returns
    the failures and the last row of each curve."""
    curves: dict = {}
    for row in rows:
        curves.setdefault(row[label], []).append(row)
    fails = []
    for value, curve in curves.items():
        where = f"{label}={value}"
        if [int(r["d"]) for r in curve] != list(range(len(curve))):
            fails.append(f"{where}: d does not run 0, 1, ..., {len(curve) - 1}")
        prev = {c: 0.0 for c in ("min_D", "mean_D", "max_D")}
        for r in curve:
            lo, mean, hi = float(r["min_D"]), float(r["mean_D"]), float(r["max_D"])
            for column, v in (("min_D", lo), ("mean_D", mean), ("max_D", hi)):
                if not 0.0 <= v <= 1.0:
                    fails.append(f"{where} d={r['d']}: {column}={v} outside [0, 1]")
                if v < prev[column] - _EPS:
                    fails.append(f"{where} d={r['d']}: {column} decreases to {v}")
                prev[column] = v
            if not lo - _EPS <= mean <= hi + _EPS:
                fails.append(f"{where} d={r['d']}: mean {mean} outside [{lo}, {hi}]")
    return {"fails": fails, "last": {v: c[-1] for v, c in curves.items()}}


def fig2_rows(rows: list[dict]) -> list[str]:
    """Interleave delay profiles are valid curves; the full view serves
    every pair, so its curve ends at 1."""
    if not rows:
        return ["fig2: no rows"]
    checked = profile_curves(rows, "m")
    fails = [f"fig2 {f}" for f in checked["fails"]]
    full = checked["last"].get("full")
    if full is None:
        fails.append("fig2: no full-view curve")
    elif float(full["mean_D"]) != 1.0:
        fails.append(f"fig2: full-view curve ends at {full['mean_D']}, not 1")
    return fails


def fig3_rows(rows: list[dict]) -> list[str]:
    """Priority-push delay profiles are valid curves, each plateauing within
    PLATEAU_TOLERANCE of 1 - e^{-l}."""
    if not rows:
        return ["fig3: no rows"]
    checked = profile_curves(rows, "l")
    fails = [f"fig3 {f}" for f in checked["fails"]]
    for l, last in checked["last"].items():
        target = 1.0 - math.exp(-int(l))
        plateau = float(last["mean_D"])
        if abs(plateau - target) > PLATEAU_TOLERANCE:
            fails.append(f"fig3 l={l}: plateau {plateau} not within 0.05 of {target:.4f}")
    return fails


def trace_replay(record: dict, lines) -> list[str]:
    """Replay a single-source interleave trace CSV against its JSONL record.

    Checks: each sender held the piece before the slot; nobody uploads
    twice in a slot; odd slots carry only pushes and even slots only pulls;
    every user holds all k pieces at the end and the last new arrival is in
    `completion_slot`; SHA-256 over the rows equals `trace_hash`; and
    `pairs_served` is n k.
    """
    cfg = record.get("config", {})
    if cfg.get("protocol") != "interleave" or cfg.get("initial_state") != "single-source":
        return [f"trace: replay supports single-source interleave, got {cfg}"]
    n, k = cfg["n"], cfg["k"]
    full = (1 << k) - 1
    held = [0] * n
    held[0] = full  # the single source is user 0
    fails: list[str] = []
    counts: dict = {}

    def fail(kind: str, message: str) -> None:
        counts[kind] = counts.get(kind, 0) + 1
        if counts[kind] <= 3:
            fails.append(message)

    reader = csv.reader(lines)
    header = next(reader, None)
    if header != TRACE_HEADER:
        return [f"trace: header {header} != {TRACE_HEADER}"]
    digest = hashlib.sha256()
    slot = 0
    senders: set = set()
    staged: dict = {}
    last_arrival = 0

    def commit() -> None:
        for user, bits in staged.items():
            held[user] |= bits
        staged.clear()
        senders.clear()

    for row in reader:
        t, frm, to, piece, kind = int(row[2]), int(row[3]), int(row[4]), int(row[5]), row[6]
        digest.update(b"%d,%d,%d,%d,%s\n" % (t, frm, to, piece, kind.encode()))
        if t != slot:
            if t < slot:
                fail("order", f"trace: slot {t} follows slot {slot}")
            commit()
            slot = t
        bit = 1 << (piece - 1)
        if not held[frm] & bit:
            fail("sender", f"trace slot {t}: sender {frm} lacked piece {piece}")
        if frm in senders:
            fail("twice", f"trace slot {t}: user {frm} uploaded twice")
        senders.add(frm)
        expected = "push" if t & 1 else "pull"
        if kind != expected:
            fail("parity", f"trace slot {t}: {kind} in a slot for {expected}es")
        if not (held[to] | staged.get(to, 0)) & bit:
            staged[to] = staged.get(to, 0) | bit
            last_arrival = t
    commit()
    for kind, c in counts.items():
        if c > 3:
            fails.append(f"trace: {c - 3} more {kind} failures")

    completion = record.get("completion_slot")
    short = sum(1 for bits in held if bits != full)
    if short:
        fails.append(f"trace: {short} users lack pieces at the end")
    if completion is None or last_arrival != completion:
        fails.append(f"trace: last arrival in slot {last_arrival}, completion_slot {completion}")
    if digest.hexdigest() != record.get("trace_hash"):
        fails.append("trace: SHA-256 of the CSV rows differs from trace_hash")
    served = record.get("metrics", {}).get("pairs_served")
    if served != n * k:
        fails.append(f"trace: pairs_served {served} != n k = {n * k}")
    return fails
