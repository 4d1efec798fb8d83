"""Time and count gossipsim's layers from outside the program.

`Tracer.install` replaces chosen functions of the imported `gossipsim`
modules with wrappers, in every module that holds a reference to them (for
example `engine.run` is also `sweep.run_engine` and `cli.run_engine`).  A
wrapper keeps per-function calls, inclusive time and self time (inclusive
minus the time of wrapped callees) and hands the call's arguments and
return value to an observer that derives counts, such as pull requests
from `engine.resolve_uploads`.  Nothing is changed inside `src/`, and no
wrapper draws from the program's PRNG.

Three modes wrap progressively more:

* ``plain``  – only `engine.run` (one call per simulation) to count
  user-slots, and `sweep.execute` and `sweep._execute_plan` (one call per
  cell and per run) so that pool workers report theirs;
* ``layers`` – every function named in `WRAPPED`, each called at most once
  per slot;
* ``hot``    – ``layers`` plus the per-user calls `Protocol.act` and
  `bitset.random_piece`, which cost a wrapper call per user-slot.

Pool workers are forked with the wrappers in place.  A worker drops the
state it inherited at its first `_execute_plan` (or `engine.run`) call and
writes its own state to the spool directory after each one; `collect`
merges those files and flags a pool whose runs no worker reported.
A function that no longer exists is reported in ``missing`` and an observer
that fails in ``broken``; neither stops the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import traceback
from pathlib import Path

# (module, attribute, stats key, first mode that wraps it, observer name).
# Modes are ordered plain < layers < hot.
WRAPPED = (
    ("engine", "run", "engine.run", "plain", "_on_run"),
    ("sweep", "_execute_plan", "sweep.execute_plan", "plain", None),
    ("sweep", "execute", "sweep.execute", "plain", "_on_execute"),
    ("engine", "init_state", "engine.init_state", "layers", None),
    ("engine", "resolve_uploads", "engine.resolve_uploads", "layers", "_on_resolve"),
    ("engine", "trace_digest", "engine.trace_digest", "layers", None),
    ("config", "load_config", "config.load", "layers", None),
    ("sweep", "load_sweep", "config.load", "layers", None),
    ("sweep", "expand", "sweep.expand", "layers", None),
    ("sweep", "write_rows_csv", "sweep.write_rows_csv", "layers", None),
    ("metrics", "delay_profile", "metrics.delay_profile", "layers", None),
    ("metrics", "failed_pieces", "metrics.failed_pieces", "layers", None),
    ("metrics", "pieces_reached", "metrics.pieces_reached", "layers", None),
    ("figures", "reproduce", "figures.reproduce", "layers", "_on_reproduce"),
    ("cli", "run_record", "cli.run_record", "layers", None),
    ("cli", "cmd_simulate", "cli.cmd_simulate", "layers", "_on_simulate"),
    ("verify", "verify_rows", "verify.verify_rows", "layers", None),
    ("bitset", "random_piece", "bitset.random_piece", "hot", None),
)
MODES = ("plain", "layers", "hot")
# Functions a pool worker runs: the first call of one in a forked worker
# starts that worker's own accounting, and the return of the outermost
# one flushes it.
_WORKER_ENTRIES = ("sweep.execute_plan", "engine.run")


class Tracer:
    """Wrappers, their accumulated state, and the spool of pool workers."""

    def __init__(self, mode: str, spool: Path):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        self.mode = mode
        self.spool = Path(spool)
        self.pid = os.getpid()
        self.worker = False
        self.stats: dict[str, list] = {}  # key -> [calls, seconds, self seconds]
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []
        self.broken: dict[str, str] = {}
        self._stack: list[float] = []
        self._patched: list[tuple] = []

    # -- installation -------------------------------------------------
    def install(self) -> None:
        level = MODES.index(self.mode)
        for module, attr, key, first, observer in WRAPPED:
            if MODES.index(first) > level:
                continue
            mod = importlib.import_module(f"gossipsim.{module}")
            fn = getattr(mod, attr, None)
            if not callable(fn):
                self.missing.append(f"{module}.{attr}")
                continue
            observe = getattr(self, observer) if observer else None
            self._replace(fn, self._wrap(key, fn, observe))
        if self.mode == "hot":
            self._wrap_protocol_acts()

    def _wrap_protocol_acts(self) -> None:
        protocols = importlib.import_module("gossipsim.protocols")
        base = getattr(protocols, "Protocol", None)
        found = False
        for cls in vars(protocols).values():
            if isinstance(cls, type) and base and issubclass(cls, base) and "act" in vars(cls):
                fn = vars(cls)["act"]
                self._patched.append((cls, "act", fn))
                setattr(cls, "act", self._wrap("protocols.act", fn, None))
                found = True
        if not found:
            self.missing.append("protocols.Protocol.act")

    def _replace(self, original, wrapper) -> None:
        for name, mod in list(sys.modules.items()):
            if name != "gossipsim" and not name.startswith("gossipsim."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, key: str, fn, observe):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        perf = time.perf_counter
        entry = key in _WORKER_ENTRIES
        tracer = self

        def wrapper(*args, **kwargs):
            if entry and os.getpid() != tracer.pid:
                tracer._adopt_worker()
            stack.append(0.0)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                inner = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - inner
            if observe is not None:
                try:
                    observe(args, kwargs, result, elapsed, elapsed - inner)
                except Exception:  # a changed signature must not stop the run
                    tracer.broken.setdefault(key, traceback.format_exc(limit=2))
            if entry and tracer.worker and not stack:
                tracer._flush()
            return result

        return functools.wraps(fn)(wrapper)

    # -- observers ----------------------------------------------------
    def _add(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def _on_run(self, args, kwargs, result, elapsed, self_time) -> None:
        cfg = result.config
        work = cfg.n * result.slots
        self._add("user_slots", work)
        if self.mode == "plain":
            return
        self._add(f"user_slots.{cfg.protocol}", work)
        self._add(f"run_s.{cfg.protocol}", elapsed)
        self._add("new_arrivals", int((result.arrivals > 0).sum()))
        if result.trace is not None:
            self._add("trace_events", len(result.trace))

    def _on_resolve(self, args, kwargs, result, elapsed, self_time) -> None:
        pushes, pull_requests = args[1], args[2]
        pulls = sum(1 for e in result if e.kind == "pull")
        self._add("pull_requests", len(pull_requests))
        self._add("pulls_granted", pulls)
        self._add("pushes", len(pushes))
        self._add("uploads_granted", len(result))

    def _on_execute(self, args, kwargs, result, elapsed, self_time) -> None:
        plans = args[0]
        jobs = kwargs.get("jobs", args[1] if len(args) > 1 else 1)
        self._add("execute_run_s", sum(float(r["wall_time_s"]) for r in result))
        self._add("execute_capacity_s", elapsed * max(1, jobs))
        if jobs > 1 and len(plans) > 1:
            self._add("pool_rows", len(result))

    def _on_reproduce(self, args, kwargs, result, elapsed, self_time) -> None:
        figure = args[0] if args else kwargs["figure"]
        self._add(f"{figure}_s", elapsed)

    def _on_simulate(self, args, kwargs, result, elapsed, self_time) -> None:
        trace_path = args[0].trace
        if trace_path:
            # cmd_simulate's own time, net of the wrapped load, run and
            # record, is the trace CSV writer.
            self._add("trace_csv_s", self_time)
            self._add("trace_csv_bytes", os.path.getsize(trace_path))

    # -- pool workers ---------------------------------------------------
    def _adopt_worker(self) -> None:
        self.pid = os.getpid()
        self.worker = True
        self._token = f"{self.pid}-{os.urandom(4).hex()}"
        for v in self.stats.values():
            v[:] = [0, 0.0, 0.0]
        self.counts.clear()
        self.broken.clear()
        self._stack.clear()

    def _state(self) -> dict:
        return {"stats": self.stats, "counts": self.counts, "broken": self.broken}

    def _flush(self) -> None:
        self.spool.mkdir(parents=True, exist_ok=True)
        tmp = self.spool / f"{self._token}.tmp"
        tmp.write_text(json.dumps(self._state()))
        tmp.replace(self.spool / f"{self._token}.json")

    def collect(self) -> dict:
        """This process's state merged with every pool worker's spool file."""
        stats = {k: list(v) for k, v in self.stats.items()}
        counts = dict(self.counts)
        broken = dict(self.broken)
        worker_runs = 0
        for path in sorted(self.spool.glob("*.json")):
            state = json.loads(path.read_text())
            for k, v in state["stats"].items():
                mine = stats.setdefault(k, [0, 0.0, 0.0])
                for i in range(3):
                    mine[i] += v[i]
            for k, v in state["counts"].items():
                counts[k] = counts.get(k, 0) + v
            broken.update(state["broken"])
            worker_runs += state["stats"].get("engine.run", [0])[0]
        if counts.get("pool_rows", 0) > worker_runs:
            broken["pool"] = (
                f"{counts['pool_rows']} runs returned by process pools, "
                f"{worker_runs} reported by workers (pool not forked?)"
            )
        return {
            "mode": self.mode,
            "stats": stats,
            "counts": counts,
            "missing": self.missing,
            "broken": broken,
        }
