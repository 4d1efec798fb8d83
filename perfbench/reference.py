"""The benchmark's fixed reference work, timed next to the program.

The hosts this benchmark runs on change speed by up to a factor 2 within
seconds (shared CPUs, clocks that rise and fall with the neighbours'
load), so two runs of the same code minutes apart read times that differ
by more than any bound worth keeping.  `probe()` times a fixed computation
shaped like the engine's hot path; `Sampler` times it in the flow process
between commands and, while a command computes, every `PERIOD_S` seconds,
and scales each stretch of program time between two probes by their mean.
The reference is the benchmark's own code, so no change to the program
moves it.

The computation is a small random-pull gossip with the engine's idiom:
`random.Random` draws, piece sets as Python ints, requests grouped per
target in a dict, a NumPy `int32` arrivals matrix written element by
element, and one tuple kept per transfer.  A pure arithmetic loop tracks
the engine's speed worse: on this kind of host its ratio to an engine run
moved by 8 %, against 4 % for this simulation (window medians, IQR over
median, 14 windows of 6 s).
"""

from __future__ import annotations

import gc
import os
import signal
import time
from random import Random

import numpy as np

# Users and pieces of the reference simulation.
REF_N = 110
# Seconds one probe takes at the reference speed (its median on a 2-CPU
# x86-64 host, Python 3.11.7, numpy 2.4.6).  It only scales the
# normalised times to about the host's own seconds.
REF_NOMINAL_S = 0.05
# While a command runs, a probe every this many seconds, provided this
# process was computing for at least BUSY of that time: a process waiting
# on pool workers is not probed, so that the probe does not take a CPU
# from them.
PERIOD_S = 0.5
BUSY = 0.5


def simulate() -> int:
    """Spread REF_N pieces from one source to REF_N users by random pull
    under the one-upload-per-slot constraint; returns the completion slot."""
    n = REF_N
    rng = Random(12345)
    full = (1 << n) - 1
    pieces = [0] * n
    pieces[0] = full
    arrivals = np.full((n, n), -1, dtype=np.int32)
    events = []
    slot = 0
    done = 1
    while done < n:
        slot += 1
        requests: dict = {}
        for u in range(n):
            t = int(rng.random() * (n - 1))
            t = t + 1 if t >= u else t
            missing = pieces[t] & ~pieces[u]
            if not missing:
                continue
            for _ in range(int(rng.random() * missing.bit_count())):
                missing &= missing - 1
            requests.setdefault(t, []).append((u, (missing & -missing).bit_length()))
        for t in sorted(requests):
            asked = requests[t]
            u, p = asked[int(rng.random() * len(asked))]
            pieces[u] |= 1 << (p - 1)
            arrivals[u, p - 1] = slot
            events.append((slot, t, u, p))
            if pieces[u] == full:
                done += 1
    return slot


def probe(cpus: list) -> float:
    """Seconds the reference simulation takes now, averaged over the given
    CPUs, each timed on its own; the process's CPU affinity is restored
    afterwards.  The two CPUs of one host can differ in speed by 10 % at
    the same moment, so the probe runs where the commands run.  The cyclic
    garbage collector is off meanwhile, so that the heap the program left
    does not slow the probe."""
    home = os.sched_getaffinity(0)
    collecting = gc.isenabled()
    gc.disable()
    took = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            started = time.perf_counter()
            simulate()
            took.append(time.perf_counter() - started)
    finally:
        os.sched_setaffinity(0, home)
        if collecting:
            gc.enable()
    return sum(took) / len(took)


class Sampler:
    """Probes interleaved with a flow's commands, and each command's time
    with and without scaling to the reference speed.

    Call `between()` before the first command and after each one, and
    `start(i)` as command i begins.  With `interior`, a SIGALRM timer also
    probes inside a command, between two of the program's bytecodes; probe
    time is never part of a command's time.  A stretch of program time
    between two probes is scaled by REF_NOMINAL_S over their mean.
    """

    def __init__(self, cpus: list, interior: bool):
        self.cpus = cpus
        self.interior = interior
        self.probes: list[float] = []
        self.seconds: dict[int, float] = {}
        self.norm_seconds: dict[int, float] = {}
        self._op: int | None = None
        self._mark = 0.0  # end of the last probe or start of the command
        self._tick = (0.0, 0.0)  # wall and CPU clocks at the last timer tick
        self._probing = False

    def _probe(self) -> None:
        self._probing = True
        now = time.perf_counter()
        took = probe(self.cpus)
        if self._op is not None:
            stretch = now - self._mark
            scale = 2 * REF_NOMINAL_S / (self.probes[-1] + took)
            self.seconds[self._op] = self.seconds.get(self._op, 0.0) + stretch
            self.norm_seconds[self._op] = self.norm_seconds.get(self._op, 0.0) + stretch * scale
        self.probes.append(took)
        self._mark = time.perf_counter()
        self._tick = (self._mark, time.process_time())
        self._probing = False

    def _on_timer(self, signum, frame) -> None:
        if self._op is None or self._probing:
            return
        wall, cpu = time.perf_counter(), time.process_time()
        busy = cpu - self._tick[1] >= BUSY * (wall - self._tick[0])
        self._tick = (wall, cpu)
        if busy:
            self._probe()

    def start(self, op: int) -> None:
        self._op = op
        self._mark = time.perf_counter()
        self._tick = (self._mark, time.process_time())
        if self.interior:
            signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def between(self) -> None:
        if self.interior:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self._probe()
        self._op = None
