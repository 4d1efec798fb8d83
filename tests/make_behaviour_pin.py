"""Rebuild ``tests/data/behaviour_pin.json``, the engine outcomes that
``test_behaviour_pin.py`` checks.

The file pins what the engine does on a wide spread of small runs: every
protocol, both constraints, uniform contacts and fixed lists of 1 to 4
contacts, all three starts, and slot caps that cut some runs short, at
n <= 40 and k <= 80.  The configurations are drawn from a fixed seed.  For
each one the file stores the outcome of a traced run (trace digest, event
count, completion, slots, release slots, emergence) and, for an untraced
run, which may settle and skip to its cap, the completion slot, the slot
count and a digest of the ``arrivals`` matrix.

Rebuild it only when a change to the engine's behaviour is intended, and
name each outcome that moves; run from the repository root::

    PYTHONPATH=src python tests/make_behaviour_pin.py
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, replace
from pathlib import Path
from random import Random

import gossipsim as g

PIN = Path(__file__).parent / "data" / "behaviour_pin.json"
SEED = 2006
COUNT = 150
STARTS = (g.SINGLE_SOURCE, g.ETA_SEEDED, g.ONE_UNIQUE)
FIELDS = ("completed", "completion_slot", "slots", "release_slots", "emergence")


def draw_config(rng: Random) -> g.SimulationConfig:
    """One configuration: a protocol, then a start it accepts, sizes, a
    contact model, a constraint and a cap (None, the default horizon, in
    about a third of the runs)."""
    protocol = rng.choice(g.PROTOCOLS)
    if protocol == g.ADVOCATE:
        start = g.ONE_UNIQUE
    elif protocol in (g.PRIORITY_PUSH, g.INTERLEAVE):
        start = g.SINGLE_SOURCE
    else:
        start = rng.choice(STARTS)
    n = rng.randint(2, 40)
    k = n if start == g.ONE_UNIQUE else rng.randint(1, 80)
    fields = dict(
        n=n,
        k=k,
        protocol=protocol,
        constraint=rng.choice((g.HARD, g.SOFT)),
        initial_state=start,
        seed=rng.randrange(2**32),
    )
    if start == g.ETA_SEEDED:
        fields["eta"] = rng.choice((0.05, 0.2, 0.5, 1.0))
    if protocol == g.PRIORITY_PUSH:
        fields["spacing"] = rng.randint(1, 4)
    if n > 2 and rng.random() < 0.4:
        fields.update(contact_model=g.FIXED_LISTS, contact_list_size=rng.randint(1, min(4, n - 1)))
    if rng.random() < 2 / 3:
        fields["max_slots"] = rng.randint(1, 4 * k * fields.get("spacing", 2) + 40)
    return g.SimulationConfig(**fields)


def outcome(config: g.SimulationConfig) -> dict:
    """The pinned outcome of `config`: its traced run, and the completion
    slot, slot count and arrivals digest of its untraced run, which may
    settle and skip to its cap."""
    traced = g.run(replace(config, record_trace=True))
    untraced = g.run(replace(config, record_trace=False))
    return {
        "trace_hash": traced.trace_hash,
        "events": len(traced.trace),
        **{f: getattr(traced, f) for f in FIELDS},
        "untraced": {
            "completion_slot": untraced.completion_slot,
            "slots": untraced.slots,
            "arrivals": hashlib.sha256(untraced.arrivals.tobytes()).hexdigest(),
        },
    }


def main() -> None:
    rng = Random(SEED)
    cases = []
    for _ in range(COUNT):
        config = draw_config(rng)
        cases.append({"config": asdict(config), "outcome": outcome(config)})
    PIN.parent.mkdir(exist_ok=True)
    PIN.write_text("[\n" + ",\n".join(map(json.dumps, cases)) + "\n]\n")  # a case a line
    print(f"wrote {len(cases)} cases to {PIN}")


if __name__ == "__main__":
    main()
