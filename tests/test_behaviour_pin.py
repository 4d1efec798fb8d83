"""The engine's behaviour on 150 small runs, pinned in
``tests/data/behaviour_pin.json`` (rebuilt by ``make_behaviour_pin.py``).

Every protocol, constraint, contact model and start appears, with caps that
cut some runs short; a change to the engine that keeps every outcome here
keeps the sampled behaviour, not only the golden digests.
"""

import json
from dataclasses import asdict
from random import Random

import gossipsim as g
from make_behaviour_pin import PIN, outcome
from make_behaviour_pin import COUNT, SEED, draw_config

CASES = json.loads(PIN.read_text())


def test_engine_outcomes_match_the_pin():
    assert len(CASES) == 150
    moved = [
        (i, case["config"])
        for i, case in enumerate(CASES)
        if outcome(g.SimulationConfig(**case["config"])) != case["outcome"]
    ]
    assert moved == []


def test_the_generator_redraws_the_pinned_configs():
    # no runs: a generator that drifts from its data fails here, not only
    # as outcomes that moved
    rng = Random(SEED)
    assert [asdict(draw_config(rng)) for _ in range(COUNT)] == [case["config"] for case in CASES]
