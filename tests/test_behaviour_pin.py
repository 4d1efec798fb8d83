"""The engine's behaviour on 150 small runs, pinned in
``tests/data/behaviour_pin.json`` (rebuilt by ``make_behaviour_pin.py``).

Every protocol, constraint, contact model and start appears, with caps that
cut some runs short; a change to the engine that keeps every outcome here
keeps the sampled behaviour, not only the golden digests.
"""

import json

import gossipsim as g
from make_behaviour_pin import PIN, outcome

CASES = json.loads(PIN.read_text())


def test_engine_outcomes_match_the_pin():
    assert len(CASES) == 150
    moved = [
        (i, case["config"])
        for i, case in enumerate(CASES)
        if outcome(g.SimulationConfig(**case["config"])) != case["outcome"]
    ]
    assert moved == []
