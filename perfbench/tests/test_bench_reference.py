"""The reference probe and the sampler that scales command times by it."""

import os
import time

import reference


def test_reference_simulation_is_fixed():
    assert reference.simulate() == reference.simulate() == 233


def test_probe_restores_the_cpu_affinity():
    home = os.sched_getaffinity(0)
    assert reference.probe(sorted(home)) > 0
    assert os.sched_getaffinity(0) == home


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_sampler_probes_inside_a_busy_command_and_leaves_probes_out():
    sampler = reference.Sampler(sorted(os.sched_getaffinity(0))[:1], interior=True)
    sampler.between()
    sampler.start(0)
    began = time.perf_counter()
    _spin(1.6)
    sampler.between()
    took = time.perf_counter() - began
    assert len(sampler.probes) >= 4  # two between commands, two or more inside
    inside = sum(sampler.probes[1:-1])
    assert abs(sampler.seconds[0] - (took - inside - sampler.probes[-1])) < 0.05
    assert sampler.norm_seconds[0] > 0


def test_sampler_does_not_probe_a_waiting_command():
    sampler = reference.Sampler(sorted(os.sched_getaffinity(0))[:1], interior=True)
    sampler.between()
    sampler.start(0)
    time.sleep(1.6)
    sampler.between()
    assert len(sampler.probes) == 2
    assert 1.55 < sampler.seconds[0] < 1.7
