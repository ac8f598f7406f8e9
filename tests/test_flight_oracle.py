"""Flight oracle: the state machine pushes what the generator pushed.

``repro.verbs.qp._Flight`` (PR 16) replaced one ``Process`` + generator per
work request with a slotted state machine on the same timer records.  The
claim is exactness, not similarity: every record at the instant and in the
order the generator pushed it, so no timestamp, tie or fault draw moves.
``tests/_flight_reference.py`` keeps the parent commit's generator; it is
swapped in here for ``_Flight`` and the two must produce *equal whole
timelines* -- every WR row, receiver CQE, inbound-engine departure
instant, the memory digest, the end of simulated time -- and spend equal
engine records, over the two ``tests/test_wr_timeline.py`` worlds (the
mixed stream that reaches every error arm; every link faulted, where the
order of two draws inside a nanosecond is an outcome) re-seeded.

Tier-1 runs a slice of the seeds; the whole sweep -- ``SWEEP_SEEDS`` per
world -- is ``python tests/test_flight_oracle.py`` (``make flight-oracle``,
what CI runs).
"""

import json
import sys

import pytest

import repro.verbs.qp as qp_module
from tests._flight_reference import GeneratorFlight
from tests.test_wr_timeline import (
    GOLDEN,
    RECORDINGS,
    _FaultedLinksWorld,
    _MixedWorld,
    _to_json,
)

WORLDS = {"mixed": _MixedWorld, "faulted_links": _FaultedLinksWorld}
TIER1_SEEDS = 12
SWEEP_SEEDS = 200


def _run(world_cls, seed, flight_cls):
    """The world's timeline plus the engine's own counts, with
    ``flight_cls`` standing in for ``repro.verbs.qp._Flight``."""
    shipped = qp_module._Flight
    qp_module._Flight = flight_cls
    try:
        world = world_cls(seed)
        timeline = world.timeline()
    finally:
        qp_module._Flight = shipped
    timeline["engine"] = [world.sim.events_dispatched, world.sim.timer_fires]
    return timeline


def _first_difference(world_cls, seeds):
    for seed in seeds:
        reference = _run(world_cls, seed, GeneratorFlight)
        machine = _run(world_cls, seed, qp_module._Flight)
        if machine != reference:
            keys = [key for key in reference if machine[key] != reference[key]]
            return f"seed {seed}: {', '.join(keys)} differ"
    return None


@pytest.mark.parametrize("world", WORLDS)
def test_state_machine_timeline_equals_the_generator_flights(world):
    assert _first_difference(WORLDS[world], range(1, TIER1_SEEDS + 1)) is None


def test_the_reference_reproduces_the_parent_recordings():
    """The oracle is only an oracle while it still is the parent: the
    generator must give the timelines recorded before PR 13, too."""
    for name, world_cls in RECORDINGS.items():
        timeline = _run(world_cls, world_cls().seed, GeneratorFlight)
        del timeline["engine"]
        assert json.loads(_to_json(timeline)) == json.loads((GOLDEN / name).read_text())


if __name__ == "__main__":
    failures = 0
    for name, world_cls in WORLDS.items():
        difference = _first_difference(world_cls, range(1, SWEEP_SEEDS + 1))
        print(f"{name}: {SWEEP_SEEDS} seeds, {difference or 'identical'}")
        failures += difference is not None
    sys.exit(1 if failures else 0)
