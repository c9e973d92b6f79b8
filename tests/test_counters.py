"""Tests for counters and the documented 96-core cost model."""
import time

from repro.core.counters import (
    Counters,
    PhaseTimer,
    simulated_time,
    simulated_time_sequential,
)


def test_defaults_zero():
    c = Counters()
    assert c.rounds == 0 and c.edge_visits == 0 and c.pair_inserts == 0


def test_phase_timer_accumulates():
    c = Counters()
    with PhaseTimer(c, "p"):
        time.sleep(0.01)
    with PhaseTimer(c, "p"):
        time.sleep(0.01)
    assert c.phase_seconds["p"] >= 0.02


def test_simulated_time_structure():
    c = Counters()
    c.rounds = 100
    c.edge_visits = 96 * 4 * 10**8  # exactly one second of 96-core work
    t = simulated_time(c)
    assert abs(t - (1.0 + 100 * 4e-5)) < 1e-9


def test_simulated_time_monotone_in_rounds():
    c1, c2 = Counters(), Counters()
    c1.rounds, c2.rounds = 10, 1000
    assert simulated_time(c2) > simulated_time(c1)


def test_sequential_model_no_barriers():
    assert simulated_time_sequential(4e8) == 1.0
