"""Work/round counters and the documented 96-core cost model.

Wall-clock numbers from a 16-core laptop-scale Spark cannot be compared to
the paper's 96-core C++ runs.  What *does* transfer is the cost structure:

    T  ~=  (edge visits + table work) / (P * R_e)  +  rounds * t_barrier

Every reachability engine in this repo counts its edge visits (successful
and unsuccessful, both passes for the edge-revisit baseline), its rounds
and its hash-table rebuild cost.  ``rounds`` counts barriers (one Spark
job each), not search steps: a batch's forward and backward searches
share their barriers, so a batch costs max(fw, bw) of them, while
``search_rounds`` keeps each search's own count (the paper's Fig. 10).
:func:`simulated_time` turns those counters into a modeled 96-core time.

Calibration (documented, fixed): R_e = 4e8 edge-visits/s/core (memory-bound
traversal) and t_barrier = 4e-5 s, chosen so the model lands near the
paper's GBBS GL2 row (D = 4142, m = 50M, 3.0 s); they are *not* fitted per
experiment.  The model is reported next to measured wall time in
EXPERIMENTS.md — never silently substituted for it.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

MODEL_CORES = 96
MODEL_EDGE_RATE = 4.0e8  # edge visits / second / core
MODEL_BARRIER = 4.0e-5  # seconds per global synchronization


@dataclass
class Counters:
    """Mutable counters threaded through one algorithm run."""

    rounds: int = 0  # global barriers (one Spark job each, fw+bw shared)
    edge_visits: int = 0  # neighbor inspections, incl. failed + revisit pass
    pair_inserts: int = 0
    table_rehash_cost: int = 0  # slots touched by pair-table rebuilds
    phase_seconds: dict[str, float] = field(default_factory=dict)
    # Rounds of each reachability search, in run order -- the Fig. 10
    # data points.
    search_rounds: list[int] = field(default_factory=list)

    def add_phase(self, name: str, seconds: float) -> None:
        self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + seconds


class PhaseTimer:
    """``with PhaseTimer(counters, "first_scc"): ...`` accumulates wall time
    into the per-phase breakdown (Fig. 9 categories)."""

    def __init__(self, counters: Counters, name: str):
        self.counters = counters
        self.name = name

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.counters.add_phase(self.name, time.perf_counter() - self.t0)
        return False


def simulated_time(
    c: Counters,
    *,
    cores: int = MODEL_CORES,
    edge_rate: float = MODEL_EDGE_RATE,
    barrier: float = MODEL_BARRIER,
) -> float:
    """Modeled runtime on the paper's machine, from measured counters:
    one ``barrier`` per counted round, i.e. per barrier shared by the
    searches that ran in it."""
    work = c.edge_visits + c.table_rehash_cost + c.pair_inserts
    return work / (cores * edge_rate) + c.rounds * barrier


def simulated_time_sequential(edge_visits: float, *, edge_rate: float = MODEL_EDGE_RATE) -> float:
    """Modeled single-core time for a sequential algorithm (no barriers)."""
    return edge_visits / edge_rate
