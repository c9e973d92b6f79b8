"""The benchmark graph suites (scaled-down analogues of paper Tab. 2/3).

``table2_suite`` returns the directed SCC suite; ``table3_suite`` the
symmetrized + road suite for connectivity; ``lelists_suite`` a smaller
undirected subset (LE-list output is O(n log n), and its multi-BFS pays
O(D) rounds per batch, so sizes are kept modest).

``tau_suite`` is the four Table-2 graphs of the τ study (Sec. 6.3).

``scale`` < 1 shrinks every graph (used by tests); the default scale is
what `jobs/tables.py` runs.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.core import csr as csrmod
from repro.graphs import generators as gen


@dataclass
class GraphSpec:
    name: str
    family: str
    n: int
    src: np.ndarray
    dst: np.ndarray
    # sequential answers, computed once per graph (see repro.bench.harness)
    oracles: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def m(self) -> int:
        return len(self.src)

    @cached_property
    def csr(self) -> csrmod.CSR:
        """The graph's CSR, built once and shared by every cell."""
        return csrmod.from_arrays(self.n, self.src, self.dst)


SEED = 7  # each suite graph's generator runs at SEED + its own offset


def _scaled(x: int, scale: float, lo: int = 64) -> int:
    return max(lo, int(round(x * scale)))


def table2_suite(scale: float = 1.0) -> list[GraphSpec]:
    """Directed graphs for the SCC table, one row per paper analogue.

    Default sizes (n ~ 1-4 K) were chosen so that, with every round
    forced through a real Spark barrier (0.05-0.1 s on 4 cores), the plain-BFS
    baselines finish within the per-run budget on most graphs while the
    large-diameter structure (BFS depth 100+) is preserved.
    """
    lg = 11 if scale >= 1.0 else 8  # RMAT sizes are powers of two
    lg_big = lg + 1
    specs: list[GraphSpec] = []

    def add(name, family, n, sd):
        specs.append(GraphSpec(name, family, n, sd[0], sd[1]))

    add("SOC-LJ'", "social", 1 << lg, gen.rmat(lg, 8, seed=SEED + 1))
    add("SOC-TW'", "social", 1 << lg, gen.rmat(lg, 16, seed=SEED + 2))
    add("WEB-SD'", "web", 1 << lg, gen.web(lg, 8, seed=SEED + 3))
    add("WEB-CW'", "web", 1 << lg_big, gen.web(lg_big, 8, seed=SEED + 4))
    n_knn = _scaled(2048, scale)
    n_ch = _scaled(1024, scale)
    add("KNN-HH5'", "knn", n_knn, gen.knn_gmm(n_knn, 5, seed=SEED + 5))
    add("KNN-CH5'", "knn", n_ch, gen.knn_curve(n_ch, 5, seed=SEED + 6))
    add("KNN-GL2'", "knn", n_knn, gen.knn_trajectory(n_knn, 2, seed=SEED + 7))
    add("KNN-GL5'", "knn", n_knn, gen.knn_trajectory(n_knn, 5, seed=SEED + 8))
    r = _scaled(48, np.sqrt(scale), lo=8)
    rc = _scaled(192, np.sqrt(scale), lo=32)
    rr = _scaled(12, np.sqrt(scale), lo=4)
    add("LAT-SQR'", "lattice", r * r, gen.lattice_oriented(r, r, seed=SEED + 9))
    add("LAT-REC'", "lattice", rr * rc, gen.lattice_oriented(rr, rc, seed=SEED + 10))
    add("LAT-SQRp'", "lattice", r * r, gen.lattice_sparse(r, r, seed=SEED + 11))
    add("LAT-RECp'", "lattice", rr * rc, gen.lattice_sparse(rr, rc, seed=SEED + 12))
    return specs


def tau_suite(scale: float = 1.0) -> list[GraphSpec]:
    """The τ study's graphs: a social, a web, a kNN and a lattice one."""
    picks = ["SOC-LJ'", "WEB-SD'", "KNN-GL5'", "LAT-SQR'"]
    return [g for g in table2_suite(scale) if g.name in picks]


def table3_suite(scale: float = 1.0) -> list[GraphSpec]:
    """Undirected graphs for connectivity: symmetrized Table-2 analogues
    plus two road networks."""
    base = {g.name: g for g in table2_suite(scale)}
    picks = ["SOC-LJ'", "WEB-SD'", "KNN-HH5'", "KNN-GL5'", "LAT-SQR'", "LAT-SQRp'"]
    specs = []
    for name in picks:
        g = base[name]
        s, d = gen.dedupe(np.concatenate([g.src, g.dst]), np.concatenate([g.dst, g.src]))
        specs.append(GraphSpec(name + "-sym", g.family, g.n, s, d))
    r = _scaled(64, np.sqrt(scale), lo=8)
    specs.append(
        GraphSpec("ROAD-GE'", "road", r * r, *gen.road(r, r, seed=SEED + 20))
    )
    specs.append(
        GraphSpec("ROAD-USA'", "road", r * 2 * r, *gen.road(r, 2 * r, seed=SEED + 21))
    )
    return specs


def lelists_suite(scale: float = 1.0) -> list[GraphSpec]:
    """Smaller undirected subset for LE-lists (paper Tab. 3 right half)."""
    suite = {g.name: g for g in table3_suite(scale * 0.5)}
    picks = ["SOC-LJ'-sym", "KNN-HH5'-sym", "KNN-GL5'-sym", "LAT-SQR'-sym", "ROAD-GE'"]
    return [suite[p] for p in picks]
