"""Shared test fixtures: a zoo of small graphs + partition helpers."""
from __future__ import annotations

import numpy as np

from repro.baselines.tarjan import canon_partition
from repro.core import csr as csrmod
from repro.graphs import generators as gen


def same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    return np.array_equal(canon_partition(a), canon_partition(b))


def random_digraph(n: int, m: int, seed: int) -> csrmod.CSR:
    g = np.random.default_rng(seed)
    return csrmod.from_arrays(n, g.integers(0, n, m), g.integers(0, n, m))


def bfs_level_count(indptr: np.ndarray, indices: np.ndarray, sources: np.ndarray) -> int:
    """Number of frontiers a plain BFS from ``sources`` processes."""
    visited = np.zeros(len(indptr) - 1, dtype=bool)
    frontier = np.asarray(sources, dtype=np.int64)
    visited[frontier] = True
    levels = 0
    while len(frontier):
        nxt: list[int] = []
        for v in frontier.tolist():
            for u in indices[indptr[v] : indptr[v + 1]].tolist():
                if not visited[u]:
                    visited[u] = True
                    nxt.append(u)
        frontier = np.asarray(nxt, dtype=np.int64)
        levels += 1
    return levels


def _edges(*pairs) -> tuple[np.ndarray, np.ndarray]:
    src = np.asarray([p[0] for p in pairs], dtype=np.int64)
    dst = np.asarray([p[1] for p in pairs], dtype=np.int64)
    return src, dst


def zoo() -> dict[str, csrmod.CSR]:
    """Small named digraphs covering the edge cases of every algorithm."""
    graphs: dict[str, csrmod.CSR] = {}
    graphs["singleton"] = csrmod.from_arrays(1, *_edges())
    graphs["no_edges"] = csrmod.from_arrays(5, *_edges())
    graphs["self_loop"] = csrmod.from_arrays(3, *_edges((0, 0), (1, 2)))
    graphs["two_cycle"] = csrmod.from_arrays(2, *_edges((0, 1), (1, 0)))
    graphs["path"] = csrmod.from_arrays(6, *_edges(*[(i, i + 1) for i in range(5)]))
    graphs["cycle"] = csrmod.from_arrays(
        8, *_edges(*[(i, (i + 1) % 8) for i in range(8)])
    )
    graphs["two_cliques_bridge"] = csrmod.from_arrays(
        8,
        *_edges(
            *[(i, j) for i in range(4) for j in range(4) if i != j],
            *[(i, j) for i in range(4, 8) for j in range(4, 8) if i != j],
            (0, 4),
        ),
    )
    graphs["dag"] = csrmod.from_arrays(
        7, *_edges((0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (4, 6))
    )
    graphs["star_out"] = csrmod.from_arrays(9, *_edges(*[(0, i) for i in range(1, 9)]))
    graphs["rand_sparse"] = random_digraph(60, 80, 3)
    graphs["rand_dense"] = random_digraph(40, 400, 4)
    graphs["rmat"] = csrmod.from_arrays(256, *gen.rmat(8, 4, seed=5))
    graphs["web"] = csrmod.from_arrays(256, *gen.web(8, 4, seed=6))
    graphs["knn"] = csrmod.from_arrays(200, *gen.knn_trajectory(200, 3, seed=7))
    graphs["lattice"] = csrmod.from_arrays(144, *gen.lattice_oriented(12, 12, seed=8))
    graphs["lattice_sparse"] = csrmod.from_arrays(
        144, *gen.lattice_sparse(12, 12, seed=9)
    )
    return graphs


def zoo_sym() -> dict[str, csrmod.CSR]:
    """Symmetrized zoo (for CC / LE-lists)."""
    out = {}
    for name, c in zoo().items():
        src = np.repeat(np.arange(c.n, dtype=np.int64), np.diff(c.indptr))
        s = np.concatenate([src, c.indices])
        d = np.concatenate([c.indices, src])
        keep = s != d
        if len(s[keep]) == 0:
            out[name] = csrmod.from_arrays(c.n, s[keep], d[keep])
        else:
            keys = np.unique(s[keep] * c.n + d[keep])
            out[name] = csrmod.from_arrays(c.n, keys // c.n, keys % c.n)
    return out


ZOO_NAMES = list(zoo().keys())
