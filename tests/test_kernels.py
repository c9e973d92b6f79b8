"""Golden outputs of every kernel on the zoo.

Each kernel is called directly on seeded frontiers over both search
directions, tau in {1, 2, 8, 512}, with and without ``finished`` and
``restrict``, and with and without ``two_pass``.  Every frontier obeys
the callers' contract: frontier vertices are visited, and frontier pairs
are in the pair table.  A digest covers each output column's name, dtype
and bytes in row order, plus the visit count, so it pins the row order
that LDD's stable priority merge reads as well as the rows and counters.
The digests were recorded with the kernels that read the CSR as numpy
arrays and admitted one edge per call; a rewrite of the kernels must
leave every one unchanged, except as said below.

Twelve ``sparse_reach`` digests (all but ``singleton``, ``no_edges``,
``self_loop`` and ``two_cycle``, whose rows come in one order either
way) were re-recorded when the kernel took over LDD's rounds and began
to emit its rows in admission order, as LDD's kernel did, instead of in
the iteration order of a task-local set.  A replay of
every case against the earlier kernel gave the same visits, column
names, dtypes and rows sorted by ``v`` with their ``explored`` flags, so
these digests moved by row order alone.  The ``ldd_reach`` digests were
recorded with LDD's own kernel, since deleted, and hold unchanged under
``sparse_reach``, which now runs as ``ldd_reach``.

The ``lelists_round`` digests were recorded with LE-lists' own one-hop
kernel, since deleted: its cases are now encoded by
:func:`repro.lelists.lelists.level_params`, the params ``le_lists`` ships,
and run through ``multi_reach`` at tau = 1, so the digests pin that
encoding.
"""
from __future__ import annotations

import hashlib
import json
import pathlib
import re

import numpy as np
import pytest

from repro.core.kernels import KERNELS
from repro.core.pairtable import PairTable
from repro.lelists.lelists import level_params
from tests.graph_zoo import ZOO_NAMES, zoo, zoo_sym

BENCHMARK = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"
TAUS = (1, 2, 8, 512)
INF = np.iinfo(np.int64).max
# The digests' kernel names in the order they were recorded; a case's seed
# reads the index, so it must not follow ``KERNELS``.
RECORDED = ("sparse_reach", "dense_reach", "multi_reach", "ldd_reach", "lelists_round", "color_max")


def _frontier(rng, n: int) -> np.ndarray:
    """A sorted seeded frontier of about a quarter of the vertices, never empty."""
    return np.sort(rng.choice(n, max(1, n // 4), replace=False)).astype(np.int64)


def _pair_frontier(rng, n: int) -> tuple[dict, PairTable]:
    """Distinct (v, s) frontier pairs, ascending by key as ``multi_reach``
    makes them, and a pair table holding them and a few more pairs."""
    m = max(1, n // 3)
    keys = np.unique(rng.integers(0, n, m) * n + rng.integers(0, n, m))
    more = rng.integers(0, n, (n // 8, 2))
    table = PairTable(n)
    table.insert(np.union1d(keys, more[:, 0] * n + more[:, 1]))
    return {"v": keys // n, "s": keys % n}, table


def _cases(name: str, c, rng):
    """Yield ``(cols, params)`` for every case of kernel ``name`` on ``c``."""
    n = c.n
    if name == "sparse_reach":
        for direction in ("fwd", "bwd"):
            for tau in TAUS:
                for extra in ("none", "finished", "both"):
                    for two_pass in (False, True):
                        vs = _frontier(rng, n)
                        visited = rng.random(n) < 0.2
                        visited[vs] = True
                        finished = restrict = None
                        if extra != "none":
                            finished = ~visited & (rng.random(n) < 0.2)
                        if extra == "both":
                            restrict = rng.integers(0, 3, n)
                        yield {"v": vs}, {
                            "direction": direction,
                            "visited": visited,
                            "tau": tau,
                            "two_pass": two_pass,
                            "finished": finished,
                            "restrict": restrict,
                        }
    elif name == "dense_reach":
        for direction in ("fwd", "bwd"):
            for extra in ("none", "finished", "both"):
                in_frontier = rng.random(n) < 0.3
                visited = in_frontier | (rng.random(n) < 0.2)
                finished = restrict = None
                if extra != "none":
                    finished = ~visited & (rng.random(n) < 0.2)
                if extra == "both":
                    restrict = rng.integers(0, 3, n)
                cand = ~visited if finished is None else ~visited & ~finished
                yield {"v": np.flatnonzero(cand).astype(np.int64)}, {
                    "direction": direction,
                    "in_frontier": in_frontier,
                    "restrict": restrict,
                }
    elif name == "multi_reach":
        for direction in ("fwd", "bwd"):
            for tau in TAUS:
                for two_pass in (False, True):
                    cols, table = _pair_frontier(rng, n)
                    labels = rng.integers(0, 2, n)
                    finished = rng.random(n) < 0.1
                    finished[cols["v"]] = False
                    yield cols, {
                        "direction": direction,
                        "tau": tau,
                        "two_pass": two_pass,
                        "labels": labels,
                        "finished": finished,
                        "table_keys": table.snapshot(),
                    }
    elif name == "ldd_reach":
        for tau in TAUS:
            for two_pass in (False, True):
                vs = rng.permutation(_frontier(rng, n))
                visited = rng.random(n) < 0.2
                visited[vs] = True
                labs = rng.choice(vs, len(vs))
                yield {"v": vs, "lab": labs}, {
                    "direction": "fwd",
                    "visited": visited,
                    "tau": tau,
                    "two_pass": two_pass,
                }
    elif name == "lelists_round":
        labels = np.zeros(n, dtype=np.int8)
        for d in (0, 2):
            for two_pass in (False, True):
                cols, table = _pair_frontier(rng, n)
                delta = np.where(rng.random(n) < 0.3, rng.integers(0, 5, n), INF)
                yield cols, level_params(delta, d, table.snapshot(), labels, two_pass)
    else:
        for _ in range(3):
            yield {"v": _frontier(rng, n)}, {
                "colors": rng.permutation(n).astype(np.int64),
                "active": rng.random(n) < 0.8,
            }


def kernel_digest(name: str, graph: str) -> str:
    """sha256 (first 16 hex digits) of every case's output columns and
    visit count for kernel ``name`` on zoo graph ``graph``.  An LE-lists
    level (``lelists_round``) runs ``multi_reach``, whose ``explored``
    column is all False at tau = 1 and not digested."""
    c = (zoo_sym() if name in ("ldd_reach", "lelists_round") else zoo())[graph]
    t = c.transpose()
    g = (c.indptr, c.indices, t.indptr, t.indices)
    rng = np.random.default_rng(RECORDED.index(name) * 1000 + ZOO_NAMES.index(graph))
    h = hashlib.sha256()
    for cols, params in _cases(name, c, rng):
        if name == "lelists_round":
            out, visits = KERNELS["multi_reach"](cols, g, params)
            assert not out.pop("explored").any()
        else:
            out, visits = KERNELS[name](cols, g, params)
        for col, a in out.items():
            h.update(f"{col}:{a.dtype.str}:{len(a)};".encode())
            h.update(np.ascontiguousarray(a).tobytes())
        h.update(f"visits:{visits};".encode())
    return h.hexdigest()[:16]


GOLDEN: dict[tuple[str, str], str] = {
    ("sparse_reach", "singleton"): "cd8fbc940b03f22d",
    ("sparse_reach", "no_edges"): "cd8fbc940b03f22d",
    ("sparse_reach", "self_loop"): "bb280db7e26daf63",
    ("sparse_reach", "two_cycle"): "d0311d8d5edcc68b",
    ("sparse_reach", "path"): "69adbf872e772a3f",
    ("sparse_reach", "cycle"): "9104e42db375b940",
    ("sparse_reach", "two_cliques_bridge"): "06fcf7b1a86d2813",
    ("sparse_reach", "dag"): "1734622193fb3f99",
    ("sparse_reach", "star_out"): "3ad19265ea0221ed",
    ("sparse_reach", "rand_sparse"): "3e68b47e42ce2ea4",
    ("sparse_reach", "rand_dense"): "38a71582b769cf96",
    ("sparse_reach", "rmat"): "26f6b576ef8076c8",
    ("sparse_reach", "web"): "e4539cc494cddf9a",
    ("sparse_reach", "knn"): "640e838535304985",
    ("sparse_reach", "lattice"): "ce3f4ca75e91908f",
    ("sparse_reach", "lattice_sparse"): "c59599ea01dc98bf",
    ("dense_reach", "singleton"): "68c44a1e03137190",
    ("dense_reach", "no_edges"): "68c44a1e03137190",
    ("dense_reach", "self_loop"): "a7dd8b24febb2500",
    ("dense_reach", "two_cycle"): "1e3355352efb9d0e",
    ("dense_reach", "path"): "161c355d94ed3309",
    ("dense_reach", "cycle"): "f932954cc85226f4",
    ("dense_reach", "two_cliques_bridge"): "6217d1b8fa3a992b",
    ("dense_reach", "dag"): "4df743306e00363e",
    ("dense_reach", "star_out"): "128c6166400d9ab4",
    ("dense_reach", "rand_sparse"): "2f9497c0507147b5",
    ("dense_reach", "rand_dense"): "f17b020c2bbe368f",
    ("dense_reach", "rmat"): "4d9bc03695fc4d7b",
    ("dense_reach", "web"): "2693083525fdcc16",
    ("dense_reach", "knn"): "933c244c1589c184",
    ("dense_reach", "lattice"): "9f2085cecb3622d9",
    ("dense_reach", "lattice_sparse"): "fe9e6cf61f1602b5",
    ("multi_reach", "singleton"): "cc690e5d262b32c8",
    ("multi_reach", "no_edges"): "cc690e5d262b32c8",
    ("multi_reach", "self_loop"): "63e47d0742e7c491",
    ("multi_reach", "two_cycle"): "4a5f3eea8e99b551",
    ("multi_reach", "path"): "9fb57c7ae3dce24a",
    ("multi_reach", "cycle"): "ab6c91d3a42c9408",
    ("multi_reach", "two_cliques_bridge"): "d3ab8154ec8027ac",
    ("multi_reach", "dag"): "45bf995cbfb9aba2",
    ("multi_reach", "star_out"): "3ea19d9f4e7e3f83",
    ("multi_reach", "rand_sparse"): "9b41e293269a954d",
    ("multi_reach", "rand_dense"): "25b836e2a215e765",
    ("multi_reach", "rmat"): "8dc7ecac02fb0cf0",
    ("multi_reach", "web"): "6d9b7096aaa1f1dc",
    ("multi_reach", "knn"): "e157b3ba5fa24eac",
    ("multi_reach", "lattice"): "4852958f8fea232d",
    ("multi_reach", "lattice_sparse"): "a740cbe8d7f52a9c",
    ("ldd_reach", "singleton"): "43b17a3ac0b24728",
    ("ldd_reach", "no_edges"): "43b17a3ac0b24728",
    ("ldd_reach", "self_loop"): "afd5c03d01ed7d4d",
    ("ldd_reach", "two_cycle"): "43038594ff722f0d",
    ("ldd_reach", "path"): "dd45f6d8a87fe944",
    ("ldd_reach", "cycle"): "9e7530da90114079",
    ("ldd_reach", "two_cliques_bridge"): "1edf31e74d4bea06",
    ("ldd_reach", "dag"): "63eae34c1c410dea",
    ("ldd_reach", "star_out"): "9bb69a7af6b4d14e",
    ("ldd_reach", "rand_sparse"): "c7576b4f15a5df98",
    ("ldd_reach", "rand_dense"): "55066003b620b7bc",
    ("ldd_reach", "rmat"): "eaaf5e1a25b7647b",
    ("ldd_reach", "web"): "ee63c1a5ae85c03c",
    ("ldd_reach", "knn"): "8973913b1c1071df",
    ("ldd_reach", "lattice"): "894acfc8b565070a",
    ("ldd_reach", "lattice_sparse"): "ed41df6b580451ec",
    ("lelists_round", "singleton"): "f6a1b811ef3f2966",
    ("lelists_round", "no_edges"): "f6a1b811ef3f2966",
    ("lelists_round", "self_loop"): "c4c14f574d7c5d04",
    ("lelists_round", "two_cycle"): "beab0a14e04d8bd5",
    ("lelists_round", "path"): "d54778fd1821974e",
    ("lelists_round", "cycle"): "6983817990c6ffaa",
    ("lelists_round", "two_cliques_bridge"): "6c1f235a73aee921",
    ("lelists_round", "dag"): "ec0d8ae66ef12e9b",
    ("lelists_round", "star_out"): "1d08c1ae5a540061",
    ("lelists_round", "rand_sparse"): "9baee04fd1e95d0b",
    ("lelists_round", "rand_dense"): "48e45b2c2eb1fb61",
    ("lelists_round", "rmat"): "1d9ab8242d5af0c9",
    ("lelists_round", "web"): "d89b423d33f2e702",
    ("lelists_round", "knn"): "82b6b8b2a826b3d0",
    ("lelists_round", "lattice"): "5be8ec7c1336a0ba",
    ("lelists_round", "lattice_sparse"): "afeff92867d3a826",
    ("color_max", "singleton"): "28b1606250f3d892",
    ("color_max", "no_edges"): "28b1606250f3d892",
    ("color_max", "self_loop"): "f351ce3abba3db0a",
    ("color_max", "two_cycle"): "beaa9311e689c786",
    ("color_max", "path"): "42f4aa8e17430fca",
    ("color_max", "cycle"): "0f62bd7f7d9a2a32",
    ("color_max", "two_cliques_bridge"): "3f149b9c60af439b",
    ("color_max", "dag"): "ae81e51de152c177",
    ("color_max", "star_out"): "e6c0a78abadcb8f2",
    ("color_max", "rand_sparse"): "31115f3a305ed50e",
    ("color_max", "rand_dense"): "118e67e947f877ff",
    ("color_max", "rmat"): "ab3eba5148fc5706",
    ("color_max", "web"): "c87e96d1ab1f27ac",
    ("color_max", "knn"): "53494779fb37d302",
    ("color_max", "lattice"): "f91a0e9a6871ccae",
    ("color_max", "lattice_sparse"): "d78b23bddce485d7",
}


@pytest.mark.parametrize(("name", "graph"), list(GOLDEN))
def test_kernel_output_is_pinned(name, graph):
    assert kernel_digest(name, graph) == GOLDEN[name, graph]


def test_benchmark_kernel_metrics_name_kernels():
    """Every per-layer ``kernels.<name>_s`` metric of BENCHMARK.json names a
    key of ``KERNELS``: perfbench reports one such metric per key, and a
    traced run exits when a declared metric is missing."""
    spec = json.loads(BENCHMARK.read_text())
    metrics = (re.fullmatch(r"kernels\.(\w+)_s", d["name"]) for d in spec["per_layer"])
    names = {m[1] for m in metrics if m}
    assert names
    assert names <= set(KERNELS), names - set(KERNELS)
