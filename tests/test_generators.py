"""Graph generator tests (dataset substitutes, DESIGN.md §4)."""
import numpy as np
import pytest

from repro.baselines.tarjan import tarjan_scc, scc_stats
from repro.core import csr as csrmod
from repro.graphs import generators as gen
from repro.graphs.suite import lelists_suite, table2_suite, table3_suite
from tests.graph_zoo import bfs_level_count


def _no_self_loops_no_dups(src, dst):
    assert (src != dst).all()
    n = int(max(src.max(initial=0), dst.max(initial=0))) + 1
    keys = src * n + dst
    assert len(np.unique(keys)) == len(keys)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rmat_deterministic(seed):
    a = gen.rmat(8, 4, seed=seed)
    b = gen.rmat(8, 4, seed=seed)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_rmat_shape():
    src, dst = gen.rmat(10, 8, seed=3)
    assert src.max() < 1024 and dst.max() < 1024
    _no_self_loops_no_dups(src, dst)
    # dedup removes some, but most edges survive
    assert len(src) > 0.5 * 1024 * 8


def test_rmat_power_law_ish():
    """RMAT should produce a heavy tail: max degree far above the mean."""
    src, dst = gen.rmat(10, 8, seed=4)
    deg = np.bincount(src, minlength=1024)
    assert deg.max() > 8 * deg.mean()


def test_web_structure():
    src, dst = gen.web(9, 6, seed=5)
    _no_self_loops_no_dups(src, dst)
    n = 512
    c = csrmod.from_arrays(n, src, dst)
    lab, _ = tarjan_scc(c)
    n_scc, scc1 = scc_stats(lab)
    # bow-tie: large-but-not-dominant core SCC, many tiny SCCs
    assert 0.1 * n < scc1 < 0.9 * n
    assert n_scc > n / 4


@pytest.mark.parametrize("k", [2, 3, 5])
def test_knn_out_degree(k):
    src, dst = gen.knn_trajectory(150, k, seed=6)
    deg = np.bincount(src, minlength=150)
    assert (deg == k).all()  # directed k-NN: exactly k out-edges each


def test_knn_gmm_deterministic():
    a = gen.knn_gmm(200, 4, seed=7)
    b = gen.knn_gmm(200, 4, seed=7)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_knn_curve_large_diameter():
    """The curve k-NN graph must be path-like: diameter >> log n."""
    n = 400
    src, dst = gen.knn_curve(n, 3, seed=8)
    c = csrmod.from_arrays(n, src, dst)
    # undirected BFS depth from vertex 0
    s = np.concatenate([src, dst])
    d = np.concatenate([dst, src])
    cu = csrmod.from_arrays(n, s, d)
    depth = bfs_level_count(cu.indptr, cu.indices, np.array([0]))
    assert depth > 20  # ~n/k levels, far above log2(400) ~ 8.6


def test_lattice_oriented_one_direction_per_pair():
    src, dst = gen.lattice_oriented(8, 8, seed=9)
    _no_self_loops_no_dups(src, dst)
    n = 64
    keys = set(zip(src.tolist(), dst.tolist()))
    for u, v in keys:
        assert (v, u) not in keys  # exactly one orientation
    # circular 2D lattice: every adjacent pair got exactly one edge
    assert len(src) == 2 * n


def test_lattice_sparse_drops_pairs():
    src, dst = gen.lattice_sparse(16, 16, seed=10)
    _no_self_loops_no_dups(src, dst)
    m = len(src)
    # Each unordered pair yields an edge w.p. 0.6 (0.3 + 0.3): expect
    # ~0.6 * 2n edges with generous slack.
    assert 0.4 * 2 * 256 < m < 0.8 * 2 * 256


def test_lattice_giant_scc():
    """p=0.5 orientation on a torus keeps a large SCC (paper SQR/REC)."""
    src, dst = gen.lattice_oriented(24, 24, seed=11)
    c = csrmod.from_arrays(576, src, dst)
    lab, _ = tarjan_scc(c)
    _, scc1 = scc_stats(lab)
    assert scc1 > 0.2 * 576


def test_lattice_sparse_tiny_sccs():
    """0.3/0.3/0.4 scheme shatters into tiny SCCs (paper SQR'/REC')."""
    src, dst = gen.lattice_sparse(24, 24, seed=12)
    c = csrmod.from_arrays(576, src, dst)
    lab, _ = tarjan_scc(c)
    n_scc, scc1 = scc_stats(lab)
    assert scc1 < 0.05 * 576
    assert n_scc > 0.5 * 576


def test_road_symmetric():
    src, dst = gen.road(10, 12, seed=13)
    edges = set(zip(src.tolist(), dst.tolist()))
    for u, v in edges:
        assert (v, u) in edges


def test_suite_table2_families():
    suite = table2_suite(scale=0.05)
    fams = {g.family for g in suite}
    assert fams == {"social", "web", "knn", "lattice"}
    assert len(suite) == 12
    for g in suite:
        assert g.m > 0
        assert g.src.max() < g.n and g.dst.max() < g.n


def test_suite_table3_symmetric():
    for g in table3_suite(scale=0.05):
        edges = set(zip(g.src.tolist(), g.dst.tolist()))
        for u, v in list(edges)[:200]:
            assert (v, u) in edges


def test_suite_lelists_subset():
    suite = lelists_suite(scale=0.05)
    assert 3 <= len(suite) <= 6


def test_suite_deterministic():
    a = table2_suite(scale=0.05)
    b = table2_suite(scale=0.05)
    for ga, gb in zip(a, b):
        assert ga.name == gb.name
        assert np.array_equal(ga.src, gb.src)
