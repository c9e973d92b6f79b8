"""Connectivity tests: LDD properties, LDD-UF-JTB vs union-find oracle."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.seq_cc import UnionFind, seq_cc
from repro.cc.connectivity import cross_cluster_edges_np, ldd_uf_jtb
from repro.cc.ldd import ldd
from repro.core import csr as csrmod
from repro.core import engine as enginemod
from repro.core.counters import Counters
from repro.core.engine import Engine
from repro.core.scc import batches
from tests.graph_zoo import ZOO_NAMES, same_partition, zoo_sym


def sym_random(n, m, seed):
    g = np.random.default_rng(seed)
    s, d = g.integers(0, n, m), g.integers(0, n, m)
    s2 = np.concatenate([s, d])
    d2 = np.concatenate([d, s])
    keep = s2 != d2
    return csrmod.from_arrays(n, s2[keep], d2[keep]), s2[keep], d2[keep]


# -- union-find -----------------------------------------------------------
def test_unionfind_basic():
    uf = UnionFind(5)
    assert uf.union(0, 1)
    assert not uf.union(1, 0)
    assert uf.find(0) == uf.find(1)
    assert uf.find(2) != uf.find(0)


def test_seq_cc_two_components():
    lab = seq_cc(5, np.array([0, 2]), np.array([1, 3]))
    assert lab[0] == lab[1] and lab[2] == lab[3]
    assert lab[0] != lab[2] and lab[4] not in (lab[0], lab[2])


# -- LDD ------------------------------------------------------------------
@pytest.mark.parametrize("name", ZOO_NAMES)
@pytest.mark.parametrize("tau", [1, 512])
def test_ldd_labels_stay_inside_components(name, tau):
    c = zoo_sym()[name]
    if c.n == 0:
        return
    eng = Engine(None, c, Counters())
    order = np.random.default_rng(0).permutation(c.n).astype(np.int64)
    res = ldd(eng, order, tau=tau)
    assert (res.labels >= 0).all()  # every vertex got a cluster
    src = np.repeat(np.arange(c.n, dtype=np.int64), np.diff(c.indptr))
    truth = seq_cc(c.n, src, c.indices)
    # two vertices sharing an LDD label must share a component
    for lab in np.unique(res.labels):
        members = np.flatnonzero(res.labels == lab)
        assert len(np.unique(truth[members])) == 1


def _ldd_row_loop(engine, order, tau):
    """Reference LDD that resolves each round's winners one row at a time."""
    n = engine.n
    priority = np.empty(n, dtype=np.int64)
    priority[order] = np.arange(n)
    visited = np.zeros(n, dtype=bool)
    labels = np.full(n, -1, dtype=np.int64)
    f_v, f_l, rounds = [], [], 0
    todo = batches(order, 1.2)[::-1]
    while todo or f_v:
        if todo:
            for v in todo.pop().tolist():
                if not visited[v]:
                    visited[v] = True
                    labels[v] = v
                    f_v.append(v)
                    f_l.append(v)
        if not f_v:
            continue
        params = {"direction": "fwd", "visited": visited, "tau": tau, "two_pass": False}
        frontier = {"v": np.array(f_v, dtype=np.int64), "lab": np.array(f_l, dtype=np.int64)}
        out = pd.DataFrame(engine.round("ldd_reach", frontier, params))
        rounds += 1
        f_v, f_l = [], []
        if len(out):
            out = out.assign(prio=priority[out["lab"].to_numpy()])
            out = out.sort_values("prio", kind="stable")
            explored_any = out.groupby("v")["explored"].max()
            winner = out.drop_duplicates("v", keep="first")
            for v, lab in zip(winner["v"].tolist(), winner["lab"].tolist()):
                if not visited[v]:
                    visited[v] = True
                    labels[v] = lab
                    if not explored_any[v]:
                        f_v.append(v)
                        f_l.append(lab)
                else:
                    f_v.append(v)
                    f_l.append(int(labels[v]))
    return labels, rounds


@pytest.mark.parametrize("name", ZOO_NAMES)
@pytest.mark.parametrize("tau", [1, 8])
@pytest.mark.parametrize("k", [1, 4])
def test_ldd_matches_row_loop(monkeypatch, name, tau, k):
    """The vectorised winner resolution equals a row-by-row loop, also
    when k slices return the same vertex from several tasks (a tiny
    ``GRAIN`` makes the rounds take k slices)."""
    monkeypatch.setattr(enginemod, "GRAIN", 1)
    c = zoo_sym()[name]
    if c.n == 0:
        return
    order = np.random.default_rng(4).permutation(c.n).astype(np.int64)
    e1 = Engine(None, c, Counters(), npartitions=k)
    e2 = Engine(None, c, Counters(), npartitions=k)
    res = ldd(e1, order, tau=tau)
    labels, rounds = _ldd_row_loop(e2, order, tau)
    assert np.array_equal(res.labels, labels)
    assert (res.rounds, e1.counters.rounds, e1.counters.edge_visits) == (
        rounds,
        e2.counters.rounds,
        e2.counters.edge_visits,
    )


def test_ldd_vgc_fewer_rounds():
    c = zoo_sym()["lattice"]
    order = np.random.default_rng(1).permutation(c.n).astype(np.int64)
    e1 = Engine(None, c, Counters())
    r1 = ldd(e1, order, tau=1)
    e2 = Engine(None, c, Counters())
    r2 = ldd(e2, order, tau=512)
    assert r2.rounds <= r1.rounds


def test_ldd_deterministic():
    c = zoo_sym()["knn"]
    order = np.random.default_rng(2).permutation(c.n).astype(np.int64)
    a = ldd(Engine(None, c, Counters()), order, tau=8)
    b = ldd(Engine(None, c, Counters()), order, tau=8)
    assert np.array_equal(a.labels, b.labels)


# -- full LDD-UF-JTB ------------------------------------------------------
@pytest.mark.parametrize("name", ZOO_NAMES)
@pytest.mark.parametrize("variant", ["ours", "dhs21"])
def test_connectivity_matches_oracle(name, variant):
    c = zoo_sym()[name]
    if c.n == 0:
        return
    src = np.repeat(np.arange(c.n, dtype=np.int64), np.diff(c.indptr))
    truth = seq_cc(c.n, src, c.indices)
    r = ldd_uf_jtb(None, csr=c, variant=variant, seed=3)
    assert same_partition(r.labels, truth)
    assert r.n_components == len(np.unique(truth))


@pytest.mark.parametrize("seed", range(5))
def test_connectivity_random(seed):
    c, s, d = sym_random(80, 120, seed + 60)
    truth = seq_cc(80, s, d)
    for variant in ["ours", "dhs21"]:
        r = ldd_uf_jtb(None, csr=c, variant=variant, seed=seed)
        assert same_partition(r.labels, truth)


def test_dhs21_costs_more_visits():
    c = zoo_sym()["lattice"]
    ours = ldd_uf_jtb(None, csr=c, variant="ours", seed=1)
    dhs = ldd_uf_jtb(None, csr=c, variant="dhs21", seed=1)
    assert dhs.counters.edge_visits > ours.counters.edge_visits


def test_cross_cluster_edges_np():
    labels = np.array([5, 5, 9, 9])
    out = cross_cluster_edges_np(np.array([0, 1, 2]), np.array([1, 2, 3]), labels)
    assert set(zip(*(x.tolist() for x in out))) == {(5, 9)}


@settings(max_examples=10, deadline=None)
@given(n=st.integers(2, 50), m=st.integers(0, 150), seed=st.integers(0, 10**6))
def test_property_connectivity(n, m, seed):
    c, s, d = sym_random(n, m, seed)
    truth = seq_cc(n, s, d)
    r = ldd_uf_jtb(None, csr=c, variant="ours", seed=seed % 13)
    assert same_partition(r.labels, truth)


@pytest.mark.spark
@pytest.mark.parametrize("name", ["lattice_sparse", "rmat"])
def test_connectivity_forced_spark_matches_oracle(spark, name):
    """Every ``ldd_reach`` round runs as a Spark job, with the frontier
    split over tasks that each see only their own writes."""
    c = zoo_sym()[name]
    src = np.repeat(np.arange(c.n, dtype=np.int64), np.diff(c.indptr))
    truth = seq_cc(c.n, src, c.indices)
    r = ldd_uf_jtb(spark, csr=c, variant="ours", seed=0, force_spark=True, spark_threshold=0)
    assert same_partition(r.labels, truth)
