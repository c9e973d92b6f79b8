"""Engine tests: driver path vs forced-Spark path produce identical
results; rounds and visit counters are accounted on both paths."""
import importlib
import os
import socket
import sys
import zipfile
import zipimport
from importlib.machinery import FileFinder
from types import SimpleNamespace

import numpy as np
import pandas as pd
import pytest

from repro.core import engine as enginemod
from repro.core.counters import Counters
from repro.core.csr import GraphBroadcast
from repro.core.engine import Engine, frontier_pdf, pair_pdf
from repro.core.kernels import KERNELS
from repro.core.pairtable import PairTable
from repro.core.reach import single_reach
from tests.graph_zoo import zoo, zoo_sym


def test_frontier_pdf_types():
    pdf = frontier_pdf(np.array([1, 2, 3]))
    assert pdf["v"].dtype == np.int64


def test_pair_pdf_types():
    pdf = pair_pdf(np.array([1]), np.array([2]))
    assert set(pdf.columns) == {"v", "s"}


def test_rounds_increment_on_driver_path():
    c = zoo()["path"]
    eng = Engine(None, c, Counters())
    eng.round(
        "sparse_reach",
        frontier_pdf(np.array([0])),
        {
            "direction": "fwd",
            "visited": np.array([True] + [False] * 5),
            "tau": 1,
            "two_pass": False,
        },
    )
    assert eng.counters.rounds == 1
    assert eng.counters.edge_visits == 1


def test_visits_stripped_from_output():
    c = zoo()["path"]
    eng = Engine(None, c, Counters())
    out = eng.round(
        "sparse_reach",
        frontier_pdf(np.array([0])),
        {
            "direction": "fwd",
            "visited": np.array([True] + [False] * 5),
            "tau": 1,
            "two_pass": False,
        },
    )
    assert "visits" not in out.columns
    assert (out["v"] >= 0).all()


def test_time_budget_zero_raises():
    c = zoo()["path"]
    eng = Engine(None, c, Counters(), time_budget_s=0.0)
    with pytest.raises(TimeoutError):
        eng.round(
            "sparse_reach",
            frontier_pdf(np.array([0])),
            {"direction": "fwd", "visited": np.zeros(6, bool), "tau": 1, "two_pass": False},
        )


def test_task_drops_cached_zip_importers(tmp_path):
    """An executor task ends with no ``zipimporter`` in
    ``sys.path_importer_cache`` (the next task's
    ``importlib.invalidate_caches()`` would re-read each archive); other
    finders stay, and the archive still imports."""
    archive = str(tmp_path / "mods.zip")
    with zipfile.ZipFile(archive, "w") as z:
        z.writestr("zip_mod_a.py", "A = 1\n")
        z.writestr("zip_mod_b.py", "B = 2\n")
    saved_path, saved_cache = list(sys.path), dict(sys.path_importer_cache)
    sys.path.insert(0, archive)
    try:
        importlib.import_module("zip_mod_a")
        assert isinstance(sys.path_importer_cache[archive], zipimport.zipimporter)
        c = zoo()["path"]
        g = Engine(None, c, Counters())._local_g
        params = {"direction": "fwd", "visited": np.zeros(c.n, bool), "tau": 1, "two_pass": False}
        task = enginemod._make_task(
            SimpleNamespace(value=g), [KERNELS["sparse_reach"]], [params]
        )
        [(qi, out)] = list(task(iter([(0, frontier_pdf(np.array([0])))])))
        assert qi == 0 and len(out) > 0
        finders = sys.path_importer_cache.values()
        assert not any(isinstance(f, zipimport.zipimporter) for f in finders)
        assert any(isinstance(f, FileFinder) for f in finders)
        assert importlib.import_module("zip_mod_b").__file__.startswith(archive)
    finally:
        sys.path[:] = saved_path
        sys.path_importer_cache.clear()
        sys.path_importer_cache.update(saved_cache)
        sys.modules.pop("zip_mod_a", None)
        sys.modules.pop("zip_mod_b", None)


@pytest.mark.skipif(not hasattr(socket, "TCP_QUICKACK"), reason="no TCP_QUICKACK")
def test_push_acks_sets_quickack_on_tcp_sockets_only():
    """A loopback TCP socket in delayed-ACK mode leaves ``_push_acks``
    in quick-ACK mode; a Unix socket pair and a pipe stay open and
    usable, and no descriptor is closed."""
    q = socket.TCP_QUICKACK
    with socket.create_server(("127.0.0.1", 0)) as srv:
        client = socket.create_connection(srv.getsockname())
        conn, _ = srv.accept()
    u1, u2 = socket.socketpair()
    r, w = os.pipe()
    try:
        conn.setsockopt(socket.IPPROTO_TCP, q, 0)
        assert conn.getsockopt(socket.IPPROTO_TCP, q) == 0
        fds = set(os.listdir("/proc/self/fd"))
        enginemod._push_acks()
        assert conn.getsockopt(socket.IPPROTO_TCP, q) == 1
        assert fds <= set(os.listdir("/proc/self/fd"))
        u1.sendall(b"u")
        assert u2.recv(1) == b"u"
        os.write(w, b"p")
        assert os.read(r, 1) == b"p"
        client.sendall(b"t")
        assert conn.recv(1) == b"t"
    finally:
        for s in (client, conn, u1, u2):
            s.close()
        os.close(r)
        os.close(w)


def test_task_pushes_acks_before_reading_input(monkeypatch):
    """An executor task pushes pending ACKs before it pulls its first
    input row: the JVM's data segment is held until that ACK."""
    pushed = []
    monkeypatch.setattr(enginemod, "_push_acks", lambda: pushed.append(True))
    c = zoo()["path"]
    g = Engine(None, c, Counters())._local_g
    params = {"direction": "fwd", "visited": np.zeros(c.n, bool), "tau": 1, "two_pass": False}
    seen_at_first_row = []

    def items():
        seen_at_first_row.append(bool(pushed))
        yield 0, frontier_pdf(np.array([0]))

    task = enginemod._make_task(SimpleNamespace(value=g), [KERNELS["sparse_reach"]], [params])
    assert [qi for qi, _ in task(items())] == [0]
    assert seen_at_first_row == [True]


@pytest.mark.spark
def test_spark_equals_driver_dense_round(spark):
    """A dense round treats every candidate row independently, so one
    driver call and partitioned tasks must emit exactly the same set."""
    c = zoo()["lattice"]
    visited = np.zeros(c.n, dtype=bool)
    visited[[0, 1, 2]] = True
    pdf = frontier_pdf(np.flatnonzero(~visited))
    params = {"direction": "fwd", "in_frontier": visited.copy()}
    e1 = Engine(None, c, Counters())
    a = e1.round("dense_reach", pdf, params)
    e2 = Engine(spark, c, Counters(), force_spark=True, spark_threshold=0)
    b = e2.round("dense_reach", pdf, params)
    assert sorted(a["v"].unique().tolist()) == sorted(b["v"].unique().tolist())
    assert e1.counters.edge_visits == e2.counters.edge_visits
    e2.close()


@pytest.mark.spark
def test_spark_sparse_round_fixpoint_invariant(spark):
    """A *single* sparse round may discover different (overlapping) sets
    depending on how sources share tau budgets across tasks — only the
    search fixpoint is path-invariant.  Check both properties: the round
    output is a subset of the true reachable set, and the fixpoint
    matches the driver path exactly."""
    from repro.core.reach import single_reach

    c = zoo()["lattice"]
    srcs = np.array([0, 1, 2])
    e1 = Engine(None, c, Counters())
    truth = single_reach(e1, srcs, tau=4, dense=False).visited
    e2 = Engine(spark, c, Counters(), force_spark=True, spark_threshold=0)
    got = single_reach(e2, srcs, tau=4, dense=False).visited
    assert np.array_equal(truth, got)
    e2.close()


@pytest.mark.spark
def test_spark_equals_driver_multi(spark):
    c = zoo()["web"]
    table = PairTable(c.n)
    params = {
        "direction": "fwd",
        "tau": 8,
        "two_pass": False,
        "labels": np.zeros(c.n, dtype=np.int64),
        "finished": np.zeros(c.n, dtype=bool),
        "table_keys": table.snapshot(),
        "n": c.n,
    }
    pdf = pair_pdf(np.array([0, 3, 9]), np.array([0, 3, 9]))
    e1 = Engine(None, c, Counters())
    a = e1.round("multi_reach", pdf, params)
    e2 = Engine(spark, c, Counters(), force_spark=True, spark_threshold=0)
    b = e2.round("multi_reach", pdf, params)
    assert set(map(tuple, a[["v", "s"]].to_numpy())) == set(
        map(tuple, b[["v", "s"]].to_numpy())
    )
    e2.close()


@pytest.mark.spark
def test_spark_threshold_routes_small_frontiers_to_driver(spark):
    """Below the threshold no Spark job should run; behaviour identical."""
    c = zoo()["path"]
    eng = Engine(spark, c, Counters(), force_spark=False, spark_threshold=10_000)
    r = single_reach(eng, np.array([0]), tau=512)
    assert r.visited.all()
    eng.close()


@pytest.mark.spark
def test_reach_spark_full_graph(spark):
    c = zoo()["knn"]
    e1 = Engine(None, c, Counters())
    a = single_reach(e1, np.array([0]), tau=16)
    e2 = Engine(spark, c, Counters(), force_spark=True, spark_threshold=0)
    b = single_reach(e2, np.array([0]), tau=16)
    assert np.array_equal(a.visited, b.visited)
    e2.close()


def _sparse_query(n: int, direction: str, rows: int):
    params = {
        "direction": direction,
        "visited": np.zeros(n, dtype=bool),
        "tau": 1,
        "two_pass": False,
    }
    return "sparse_reach", frontier_pdf(np.arange(rows)), params


@pytest.mark.spark
def test_spark_round_is_one_job_one_stage(spark):
    """One round is one barrier: a fused forward + backward call runs a
    single Spark job with a single stage (no shuffle) and at most
    ``npartitions`` tasks, described as ``<kernels>/r<round>``; its rows
    equal the driver path's."""
    sc = spark.sparkContext
    c = zoo()["lattice"]
    queries = [_sparse_query(c.n, "fwd", 64), _sparse_query(c.n, "bwd", 64)]
    want = Engine(None, c, Counters(), npartitions=4).run(queries)
    eng = Engine(spark, c, Counters(), force_spark=True, spark_threshold=0)
    group = "test-one-job-per-round"
    sc.setJobGroup(group, "one round")
    try:
        got = eng.run(queries)
        assert sc.getLocalProperty("spark.job.description") == "one round"
    finally:
        sc._jsc.clearJobGroup()
        eng.close()
    for a, b in zip(want, got):
        pd.testing.assert_frame_equal(a, b)
    sc._jsc.sc().listenerBus().waitUntilEmpty()  # job events reach the status store
    tracker = sc.statusTracker()
    jobs = tracker.getJobIdsForGroup(group)
    assert len(jobs) == 1
    stages = tracker.getJobInfo(jobs[0]).stageIds
    assert len(stages) == 1
    assert tracker.getStageInfo(stages[0]).numTasks <= eng.npartitions
    desc = sc._jsc.sc().statusStore().job(jobs[0]).description()
    assert desc.isDefined() and desc.get() == "sparse_reach+sparse_reach/r1"


@pytest.mark.spark
def test_engine_close_unlinks_broadcast_file(spark):
    """Closing an engine removes its graph broadcast's pickle file from
    the SparkContext temp dir."""
    tmp = spark.sparkContext._temp_dir
    before = len(os.listdir(tmp))
    Engine(spark, zoo()["web"], Counters(), force_spark=True).close()
    assert len(os.listdir(tmp)) == before


@pytest.mark.spark
def test_failed_engine_init_unlinks_broadcast_file(spark, monkeypatch):
    """An ``Engine.__init__`` that fails after broadcasting the graph
    destroys the broadcast before raising."""
    Engine(spark, zoo()["path"], Counters()).close()  # worker check done
    tmp = spark.sparkContext._temp_dir
    before = len(os.listdir(tmp))

    def boom(self):
        raise RuntimeError("boom")

    monkeypatch.setattr(GraphBroadcast, "local_value", boom)
    with pytest.raises(RuntimeError, match="boom"):
        Engine(spark, zoo()["web"], Counters(), force_spark=True)
    assert len(os.listdir(tmp)) == before


@pytest.mark.spark
def test_worker_check_runs_once_per_context(spark):
    """The executor import check is cached per SparkContext: a second
    ``Engine`` on the same session launches no job."""
    sc = spark.sparkContext
    Engine(spark, zoo()["path"], Counters()).close()
    group = "test-worker-check-once"
    sc.setJobGroup(group, "second engine")
    try:
        Engine(spark, zoo()["path"], Counters()).close()
    finally:
        sc._jsc.clearJobGroup()
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    assert list(sc.statusTracker().getJobIdsForGroup(group)) == []


@pytest.mark.spark
def test_worker_check_names_the_executors_path(spark, monkeypatch):
    """Executors importing ``repro`` from another file than the driver
    fail the check in one line naming the file they got."""
    got = os.path.realpath(enginemod.repro.__file__)
    monkeypatch.setattr(enginemod, "_checked_contexts", set())
    monkeypatch.setattr(enginemod, "repro", SimpleNamespace(__file__="/elsewhere/repro.py"))
    with pytest.raises(RuntimeError) as e:
        enginemod.check_workers(spark, 2)
    assert got in str(e.value) and "\n" not in str(e.value)


def _round_case(name: str):
    """A frontier and params for one round of kernel ``name`` that takes
    both the one-hop path (out-degree > tau) and the local search."""
    c = zoo_sym()["web"] if name in ("ldd_reach", "lelists_round") else zoo()["web"]
    n = c.n
    g = np.random.default_rng(3)
    vs = np.sort(g.choice(n, 24, replace=False)).astype(np.int64)
    visited = np.zeros(n, dtype=bool)
    visited[vs] = True
    table = PairTable(n)
    for v in vs[:6].tolist():
        table.insert(v, v)
    if name == "sparse_reach":
        params = {
            "direction": "bwd",
            "visited": visited,
            "tau": 8,
            "two_pass": True,
            "finished": g.random(n) < 0.1,
            "restrict": g.integers(0, 2, n),
        }
        return c, frontier_pdf(vs), params
    if name == "dense_reach":
        params = {"direction": "fwd", "in_frontier": visited, "finished": None, "restrict": None}
        return c, frontier_pdf(np.flatnonzero(~visited)), params
    if name == "multi_reach":
        params = {
            "direction": "fwd",
            "tau": 8,
            "two_pass": True,
            "labels": g.integers(0, 2, n),
            "finished": g.random(n) < 0.1,
            "table_keys": table.snapshot(),
            "n": n,
        }
        return c, pair_pdf(vs, vs % 5), params
    if name == "ldd_reach":
        params = {"visited": visited, "tau": 8, "two_pass": True}
        return c, pd.DataFrame({"v": vs, "lab": vs % 7}), params
    if name == "lelists_round":
        delta = np.where(g.random(n) < 0.2, 1, np.iinfo(np.int64).max)
        params = {"delta": delta, "d": 1, "table_keys": table.snapshot(), "n": n, "two_pass": True}
        return c, pair_pdf(vs, vs), params
    params = {"colors": g.permutation(n).astype(np.int64), "active": g.random(n) < 0.8}
    return c, frontier_pdf(vs), params


@pytest.mark.spark
@pytest.mark.parametrize("k", [1, 3, 4])
@pytest.mark.parametrize("name", list(KERNELS))
def test_spark_round_equals_driver_round(spark, name, k):
    """With the same slice count k both paths run the kernel over the same
    slices, so the rows, their order, their dtypes and the visit count
    match."""
    c, pdf, params = _round_case(name)
    e1 = Engine(None, c, Counters(), npartitions=k)
    e2 = Engine(spark, c, Counters(), force_spark=True, spark_threshold=0, npartitions=k)
    try:
        a = e1.round(name, pdf, params)
        b = e2.round(name, pdf, params)
    finally:
        e2.close()
    assert len(a) > 0
    pd.testing.assert_frame_equal(a, b)
    assert e1.counters.edge_visits == e2.counters.edge_visits
