"""Engine tests: driver path vs forced-Spark path produce identical
results; rounds and visit counters are accounted on both paths."""
import gc
import importlib
import math
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

from repro.baselines.ispan import ispan_scc
from repro.baselines.multistep import multistep_scc
from repro.cc.connectivity import ldd_uf_jtb
from repro.cc.ldd import ldd
from repro.core import engine as enginemod
from repro.core.counters import Counters
from repro.core.engine import Engine, check_workers, frontier_pdf
from repro.core.kernels import KERNELS
from repro.core.pairtable import PairTable
from repro.core.reach import single_reach
from repro.core.scc import bgss_scc
from repro.lelists.lelists import le_lists
from tests.graph_zoo import zoo, zoo_sym


@pytest.fixture(autouse=True)
def _unfreeze_heap():
    """A round task run in this process freezes its heap (see
    ``engine._round_task``); give the next test a heap the collector walks."""
    yield
    gc.unfreeze()


def test_frontier_pdf_types():
    cols = frontier_pdf(np.array([1, 2, 3], dtype=np.int32))
    assert list(cols) == ["v"]
    assert cols["v"].dtype == np.int64 and cols["v"].tolist() == [1, 2, 3]


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
    assert "visits" not in out
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


@pytest.mark.parametrize("solve", [bgss_scc, ldd_uf_jtb, le_lists, multistep_scc, ispan_scc])
def test_solvers_leave_engine_keywords_to_engine(solve):
    """Only ``Engine`` declares the execution options: a solver forwards
    its extra keywords, so an unknown one fails at ``Engine``."""
    with pytest.raises(TypeError, match=r"Engine\.__init__\(\) got an unexpected keyword"):
        solve(None, csr=zoo_sym()["web"], force_sparks=True)


def test_engine_reads_a_symmetric_graph_as_its_own_transpose():
    """A symmetric graph's kernels read G for Gᵀ: the engine holds no copy."""
    c = zoo_sym()["web"]
    g = Engine(None, c, Counters())._local_g
    assert g[2] is c.indptr and g[3] is c.indices


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
        task = enginemod._round_task(SimpleNamespace(value=g))
        element = ({0: ("sparse_reach", params)}, [(0, {"v": np.array([0])})])
        [(qi, cols, _)] = list(task(0, iter([element])))
        assert qi == 0 and len(cols["v"]) > 0
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


def test_task_freezes_the_worker_heap_once(monkeypatch):
    """A reused worker's first task moves its heap to the permanent
    generation, which the ``gc.collect()`` PySpark runs after every task
    skips; its later tasks freeze nothing more."""
    gc.unfreeze()
    monkeypatch.setattr(enginemod, "_heap_frozen", False)
    c = zoo()["path"]
    g = Engine(None, c, Counters())._local_g
    params = {"direction": "fwd", "visited": np.zeros(c.n, bool), "tau": 1, "two_pass": False}
    element = ({0: ("sparse_reach", params)}, [(0, {"v": np.array([0])})])
    task = enginemod._round_task(SimpleNamespace(value=g))
    before = gc.get_freeze_count()
    list(task(0, iter([element])))
    assert gc.get_freeze_count() > before
    made_since = [[] for _ in range(8)]  # tracked objects a second freeze would take
    list(task(0, iter([element])))
    walked = {id(o) for o in gc.get_objects()}  # every generation but the frozen one
    assert id(element[1]) not in walked
    assert all(id(x) in walked for x in made_since)


def test_task_pushes_acks_before_reading_input(monkeypatch):
    """An executor task pushes pending ACKs before it pulls its first
    input row: the JVM's data segment is held until that ACK."""
    pushed = []
    monkeypatch.setattr(enginemod, "_push_acks", lambda: pushed.append(True))
    c = zoo()["path"]
    g = Engine(None, c, Counters())._local_g
    params = {"direction": "fwd", "visited": np.zeros(c.n, bool), "tau": 1, "two_pass": False}
    seen_at_first_row = []

    def elements():
        seen_at_first_row.append(bool(pushed))
        yield {0: ("sparse_reach", params)}, [(0, {"v": np.array([0])})]

    task = enginemod._round_task(SimpleNamespace(value=g))
    assert [qi for qi, _, _ in task(0, elements())] == [0]
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
    assert np.unique(a["v"]).tolist() == np.unique(b["v"]).tolist()
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
    }
    vs = np.array([0, 3, 9], dtype=np.int64)
    pdf = {"v": vs, "s": vs}
    e1 = Engine(None, c, Counters())
    a = e1.round("multi_reach", pdf, params)
    e2 = Engine(spark, c, Counters(), force_spark=True, spark_threshold=0)
    b = e2.round("multi_reach", pdf, params)
    assert set(zip(a["v"].tolist(), a["s"].tolist())) == set(
        zip(b["v"].tolist(), b["s"].tolist())
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
    """A ``sparse_reach`` query from vertices ``0..rows-1``, visited as
    ``single_reach`` leaves a frontier."""
    visited = np.zeros(n, dtype=bool)
    visited[:rows] = True
    params = {"direction": direction, "visited": visited, "tau": 1, "two_pass": False}
    return "sparse_reach", frontier_pdf(np.arange(rows)), params


def test_slice_count_rule(monkeypatch):
    """k = clamp(ceil(work / GRAIN), 1, npartitions): 1 below GRAIN,
    growing with the estimated work, capped at ``npartitions``.  Before a
    kernel's first round the estimate is its rows; after it, that round's
    visits scaled by the rows' growth, at most ``MAX_GROWTH`` times."""
    c = zoo()["lattice"]
    eng = Engine(None, c, Counters())
    assert eng.npartitions == enginemod.SPARK_SLICES
    fwd = lambda rows: _sparse_query(c.n, "fwd", rows)  # noqa: E731
    assert eng.slice_count([fwd(c.n)]) == 1  # c.n < GRAIN
    monkeypatch.setattr(enginemod, "GRAIN", 10)
    assert [eng.slice_count([fwd(r)]) for r in (1, 10, 11, 20, 21, 30, 31, 40, 64)] == [
        1, 1, 2, 2, 3, 3, 4, 4, 4,
    ]
    assert eng.slice_count([fwd(11), _sparse_query(c.n, "bwd", 10)]) == 3
    assert Engine(None, c, Counters(), npartitions=2).slice_count([fwd(64)]) == 2
    wide = Engine(None, c, Counters(), npartitions=64)
    wide.run([fwd(4)])  # one slice of four rows
    visits = wide.counters.edge_visits
    assert visits > 4
    for rows in (1, 4, 8, 16, 64):
        want = math.ceil(visits * min(rows / 4, enginemod.MAX_GROWTH) / 10)
        assert wide.slice_count([fwd(rows)]) == want
    assert wide.slice_count([("dense_reach", frontier_pdf(np.arange(25)), {})]) == 3


def test_slice_count_repeats_exactly(monkeypatch):
    """Two engines given the same rounds choose the same k every round and
    count the same visits: the rule reads counts, never timing."""
    monkeypatch.setattr(enginemod, "GRAIN", 8)
    c = zoo_sym()["web"]
    order = np.random.default_rng(5).permutation(c.n).astype(np.int64)
    ks = []
    for _ in range(2):
        eng = Engine(None, c, Counters())
        seen = []
        monkeypatch.setattr(eng, "slice_count", _recording(eng.slice_count, seen))
        ldd(eng, order, tau=8)
        ks.append((seen, eng.counters.edge_visits))
    assert ks[0] == ks[1]
    assert {1, 4} <= set(ks[0][0])


def _recording(fn, out: list):
    def wrapped(*a):
        out.append(fn(*a))
        return out[-1]

    return wrapped


@pytest.mark.spark
def test_slice_count_same_on_both_paths(spark, monkeypatch):
    """The Spark path and the driver path choose the same k in every round
    of one search, with the same default cap, so every counter and row
    matches."""
    monkeypatch.setattr(enginemod, "GRAIN", 8)
    c = zoo_sym()["web"]
    order = np.random.default_rng(5).permutation(c.n).astype(np.int64)
    runs = []
    for eng in (
        Engine(None, c, Counters()),
        Engine(spark, c, Counters(), force_spark=True, spark_threshold=0),
    ):
        seen = []
        monkeypatch.setattr(eng, "slice_count", _recording(eng.slice_count, seen))
        try:
            labels = ldd(eng, order, tau=8).labels.tolist()
        finally:
            eng.close()
        runs.append((eng.npartitions, seen, eng.counters.rounds, eng.counters.edge_visits, labels))
    assert runs[0] == runs[1]
    assert {1, 4} <= set(runs[0][1])


@pytest.mark.spark
def test_engine_warms_spark_slices_workers(spark, monkeypatch):
    """``Engine`` checks ``SPARK_SLICES`` workers even though its small
    rounds run one task: a later round can land on any of them, and a
    worker that has not imported ``repro.core.engine`` makes it slow."""
    tasks = []
    monkeypatch.setattr(
        enginemod, "check_workers", lambda s, n: tasks.append(n) or check_workers(s, n)
    )
    c = zoo()["lattice"]
    eng = Engine(spark, c, Counters(), force_spark=True, spark_threshold=0)
    try:
        query = [_sparse_query(c.n, "fwd", 8)]
        assert eng.slice_count(query) == 1
        eng.run(query)
    finally:
        eng.close()
    assert tasks == [enginemod.SPARK_SLICES]


def _one_round_job(spark, group: str) -> tuple[int, int]:
    """Run a fused forward + backward round of 64-row frontiers on both
    paths; check that the Spark round's rows equal the driver path's and
    that it ran as one job with one stage; return the job's id and the
    stage's task count."""
    sc = spark.sparkContext
    c = zoo()["lattice"]
    queries = [_sparse_query(c.n, "fwd", 64), _sparse_query(c.n, "bwd", 64)]
    want = Engine(None, c, Counters()).run(queries)
    eng = Engine(spark, c, Counters(), force_spark=True, spark_threshold=0)
    sc.setJobGroup(group, "one round")
    try:
        got = eng.run(queries)
        assert sc.getLocalProperty("spark.job.description") == "one round"
    finally:
        sc._jsc.clearJobGroup()
        eng.close()
    for a, b in zip(want, got):
        pd.testing.assert_frame_equal(pd.DataFrame(a), pd.DataFrame(b))
    sc._jsc.sc().listenerBus().waitUntilEmpty()  # job events reach the status store
    tracker = sc.statusTracker()
    jobs = tracker.getJobIdsForGroup(group)
    assert len(jobs) == 1
    stages = tracker.getJobInfo(jobs[0]).stageIds
    assert len(stages) == 1
    return jobs[0], tracker.getStageInfo(stages[0]).numTasks


@pytest.mark.spark
def test_spark_round_is_one_job_one_stage(spark):
    """One round is one barrier: a fused forward + backward call runs a
    single Spark job with a single stage (no shuffle), described as
    ``<kernels>/r<round>``; its small frontiers make it exactly one task,
    and its rows equal the driver path's."""
    job, tasks = _one_round_job(spark, "test-one-job-per-round")
    assert tasks == 1
    desc = spark.sparkContext._jsc.sc().statusStore().job(job).description()
    assert desc.isDefined() and desc.get() == "sparse_reach+sparse_reach/r1"


@pytest.mark.spark
def test_spark_round_of_four_tasks_is_one_job_one_stage(spark, monkeypatch):
    """A round that takes four slices is still one job with one stage, now
    of four tasks, and its rows come back in slice order, equal to the
    driver path's.  A tiny ``GRAIN`` makes the round take all four."""
    monkeypatch.setattr(enginemod, "GRAIN", 1)
    _, tasks = _one_round_job(spark, "test-four-task-round")
    assert tasks == 4


@pytest.mark.spark
def test_engine_close_unlinks_broadcast_file(spark):
    """Closing an engine removes its graph broadcast's pickle file from
    the SparkContext temp dir."""
    tmp = spark.sparkContext._temp_dir
    before = len(os.listdir(tmp))
    Engine(spark, zoo()["web"], Counters(), force_spark=True).close()
    assert len(os.listdir(tmp)) == before


@pytest.mark.spark
def test_engine_block_that_raises_unlinks_broadcast_file(spark):
    """Leaving a ``with Engine(...)`` block by an exception closes the
    engine, which removes its graph broadcast's pickle file, and the
    exception propagates."""
    Engine(spark, zoo()["path"], Counters()).close()  # worker check done
    tmp = spark.sparkContext._temp_dir
    before = len(os.listdir(tmp))
    with pytest.raises(RuntimeError, match="body"):
        with Engine(spark, zoo()["web"], Counters(), force_spark=True) as eng:
            assert len(os.listdir(tmp)) > before
            raise RuntimeError("body")
    assert eng.gb is None
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


class _JvmView:
    """Records every attribute lookup and call made through it, as each
    one would be a Py4J call on a real JVM view."""

    def __init__(self, log: list, path: str = "jvm"):
        self._log, self._path = log, path

    def __getattr__(self, name):
        self._log.append(f"{self._path}.{name}")
        return _JvmView(self._log, f"{self._path}.{name}")

    def __call__(self, *args):
        self._log.append(f"{self._path}()")
        return _JvmView(self._log, f"{self._path}()")


class _FakeContext:
    """A SparkContext stand-in that runs the import check in this process
    and counts its jobs; reading its ``applicationId`` fails."""

    def __init__(self):
        self.jobs = 0
        self.lookups: list = []
        self._jvm = _JvmView(self.lookups)

    @property
    def applicationId(self):
        raise AssertionError("applicationId costs Py4J calls")

    def parallelize(self, data, _slices):
        self.jobs += 1
        return SimpleNamespace(map=lambda f: SimpleNamespace(collect=lambda: [f(x) for x in data]))


def test_worker_check_and_jvm_handles_are_per_context(monkeypatch):
    """Each SparkContext object gets one worker check and one lookup of
    its JVM handles, however many Engines use it; a new context gets its
    own of both, without reading ``applicationId``."""
    monkeypatch.setattr(enginemod, "_checked_contexts", set())
    monkeypatch.setattr(enginemod, "_handles", {})
    handles = []
    for sc in (_FakeContext(), _FakeContext()):
        session = SimpleNamespace(sparkContext=sc)
        check_workers(session, 2)
        handles.append(enginemod._jvm_handles(sc))
        looked = len(sc.lookups)
        check_workers(session, 2)
        assert enginemod._jvm_handles(sc) is handles[-1]
        assert sc.jobs == 1 and len(sc.lookups) == looked > 0
    assert handles[0] is not handles[1]


@pytest.mark.spark
def test_engines_share_their_contexts_jvm_handles(spark, monkeypatch):
    """Two Engines on one session look the JVM handles up once between
    them, and both run their Spark rounds with them."""

    class Counting(dict):
        made = 0

        def __setitem__(self, key, value):
            Counting.made += 1
            super().__setitem__(key, value)

    monkeypatch.setattr(enginemod, "_handles", Counting())
    c = zoo()["lattice"]
    for _ in range(2):
        eng = Engine(spark, c, Counters(), force_spark=True, spark_threshold=0)
        try:
            eng.run([_sparse_query(c.n, "fwd", 8)])
        finally:
            eng.close()
        assert eng.counters.rounds == 1
    assert Counting.made == 1


def _round_case(name: str):
    """A frontier and params for one round of kernel ``name`` that takes
    both the one-hop path (out-degree > tau) and the local search.  Like
    every caller's, the frontier is visited (its pairs are in the pair
    table) and not finished."""
    c = zoo_sym()["web"] if name == "ldd_reach" else zoo()["web"]
    n = c.n
    g = np.random.default_rng(3)
    vs = np.sort(g.choice(n, 24, replace=False)).astype(np.int64)
    visited = np.zeros(n, dtype=bool)
    visited[vs] = True
    if name == "sparse_reach":
        params = {
            "direction": "bwd",
            "visited": visited,
            "tau": 8,
            "two_pass": True,
            "finished": ~visited & (g.random(n) < 0.1),
            "restrict": g.integers(0, 2, n),
        }
        return c, frontier_pdf(vs), params
    if name == "dense_reach":
        params = {"direction": "fwd", "in_frontier": visited, "finished": None, "restrict": None}
        return c, frontier_pdf(np.flatnonzero(~visited)), params
    if name == "multi_reach":
        table = PairTable(n)
        table.insert(vs * n + vs % 5)
        params = {
            "direction": "fwd",
            "tau": 8,
            "two_pass": True,
            "labels": g.integers(0, 2, n),
            "finished": ~visited & (g.random(n) < 0.1),
            "table_keys": table.snapshot(),
        }
        return c, {"v": vs, "s": vs % 5}, params
    if name == "ldd_reach":
        params = {"direction": "fwd", "visited": visited, "tau": 8, "two_pass": True}
        return c, {"v": vs, "lab": vs % 7}, params
    params = {"colors": g.permutation(n).astype(np.int64), "active": g.random(n) < 0.8}
    return c, frontier_pdf(vs), params


@pytest.mark.spark
@pytest.mark.parametrize("k", [1, 3, 4])
@pytest.mark.parametrize("name", list(KERNELS))
def test_spark_round_equals_driver_round(spark, monkeypatch, name, k):
    """With the same slice count k both paths run the kernel over the same
    slices, so the rows, their order, their dtypes and the visit count
    match.  A tiny ``GRAIN`` makes the round take all k slices."""
    monkeypatch.setattr(enginemod, "GRAIN", 1)
    c, pdf, params = _round_case(name)
    e1 = Engine(None, c, Counters(), npartitions=k)
    e2 = Engine(spark, c, Counters(), force_spark=True, spark_threshold=0, npartitions=k)
    try:
        a = e1.round(name, pdf, params)
        b = e2.round(name, pdf, params)
    finally:
        e2.close()
    assert len(a["v"]) > 0
    assert all(isinstance(x, np.ndarray) for x in (*a.values(), *b.values()))
    pd.testing.assert_frame_equal(pd.DataFrame(a), pd.DataFrame(b))
    assert e1.counters.edge_visits == e2.counters.edge_visits


@pytest.mark.parametrize("name", list(KERNELS))
def test_round_concatenates_its_slices(monkeypatch, name):
    """A round's columns are the kernel's output on each slice, concatenated
    in slice order, and its visit count is the sum of the slices'.  A tiny
    ``GRAIN`` makes the round take three slices."""
    monkeypatch.setattr(enginemod, "GRAIN", 1)
    c, pdf, params = _round_case(name)
    eng = Engine(None, c, Counters(), npartitions=3)
    g = eng._local_g
    outs = [KERNELS[name](sl, g, params) for sl in enginemod._slices(pdf, 3)]
    want = pd.concat([pd.DataFrame(o) for o, _ in outs], ignore_index=True)
    pd.testing.assert_frame_equal(pd.DataFrame(eng.round(name, pdf, params)), want)
    assert len(outs) == 3 and len(want) > 0
    assert eng.counters.edge_visits == sum(v for _, v in outs)


@pytest.mark.spark
def test_engine_wraps_its_task_command_once(spark, monkeypatch):
    """An ``Engine`` pickles and wraps its task command once, however many
    rounds it runs."""
    wrapped = []
    wrap = enginemod._wrap_function
    monkeypatch.setattr(enginemod, "_wrap_function", lambda *a: wrapped.append(a) or wrap(*a))
    c = zoo()["lattice"]
    eng = Engine(spark, c, Counters(), force_spark=True, spark_threshold=0)
    try:
        for rows in (1, 8, 64):
            eng.run([_sparse_query(c.n, "fwd", rows), _sparse_query(c.n, "bwd", rows)])
    finally:
        eng.close()
    assert eng.counters.rounds == 3
    assert len(wrapped) == 1


@pytest.mark.spark
def test_round_input_files_are_unlinked(spark, monkeypatch):
    """Each round's input file is gone once the round returns, on a
    one-task and a four-task round alike; ``close`` leaves the temp dir
    as it found it."""
    monkeypatch.setattr(enginemod, "GRAIN", 1)
    tmp = spark.sparkContext._temp_dir
    before = len(os.listdir(tmp))
    c = zoo()["lattice"]
    eng = Engine(spark, c, Counters(), force_spark=True, spark_threshold=0)
    made = len(os.listdir(tmp))
    try:
        for npart in (1, 4):
            eng.npartitions = npart
            eng.run([_sparse_query(c.n, "fwd", 16)])
            assert len(os.listdir(tmp)) == made
    finally:
        eng.close()
    assert len(os.listdir(tmp)) == before


@pytest.mark.spark
def test_kernel_error_in_task_raises_on_driver(spark, monkeypatch):
    """A kernel that raises inside a Spark task fails the round on the
    driver with an error naming the Python exception, and the caller's
    job description is restored."""

    def boom(cols, g, params):
        raise ValueError("kernel boom")

    monkeypatch.setitem(enginemod.KERNELS, "sparse_reach", boom)
    sc = spark.sparkContext
    c = zoo()["path"]
    eng = Engine(spark, c, Counters(), force_spark=True, spark_threshold=0)
    sc.setJobDescription("caller")
    try:
        with pytest.raises(Exception, match="ValueError: kernel boom"):
            eng.run([_sparse_query(c.n, "fwd", 1)])
        assert sc.getLocalProperty("spark.job.description") == "caller"
    finally:
        sc.setJobDescription(None)
        eng.close()


@pytest.mark.spark
def test_engine_refuses_io_encryption(spark, monkeypatch):
    """With ``spark.io.encryption.enabled`` an ``Engine`` fails when it is
    made, in one named error, before it broadcasts anything."""
    sc = spark.sparkContext
    tmp = sc._temp_dir
    before = len(os.listdir(tmp))
    monkeypatch.setattr(sc, "_encryption_enabled", True)
    with pytest.raises(RuntimeError, match="spark.io.encryption.enabled"):
        Engine(spark, zoo()["path"], Counters(), force_spark=True)
    assert len(os.listdir(tmp)) == before
