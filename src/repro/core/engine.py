"""Round engine: one call == one frontier round == one global barrier.

A round takes one or more *queries* ``(kernel, frontier, params)``, each
frontier a :data:`~repro.core.kernels.Cols` dict of numpy columns (``v``
first), runs each kernel from ``repro.core.kernels`` over its frontier
and returns each query's candidate rows in the same form.  The driver
cuts every frontier's columns into contiguous slices and calls the
kernel once per slice, so the slicing, and with it every task-local
dedupe and counter, is the same on both execution paths; it concatenates
the slices' candidate columns in slice order and adds their visit counts
to ``Counters.edge_visits``:

- **Spark path** — one Spark job with one stage and at most k tasks,
  submitted straight to the JVM.  Each ``Engine`` broadcasts its graph's
  :meth:`~repro.core.csr.CSR.arrays` once, when it is made, and wraps
  one constant task command, :func:`_round_task` over that broadcast, as a
  ``PythonFunction`` in its first Spark round and keeps it for the rest;
  the JVM class handles it submits through are looked up once per
  SparkContext (:func:`_jvm_handles`).  A round dumps one input element
  per task (that task's ``(qi, slice)`` list and its queries' kernel
  names and params, each query once) to a temp file, reads it with
  ``PythonRDD.readRDDFromFile``, wraps it in a ``PythonRDD``, runs
  ``AsyncRDDActions(rdd).collectAsync().get()``, which returns the
  partitions' rows in partition order, and loads them from the socket of
  ``PythonRDD.serveIterator``.  Building a PySpark RDD instead
  (``parallelize → mapPartitions → collect``) cost about 34 Py4J calls
  and a cloudpickled closure per round.  One round is exactly one
  barrier, the analogue of the paper's fork-join round whose fixed
  overhead is what VGC amortizes.  Searches that only read shared state
  (a batch's forward and backward searches) share a round.  Each job is
  described as ``<kernel>[+<kernel>...]/r<round>`` in the Spark UI and
  event log.  Sessions with ``spark.io.encryption.enabled``, where
  PySpark sends data through a socket server instead of a file, are
  refused when the ``Engine`` is made.
- **Driver path** — the kernel is called directly on the same slices
  and the same arrays.
  This is ordinary horizontal granularity control (don't distribute tiny
  work) and is used by unit tests; **the table runner forces the Spark
  path for every algorithm whenever it has a session**
  (``force_spark=True``) so all competitors pay the same barrier cost.

The slice count k is sized to the round's work, by one rule on both
paths: ``k = clamp(ceil(work / GRAIN), 1, npartitions)``, with
``npartitions`` defaulting to ``SPARK_SLICES`` with or without a session.
``work`` estimates the round's edge visits from this ``Engine``'s
previous round of the same kernel: that round's visits, scaled by the
growth of the frontier's rows since, at most ``MAX_GROWTH`` times (before
a kernel's first round, its rows).  Under VGC a row's visits differ by
about 60× between kernels and fall as a search fills its part of the
graph, so a frontier's rows or degree sum would mis-size a round; and a
rate measured on a few rows, such as the one-source round that starts
LDD, would overshoot a frontier a hundred times larger by 25-60×, hence the
cap.  The estimate is a pure function of the inputs and of earlier
counts, never of timing, so the slicing and every counter are the same
on both paths and on any host.  A round of q queries gives each query
``max(1, k // q)`` slices, at most one per frontier row, and runs as
``min(k, slices)`` tasks: a fused forward + backward round of small
frontiers is one task that runs both queries' slices.
``Counters.rounds`` is incremented once per round on either path.

Python task set-up, not scheduling or data movement, can dominate the
fixed cost of a Spark round.  Before every task PySpark's worker calls
``importlib.invalidate_caches()``, and on CPython 3.11 each cached
``zipimport.zipimporter`` in ``sys.path_importer_cache`` then re-reads
its archive's whole central directory: ``pyspark.zip`` and the py4j
archive, which Spark puts on every worker's ``sys.path``.  That took
0.19-0.30 s per task on a 4-core host, against a 0.08 s round without
it.  Each executor closure therefore ends with
:func:`_drop_zip_importers`, so the next task on the reused worker finds
no zip importer to refresh; an import that needs an archive later
rebuilds its importer from ``zipimport``'s own directory cache.

The JVM hands a task to its Python worker over a loopback TCP socket
without ``TCP_NODELAY``, as two small writes: the task header, then the
partition data.  The worker only reads, so Linux delays its ACK of the
header by at least 40 ms, and Nagle's algorithm holds the JVM's data
segment until that ACK arrives: every task waited ~40 ms for its first
input row.  Each executor closure therefore starts with
:func:`_push_acks`, which sets ``TCP_QUICKACK`` on the worker's TCP
sockets and so sends the pending ACK at once.  It must run before the
first input row is read; the worker's own reply re-arms delayed ACKs, so
pushing at task end does not help.  Sessions with
``spark.python.unix.domain.socket.enabled`` use no TCP and never stall.

Two CPU sinks that do no work for the algorithm competed with every
round for the host's cores.  The JVM's closure cleaner reads the
``.class`` file of each closure's capturing class from its jar and runs
an ASM pass over it.  ``PythonRDD.runJob`` reaches ``SparkContext.runJob``
through an overload that cleans two closures, so every round re-read
``SparkContext.class`` (204 KB) and ``PythonRDD$.class`` (47 KB) on the
submitting Py4J thread; ``collectAsync`` goes through
``SparkContext.submitJob``, which cleans one closure of the 25 KB
``AsyncRDDActions``.  That thread's CPU per empty round fell from 4.9-6.7
ms to 2.1-2.6 ms on a 4-core host.  And after every task of a reused
worker PySpark's daemon runs ``gc.collect()``, which walks the ~39 K
objects that PySpark's worker and this module leave tracked, about 7 ms
each time on a 4-core host.  Each worker's first round task therefore
calls ``gc.freeze()`` after it reads the graph, which moves that heap to
the permanent generation the collector skips.  Measured while this module
still imported pandas (~73 K objects, 17-26 ms a collect), the workers'
CPU per empty round fell from 24-31 ms to 0.9-1.3 ms, and with both
changes an empty round took 9.5 ms instead of 16 ms
(``BENCH_round_floor.json``).
"""
from __future__ import annotations

import gc
import math
import os
import socket
import sys
import tempfile
import time
import zipimport

import numpy as np
from pyspark import SparkContext
from pyspark.core.rdd import _wrap_function
from pyspark.serializers import CPickleSerializer
from pyspark.sql import SparkSession
from pyspark.util import _load_from_socket

import repro
from repro.core.counters import Counters
from repro.core.csr import CSR, GraphBroadcast
from repro.core.kernels import KERNELS, Cols

SPARK_SLICES = 4  # default cap on k: one wave of tasks on local[4]
# Estimated edge visits per task (see the module docstring and
# BENCH_work_sized_rounds.json for its calibration on a 4-core host).
GRAIN = 50_000
# The most a kernel's previous round's visits are scaled up by frontier growth.
MAX_GROWTH = 4

# Per SparkContext, keyed by the context object itself: holding it means
# a stopped context's key cannot be reused by a new one, which gets its own
# worker check and handles.  ``sc.applicationId`` would cost 2 Py4J calls.
_checked_contexts: set[SparkContext] = set()  # contexts whose workers import repro
_handles: dict[SparkContext, tuple] = {}  # see _jvm_handles
_SER = CPickleSerializer()  # one framed pickle per task input element and per result
_heap_frozen = False  # set by this process's first round task


def check_workers(spark: SparkSession, tasks: int) -> None:
    """Fail in one line unless ``tasks`` executor tasks import ``repro``
    from the driver's file.  Runs one job per SparkContext."""
    sc = spark.sparkContext
    if sc in _checked_contexts:
        return

    def where(_):
        try:
            import repro
            from repro.core.engine import _drop_zip_importers
        except ImportError as e:
            return f"{type(e).__name__}: {e}"
        _drop_zip_importers()
        return os.path.realpath(repro.__file__)

    want = os.path.realpath(repro.__file__)
    try:
        got = set(sc.parallelize(range(tasks), tasks).map(where).collect())
    except Exception as e:  # a Py4J error carrying a Java stack trace
        raise RuntimeError(f"executor import check failed: {str(e).splitlines()[0]}") from None
    if got != {want}:
        raise RuntimeError(f"executors do not import repro from {want}: {sorted(got - {want})[0]}")
    _checked_contexts.add(sc)


def _jvm_handles(sc: SparkContext) -> tuple:
    """``(PythonRDD, PythonRDD.readRDDFromFile, PythonRDD.serveIterator,
    AsyncRDDActions, ClassTag.AnyRef())`` for ``sc``, looked up on its
    first Spark round only: each lookup is a Py4J call, 2.4 ms in all
    (median of 50, 4-core host), which every Engine used to pay."""
    got = _handles.get(sc)
    if got is None:
        jvm = sc._jvm
        rdd = jvm.PythonRDD
        got = _handles[sc] = (
            rdd,
            rdd.readRDDFromFile,
            rdd.serveIterator,
            jvm.org.apache.spark.rdd.AsyncRDDActions,
            jvm.scala.reflect.ClassTag.AnyRef(),
        )
    return got


def _drop_zip_importers() -> None:
    """Remove every ``zipimporter`` from ``sys.path_importer_cache`` (see
    the module docstring); other finders stay."""
    for path, finder in list(sys.path_importer_cache.items()):
        if isinstance(finder, zipimport.zipimporter):
            sys.path_importer_cache.pop(path, None)


def _push_acks() -> None:
    """Set ``TCP_QUICKACK`` on every TCP socket of this process, which
    sends any delayed ACK now (see the module docstring); closes or
    changes nothing else."""
    quickack = getattr(socket, "TCP_QUICKACK", None)
    if quickack is None or not os.path.isdir("/proc/self/fd"):
        return
    for fd in os.listdir("/proc/self/fd"):
        try:
            s = socket.socket(fileno=int(fd))
        except OSError:
            continue  # not a socket, or already closed
        try:
            if s.family in (socket.AF_INET, socket.AF_INET6) and s.type == socket.SOCK_STREAM:
                s.setsockopt(socket.IPPROTO_TCP, quickack, 1)
        finally:
            s.detach()


def _freeze_heap_once() -> None:
    """``gc.freeze()`` on this process's first call only (see the module
    docstring).  It keeps a flag: ``gc.get_freeze_count()`` walks the whole
    frozen heap, about 1 ms per call on a worker's 39 K objects."""
    global _heap_frozen
    if not _heap_frozen:
        gc.freeze()
        _heap_frozen = True


def _slices(cols: Cols, k: int) -> list[Cols]:
    """``cols`` cut into ``min(k, rows)`` contiguous slices of near-equal
    size; an empty frontier is one empty slice."""
    rows = len(cols["v"])
    s = max(1, min(k, rows))
    bounds = rows * np.arange(s + 1) // s
    return [{c: a[lo:hi] for c, a in cols.items()} for lo, hi in zip(bounds[:-1], bounds[1:])]


def _rows_by_kernel(queries) -> dict[str, int]:
    """Frontier rows per kernel name over a round's queries."""
    rows: dict[str, int] = {}
    for name, cols, _ in queries:
        rows[name] = rows.get(name, 0) + len(cols["v"])
    return rows


def _round_task(bc_handle):
    """The command of every Spark task of one ``Engine``.  It reads the
    graph from the broadcast and, in a worker's first round task, freezes
    the worker's heap (see the module docstring); its one input element is
    ``({qi: (kernel, params)}, [(qi, slice), ...])``, and it yields
    ``(qi, cols, visits)`` for each slice in order."""

    def task(_split, elements):
        _push_acks()
        g = bc_handle.value
        _freeze_heap_once()
        for queries, items in elements:
            for qi, cols in items:
                name, params = queries[qi]
                yield qi, *KERNELS[name](cols, g, params)
        _drop_zip_importers()

    return task


class Engine:
    """Runs kernels over frontiers for one graph."""

    def __init__(
        self,
        spark: SparkSession | None,
        csr: CSR,
        counters: Counters,
        *,
        force_spark: bool = False,
        spark_threshold: int = 1 << 30,
        npartitions: int | None = None,
        time_budget_s: float | None = None,
    ):
        self.spark = spark
        self.counters = counters
        self.force_spark = force_spark
        self.spark_threshold = spark_threshold
        self.npartitions = SPARK_SLICES if npartitions is None else npartitions
        self._last: dict[str, tuple[int, int]] = {}  # kernel -> (rows, visits), last round
        self._deadline = None
        if time_budget_s is not None:
            self._deadline = time.monotonic() + time_budget_s
        self.gb = None
        self.n = csr.n
        self._local_g = csr.arrays()
        if spark is None:
            return
        if spark.sparkContext._encryption_enabled:
            raise RuntimeError(
                "Engine does not support spark.io.encryption.enabled: "
                "rounds reach the JVM through an unencrypted temp file"
            )
        check_workers(spark, self.npartitions)
        self._func = None  # the wrapped task command, made by the first Spark round
        self.gb = GraphBroadcast(spark, csr)  # last: no failure can leave it behind

    def check_budget(self) -> None:
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise TimeoutError("engine time budget exceeded")

    def round(self, kernel_name: str, cols: Cols, params: dict) -> Cols:
        """Run one frontier round of one query (see :meth:`run`)."""
        return self.run([(kernel_name, cols, params)])[0]

    def slice_count(self, queries: list[tuple[str, Cols, dict]]) -> int:
        """The round's task count k: its estimated edge visits over
        ``GRAIN``, at least 1 and at most ``npartitions`` (see the module
        docstring)."""
        work = 0.0
        for name, rows in _rows_by_kernel(queries).items():
            last = self._last.get(name)
            work += rows if last is None else last[1] * min(rows / last[0], MAX_GROWTH)
        return min(self.npartitions, max(1, math.ceil(work / GRAIN)))

    def run(self, queries: list[tuple[str, Cols, dict]]) -> list[Cols]:
        """Run every ``(kernel, frontier, params)`` query in one round;
        returns each query's candidate columns, the slices' outputs
        concatenated in slice order, and adds their visit counts to the
        counters."""
        self.check_budget()
        self.counters.rounds += 1
        k = self.slice_count(queries)
        per = max(1, k // len(queries))
        items = [(qi, sl) for qi, (_, cols, _) in enumerate(queries) for sl in _slices(cols, per)]
        rows = sum(len(cols["v"]) for _, cols, _ in queries)
        if self.spark is not None and (self.force_spark or rows >= self.spark_threshold):
            sc = self.spark.sparkContext
            prev = sc.getLocalProperty("spark.job.description")
            names = "+".join(name for name, _, _ in queries)
            sc.setJobDescription(f"{names}/r{self.counters.rounds}")
            try:
                done = self._submit(queries, items, min(k, len(items)))
            finally:
                sc.setJobDescription(prev)
        else:
            kernels = [KERNELS[name] for name, _, _ in queries]
            done = [(qi, *kernels[qi](sl, self._local_g, queries[qi][2])) for qi, sl in items]
        parts: list[list[Cols]] = [[] for _ in queries]
        kernel_rows = _rows_by_kernel(queries)
        visits = dict.fromkeys(kernel_rows, 0)
        for qi, cols, v in done:
            parts[qi].append(cols)
            visits[queries[qi][0]] += v
        self.counters.edge_visits += sum(visits.values())
        self._last.update((name, (r, visits[name])) for name, r in kernel_rows.items() if r)
        return [{c: np.concatenate([x[c] for x in xs]) for c in xs[0]} for xs in parts]

    def _submit(self, queries, items: list[tuple[int, Cols]], tasks: int) -> list:
        """Run ``items`` as one Spark job of ``tasks`` tasks, each a
        contiguous run of them, and return every task's
        ``(qi, cols, visits)`` in item order."""
        bounds = len(items) * np.arange(tasks + 1) // tasks
        elements = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            mine = items[lo:hi]
            elements.append(({qi: (queries[qi][0], queries[qi][2]) for qi, _ in mine}, mine))
        sc = self.spark.sparkContext
        if self._func is None:
            # Once per Engine, and in a round rather than in __init__, so
            # that an Engine that runs no Spark round pays nothing.
            self._func = _wrap_function(sc, _round_task(self.gb.bc), _SER, _SER)
        jvm_rdd, read_file, serve, async_actions, any_ref = _jvm_handles(sc)
        fd, path = tempfile.mkstemp(dir=sc._temp_dir)
        try:
            with os.fdopen(fd, "wb") as f:
                _SER.dump_stream(elements, f)
            jrdd = read_file(sc._jsc, path, tasks)  # reads the file eagerly
        finally:
            os.unlink(path)
        rdd = jvm_rdd(jrdd.rdd(), self._func, False, False)
        rows = async_actions(rdd, any_ref).collectAsync().get()  # partition order
        return list(_load_from_socket(serve(rows.iterator(), "serve round"), _SER))

    def close(self) -> None:
        if self.gb is not None:
            self.gb.destroy()
            self.gb = None

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def frontier_pdf(vs) -> Cols:
    """A frontier of vertices ``vs``: ``{"v": int64}``.  The name is kept
    for ``perfbench/run.py``'s ``floor_probe``, which passes its result to
    :meth:`Engine.round`."""
    return {"v": np.asarray(vs, dtype=np.int64)}


def merge_explored(keys: np.ndarray, explored: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct ``keys`` ascending, each flagged if any of its rows was explored."""
    uk, inv = np.unique(keys, return_inverse=True)
    return uk, np.bincount(inv[explored], minlength=len(uk)) > 0
