"""Round engine: one call == one frontier round == one global barrier.

A round takes one or more *queries* ``(kernel, frontier, params)``, each
frontier a pandas DataFrame, runs each kernel from
``repro.core.kernels`` over its frontier and returns each query's
candidate rows.  The driver cuts every frontier into contiguous slices
and calls the kernel once per slice, so the slicing, and with it every
task-local dedupe and counter, is the same on both execution paths:

- **Spark path** — the slices become
  ``sc.parallelize(slices, len(slices)).mapPartitions(...).collect()``:
  one Spark job with one stage and one task per slice, the graph read
  from a broadcast variable and each query's params riding in the task
  closure.  One round is exactly one barrier, the analogue of the paper's
  fork-join round whose fixed overhead is what VGC amortizes.  Searches
  that only read shared state (a batch's forward and backward searches)
  share a round.  Each job is described as ``<kernel>[+<kernel>...]/r<round>``
  in the Spark UI and event log.
- **Driver path** — the kernel is called directly on the same slices.
  This is ordinary horizontal granularity control (don't distribute tiny
  work) and is used by unit tests; **benchmarks force the Spark path for
  every algorithm** (``spark_threshold=0``) so all competitors pay the
  same barrier cost.

The slice count k is ``npartitions``: 4 with a Spark session and 1
without by default.  A round of q queries gives each query
``max(1, k // q)`` slices, at most one per frontier row, so a round never
needs more than k tasks.  ``Counters.rounds`` is incremented once per
round on either path.

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
"""
from __future__ import annotations

import os
import socket
import sys
import time
import zipimport

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

import repro
from repro.core.counters import Counters
from repro.core.csr import CSR, GraphBroadcast
from repro.core.kernels import KERNELS, SENTINEL

SPARK_SLICES = 4  # default k with a session: one wave of tasks on local[4]

_checked_contexts: set[str] = set()  # applicationIds whose workers import repro


def check_workers(spark: SparkSession, tasks: int) -> None:
    """Fail in one line unless ``tasks`` executor tasks import ``repro``
    from the driver's file.  Runs one job per SparkContext."""
    sc = spark.sparkContext
    if sc.applicationId in _checked_contexts:
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
    _checked_contexts.add(sc.applicationId)


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


def _slices(pdf: pd.DataFrame, k: int) -> list[pd.DataFrame]:
    """``pdf`` cut into ``min(k, rows)`` contiguous slices of near-equal
    size; an empty frontier is one empty slice."""
    s = max(1, min(k, len(pdf)))
    bounds = len(pdf) * np.arange(s + 1) // s
    return [pdf.iloc[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def _make_task(bc_handle, kernels, params):
    """Closure shipped to executors; reads the graph from the broadcast
    and tags each slice's output with its query index."""

    def task(items):
        _push_acks()
        g = bc_handle.value
        for qi, pdf in items:
            yield qi, kernels[qi](pdf, g, params[qi])
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
        csr_t: CSR | None = None,
        force_spark: bool = False,
        spark_threshold: int = 1 << 30,
        npartitions: int | None = None,
        time_budget_s: float | None = None,
    ):
        self.spark = spark
        self.counters = counters
        self.force_spark = force_spark
        self.spark_threshold = spark_threshold
        if npartitions is None:
            npartitions = SPARK_SLICES if spark is not None else 1
        self.npartitions = npartitions
        self._deadline = None
        if time_budget_s is not None:
            self._deadline = time.monotonic() + time_budget_s
        self.gb = None
        self.n = csr.n
        if spark is None:
            csr_t = csr_t if csr_t is not None else csr.transpose()
            self._local_g = (csr.indptr, csr.indices, csr_t.indptr, csr_t.indices)
            return
        check_workers(spark, npartitions)
        self.gb = GraphBroadcast(spark, csr, csr_t)
        try:
            self._local_g = self.gb.local_value()
        except BaseException:
            self.close()
            raise

    def check_budget(self) -> None:
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise TimeoutError("engine time budget exceeded")

    def round(self, kernel_name: str, pdf_in: pd.DataFrame, params: dict) -> pd.DataFrame:
        """Run one frontier round of one query (see :meth:`run`)."""
        return self.run([(kernel_name, pdf_in, params)])[0]

    def run(self, queries: list[tuple[str, pd.DataFrame, dict]]) -> list[pd.DataFrame]:
        """Run every ``(kernel, frontier, params)`` query in one round;
        returns each query's candidate rows (sentinels stripped, their
        visit counts folded into the counters)."""
        self.check_budget()
        self.counters.rounds += 1
        kernels = [KERNELS[name] for name, _, _ in queries]
        params = [p for _, _, p in queries]
        per = max(1, self.npartitions // len(queries))
        items = [(qi, sl) for qi, (_, pdf, _) in enumerate(queries) for sl in _slices(pdf, per)]
        rows = sum(len(pdf) for _, pdf, _ in queries)
        if self.spark is not None and (self.force_spark or rows >= self.spark_threshold):
            sc = self.spark.sparkContext
            prev = sc.getLocalProperty("spark.job.description")
            names = "+".join(name for name, _, _ in queries)
            sc.setJobDescription(f"{names}/r{self.counters.rounds}")
            try:
                done = (
                    sc.parallelize(items, len(items))
                    .mapPartitions(_make_task(self.gb.handle, kernels, params))
                    .collect()
                )
            finally:
                sc.setJobDescription(prev)
        else:
            done = [(qi, kernels[qi](sl, self._local_g, params[qi])) for qi, sl in items]
        frames: list[list[pd.DataFrame]] = [[] for _ in queries]
        for qi, out in done:
            frames[qi].append(out)
        return [self._strip(pd.concat(f, ignore_index=True)) for f in frames]

    def _strip(self, out: pd.DataFrame) -> pd.DataFrame:
        sent = out["v"] == SENTINEL
        self.counters.edge_visits += int(out.loc[sent, "visits"].sum())
        return out.loc[~sent].drop(columns=["visits"]).reset_index(drop=True)

    def close(self) -> None:
        if self.gb is not None:
            self.gb.destroy()
            self.gb = None


def frontier_pdf(vs: np.ndarray) -> pd.DataFrame:
    return pd.DataFrame({"v": np.asarray(vs, dtype=np.int64)})


def pair_pdf(vs: np.ndarray, ss: np.ndarray) -> pd.DataFrame:
    return pd.DataFrame(
        {"v": np.asarray(vs, dtype=np.int64), "s": np.asarray(ss, dtype=np.int64)}
    )
