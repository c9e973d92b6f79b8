"""Round engine: one call == one frontier round == one global barrier.

The engine takes a frontier as a pandas DataFrame, runs a kernel from
``repro.core.kernels`` over it, and returns the candidate rows.  Two
execution paths produce *identical* results:

- **Spark path** — the frontier becomes a DataFrame whose local scan is
  split into contiguous slices, at most ``npartitions`` of them, and the
  kernel runs inside ``mapInPandas`` with the graph read from a broadcast
  variable.  ``createDataFrame → coalesce → mapInPandas → toPandas`` is
  one Spark job with one stage: no shuffle, so one round is exactly one
  barrier, the analogue of the paper's fork-join round whose fixed
  overhead is what VGC amortizes.  Each job is described as
  ``<kernel>/r<round>`` in the Spark UI and event log.
- **Driver path** — the kernel is called directly.  This is ordinary
  horizontal granularity control (don't distribute tiny work) and is used
  by unit tests; **benchmarks force the Spark path for every algorithm**
  (``spark_threshold=0``) so all competitors pay the same barrier cost.

``Counters.rounds`` is incremented per call on either path.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import types as T

from repro.core.counters import Counters
from repro.core.csr import CSR, GraphBroadcast
from repro.core.kernels import KERNELS, SENTINEL

# kernel -> (frontier columns, candidate columns).  Every column is a long
# except ``explored``; every kernel output also ends in ``visits``.
COLUMNS = {
    "sparse_reach": (("v",), ("v", "explored")),
    "dense_reach": (("v",), ("v", "explored")),
    "multi_reach": (("v", "s"), ("v", "s", "explored")),
    "ldd_reach": (("v", "lab"), ("v", "lab", "explored")),
    "lelists_round": (("v", "s"), ("v", "s")),
    "color_max": (("v",), ("v", "lab")),
}


def _schema(cols) -> T.StructType:
    return T.StructType(
        [T.StructField(c, T.BooleanType() if c == "explored" else T.LongType()) for c in cols]
    )


def _make_mapper(bc_handle, kernel, params):
    """Closure shipped to executors; reads the graph from the broadcast."""

    def mapper(batches):
        g = bc_handle.value
        for pdf in batches:
            if len(pdf) > 0:
                yield kernel(pdf, g, params)

    return mapper


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
        npartitions: int = 8,
        time_budget_s: float | None = None,
    ):
        self.spark = spark
        self.counters = counters
        self.force_spark = force_spark
        self.spark_threshold = spark_threshold
        self.npartitions = npartitions
        self.time_budget_s = time_budget_s
        self._deadline = None
        if time_budget_s is not None:
            import time

            self._deadline = time.monotonic() + time_budget_s
        self.gb = None
        self._local_g = None
        if spark is not None:
            self.gb = GraphBroadcast(spark, csr, csr_t)
            self._local_g = self.gb.local_value()
        else:
            csr_t = csr_t if csr_t is not None else csr.transpose()
            self._local_g = (csr.indptr, csr.indices, csr_t.indptr, csr_t.indices)
        self.n = csr.n

    def check_budget(self) -> None:
        if self._deadline is not None:
            import time

            if time.monotonic() > self._deadline:
                raise TimeoutError("engine time budget exceeded")

    def round(self, kernel_name: str, pdf_in: pd.DataFrame, params: dict) -> pd.DataFrame:
        """Run one frontier round; returns candidate rows (sentinels
        stripped, their visit counts folded into the counters)."""
        self.check_budget()
        kernel = KERNELS[kernel_name]
        self.counters.rounds += 1
        use_spark = self.spark is not None and (
            self.force_spark or len(pdf_in) >= self.spark_threshold
        )
        if use_spark:
            in_cols, out_cols = COLUMNS[kernel_name]
            sc = self.spark.sparkContext
            prev = sc.getLocalProperty("spark.job.description")
            sc.setJobDescription(f"{kernel_name}/r{self.counters.rounds}")
            try:
                out = (
                    self.spark.createDataFrame(pdf_in, schema=_schema(in_cols))
                    .coalesce(self.npartitions)
                    .mapInPandas(
                        _make_mapper(self.gb.handle, kernel, params),
                        schema=_schema(out_cols + ("visits",)),
                    )
                    .toPandas()
                )
            finally:
                sc.setJobDescription(prev)
        else:
            out = kernel(pdf_in, self._local_g, params)
        sent = out["v"] == SENTINEL
        self.counters.edge_visits += int(out.loc[sent, "visits"].sum())
        out = out.loc[~sent].drop(columns=["visits"]).reset_index(drop=True)
        return out

    def close(self) -> None:
        if self.gb is not None:
            self.gb.destroy()


def frontier_pdf(vs: np.ndarray) -> pd.DataFrame:
    return pd.DataFrame({"v": np.asarray(vs, dtype=np.int64)})


def pair_pdf(vs: np.ndarray, ss: np.ndarray) -> pd.DataFrame:
    return pd.DataFrame(
        {"v": np.asarray(vs, dtype=np.int64), "s": np.asarray(ss, dtype=np.int64)}
    )
