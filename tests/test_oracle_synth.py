"""Self-tests of the DuckDB oracle on zoo edge tables, and oracle checks
of the graph DataFrame ops (repro.graphs.ops)."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.graphs import ops
from repro.oracle import assert_equivalent
from tests.graph_zoo import zoo

pytestmark = pytest.mark.spark


def _edges_pdf(c):
    src = np.repeat(np.arange(c.n, dtype=np.int64), np.diff(c.indptr))
    return pd.DataFrame({"src": src, "dst": c.indices})


# -- oracle self-tests ----------------------------------------------------
def test_oracle_accepts_matching_aggregate(spark):
    pdf = _edges_pdf(zoo()["web"])
    out = (
        spark.createDataFrame(pdf)
        .groupBy("src")
        .agg(F.sum("dst").alias("sum_dst"), F.count("*").alias("cnt"))
    )
    assert_equivalent(
        out,
        "SELECT src, sum(dst) AS sum_dst, count(*) AS cnt FROM edges GROUP BY src",
        edges=pdf,
    )


def test_oracle_join(spark):
    c = zoo()["rmat"]
    pdf = _edges_pdf(c)
    degs = pd.DataFrame({"v": np.arange(c.n, dtype=np.int64), "deg": np.diff(c.indptr)})
    e, d = spark.createDataFrame(pdf), spark.createDataFrame(degs)
    out = e.join(d, e.dst == d.v).groupBy("deg").agg(F.count("*").alias("cnt"))
    assert_equivalent(
        out,
        "SELECT deg, count(*) AS cnt FROM edges e "
        "JOIN degs d ON e.dst = d.v GROUP BY deg",
        edges=pdf,
        degs=degs,
    )


def test_oracle_catches_wrong_result(spark):
    pdf = _edges_pdf(zoo()["web"])
    wrong = spark.createDataFrame(pdf).groupBy("src").agg((F.count("*") + 1).alias("cnt"))
    with pytest.raises(AssertionError):
        assert_equivalent(
            wrong,
            "SELECT src, count(*) AS cnt FROM edges GROUP BY src",
            edges=pdf,
        )


# -- graph ops vs DuckDB --------------------------------------------------
def test_degrees_oracle(spark):
    c = zoo()["rmat"]
    pdf = _edges_pdf(c)
    out = ops.degrees(spark, spark.createDataFrame(pdf), c.n)
    assert_equivalent(
        out,
        """
        WITH ids AS (SELECT * FROM range(0, 256) t(v))
        SELECT v,
               coalesce((SELECT count(*) FROM edges WHERE src = v), 0) AS out_deg,
               coalesce((SELECT count(*) FROM edges WHERE dst = v), 0) AS in_deg
        FROM ids
        """,
        edges=pdf,
    )


def test_symmetrize_oracle(spark):
    c = zoo()["web"]
    pdf = _edges_pdf(c)
    out = ops.symmetrize(spark.createDataFrame(pdf))
    assert_equivalent(
        out,
        """
        SELECT DISTINCT src, dst FROM (
            SELECT src, dst FROM edges UNION ALL SELECT dst, src FROM edges
        ) WHERE src <> dst
        """,
        edges=pdf,
    )


def test_transpose_oracle(spark):
    c = zoo()["dag"]
    pdf = _edges_pdf(c)
    out = ops.transpose(spark.createDataFrame(pdf))
    assert_equivalent(
        out, "SELECT dst AS src, src AS dst FROM edges", edges=pdf
    )


def test_dedupe_oracle(spark):
    pdf = pd.DataFrame({"src": [0, 0, 1, 2, 2], "dst": [1, 1, 1, 2, 0]})
    out = ops.dedupe(spark.createDataFrame(pdf))
    assert_equivalent(
        out,
        "SELECT DISTINCT src, dst FROM edges WHERE src <> dst",
        edges=pdf,
    )


def test_scc_histogram_oracle(spark):
    from repro.baselines.tarjan import tarjan_scc

    c = zoo()["web"]
    labels, _ = tarjan_scc(c)
    out = ops.scc_size_histogram(spark, labels)
    assert_equivalent(
        out,
        """
        SELECT scc_size, count(*) AS num_sccs FROM (
            SELECT lab, count(*) AS scc_size FROM labs GROUP BY lab
        ) GROUP BY scc_size
        """,
        labs=pd.DataFrame({"v": np.arange(c.n), "lab": labels}),
    )
