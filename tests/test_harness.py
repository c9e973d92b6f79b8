"""Harness tests: a driver-only run launches no Spark job, a run is
"ok" only when its whole partition matches the sequential oracle's, and
every recorded row carries its host context."""
import json
import os
import platform

import numpy as np
import pyspark
import pytest

from repro.baselines.tarjan import canon_partition
from repro.bench import harness
from repro.cc.connectivity import CCResult
from repro.core.counters import Counters
from repro.core.scc import SCCResult
from repro.graphs import generators as gen
from repro.graphs.suite import GraphSpec


@pytest.fixture(autouse=True)
def results_in_tmp(tmp_path, monkeypatch):
    path = tmp_path / "rows.jsonl"
    monkeypatch.setenv("REPRO_RESULTS", str(path))
    return path


@pytest.mark.spark
def test_driver_only_runs_launch_no_spark_job(spark):
    lattice = GraphSpec("lat", "lattice", 36, *gen.lattice_oriented(6, 6, seed=1))
    road = GraphSpec("road", "road", 36, *gen.road(6, 6, seed=1))
    sc = spark.sparkContext
    group = "harness-driver-only"
    sc.setJobGroup(group, "driver-only harness runs")
    try:
        rows = [
            harness.run_scc(spark, lattice, "ours", force_spark=False),
            harness.run_cc(spark, road, "ours", force_spark=False),
            harness.run_lelists(spark, road, "ours", force_spark=False),
        ]
    finally:
        for key in ("spark.jobGroup.id", "spark.job.description", "spark.job.interruptOnCancel"):
            sc.setLocalProperty(key, None)
    assert [r.status for r in rows] == ["ok"] * 3
    assert rows[0].rounds > 0 and rows[1].rounds > 0
    assert list(sc.statusTracker().getJobIdsForGroup(group)) == []


# SCCs == components == {0, 1, 2}, {3, 4}, {5}: the edges are symmetric.
_SRC, _DST = np.array([0, 1, 1, 2, 3, 4]), np.array([1, 0, 2, 1, 4, 3])
THREE_PARTS = GraphSpec("three", "toy", 6, _SRC, _DST)


def _wrong_labels(truth: np.ndarray) -> np.ndarray:
    """Same part sizes (so #SCC, |SCC_1| and #CC all match), different
    partition, relabelled."""
    wrong = np.roll(truth, 1) + 100
    assert not np.array_equal(canon_partition(wrong), canon_partition(truth))
    return wrong


def test_scc_gate_rejects_wrong_partition_with_right_counts(monkeypatch):
    truth = np.array([2, 2, 2, 4, 4, 5])
    wrong = SCCResult(labels=_wrong_labels(truth), counters=Counters()).finalize()
    monkeypatch.setattr(harness, "bgss_scc", lambda *a, **k: wrong)
    row = harness.run_scc(None, THREE_PARTS, "ours", force_spark=False)
    assert (row.n_scc, row.scc1) == (3, 3)
    assert row.status == "wrong"


def test_cc_gate_rejects_wrong_partition_with_right_counts(monkeypatch):
    truth = np.array([0, 0, 0, 3, 3, 5])
    wrong = CCResult(_wrong_labels(truth), Counters(), ldd_rounds=0).finalize()
    monkeypatch.setattr(harness, "ldd_uf_jtb", lambda *a, **k: wrong)
    row = harness.run_cc(None, THREE_PARTS, "ours", force_spark=False)
    assert row.n_scc == 3
    assert row.status == "wrong"


def test_recorded_row_carries_host_context(results_in_tmp):
    harness.run_scc(None, THREE_PARTS, "seq", force_spark=False)
    [line] = results_in_tmp.read_text().splitlines()
    row = json.loads(line)
    assert row["cores"] == os.cpu_count()
    assert row["python"] == platform.python_version()
    assert row["spark_version"] == pyspark.__version__
