"""Harness tests: a run given no session runs on the driver, a run is
"ok" only when its whole partition matches the sequential oracle's, a
graph's oracle and CSR are computed once across a table's algos, every
recorded row carries its host context, and a row that cannot be saved
is reported."""
import json
import os
import platform

import numpy as np
import pyspark
import pytest

from repro.baselines.tarjan import canon_partition
from repro.bench import harness
from repro.core import csr as csrmod
from repro.core.counters import Counters
from repro.graphs import generators as gen
from repro.graphs.suite import GraphSpec


@pytest.fixture(autouse=True)
def results_in_tmp(tmp_path, monkeypatch):
    path = tmp_path / "rows.jsonl"
    monkeypatch.setenv("REPRO_RESULTS", str(path))
    return path


def test_driver_only_runs_launch_no_spark_job():
    lattice = GraphSpec("lat", "lattice", 36, *gen.lattice_oriented(6, 6, seed=1))
    road = GraphSpec("road", "road", 36, *gen.road(6, 6, seed=1))
    rows = [
        harness.run_cell(None, lattice, "2", "ours"),
        harness.run_cell(None, road, "3cc", "ours"),
        harness.run_cell(None, road, "3le", "ours"),
    ]
    assert [r.status for r in rows] == ["ok"] * 3
    assert rows[0].rounds > 0 and rows[1].rounds > 0


# SCCs == components == {0, 1, 2}, {3, 4}, {5}: the edges are symmetric.
_SRC, _DST = np.array([0, 1, 1, 2, 3, 4]), np.array([1, 0, 2, 1, 4, 3])
THREE_PARTS = GraphSpec("three", "toy", 6, _SRC, _DST)


def _wrong_labels(truth: np.ndarray) -> np.ndarray:
    """Same part sizes (so #SCC, |SCC_1| and #CC all match), different
    partition, relabelled."""
    wrong = np.roll(truth, 1) + 100
    assert not np.array_equal(canon_partition(wrong), canon_partition(truth))
    return wrong


def _answers(monkeypatch, table, algo, labels):
    """Make ``algo`` of ``table`` answer ``labels``."""
    monkeypatch.setitem(harness.TABLES[table].algos, algo, lambda *a: (labels, Counters()))


def test_scc_gate_rejects_wrong_partition_with_right_counts(monkeypatch):
    truth = np.array([2, 2, 2, 4, 4, 5])
    _answers(monkeypatch, "2", "ours", _wrong_labels(truth))
    row = harness.run_cell(None, THREE_PARTS, "2", "ours")
    assert (row.n_scc, row.scc1) == (3, 3)
    assert row.status == "wrong"


def test_cc_gate_rejects_wrong_partition_with_right_counts(monkeypatch):
    truth = np.array([0, 0, 0, 3, 3, 5])
    _answers(monkeypatch, "3cc", "ours", _wrong_labels(truth))
    row = harness.run_cell(None, THREE_PARTS, "3cc", "ours")
    assert row.n_scc == 3
    assert row.status == "wrong"


def test_cell_over_budget_is_recorded_as_t(monkeypatch, results_in_tmp):
    def over_budget(spark, spec, kw):
        raise TimeoutError

    monkeypatch.setitem(harness.TABLES["3le"].algos, "ours", over_budget)
    row = harness.run_cell(None, THREE_PARTS, "3le", "ours")
    assert (row.status, row.rounds, row.edge_visits, row.sim96_s) == ("t", -1, -1, -1.0)
    assert json.loads(results_in_tmp.read_text())["status"] == "t"


def test_recorded_row_carries_host_context(results_in_tmp):
    harness.run_cell(None, THREE_PARTS, "2", "seq")
    [line] = results_in_tmp.read_text().splitlines()
    row = json.loads(line)
    assert row["cores"] == os.cpu_count()
    assert row["python"] == platform.python_version()
    assert row["spark_version"] == pyspark.__version__


def test_unsaved_row_is_reported_and_returned(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_RESULTS", str(tmp_path))  # a directory
    row = harness.run_cell(None, THREE_PARTS, "2", "seq")
    assert row.status == "ok"
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(tmp_path) in err


def test_row_is_not_recorded_unless_asked(tmp_path, monkeypatch):
    """With ``$REPRO_RESULTS`` unset, a run writes no file: a check run
    leaves the tracked results in the working directory alone."""
    monkeypatch.delenv("REPRO_RESULTS")
    monkeypatch.chdir(tmp_path)
    row = harness.run_cell(None, THREE_PARTS, "2", "seq")
    assert row.status == "ok"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "table, oracle",
    [("2", "tarjan_scc"), ("3cc", "seq_cc"), ("3le", "seq_le_lists")],
)
def test_oracle_runs_once_per_graph(monkeypatch, table, oracle):
    """Across a table's algos one graph's sequential oracle runs once; the
    only other call is the ``seq`` cell's own timed run."""
    calls = []
    fn = getattr(harness, oracle)
    monkeypatch.setattr(harness, oracle, lambda *a: calls.append(a) or fn(*a))
    road = GraphSpec("road", "road", 36, *gen.road(6, 6, seed=1))
    algos = harness.TABLES[table].algos
    rows = [harness.run_cell(None, road, table, algo) for algo in algos]
    assert [r.status for r in rows] == ["ok"] * len(algos)
    assert len(calls) == 2


def test_csr_is_built_once_per_graph(monkeypatch):
    """Every algo of a table, and its oracle, share one CSR of the graph.
    (A solver's transpose is built from that CSR, not from the edges.)"""
    lattice = GraphSpec("lat", "lattice", 36, *gen.lattice_oriented(6, 6, seed=1))
    builds = []
    build = csrmod.from_arrays
    monkeypatch.setattr(
        csrmod, "from_arrays", lambda n, src, dst: builds.append(src is lattice.src) or build(n, src, dst)
    )
    rows = [harness.run_cell(None, lattice, "2", algo) for algo in harness.TABLES["2"].algos]
    assert [r.status for r in rows] == ["ok"] * len(rows)
    assert sum(builds) == 1


def test_search_rounds_are_recorded_for_bgss_only():
    lattice = GraphSpec("lat", "lattice", 36, *gen.lattice_oriented(6, 6, seed=1))
    rows = {a: harness.run_cell(None, lattice, "2", a) for a in ("ours", "multistep", "seq")}
    assert rows["ours"].search_rounds and max(rows["ours"].search_rounds) <= rows["ours"].rounds
    assert rows["multistep"].search_rounds == rows["seq"].search_rounds == []
