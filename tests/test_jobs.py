"""Driver-only end-to-end tests of the job entrypoints.  The table
runner is run with ``--driver-only`` only: with a session it would get the
test session's SparkSession from ``getOrCreate`` and stop it."""
import importlib.util
import json
import pathlib
from types import SimpleNamespace

import numpy as np
import pytest

from repro.baselines.tarjan import tarjan_scc
from repro.bench import harness
from repro.core.counters import Counters
from repro.core.scc import SCCResult

JOBS = pathlib.Path(__file__).resolve().parent.parent / "jobs"


def load_job(name):
    spec = importlib.util.spec_from_file_location(name, JOBS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_rounds_study_runs(capsys):
    mod = load_job("rounds_study")
    assert mod.main(["--scale", "0.02"]) == 0
    out = capsys.readouterr().out
    assert "LAT-SQR'" in out and "avg y/x" in out


def test_tau_sweep_runs(capsys):
    mod = load_job("tau_sweep")
    assert mod.main(["--scale", "0.02", "--graphs", "LAT-SQR'"]) == 0
    out = capsys.readouterr().out
    assert "tau=512" in out


def _no_session(app):
    raise AssertionError(f"--driver-only created a SparkSession ({app})")


def test_tables_driver_only_all_ok(tmp_path, monkeypatch, capsys):
    results = tmp_path / "rows.jsonl"
    monkeypatch.setenv("REPRO_RESULTS", str(results))
    mod = load_job("tables")
    monkeypatch.setattr(mod, "get_spark", _no_session)
    want = []
    for table, (_, suite, _, algos) in mod.TABLES.items():
        assert mod.main(["--table", table, "--scale", "0.02", "--driver-only"]) == 0
        want += [(g.name, a) for g in suite(0.02) for a in algos.split(",")]
    rows = [json.loads(line) for line in results.read_text().splitlines()]
    assert sorted((r["graph"], r["algo"]) for r in rows) == sorted(want)
    assert {r["status"] for r in rows} == {"ok"}
    assert "LAT-SQR'" in capsys.readouterr().out


def test_tables_exit_code_flags_a_wrong_row(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS", str(tmp_path / "rows.jsonl"))

    def wrong_scc(spark, csr, **kw):
        # every part keeps its size, but the partition is shifted
        labels = np.roll(tarjan_scc(csr)[0], 1) + 100
        return SCCResult(labels=labels, counters=Counters()).finalize()

    monkeypatch.setattr(harness, "bgss_scc", wrong_scc)
    mod = load_job("tables")
    monkeypatch.setattr(mod, "get_spark", _no_session)
    argv = ["--table", "2", "--scale", "0.02", "--algos", "ours", "--driver-only"]
    assert mod.main(argv) == 1


def test_summarize_results_tolerates_missing_ours(tmp_path, capsys):
    rows = [
        dict(table="table2", graph="LAT-SQR'", algo="ours", status="ok",
             wall_s=1.5, rounds=7, n=100, m=300, n_scc=40, scc1=9),
        dict(table="table2", graph="LAT-SQR'", algo="gbbs", status="ok",
             wall_s=3.0, rounds=20, n=100, m=300, n_scc=40, scc1=9),
        dict(table="table3cc", graph="ROAD-GE'", algo="dhs21", status="ok",
             wall_s=2.0, rounds=5, n=64, m=200, n_scc=1, scc1=-1),
        dict(table="table3le", graph="KNN-HH5'-sym", algo="ours", status="t",
             wall_s=300.0, rounds=-1, n=80, m=400, n_scc=-1, scc1=-1),
    ]
    path = tmp_path / "rows.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    mod = load_job("summarize_results")
    mod.main([str(path)])
    out = capsys.readouterr().out
    assert "| LAT-SQR' | 100 | 300 | 40 | 9 | 1.50 | 7 | 3.00 | 20 |" in out
    assert "| ROAD-GE' | 64 | 200 | - | - | 2.00 | 5 | - | - |" in out
    assert "| KNN-HH5'-sym | 80 | 400 | t | - |" in out


def test_tables_warm_up_before_first_cell(tmp_path, monkeypatch):
    """With a session the runner warms it up once, before its first cell."""
    monkeypatch.setenv("REPRO_RESULTS", str(tmp_path / "rows.jsonl"))
    mod = load_job("tables")
    events = []
    session = SimpleNamespace(stop=lambda: events.append("stop"))
    monkeypatch.setattr(mod, "get_spark", lambda app: session)
    monkeypatch.setattr(mod, "warm_up", lambda s: events.append(("warm", s)))
    app, suite, _, _ = mod.TABLES["3cc"]

    def cell(spark, spec, algo, budget_s):
        events.append(("cell", spark))
        return harness.run_cc(None, spec, algo, budget_s=budget_s)

    monkeypatch.setitem(mod.TABLES, "3cc", (app, suite, cell, "seq"))
    assert mod.main(["--table", "3cc", "--scale", "0.02"]) == 0
    cells = len(suite(0.02))
    assert events == [("warm", session)] + [("cell", session)] * cells + ["stop"]


@pytest.mark.spark
def test_tables_warm_up_runs_one_round(spark):
    """The warm-up runs one engine round as a Spark job."""
    sc = spark.sparkContext
    group = "test-tables-warm-up"
    sc.setJobGroup(group, "warm-up")
    try:
        load_job("tables").warm_up(spark)
    finally:
        sc._jsc.clearJobGroup()
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    tracker = sc.statusTracker()
    descs = [
        sc._jsc.sc().statusStore().job(j).description().get()
        for j in tracker.getJobIdsForGroup(group)
    ]
    assert "sparse_reach/r1" in descs


def test_summarize_results_ratio_without_a_side_is_na(tmp_path, capsys):
    """A one-row results file has no side to compare with: the ratio
    column reads ``n/a``, not ``nanx``."""
    row = dict(table="table3cc", graph="ROAD-GE'", algo="dhs21", status="ok",
               wall_s=2.0, rounds=5, n=64, m=200, n_scc=1, scc1=-1)
    path = tmp_path / "rows.jsonl"
    path.write_text(json.dumps(row) + "\n")
    load_job("summarize_results").main([str(path)])
    out = capsys.readouterr().out
    assert "| ROAD-GE' | 64 | 200 | - | - | 2.00 | 5 | - | - | n/a |" in out
    assert "nan" not in out
