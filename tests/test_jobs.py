"""Driver-only end-to-end tests of the job entrypoints.  The table
runner is run with ``--driver-only`` only: with a session it would get the
test session's SparkSession from ``getOrCreate`` and stop it."""
import contextlib
import importlib.util
import io
import json
import pathlib
import re
from types import SimpleNamespace

import numpy as np
import pytest

from repro.baselines.tarjan import tarjan_scc
from repro.bench import harness
from repro.core.counters import Counters

JOBS = pathlib.Path(__file__).resolve().parent.parent / "jobs"


def load_job(name):
    spec = importlib.util.spec_from_file_location(name, JOBS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _no_session(app):
    raise AssertionError(f"--driver-only created a SparkSession ({app})")


@pytest.fixture(scope="module")
def every_table(tmp_path_factory):
    """Every table run ``--driver-only --scale 0.02`` into one results
    file: (exit codes, results path, printed output)."""
    results = tmp_path_factory.mktemp("tables") / "rows.jsonl"
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setenv("REPRO_RESULTS", str(results))
        mod = load_job("tables")
        mp.setattr(mod, "get_spark", _no_session)
        codes = [
            mod.main(["--table", table, "--scale", "0.02", "--driver-only"])
            for table in harness.TABLES
        ]
    return codes, results, out.getvalue()


def test_tables_driver_only_all_ok(every_table):
    codes, results, out = every_table
    assert codes == [0] * len(harness.TABLES)
    want = [(g.name, a) for t in harness.TABLES.values() for g in t.suite(0.02) for a in t.algos]
    rows = [json.loads(line) for line in results.read_text().splitlines()]
    assert sorted((r["graph"], r["algo"]) for r in rows) == sorted(want)
    assert {r["status"] for r in rows} == {"ok"}
    assert "LAT-SQR'" in out


def test_summarize_results_prints_every_table(every_table, capsys):
    """The summary of every table has a full section for each table and
    study, with no wrong row, no NaN and no empty cell."""
    load_job("summarize_results").main([str(every_table[1])])
    out = capsys.readouterr().out
    sections = re.split(r"^## ", out, flags=re.M)[1:]
    names = ["Table 2", "Table 3 connectivity", "Table 3 LE-lists", "Fig. 10", "τ study"]
    assert len(sections) == len(names)
    for sec, name in zip(sections, names):
        assert sec.startswith(name)
        body = [line for line in sec.splitlines() if line.startswith("| ")][1:]
        assert body and not any("| - |" in line for line in body), sec
    assert "WRONG" not in out and "nan" not in out
    assert "| LAT-SQR' | 6 | 35 | 6 | 5.8 | 16.0 |" in sections[3]
    assert "| LAT-SQR' | 0.0008 / " in sections[4]


@pytest.mark.parametrize("table", ["2", "tau"])
def test_tables_exit_code_flags_a_wrong_row(tmp_path, monkeypatch, table):
    monkeypatch.setenv("REPRO_RESULTS", str(tmp_path / "rows.jsonl"))
    algo = next(iter(harness.TABLES[table].algos))

    def wrong(spark, spec, kw):
        # every part keeps its size, but the partition is shifted
        return np.roll(tarjan_scc(spec.csr)[0], 1) + 100, Counters()

    monkeypatch.setitem(harness.TABLES[table].algos, algo, wrong)
    mod = load_job("tables")
    monkeypatch.setattr(mod, "get_spark", _no_session)
    argv = ["--table", table, "--scale", "0.02", "--algos", algo, "--driver-only"]
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

    def cell(spark, spec, table, algo, budget_s):
        events.append(("cell", spark))
        return harness.run_cell(None, spec, table, algo, budget_s=budget_s)

    monkeypatch.setattr(mod, "run_cell", cell)
    assert mod.main(["--table", "3cc", "--scale", "0.02", "--algos", "seq"]) == 0
    cells = len(harness.TABLES["3cc"].suite(0.02))
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
