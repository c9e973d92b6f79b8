"""Repository benchmark: BGSS SCC and LDD-UF-JTB connectivity on the
forced-Spark path, with every answer checked against the sequential oracle.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload scc-lattice --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke      # every workload and metric, tiny graphs

One run starts its own local Spark session and measures one workload:

- set-up, paid once per run: session start, a job that checks the executors import
  ``repro`` from this checkout, graph generation and CSR build, and the cold
  first solve;
- ``--trace 0``: warm solves, rotating over the workload's graphs, until
  ``--seconds`` have passed; prints the end-to-end metrics;
- ``--trace 1``: untraced then traced solves (see ``layers.py``), half of
  ``--seconds`` each, an empty-round probe and a driver-path replay of the
  traced graphs; prints the per-layer metrics.

The metric names and units are those of ``BENCHMARK.json``.  The last line
of stdout is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the line before it records the host context.  A solve fails
when its partition differs from the oracle's or it raises ``TimeoutError``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shlex
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
MASTER = "local[4]"
DRIVER_MEMORY = "1g"
FLOOR_WARMUP, FLOOR_ROUNDS = 2, 5
MIN_COVERAGE = 0.95


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def configure_env() -> None:
    """Point the driver and the executors at this checkout's ``src`` and
    keep every file Spark writes inside the checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no repro package under {SRC}; run from the root of a checkout")
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    # C1-only JIT: a run's JVM lives about a minute, and with the default
    # tiered C2 compiler the per-round cost of one run differed from the
    # next by up to 30% on a 4-core host; C1 settles within the cold solve.
    # No perf-data file (it would go to /tmp).
    os.environ["JAVA_TOOL_OPTIONS"] = (
        f"-XX:TieredStopAtLevel=1 -XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    )
    os.environ["PYSPARK_SUBMIT_ARGS"] = shlex.join(
        [
            "--master", MASTER,
            "--driver-memory", DRIVER_MEMORY,
            "--conf", "spark.driver.host=127.0.0.1",
            "--conf", "spark.ui.enabled=false",
            "--conf", f"spark.local.dir={WORK / 'local'}",
            "--conf", f"spark.sql.warehouse.dir={WORK / 'warehouse'}",
            "pyspark-shell",
        ]
    )


def start_spark():
    """The session settings of ``jobs/table2_scc.py``."""
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM it launched to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
        proc = getattr(gateway, "proc", None)
        if proc is not None:
            proc.stdin.close()
            proc.wait(timeout=60)


def _worker_repro(_):
    try:
        import repro
    except ImportError as e:
        return f"{type(e).__name__}: {e}"
    return repro.__file__


def check_workers(spark) -> None:
    """One trivial job per core; each task imports ``repro``."""
    sc = spark.sparkContext
    p = sc.defaultParallelism
    try:
        got = set(sc.parallelize(range(p), p).map(_worker_repro).collect())
    except Exception as e:  # a Py4J error carrying a Java stack trace
        fail(f"executor import check failed: {str(e).splitlines()[0]}")
    want = str(SRC / "repro" / "__init__.py")
    if got != {want}:
        fail(f"executors do not import repro from {SRC}: {sorted(got - {want})[0]}")


def host_context(spark, workload: str, seed: int) -> dict:
    import inspect

    from repro.core.engine import Engine

    sc = spark.sparkContext
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "spark_version": spark.version,
        "master": sc.master,
        "default_parallelism": sc.defaultParallelism,
        "npartitions": inspect.signature(Engine).parameters["npartitions"].default,
        "driver_memory": spark.conf.get("spark.driver.memory"),
        "python": sys.version.split()[0],
    }


def floor_probe(spark) -> float:
    """Median wall time of ``Engine.round`` on a 1-row frontier over a
    2-vertex graph: the fixed cost of one round."""
    from repro.core import csr as csrmod
    from repro.core.counters import Counters
    from repro.core.engine import Engine, frontier_pdf

    g = csrmod.from_arrays(2, np.array([0]), np.array([1]))
    engine = Engine(spark, g, Counters(), force_spark=True, spark_threshold=0)
    params = {
        "direction": "fwd",
        "visited": np.zeros(2, dtype=bool),
        "tau": 1,
        "two_pass": False,
        "finished": None,
        "restrict": None,
    }
    times = []
    try:
        for i in range(FLOOR_WARMUP + FLOOR_ROUNDS):
            t0 = time.perf_counter()
            engine.round("sparse_reach", frontier_pdf([0]), params)
            if i >= FLOOR_WARMUP:
                times.append(time.perf_counter() - t0)
    finally:
        engine.close()
    return float(np.median(times))


class Session:
    """Solves and verifies one workload's graphs; keeps the run's tallies."""

    def __init__(self, wl, graphs):
        self.wl = wl
        self.graphs = graphs
        self.attempted = 0
        self.failed = 0
        self.counters = defaultdict(set)  # graph seed -> mechanism counters
        self.errors: list[str] = []

    def solve(self, g, spark):
        """Timed solve; returns (seconds, counters), or None if it failed."""
        from workloads import canonical, solve

        self.attempted += 1
        t0 = time.perf_counter()
        try:
            labels, counters = solve(self.wl.kind, spark, g.csr)
        except TimeoutError:
            self.failed += 1
            self.errors.append(f"graph {g.seed}: solve budget exceeded")
            return None
        seconds = time.perf_counter() - t0
        path = "spark" if spark is not None else "driver"
        print(f"perfbench: {path} solve graph {g.seed}: {seconds:.3f} s", file=sys.stderr)
        if not np.array_equal(canonical(labels), g.truth):
            self.failed += 1
            self.errors.append(f"graph {g.seed}: partition differs from the oracle")
            return None
        if spark is not None:
            c = counters
            key = (c.rounds, c.edge_visits, c.pair_inserts, c.table_rehash_cost)
            self.counters[g.seed].add(key)
        return seconds, counters

    def warm_solves(self, spark, seconds: float, on_solve=None) -> list[tuple]:
        """Rotate over the graphs, starting after graph 0 (which had the
        cold solve), until ``seconds`` have passed; at least one solve.
        Returns (graph, seconds, counters) per successful solve.
        ``on_solve(result)`` runs right after each solve, ``None`` for a
        failed one."""
        done = []
        t0 = time.perf_counter()
        i = 0
        while i == 0 or time.perf_counter() - t0 < seconds:
            g = self.graphs[(i + 1) % len(self.graphs)]
            i += 1
            r = self.solve(g, spark)
            if r is not None:
                done.append((g, *r))
            if on_solve is not None:
                on_solve(r)
        return done

    def self_check(self) -> None:
        for seed, keys in self.counters.items():
            if len(keys) > 1:
                self.errors.append(f"graph {seed}: mechanism counters differ between solves: {sorted(keys)}")


def make_graphs(wl, seed: int, smoke: bool):
    from repro.core import csr as csrmod
    from workloads import GRAPHS, Graph, oracle

    gen = wl.smoke if smoke else wl.generate
    graphs = []
    for i in range(GRAPHS):
        gseed = seed * 100 + i
        t0 = time.perf_counter()
        n, src, dst = gen(gseed)
        t1 = time.perf_counter()
        csr = csrmod.from_arrays(n, src, dst)
        t2 = time.perf_counter()
        g = Graph(gseed, n, src, dst, csr, gen_s=t1 - t0, build_s=t2 - t1)
        g.truth = oracle(wl.kind, g)
        g.verify_s = time.perf_counter() - t2
        graphs.append(g)
    return graphs


def run_workload(spark, wl, seed: int, seconds: float, trace: bool, smoke: bool, start_s: float):
    """One benchmark run on a started session; ``start_s`` is the session
    start plus worker import check.  Returns (ok, attempted, failed, values)."""
    graphs = make_graphs(wl, seed, smoke)
    s = Session(wl, graphs)
    cold = s.solve(graphs[0], spark)
    graph_s = np.median([g.gen_s + g.build_s for g in graphs])
    setup_s = start_s + graph_s + (cold[0] if cold else 0.0)

    # A traced run splits its window between untraced and traced solves.
    window = seconds / 2 if trace else seconds
    warm = s.warm_solves(spark, window)
    solve_s = float(np.median([t for _, t, _ in warm])) if warm else 0.0
    values = {
        "solve_s": solve_s,
        "setup_s": setup_s,
        "driver_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        values.update(trace_layers(spark, s, window, solve_s))
        values["graphs.gen_s"] = float(np.median([g.gen_s for g in graphs]))
        values["csr.build_s"] = float(np.median([g.build_s for g in graphs]))
        values["verify_s"] = float(np.median([g.verify_s for g in graphs]))
    values["ok_share"] = 1.0 - s.failed / s.attempted
    s.self_check()
    for e in s.errors:
        print(f"perfbench: {wl.name}: {e}", file=sys.stderr)
    return not s.errors, s.attempted, s.failed, values


def trace_layers(spark, s: Session, seconds: float, untraced_s: float) -> dict:
    """Per-layer values: traced solves for ``seconds``, the empty-round
    probe, and a driver-path replay of the traced graphs."""
    from layers import KernelTimer, Tracer, layer_metrics, solve_layers
    from repro.core.engine import KERNELS

    per_solve, rounds_s = [], []
    with Tracer(spark) as tr:

        def collect(r):
            if r is not None:
                per_solve.append(solve_layers(tr, r[1], r[0]))
                rounds_s.extend(tr.round_s)
            tr.reset()

        traced = s.warm_solves(spark, seconds, on_solve=collect)
    out = layer_metrics(per_solve)
    if out and out["trace.coverage"] < MIN_COVERAGE:
        s.errors.append(
            f"traced layers cover {out['trace.coverage']:.3f} of solve_s, below {MIN_COVERAGE}"
        )
    out["engine.round_p50_s"] = float(np.quantile(rounds_s, 0.5)) if rounds_s else 0.0
    out["engine.round_p90_s"] = float(np.quantile(rounds_s, 0.9)) if rounds_s else 0.0
    traced_s = float(np.median([t for _, t, _ in traced])) if traced else 0.0
    out["trace.overhead_s"] = traced_s - untraced_s
    out["engine.floor_s"] = floor_probe(spark)

    replay = []
    for (g, _, _), spark_layers in zip(traced, per_solve):
        with KernelTimer() as kt:
            r = s.solve(g, None)
        if r is None:
            continue
        d = {f"kernels.{k}_s": kt.seconds.get(k, 0.0) for k in KERNELS}
        d["kernels.overlap"] = spark_layers["kernels.edge_visits"] / max(1, r[1].edge_visits)
        replay.append(d)
    out.update(layer_metrics(replay))
    return out


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def result_line(spec, ok, attempted, failed, values, trace: bool) -> dict:
    """The result object; a run whose solves all failed reports 0 for the
    metrics it could not measure."""
    group = spec["per_layer"] if trace else spec["end_to_end"]
    ok = ok and failed == 0
    missing = [m["name"] for m in group if m["name"] not in values]
    if missing and ok:
        fail(f"no value for metrics {missing}")
    return {
        "correct": ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in group
        },
    }


def smoke(spark, spec, start_s: float) -> int:
    """Every workload, untraced and traced, on tiny graphs."""
    from workloads import WORKLOADS

    bad = 0
    for name in [w["name"] for w in spec["workloads"]]:
        for trace in (False, True):
            line = result_line(
                spec, *run_workload(spark, WORKLOADS[name], 1, 0, trace, True, start_s), trace
            )
            print(json.dumps({"workload": name, "trace": int(trace), **line}))
            bad += not line["correct"]
    print(f"perfbench smoke: {'ok' if bad == 0 else f'{bad} failing runs'}")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny graphs, every workload")
    args = ap.parse_args(argv)
    configure_env()
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if not args.smoke and args.workload not in names:
        ap.error(f"--workload must be one of {names}")

    t0 = time.perf_counter()
    spark = start_spark()
    try:
        check_workers(spark)
        start_s = time.perf_counter() - t0
        if args.smoke:
            return smoke(spark, spec, start_s)
        from workloads import WORKLOADS

        res = run_workload(
            spark, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), False, start_s
        )
        print(json.dumps({"context": host_context(spark, args.workload, args.seed)}))
        print(json.dumps(result_line(spec, *res, bool(args.trace))))
        return 0
    finally:
        stop_spark(spark)


if __name__ == "__main__":
    sys.exit(main())
