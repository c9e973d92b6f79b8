"""Per-layer tracing from outside the program.

:class:`Tracer` replaces the public entry points of each layer with timed
wrappers for the duration of a ``with`` block, records one span per call
(layer name, duration, self time = duration minus the time its child
spans cover) and a few counts read from the calls' arguments and results.
Nothing inside ``repro`` is edited; leaving the block restores every
original attribute.

Layers and the entry points that stand for them:

- ``phase.<name>``      ``counters.PhaseTimer`` (the paper's Fig. 9 phases)
- ``reach``             ``single_reach``
- ``multireach``        ``multi_reach``
- ``pairtable``         ``PairTable.insert``
- ``labeling``          ``label_batch``
- ``trim``              ``trim_numpy``
- ``ldd``               ``ldd``
- ``engine.round``      ``Engine.round``
- ``engine.create_df``  ``SparkSession.createDataFrame`` inside a round
- ``engine.job``        ``DataFrame.toPandas`` inside a round (repartition,
                        ``mapInPandas`` and collect)
- ``csr.broadcast`` / ``csr.transpose`` / ``csr.destroy``

What each group of per-layer metrics should move:

- ``engine.*`` (rounds, round time, ``createDataFrame`` and job time, the
  empty-round floor): ``solve_s`` on both workloads, most on scc-lattice,
  where rounds are nearly the whole solve;
- ``engine.closure_mb``, ``csr.broadcast_*``: ``solve_s`` and
  ``driver_rss_mb``, growing with the graph size;
- ``graphs.gen_s``, ``csr.build_s``: ``setup_s``;
- ``kernels.*`` (driver-path replay) and ``kernels.overlap``: ``solve_s``
  on cc-road, whose frontiers are large;
- ``reach.*``, ``multireach.*``, ``pairtable.*``, ``labeling.*``,
  ``trim.s``, ``scc.*``: ``solve_s`` on scc-lattice;
- ``ldd.*``, ``cc.union_find_s``: ``solve_s`` on cc-road.
"""
from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from repro.cc import connectivity
from repro.core import counters as countersmod
from repro.core import csr as csrmod
from repro.core import engine as enginemod
from repro.core import multireach as multireachmod
from repro.core import scc as sccmod


def _nbytes(params: dict) -> int:
    return sum(v.nbytes for v in params.values() if isinstance(v, np.ndarray))


class Tracer:
    """Collects spans and counts for the solves run inside ``with``."""

    def __init__(self, spark):
        self.spark = spark
        self._stack: list[list] = []  # [layer, t0, child seconds]
        self._patches: list[tuple[object, str, object]] = []
        self.total = defaultdict(float)  # layer -> seconds
        self.self_s = defaultdict(float)  # layer -> seconds minus children
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.round_s: list[float] = []

    def reset(self) -> None:
        for d in (self.total, self.self_s, self.calls, self.counts):
            d.clear()
        self.round_s.clear()

    # -- span bookkeeping -------------------------------------------------
    def _enter(self, layer: str) -> None:
        self._stack.append([layer, time.perf_counter(), 0.0])

    def _exit(self, layer: str) -> float:
        name, t0, child = self._stack.pop()
        assert name == layer, (name, layer)
        dur = time.perf_counter() - t0
        if self._stack:
            self._stack[-1][2] += dur
        self.total[layer] += dur
        self.self_s[layer] += dur - child
        self.calls[layer] += 1
        return dur

    def inside(self, layer: str) -> bool:
        return any(f[0] == layer for f in self._stack)

    def span(self, layer: str, fn, *args, **kwargs):
        self._enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(layer)

    # -- patching ---------------------------------------------------------
    def _patch(self, owner, attr: str, make) -> None:
        orig = getattr(owner, attr)
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def _timed(self, layer: str, after=None):
        def make(orig):
            def wrapper(*args, **kwargs):
                self._enter(layer)
                try:
                    out = orig(*args, **kwargs)
                finally:
                    dur = self._exit(layer)
                if after is not None:
                    after(dur, out, *args, **kwargs)
                return out

            return wrapper

        return make

    def _in_round(self, layer: str):
        """Wrap a Spark call, timing it only when an engine round made it."""

        def make(orig):
            def wrapper(*args, **kwargs):
                if not self.inside("engine.round"):
                    return orig(*args, **kwargs)
                return self.span(layer, orig, *args, **kwargs)

            return wrapper

        return make

    def __enter__(self) -> "Tracer":
        c = self.counts
        T = self._timed

        def after_round(dur, out, engine, kernel, pdf, params):
            self.round_s.append(dur)
            c["engine.frontier_rows"] += len(pdf)
            c["engine.result_rows"] += len(out)
            c["engine.closure_bytes"] += _nbytes(params)

        def after_reach(dur, res, *a, **k):
            c["reach.dense_rounds"] += res.dense_rounds
            c["reach.sparse_rounds"] += res.sparse_rounds

        def around_multi(orig):
            def wrapper(engine, *args, **kwargs):
                v0 = engine.counters.edge_visits
                out = self.span("multireach", orig, engine, *args, **kwargs)
                c["multireach.pairs"] += len(out.pairs_v)
                c["multireach.visits"] += engine.counters.edge_visits - v0
                return out

            return wrapper

        def after_label(dur, out, pairs_in, pairs_out, labels, finished):
            c["labeling.touched"] += len(np.union1d(pairs_in[0], pairs_out[0]))

        def after_ldd(dur, res, *a, **k):
            c["ldd.rounds"] += res.rounds

        def after_broadcast(dur, out, gb, *a, **k):
            arrays = (gb.csr.indptr, gb.csr.indices, gb.csr_t.indptr, gb.csr_t.indices)
            c["csr.broadcast_bytes"] += sum(x.nbytes for x in arrays)

        def phase_enter(orig):
            def wrapper(timer):
                self._enter("phase." + timer.name)
                return orig(timer)

            return wrapper

        def phase_exit(orig):
            def wrapper(timer, *exc):
                out = orig(timer, *exc)
                self._exit("phase." + timer.name)
                return out

            return wrapper

        P = self._patch
        P(countersmod.PhaseTimer, "__enter__", phase_enter)
        P(countersmod.PhaseTimer, "__exit__", phase_exit)
        P(sccmod, "single_reach", T("reach", after_reach))
        P(sccmod, "multi_reach", around_multi)
        P(multireachmod.PairTable, "insert", T("pairtable"))
        P(sccmod, "label_batch", T("labeling", after_label))
        P(sccmod, "trim_numpy", T("trim"))
        P(connectivity, "ldd", T("ldd", after_ldd))
        P(enginemod.Engine, "round", T("engine.round", after_round))
        P(type(self.spark), "createDataFrame", self._in_round("engine.create_df"))
        P(type(self.spark.range(1)), "toPandas", self._in_round("engine.job"))
        P(csrmod.GraphBroadcast, "__init__", T("csr.broadcast", after_broadcast))
        P(csrmod.GraphBroadcast, "destroy", T("csr.destroy"))
        P(csrmod.CSR, "transpose", T("csr.transpose"))
        return self

    def __exit__(self, *exc) -> bool:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)
        return False


class KernelTimer:
    """Times each kernel on the driver path (``spark=None`` replay) by
    swapping the entries of ``engine.KERNELS`` for timed wrappers."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self._orig: dict = {}

    def __enter__(self) -> "KernelTimer":
        self._orig = dict(enginemod.KERNELS)
        for name, fn in self._orig.items():
            enginemod.KERNELS[name] = self._wrap(name, fn)
        return self

    def _wrap(self, name, fn):
        def wrapper(*args):
            t0 = time.perf_counter()
            try:
                return fn(*args)
            finally:
                self.seconds[name] += time.perf_counter() - t0

        return wrapper

    def __exit__(self, *exc) -> bool:
        enginemod.KERNELS.update(self._orig)
        return False


def layer_metrics(per_solve: list[dict]) -> dict[str, float]:
    """Median over solves of each per-solve value."""
    if not per_solve:
        return {}
    return {k: float(np.median([d[k] for d in per_solve])) for k in per_solve[0]}


def solve_layers(tr: Tracer, counters, solve_s: float) -> dict[str, float]:
    """Per-layer values of one traced solve (``tr`` reset before it)."""
    c, tot, own = tr.counts, tr.total, tr.self_s
    rounds = max(1, counters.rounds)
    calls = tr.calls["pairtable"]
    ph = counters.phase_seconds
    covered = sum(own.values())
    return {
        "engine.rounds": counters.rounds,
        "engine.round_s": tot["engine.round"],
        "engine.create_df_s": tot["engine.create_df"],
        "engine.job_s": tot["engine.job"],
        "engine.frontier_rows": c["engine.frontier_rows"],
        "engine.result_rows": c["engine.result_rows"],
        "engine.closure_mb": c["engine.closure_bytes"] / rounds / 2**20,
        "csr.broadcast_s": tot["csr.broadcast"],
        "csr.broadcast_mb": c["csr.broadcast_bytes"] / 2**20,
        "csr.transpose_s": tot["csr.transpose"],
        "kernels.edge_visits": counters.edge_visits,
        "reach.s": tot["reach"],
        "reach.self_s": own["reach"],
        "reach.dense_rounds": c["reach.dense_rounds"],
        "reach.sparse_rounds": c["reach.sparse_rounds"],
        "multireach.s": tot["multireach"],
        "multireach.self_s": own["multireach"],
        "multireach.pairs": c["multireach.pairs"],
        "multireach.yield": c["multireach.pairs"] / max(1, c["multireach.visits"]),
        "pairtable.insert_calls": calls,
        "pairtable.inserts": counters.pair_inserts,
        "pairtable.new_ratio": counters.pair_inserts / max(1, calls),
        "pairtable.insert_s": tot["pairtable"],
        "pairtable.rehash_cost": counters.table_rehash_cost,
        "labeling.s": tot["labeling"],
        "labeling.touched": c["labeling.touched"],
        "trim.s": tot["trim"],
        "scc.trim_s": ph.get("trim", 0.0),
        "scc.first_scc_s": ph.get("first_scc", 0.0),
        "scc.multi_search_s": ph.get("multi_search", 0.0),
        "scc.labeling_s": ph.get("labeling", 0.0),
        "ldd.s": tot["ldd"],
        "ldd.rounds": c["ldd.rounds"],
        "cc.union_find_s": ph.get("union_find", 0.0),
        "trace.solve_s": solve_s,
        "trace.coverage": covered / solve_s if solve_s > 0 else 0.0,
    }
