"""Baseline SCC systems (Tarjan, Multi-step, iSpan) correctness tests."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.ispan import ispan_scc
from repro.baselines.multistep import multistep_scc
from repro.baselines.tarjan import scc_stats, tarjan_scc
from repro.core import csr as csrmod
from tests.graph_zoo import ZOO_NAMES, random_digraph, same_partition, zoo


# -- Tarjan itself (reference for the reference: hand-checked cases) ------
def test_tarjan_cycle():
    lab, visits = tarjan_scc(zoo()["cycle"])
    assert len(np.unique(lab)) == 1
    assert visits == 8


def test_tarjan_dag_all_singletons():
    lab, _ = tarjan_scc(zoo()["dag"])
    assert len(np.unique(lab)) == 7


def test_tarjan_two_cliques():
    lab, _ = tarjan_scc(zoo()["two_cliques_bridge"])
    n_scc, scc1 = scc_stats(lab)
    assert n_scc == 2 and scc1 == 4


def test_tarjan_self_loop_singleton():
    lab, _ = tarjan_scc(zoo()["self_loop"])
    assert len(np.unique(lab)) == 3


def test_tarjan_label_is_max_member():
    lab, _ = tarjan_scc(zoo()["two_cycle"])
    assert lab.tolist() == [1, 1]


def test_tarjan_allowed_mask():
    c = zoo()["cycle"]
    allowed = np.ones(8, dtype=bool)
    allowed[4] = False  # break the cycle
    lab = np.full(8, -1, dtype=np.int64)
    tarjan_scc(c, allowed=allowed, labels_out=lab)
    assert lab[4] == -1
    assert len(np.unique(lab[allowed])) == 7  # all singletons


def test_tarjan_deep_path_no_recursion_limit():
    n = 50_000
    src = np.arange(n - 1, dtype=np.int64)
    dst = src + 1
    c = csrmod.from_arrays(n, src, dst)
    lab, _ = tarjan_scc(c)
    assert len(np.unique(lab)) == n


# -- Multi-step and iSpan vs Tarjan ---------------------------------------
@pytest.mark.parametrize("name", ZOO_NAMES)
@pytest.mark.parametrize("algo", [multistep_scc, ispan_scc])
def test_baselines_match_tarjan(name, algo):
    c = zoo()[name]
    t_lab, _ = tarjan_scc(c)
    r = algo(None, c, serial_cutoff=4)
    assert same_partition(r.labels, t_lab)


@pytest.mark.parametrize("cutoff", [0, 1, 16, 10_000])
@pytest.mark.parametrize("algo", [multistep_scc, ispan_scc])
def test_serial_cutoff_values(cutoff, algo):
    c = zoo()["web"]
    t_lab, _ = tarjan_scc(c)
    r = algo(None, c, serial_cutoff=cutoff)
    assert same_partition(r.labels, t_lab)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("algo", [multistep_scc, ispan_scc])
def test_baselines_random(seed, algo):
    g = np.random.default_rng(seed + 40)
    c = random_digraph(int(g.integers(2, 120)), int(g.integers(0, 400)), seed + 41)
    t_lab, _ = tarjan_scc(c)
    r = algo(None, c, serial_cutoff=8)
    assert same_partition(r.labels, t_lab)


@pytest.mark.spark
@pytest.mark.parametrize("name", ["two_cliques_bridge", "rmat"])
def test_multistep_forced_spark_matches_tarjan(spark, name):
    """Reach and ``color_max`` rounds run as Spark jobs; ``serial_cutoff=0``
    keeps Tarjan from finishing the graph before the coloring loop."""
    c = zoo()[name]
    t_lab, _ = tarjan_scc(c)
    r = multistep_scc(spark, c, serial_cutoff=0, force_spark=True, spark_threshold=0)
    assert same_partition(r.labels, t_lab)


def test_multistep_counts_rounds_on_large_diameter():
    c = zoo()["lattice"]
    r = multistep_scc(None, c, serial_cutoff=4)
    assert r.counters.rounds > 0


def test_ispan_many_sccs_explodes_rounds():
    """FW-BW D&C pays a pivot search per subproblem: with serial cutoff
    disabled it needs far more rounds than the number-of-SCC-rich graph
    would suggest — the paper's iSpan-on-GL2 failure mode."""
    c = zoo()["lattice_sparse"]
    r_cut = ispan_scc(None, c, serial_cutoff=64)
    r_nocut = ispan_scc(None, c, serial_cutoff=0)
    assert r_nocut.counters.rounds > r_cut.counters.rounds


@pytest.mark.parametrize("algo", [multistep_scc, ispan_scc])
def test_baseline_timeout(algo):
    c = random_digraph(300, 900, 50)
    with pytest.raises(TimeoutError):
        algo(None, c, serial_cutoff=0, time_budget_s=0.0)


@settings(max_examples=10, deadline=None)
@given(n=st.integers(2, 60), m=st.integers(0, 200), seed=st.integers(0, 10**6))
def test_property_baselines(n, m, seed):
    g = np.random.default_rng(seed)
    c = csrmod.from_arrays(n, g.integers(0, n, m), g.integers(0, n, m))
    t_lab, _ = tarjan_scc(c)
    assert same_partition(multistep_scc(None, c, serial_cutoff=4).labels, t_lab)
    assert same_partition(ispan_scc(None, c, serial_cutoff=4).labels, t_lab)
