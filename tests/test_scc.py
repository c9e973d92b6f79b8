"""BGSS SCC tests: all 4 variants vs Tarjan across the zoo + properties."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.tarjan import tarjan_scc, scc_stats
from repro.core import csr as csrmod
from repro.core.scc import VARIANTS, batches, bgss_scc
from tests.graph_zoo import ZOO_NAMES, random_digraph, same_partition, zoo

ALL_VARIANTS = list(VARIANTS.keys())


@pytest.mark.parametrize("name", ZOO_NAMES)
@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_variants_match_tarjan(name, variant):
    c = zoo()[name]
    t_lab, _ = tarjan_scc(c)
    r = bgss_scc(None, csr=c, variant=variant, seed=0)
    assert same_partition(r.labels, t_lab)


@pytest.mark.parametrize("seed", range(6))
def test_random_graphs_all_variants(seed):
    g = np.random.default_rng(seed)
    c = random_digraph(int(g.integers(2, 150)), int(g.integers(0, 500)), seed + 100)
    t_lab, _ = tarjan_scc(c)
    for variant in ALL_VARIANTS:
        r = bgss_scc(None, csr=c, variant=variant, seed=seed)
        assert same_partition(r.labels, t_lab), variant


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_seed_independence(seed):
    """Different batch permutations give the same partition."""
    c = zoo()["web"]
    t_lab, _ = tarjan_scc(c)
    r = bgss_scc(None, csr=c, variant="final", seed=seed)
    assert same_partition(r.labels, t_lab)


def test_deterministic_given_seed():
    c = zoo()["rmat"]
    a = bgss_scc(None, csr=c, variant="final", seed=5)
    b = bgss_scc(None, csr=c, variant="final", seed=5)
    assert np.array_equal(a.labels, b.labels)


@pytest.mark.parametrize("beta", [1.2, 1.5, 2.0, 3.0])
def test_beta_values(beta):
    c = zoo()["rand_sparse"]
    t_lab, _ = tarjan_scc(c)
    r = bgss_scc(None, csr=c, variant="final", beta=beta, seed=1)
    assert same_partition(r.labels, t_lab)


@pytest.mark.parametrize("tau", [1, 2, 8, 64, 4096])
def test_tau_override(tau):
    c = zoo()["lattice"]
    t_lab, _ = tarjan_scc(c)
    r = bgss_scc(None, csr=c, variant="final", tau=tau, seed=1)
    assert same_partition(r.labels, t_lab)


def test_batches_cover_exactly():
    for n in [1, 2, 7, 100, 1000]:
        order = np.random.default_rng(n).permutation(n)
        for beta in [1.2, 1.5, 2.0]:
            b = batches(order, beta)
            assert np.array_equal(np.concatenate(b), order)
            assert all(len(x) >= 1 for x in b)
    assert [len(x) for x in batches(np.arange(100), 2.0)[:5]] == [1, 2, 4, 8, 16]


def test_stats_fields():
    c = zoo()["two_cliques_bridge"]
    r = bgss_scc(None, csr=c, variant="final", seed=0)
    n_scc, scc1 = scc_stats(r.labels)
    assert r.n_scc == n_scc == 2
    assert r.scc1_size == scc1 == 4


def test_counters_populated():
    c = zoo()["lattice"]
    r = bgss_scc(None, csr=c, variant="final", seed=0)
    assert r.counters.rounds > 0
    assert r.counters.edge_visits > 0
    assert "first_scc" in r.counters.phase_seconds
    assert len(r.counters.search_rounds) >= 2


@pytest.mark.parametrize("name", ZOO_NAMES)
@pytest.mark.parametrize("variant", list(VARIANTS))
def test_rounds_are_shared_fw_bw_barriers(name, variant):
    """Each batch's forward and backward searches share rounds, so the
    barrier count is the sum over batches of the longer search."""
    c = bgss_scc(None, csr=zoo()[name], variant=variant).counters
    pairs = zip(c.search_rounds[::2], c.search_rounds[1::2])
    assert c.rounds == sum(max(fw, bw) for fw, bw in pairs)


def test_vgc_reduces_total_rounds():
    """The headline mechanism: final uses far fewer rounds than plain on
    a large-diameter graph (paper Fig. 10: 3-200x)."""
    c = zoo()["lattice"]
    plain = bgss_scc(None, csr=c, variant="plain", seed=0)
    final = bgss_scc(None, csr=c, variant="final", seed=0)
    assert final.counters.rounds < plain.counters.rounds / 2


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_gbbs_and_plain_run_the_same_searches(name):
    """Two-pass frontiers and exact table sizing change visits and rehash
    cost, not frontiers, so the summary's Fig. 10 reads its tau=1 rounds
    per search from ``gbbs``."""
    plain, gbbs = (bgss_scc(None, csr=zoo()[name], variant=v).counters for v in ("plain", "gbbs"))
    assert gbbs.search_rounds == plain.search_rounds


def test_gbbs_visits_more_edges_than_plain():
    """Edge-revisit costs ~2x the edge visits of hash-bag frontiers."""
    c = zoo()["lattice"]
    plain = bgss_scc(None, csr=c, variant="plain", seed=0)
    gbbs = bgss_scc(None, csr=c, variant="gbbs", seed=0)
    # Only sparse rounds pay the second pass (dense rounds are shared by
    # both variants), so the ratio is between 1x and 2x.
    assert gbbs.counters.edge_visits > 1.2 * plain.counters.edge_visits


def test_empty_and_tiny():
    c0 = csrmod.from_arrays(0, np.array([], dtype=np.int64), np.array([], dtype=np.int64))
    assert bgss_scc(None, csr=c0, variant="final").n_scc == 0
    c1 = zoo()["singleton"]
    r = bgss_scc(None, csr=c1, variant="final")
    assert r.n_scc == 1


def test_no_edges_all_singletons():
    c = zoo()["no_edges"]
    r = bgss_scc(None, csr=c, variant="final")
    assert r.n_scc == 5 and r.scc1_size == 1


def test_timeout_raises():
    c = random_digraph(200, 800, 7)
    with pytest.raises(TimeoutError):
        bgss_scc(None, csr=c, variant="plain", time_budget_s=0.0)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(2, 80), m=st.integers(0, 300), seed=st.integers(0, 10**6))
def test_property_final_matches_tarjan(n, m, seed):
    g = np.random.default_rng(seed)
    c = csrmod.from_arrays(n, g.integers(0, n, m), g.integers(0, n, m))
    t_lab, _ = tarjan_scc(c)
    r = bgss_scc(None, csr=c, variant="final", seed=seed % 17)
    assert same_partition(r.labels, t_lab)


@pytest.mark.spark
def test_forced_spark_equals_driver(spark):
    """The Spark path must produce the same partition as the
    driver path (same kernels, same merges)."""
    c = zoo()["lattice_sparse"]
    t_lab, _ = tarjan_scc(c)
    r = bgss_scc(
        spark, csr=c, variant="final", seed=0, force_spark=True, spark_threshold=0
    )
    assert same_partition(r.labels, t_lab)
