"""LE-lists tests: exact equality with Cohen's sequential algorithm."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.seq_lelists import seq_le_lists
from repro.core import csr as csrmod
from repro.core import engine as enginemod
from repro.lelists.lelists import le_lists
from tests.graph_zoo import ZOO_NAMES, zoo_sym


def run_both(c, seed=0, variant="ours"):
    order = np.random.default_rng(seed).permutation(c.n).astype(np.int64)
    truth = seq_le_lists(c, order)
    got = le_lists(None, csr=c, order=order, variant=variant)
    return got, truth


@pytest.mark.parametrize("name", ZOO_NAMES)
@pytest.mark.parametrize("variant", ["ours", "parlay"])
def test_exact_match_cohen(monkeypatch, name, variant):
    """Also with a tiny ``GRAIN``, so that the rounds take up to 4 slices
    and a pair can come back from several tasks."""
    c = zoo_sym()[name]
    if c.n == 0:
        return
    got, truth = run_both(c, seed=1, variant=variant)
    assert got.lists == truth
    monkeypatch.setattr(enginemod, "GRAIN", 1)
    got, _ = run_both(c, seed=1, variant=variant)
    assert got.lists == truth


@pytest.mark.parametrize("seed", range(4))
def test_random_orders(seed):
    c = zoo_sym()["knn"]
    got, truth = run_both(c, seed=seed)
    assert got.lists == truth


def test_first_priority_vertex_reaches_component():
    """The highest-priority vertex appears in the LE-list of everything
    in its connected component."""
    c = zoo_sym()["cycle"]
    order = np.arange(c.n, dtype=np.int64)
    got = le_lists(None, csr=c, order=order)
    for v in range(c.n):
        assert got.lists[v][0][0] == 0


def test_distances_strictly_decreasing():
    c = zoo_sym()["lattice"]
    got, _ = run_both(c, seed=2)
    for lst in got.lists:
        ds = [d for _, d in lst]
        assert all(a > b for a, b in zip(ds, ds[1:]))


def test_list_sizes_logarithmic():
    """E[|LE-list|] = O(log n): check the average is modest."""
    c = zoo_sym()["rmat"]
    got, _ = run_both(c, seed=3)
    avg = got.total_size() / c.n
    assert avg < 4 * np.log2(c.n)


def test_parlay_costs_more_visits():
    c = zoo_sym()["lattice"]
    order = np.random.default_rng(4).permutation(c.n).astype(np.int64)
    ours = le_lists(None, csr=c, order=order, variant="ours")
    par = le_lists(None, csr=c, order=order, variant="parlay")
    assert par.counters.edge_visits > ours.counters.edge_visits
    assert ours.lists == par.lists


def test_rounds_and_pairs_counted():
    c = zoo_sym()["path"]
    got = le_lists(None, csr=c, order=np.arange(c.n, dtype=np.int64))
    assert got.counters.rounds > 0
    assert got.counters.pair_inserts > 0


def test_default_order_seeded():
    c = zoo_sym()["knn"]
    a = le_lists(None, csr=c, seed=9)
    b = le_lists(None, csr=c, seed=9)
    assert a.lists == b.lists


@settings(max_examples=10, deadline=None)
@given(n=st.integers(2, 40), m=st.integers(0, 100), seed=st.integers(0, 10**6))
def test_property_match_cohen(n, m, seed):
    g = np.random.default_rng(seed)
    s, d = g.integers(0, n, m), g.integers(0, n, m)
    s2, d2 = np.concatenate([s, d]), np.concatenate([d, s])
    keep = s2 != d2
    c = csrmod.from_arrays(n, s2[keep], d2[keep])
    got, truth = run_both(c, seed=seed % 7)
    assert got.lists == truth


@pytest.mark.spark
def test_forced_spark_matches(spark):
    c = zoo_sym()["knn"]
    order = np.random.default_rng(5).permutation(c.n).astype(np.int64)
    truth = seq_le_lists(c, order)
    got = le_lists(spark, csr=c, order=order, force_spark=True, spark_threshold=0)
    assert got.lists == truth
