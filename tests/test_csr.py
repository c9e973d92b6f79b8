"""CSR substrate tests."""
import numpy as np

from repro.core import csr as csrmod


def test_from_arrays_basic():
    c = csrmod.from_arrays(4, np.array([0, 0, 2]), np.array([1, 2, 3]))
    assert c.n == 4 and c.m == 3
    assert c.neighbors(0).tolist() == [1, 2]
    assert c.neighbors(1).tolist() == []
    assert c.neighbors(2).tolist() == [3]


def test_out_degree():
    c = csrmod.from_arrays(3, np.array([0, 0, 1]), np.array([1, 2, 0]))
    assert c.out_degree().tolist() == [2, 1, 0]


def test_duplicates_preserved():
    c = csrmod.from_arrays(2, np.array([0, 0]), np.array([1, 1]))
    assert c.neighbors(0).tolist() == [1, 1]


def test_empty_graph():
    c = csrmod.from_arrays(3, np.array([], dtype=np.int64), np.array([], dtype=np.int64))
    assert c.m == 0 and c.n == 3


def test_transpose_involution():
    g = np.random.default_rng(0)
    src, dst = g.integers(0, 50, 200), g.integers(0, 50, 200)
    c = csrmod.from_arrays(50, src, dst)
    ct = c.transpose()
    ctt = ct.transpose()
    # same multiset of edges
    def edge_set(x):
        s = np.repeat(np.arange(x.n), np.diff(x.indptr))
        return sorted(zip(s.tolist(), x.indices.tolist()))
    assert edge_set(ctt) == edge_set(c)
    assert edge_set(ct) == sorted(zip(dst.tolist(), src.tolist()))


def test_transpose_degrees_swap():
    c = csrmod.from_arrays(3, np.array([0, 1, 2]), np.array([1, 2, 0]))
    assert c.transpose().out_degree().tolist() == [1, 1, 1]
