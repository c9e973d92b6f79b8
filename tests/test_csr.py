"""CSR substrate tests."""
import numpy as np

from repro.core import csr as csrmod
from tests.graph_zoo import zoo, zoo_sym


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


def test_transpose_is_built_once(monkeypatch):
    """A repeated ``transpose()`` returns the Gᵀ the first call built."""
    c = zoo()["web"]
    built = []
    make = csrmod.from_arrays
    monkeypatch.setattr(csrmod, "from_arrays", lambda *a: built.append(a) or make(*a))
    t = c.transpose()
    assert c.transpose() is t and len(built) == 1
    assert c.arrays()[2] is t.indptr and len(built) == 1


def test_transpose_of_transpose_is_the_graph():
    c = zoo()["rmat"]
    assert c.transpose() is not c
    assert c.transpose().transpose() is c


def test_symmetric_graph_is_its_own_transpose():
    for name, c in zoo_sym().items():
        assert c.transpose() is c, name
        assert all(a is b for a, b in zip(c.arrays(), (c.indptr, c.indices) * 2)), name
    path = zoo()["path"]
    assert path.transpose() is not path
    assert path.transpose().neighbors(1).tolist() == [0]
