"""Trimming tests: the degree-array pass over the CSR."""
import numpy as np
import pytest

from repro.core.scc import trim_numpy
from tests.graph_zoo import ZOO_NAMES, zoo


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_trim_numpy_matches_definition(name):
    c = zoo()[name]
    mask = trim_numpy(c)
    outdeg = np.diff(c.indptr)
    indeg = np.bincount(c.indices, minlength=c.n)
    assert np.array_equal(mask, (outdeg == 0) | (indeg == 0))


def test_trim_path_endpoints():
    c = zoo()["path"]
    mask = trim_numpy(c)
    assert mask[0] and mask[5]          # source and sink trimmed
    assert not mask[1:5].any()          # interior kept (one trim pass only)


def test_trim_cycle_nothing():
    c = zoo()["cycle"]
    assert not trim_numpy(c).any()


def test_self_loop_not_trimmed():
    c = zoo()["self_loop"]  # 0->0, 1->2
    mask = trim_numpy(c)
    assert not mask[0]
    assert mask[1] and mask[2]
