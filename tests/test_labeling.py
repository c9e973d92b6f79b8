"""BGSS labeling tests: the numpy labeling, with its SCC detection
checked against Python sets and its signatures against the blake2b /
sorted-tuple signatures it replaced."""
import hashlib
from collections import defaultdict

import numpy as np
import pytest

from repro.core.labeling import label_batch
from tests.graph_zoo import same_partition


def _pairs(*pairs):
    v = np.asarray([p[0] for p in pairs], dtype=np.int64)
    s = np.asarray([p[1] for p in pairs], dtype=np.int64)
    return v, s


def test_intersection_finishes_with_max_source():
    # vertices 0,1 strongly connected to sources 3 and 5
    pin = _pairs((0, 3), (0, 5), (1, 3), (2, 3))
    pout = _pairs((0, 3), (0, 5), (1, 3), (1, 5))
    labels = np.full(6, -1, dtype=np.int64)
    finished = np.zeros(6, dtype=bool)
    n_new = label_batch(pin, pout, labels, finished)
    assert n_new == 2
    assert finished[0] and finished[1]
    assert labels[0] == 5 and labels[1] == 3  # max source in intersection
    assert not finished[2]


def test_one_sided_vertices_get_signature_split():
    # 2 reached only backward, 3 reached only forward, 4 untouched:
    # afterwards 2, 3, 4 must all have different labels.
    pin = _pairs((2, 9),)
    pout = _pairs((3, 9),)
    labels = np.full(10, -1, dtype=np.int64)
    finished = np.zeros(10, dtype=bool)
    label_batch(pin, pout, labels, finished)
    assert labels[2] != labels[3] != labels[4] and labels[2] != labels[4]
    assert labels[4] == -1  # untouched keeps old label
    assert labels[2] < 0 and labels[3] < 0  # signatures never collide with ids


def test_same_signature_keeps_same_label():
    pin = _pairs((2, 9), (3, 9))
    pout = _pairs((2, 9), (3, 9))
    labels = np.full(10, -1, dtype=np.int64)
    finished = np.zeros(10, dtype=bool)
    label_batch(pin, pout, labels, finished)
    # 2 and 3 are both strongly connected to 9 -> finished, same label
    assert finished[2] and finished[3] and labels[2] == labels[3] == 9


def test_refinement_only_splits():
    """Vertices with the same reachability but different old labels never
    merge; with the same old label they keep sharing one."""
    pin = _pairs((1, 0), (2, 0), (3, 0))
    labels = np.array([0, -1, -2, -1], dtype=np.int64)
    finished = np.array([True, False, False, False])
    label_batch(pin, _pairs(), labels, finished)
    assert labels[1] == labels[3] != labels[2]
    assert (labels[1:] < 0).all()


def test_empty_batch_is_noop():
    labels = np.array([-1, -1], dtype=np.int64)
    finished = np.zeros(2, dtype=bool)
    n = label_batch(_pairs(), _pairs(), labels, finished)
    assert n == 0 and labels.tolist() == [-1, -1]


def test_scc_detection_oracle():
    """The in-AND-out intersection (who finishes, with which max source)
    cross-checked against Python sets over seeded random pairs, duplicates
    included."""
    g = np.random.default_rng(6)
    pin = g.integers(0, 30, 50), g.integers(0, 5, 50)
    pout = g.integers(0, 30, 50), g.integers(0, 5, 50)
    both = set(zip(pin[0].tolist(), pin[1].tolist())) & set(
        zip(pout[0].tolist(), pout[1].tolist())
    )
    want: dict[int, int] = {}
    for v, s in both:
        want[v] = max(want.get(v, -1), s)
    labels = np.full(30, -1, dtype=np.int64)
    finished = np.zeros(30, dtype=bool)
    assert label_batch(pin, pout, labels, finished) == len(want) > 0
    assert set(np.flatnonzero(finished).tolist()) == set(want)
    assert {v: int(labels[v]) for v in want} == want
    assert (labels[~finished] < 0).all()


def _sig_hash(old_label: int, r_in: tuple, r_out: tuple) -> int:
    h = hashlib.blake2b(repr((int(old_label), r_in, r_out)).encode(), digest_size=8)
    return -(int.from_bytes(h.digest(), "big") >> 1) - 1


def _label_batch_ref(pairs_in, pairs_out, labels, finished) -> int:
    """The earlier labeling: finish on the in/out intersection with the
    largest source, then a blake2b hash of (old label, sorted R_in,
    sorted R_out) for every other touched vertex."""
    r_in, r_out = defaultdict(list), defaultdict(list)
    for (vs, ss), r in ((pairs_in, r_in), (pairs_out, r_out)):
        for v, s in zip(vs.tolist(), ss.tolist()):
            r[v].append(s)
    n_new = 0
    for v in set(r_in) & set(r_out):
        both = set(r_in[v]) & set(r_out[v])
        if both:
            n_new += not finished[v]
            finished[v] = True
            labels[v] = max(both)
    for v in set(r_in) | set(r_out):
        if not finished[v]:
            labels[v] = _sig_hash(labels[v], tuple(sorted(r_in[v])), tuple(sorted(r_out[v])))
    return n_new


def _random_batch(g, n=80, n_src=3):
    """Unique pair sets over few sources (so many vertices share their
    R_in/R_out), two old labels, and some vertices finished before."""
    sources = g.choice(n, n_src, replace=False)

    def pairs(k):
        key = g.choice(n * n_src, k, replace=False)
        return key // n_src, sources[key % n_src]

    finished = g.random(n) < 0.2
    labels = np.where(finished, np.arange(n), g.integers(-3, -1, n, endpoint=True))
    return pairs(g.integers(0, 2 * n)), pairs(g.integers(0, 2 * n)), labels, finished


@pytest.mark.parametrize("seed", range(20))
def test_same_partition_as_blake2b_signatures(seed):
    g = np.random.default_rng(seed)
    pin, pout, labels, finished = _random_batch(g)
    got_l, got_f = labels.copy(), finished.copy()
    want_l, want_f = labels.copy(), finished.copy()
    n_new = label_batch(pin, pout, got_l, got_f)
    assert n_new == _label_batch_ref(pin, pout, want_l, want_f)
    assert np.array_equal(got_f, want_f)
    assert np.array_equal(got_l[got_f], want_l[want_f])
    assert same_partition(got_l[~got_f], want_l[~want_f])
    assert (got_l[~got_f] < 0).all()
    # The pair order does not matter.
    perm_in, perm_out = g.permutation(len(pin[0])), g.permutation(len(pout[0]))
    shuf_l, shuf_f = labels.copy(), finished.copy()
    label_batch(
        (pin[0][perm_in], pin[1][perm_in]),
        (pout[0][perm_out], pout[1][perm_out]),
        shuf_l,
        shuf_f,
    )
    assert np.array_equal(shuf_l, got_l) and np.array_equal(shuf_f, got_f)
