"""Single-reachability tests: VGC local search vs plain BFS vs numpy truth."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import csr as csrmod
from repro.core.counters import Counters
from repro.core.engine import Engine, frontier_pdf
from repro.core.kernels import SENTINEL, k_dense_reach, k_sparse_reach, local_search
from repro.core.reach import single_reach
from tests.graph_zoo import ZOO_NAMES, bfs_level_count, random_digraph, zoo


def truth_reach(c, sources, direction="fwd", finished=None, restrict=None):
    """Reference reachability via plain python BFS."""
    g = c if direction == "fwd" else c.transpose()
    visited = np.zeros(c.n, dtype=bool)
    stack = [int(s) for s in sources if finished is None or not finished[s]]
    for s in stack:
        visited[s] = True
    while stack:
        v = stack.pop()
        for u in g.neighbors(v).tolist():
            if finished is not None and finished[u]:
                continue
            if restrict is not None and restrict[u] != restrict[v]:
                continue
            if not visited[u]:
                visited[u] = True
                stack.append(u)
    return visited


def make_engine(c, **kw):
    return Engine(None, c, Counters(), **kw)


@pytest.mark.parametrize("name", ZOO_NAMES)
@pytest.mark.parametrize("tau", [1, 4, 512])
def test_reach_matches_truth(name, tau):
    c = zoo()[name]
    if c.n == 0:
        return
    eng = make_engine(c)
    src = np.array([0])
    r = single_reach(eng, src, tau=tau)
    assert np.array_equal(r.visited, truth_reach(c, src))


@pytest.mark.parametrize("name", ["rand_sparse", "rmat", "lattice", "knn"])
@pytest.mark.parametrize("direction", ["fwd", "bwd"])
def test_reach_backward(name, direction):
    c = zoo()[name]
    eng = make_engine(c)
    src = np.array([1, 5])
    r = single_reach(eng, src, direction=direction, tau=8)
    assert np.array_equal(r.visited, truth_reach(c, src, direction))


@pytest.mark.parametrize("tau", [1, 2, 16, 512])
def test_dense_and_sparse_agree(tau):
    c = random_digraph(80, 600, 11)
    r_dense = single_reach(make_engine(c), np.array([0]), tau=tau, dense=True)
    r_sparse = single_reach(make_engine(c), np.array([0]), tau=tau, dense=False)
    assert np.array_equal(r_dense.visited, r_sparse.visited)


def test_dense_mode_triggers_on_dense_graph():
    c = random_digraph(60, 1500, 12)
    eng = make_engine(c)
    r = single_reach(eng, np.array([0]), tau=1, dense=True)
    assert r.dense_rounds > 0


def test_finished_mask_blocks():
    # path 0->1->2->3->4->5 with 3 finished: reach from 0 stops at 2
    c = zoo()["path"]
    finished = np.zeros(6, dtype=bool)
    finished[3] = True
    r = single_reach(make_engine(c), np.array([0]), tau=512, finished=finished)
    assert r.visited.tolist() == [True, True, True, False, False, False]


def test_finished_source_skipped():
    c = zoo()["path"]
    finished = np.zeros(6, dtype=bool)
    finished[0] = True
    r = single_reach(make_engine(c), np.array([0]), tau=1, finished=finished)
    assert not r.visited.any()


def test_restrict_blocks_cross_label_edges():
    c = zoo()["path"]  # 0->1->2->3->4->5
    restrict = np.array([7, 7, 7, 9, 9, 9])
    r = single_reach(make_engine(c), np.array([0]), tau=512, restrict=restrict)
    assert r.visited.tolist() == [True, True, True, False, False, False]


def test_vgc_reduces_rounds_on_path():
    c = zoo()["path"]
    r1 = single_reach(make_engine(c), np.array([0]), tau=1, dense=False)
    r2 = single_reach(make_engine(c), np.array([0]), tau=512, dense=False)
    # one hop per round: 5 discovery rounds + the final empty-expansion
    # round on the path's sink
    assert r1.rounds == 6
    assert r2.rounds == 1  # entire path in one local search
    assert np.array_equal(r1.visited, r2.visited)


def test_vgc_round_reduction_lattice():
    """Fig. 10 mechanism: local search cuts rounds by a large factor."""
    from repro.graphs import generators as gen

    src, dst = gen.lattice_oriented(16, 16, seed=1)
    c = csrmod.from_arrays(256, src, dst)
    r1 = single_reach(make_engine(c), np.array([3]), tau=1, dense=False)
    r2 = single_reach(make_engine(c), np.array([3]), tau=512, dense=False)
    assert np.array_equal(r1.visited, r2.visited)
    assert r2.rounds <= max(2, r1.rounds // 3)


def test_two_pass_doubles_edge_visits():
    c = zoo()["rand_sparse"]
    e1 = make_engine(c)
    single_reach(e1, np.array([0]), tau=1, two_pass=False, dense=False)
    e2 = make_engine(c)
    single_reach(e2, np.array([0]), tau=1, two_pass=True, dense=False)
    assert e2.counters.edge_visits == 2 * e1.counters.edge_visits


def test_partial_expansion_requeue():
    """tau smaller than a hub's degree: the hub is re-queued and the
    search still completes."""
    c = zoo()["star_out"]  # 0 -> 1..8
    # star center has deg 8 > tau=1 -> standard path; use a custom graph:
    # one vertex with 6 out-edges reached through a path so it enters a
    # local search with a small budget via its parent.
    src = np.array([0, 1, 1, 1, 1, 1, 1])
    dst = np.array([1, 2, 3, 4, 5, 6, 7])
    c = csrmod.from_arrays(8, src, dst)
    r = single_reach(make_engine(c), np.array([0]), tau=3, dense=False)
    assert r.visited.all()


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_local_search_fully_expands_its_start(name):
    """The start vertex is never cut and nothing ``admit`` rejected is
    handed back: ``queue[0] == v``, ``qi >= 1`` and ``queue[1:]`` is
    exactly what ``admit`` accepted, in order.  The kernels emit no row
    for a vertex visited before the round on this invariant alone."""
    c = zoo()[name]
    t = c.transpose()
    rng = np.random.default_rng(1)
    for ip, ix in ((c.indptr, c.indices), (t.indptr, t.indices)):
        for v in range(c.n):
            visited = rng.random(c.n) < 0.3
            visited[v] = True
            for tau in (1, 2, 8, 512):
                seen, admitted = set(), []

                def admit(x, u):
                    if visited[u] or u in seen:
                        return False
                    seen.add(u)
                    admitted.append(u)
                    return True

                queue, qi, _ = local_search(ip, ix, v, tau, admit)
                assert queue[0] == v and qi >= 1
                assert queue[1:] == admitted


def _one_round_setup(c, direction):
    """Seeded frontier (always holding vertex 0), a visited superset of
    it, a finished mask outside it, and the edge list (w, u) oriented so
    that w in the frontier reaches u in ``direction``."""
    rng = np.random.default_rng(0)
    in_frontier = rng.random(c.n) < 0.5
    in_frontier[0] = True
    visited = in_frontier | (rng.random(c.n) < 0.2)
    finished = ~visited & (rng.random(c.n) < 0.2)
    src = np.repeat(np.arange(c.n, dtype=np.int64), np.diff(c.indptr))
    w, u = (src, c.indices) if direction == "fwd" else (c.indices, src)
    t = c.transpose()
    g = (c.indptr, c.indices, t.indptr, t.indices)
    return in_frontier, visited, finished, w, u, g


def _rows(out):
    """Candidate rows of one kernel call, without the sentinel row."""
    return out[out["v"] != SENTINEL]


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_sparse_round_emits_each_vertex_once(name):
    """One slice, frontier vertices sharing neighbours.  tau=1: exactly
    the unvisited out-neighbours of the frontier, each once.  tau > m (no
    search is ever cut): exactly the vertices reachable through unvisited
    ones, each once and explored, with each of their edges and the
    frontier's scanned once — the one pass the hash bag buys."""
    c = zoo()[name]
    deg = {"fwd": np.diff(c.indptr), "bwd": np.bincount(c.indices, minlength=c.n)}
    for direction in ("fwd", "bwd"):
        in_frontier, visited, _, w, u, g = _one_round_setup(c, direction)
        hop = np.zeros(c.n, dtype=bool)
        hop[u[in_frontier[w] & ~visited[u]]] = True
        reached, cur = hop.copy(), hop
        while cur.any():
            nxt = np.zeros(c.n, dtype=bool)
            nxt[u[cur[w]]] = True
            cur = nxt & ~visited & ~reached
            reached |= cur
        full = (len(c.indices) + 1, reached, in_frontier | reached)
        for tau, want, scanned in ((1, hop, in_frontier), full):
            p = {"direction": direction, "visited": visited, "tau": tau, "two_pass": False}
            out = k_sparse_reach(frontier_pdf(np.flatnonzero(in_frontier)), g, p)
            rows = _rows(out)
            assert len(rows) == want.sum()
            assert np.array_equal(np.sort(rows["v"]), np.flatnonzero(want))
            assert (rows["explored"] == (tau > 1)).all()
            assert out["visits"].sum() == deg[direction][scanned].sum()


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_dense_round_emits_each_vertex_once(name):
    """One slice of all unvisited candidates: exactly the unfinished ones
    with an in-neighbour (w.r.t. the direction) in the frontier, each once."""
    c = zoo()[name]
    for direction in ("fwd", "bwd"):
        in_frontier, visited, finished, w, u, g = _one_round_setup(c, direction)
        p = {"direction": direction, "in_frontier": in_frontier, "finished": finished}
        out = k_dense_reach(frontier_pdf(np.flatnonzero(~visited)), g, p)
        want = np.unique(u[in_frontier[w] & ~visited[u] & ~finished[u]])
        rows = _rows(out)
        assert len(rows) == len(want)
        assert np.array_equal(np.sort(rows["v"]), want)


def test_rounds_counted_in_counters():
    c = zoo()["path"]
    eng = make_engine(c)
    r = single_reach(eng, np.array([0]), tau=1, dense=False)
    assert eng.counters.rounds == r.rounds


def test_bfs_level_count():
    c = zoo()["path"]
    # every processed frontier counts as a level, incl. the sink's
    assert bfs_level_count(c.indptr, c.indices, np.array([0])) == 6
    assert bfs_level_count(c.indptr, c.indices, np.array([5])) == 1


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(2, 60),
    m=st.integers(0, 200),
    seed=st.integers(0, 10**6),
    tau=st.sampled_from([1, 3, 512]),
)
def test_property_reach_equals_truth(n, m, seed, tau):
    g = np.random.default_rng(seed)
    c = csrmod.from_arrays(n, g.integers(0, n, m), g.integers(0, n, m))
    srcs = np.unique(g.integers(0, n, 2))
    r = single_reach(make_engine(c), srcs, tau=tau)
    assert np.array_equal(r.visited, truth_reach(c, srcs))
