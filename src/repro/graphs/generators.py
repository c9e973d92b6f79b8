"""Seeded synthetic analogues of the paper's graph families (DESIGN.md §4).

Every generator returns ``(src, dst)`` int64 numpy arrays (deduplicated,
no self loops) for a graph on ``n`` vertices.  Families:

- social  — directed RMAT power-law graphs (LJ/TW analogues): low
  diameter, one giant SCC;
- web     — RMAT core with partially reciprocal edges plus IN/OUT DAG
  fringes (SD/CW analogues): bow-tie structure, many small SCCs;
- k-NN    — directed k-nearest-neighbor graphs of seeded point clouds
  (GMM clusters = HH5, a noisy 1-D curve = CH5, a random-walk trajectory
  = GeoLife): large diameter, k controls SCC fragmentation;
- lattice — circular 2-D lattices with random edge orientation, both the
  p=0.5 scheme (SQR/REC: giant SCC, Theta(sqrt n) diameter) and the
  0.3/0.3/0.4 scheme (SQR'/REC': dust of tiny SCCs);
- road    — perturbed grid with highway shortcuts (USA/GE analogues,
  undirected; Table 3 only).
"""
from __future__ import annotations

import numpy as np


def _dedupe(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    keep = src != dst
    src, dst = src[keep], dst[keep]
    n_max = int(max(src.max(initial=0), dst.max(initial=0))) + 1
    keys = np.unique(src * n_max + dst)
    return (keys // n_max).astype(np.int64), (keys % n_max).astype(np.int64)


# -- social: RMAT ---------------------------------------------------------
def rmat(
    log2_n: int,
    avg_deg: int,
    *,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Directed RMAT. Power-law-ish degrees, low diameter."""
    n = 1 << log2_n
    m = n * avg_deg
    g = np.random.default_rng(seed)
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    for bit in range(log2_n):
        r = g.random(m)
        # Quadrant probabilities (a | b / c | d) per recursion level.
        src_bit = (r >= a + b).astype(np.int64)
        dst_r = np.where(src_bit == 0, r / (a + b), (r - a - b) / (1 - a - b))
        dst_bit = (dst_r >= np.where(src_bit == 0, a / (a + b), c / (1 - a - b))).astype(
            np.int64
        )
        src = (src << 1) | src_bit
        dst = (dst << 1) | dst_bit
    # Permute ids so the implicit RMAT hub-ordering is not id order.
    perm = g.permutation(n).astype(np.int64)
    return _dedupe(perm[src], perm[dst])


# -- web: bow-tie ---------------------------------------------------------
def web(log2_n: int, avg_deg: int = 8, *, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Bow-tie web graph: SCC-rich RMAT core + IN and OUT DAG fringes."""
    g = np.random.default_rng(seed)
    n = 1 << log2_n
    n_core = n // 2
    n_in = n // 4
    n_out = n - n_core - n_in
    cs, cd = rmat(log2_n - 1, avg_deg, seed=seed + 1)
    # Reciprocate ~60% of the core edges so the core holds a large SCC.
    rec = g.random(len(cs)) < 0.6
    cs, cd = np.concatenate([cs, cd[rec]]), np.concatenate([cd, cs[rec]])
    # IN fringe: ids [n_core, n_core + n_in): edges into the core or to a
    # later IN vertex (keeps the fringe acyclic).
    in_ids = np.arange(n_core, n_core + n_in, dtype=np.int64)
    k_in = g.integers(1, 4, n_in)
    i_src = np.repeat(in_ids, k_in)
    i_dst = g.integers(0, n_core, len(i_src)).astype(np.int64)
    # OUT fringe: core -> out, out -> later out.
    out_ids = np.arange(n_core + n_in, n, dtype=np.int64)
    k_out = g.integers(1, 4, n_out)
    o_dst = np.repeat(out_ids, k_out)
    o_src = g.integers(0, n_core, len(o_dst)).astype(np.int64)
    chain = g.random(n_out - 1) < 0.5 if n_out > 1 else np.zeros(0, dtype=bool)
    ch_s = out_ids[:-1][chain]
    ch_d = out_ids[1:][chain]
    src = np.concatenate([cs, i_src, o_src, ch_s])
    dst = np.concatenate([cd, i_dst, o_dst, ch_d])
    return _dedupe(src, dst)


# -- k-NN -----------------------------------------------------------------
def _knn_edges(points: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact brute-force directed k-NN (chunked to bound memory)."""
    n = len(points)
    k = min(k, n - 1)
    src = np.repeat(np.arange(n, dtype=np.int64), k)
    dst = np.empty(n * k, dtype=np.int64)
    chunk = max(1, (1 << 22) // max(1, n))
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        d2 = ((points[lo:hi, None, :] - points[None, :, :]) ** 2).sum(-1)
        d2[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        nn = np.argpartition(d2, k, axis=1)[:, :k]
        # order the k neighbors by distance for determinism
        row_d = np.take_along_axis(d2, nn, axis=1)
        nn = np.take_along_axis(nn, np.argsort(row_d, axis=1), axis=1)
        dst[lo * k : hi * k] = nn.reshape(-1)
    return _dedupe(src, dst)


def knn_gmm(n: int, k: int, *, n_clusters: int = 16, seed: int = 0):
    """Household-analogue: k-NN of a Gaussian-mixture point cloud."""
    g = np.random.default_rng(seed)
    centers = g.random((n_clusters, 2)) * 10
    who = g.integers(0, n_clusters, n)
    pts = centers[who] + g.normal(0, 0.35, (n, 2))
    order = np.lexsort((pts[:, 1], np.floor(pts[:, 0] * 2)))
    return _knn_edges(pts[order], k)


def knn_curve(n: int, k: int, *, seed: int = 0):
    """Chemical-analogue: k-NN of points near a 1-D curve — extreme
    diameter relative to size (paper: CH5 has D=4550 at n=4.2M)."""
    g = np.random.default_rng(seed)
    t = np.sort(g.random(n))
    pts = np.stack(
        [t * 100, np.sin(t * 12 * np.pi) * 0.5 + g.normal(0, 0.05, n)], axis=1
    )
    return _knn_edges(pts, k)


def knn_trajectory(n: int, k: int, *, seed: int = 0):
    """GeoLife-analogue: k-NN of a random-walk (GPS-trace-like) cloud."""
    g = np.random.default_rng(seed)
    steps = g.normal(0, 1.0, (n, 2))
    pts = np.cumsum(steps, axis=0) + g.normal(0, 0.2, (n, 2))
    return _knn_edges(pts, k)


# -- lattice --------------------------------------------------------------
def _lattice_pairs(rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Unordered adjacent pairs of a circular rows x cols lattice."""
    ids = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    right = np.stack([ids.ravel(), np.roll(ids, -1, axis=1).ravel()])
    down = np.stack([ids.ravel(), np.roll(ids, -1, axis=0).ravel()])
    u = np.concatenate([right[0], down[0]])
    v = np.concatenate([right[1], down[1]])
    keep = u != v  # rows or cols of size 1 wrap onto themselves
    return u[keep], v[keep]


def lattice_oriented(rows: int, cols: int, *, seed: int = 0):
    """SQR/REC scheme: each adjacent pair gets one direction, p=0.5."""
    g = np.random.default_rng(seed)
    u, v = _lattice_pairs(rows, cols)
    flip = g.random(len(u)) < 0.5
    src = np.where(flip, v, u)
    dst = np.where(flip, u, v)
    return _dedupe(src, dst)


def lattice_sparse(rows: int, cols: int, *, seed: int = 0):
    """SQR'/REC' scheme: u->v w.p. 0.3, v->u w.p. 0.3, none w.p. 0.4."""
    g = np.random.default_rng(seed)
    u, v = _lattice_pairs(rows, cols)
    r = g.random(len(u))
    src = np.concatenate([u[r < 0.3], v[(r >= 0.3) & (r < 0.6)]])
    dst = np.concatenate([v[r < 0.3], u[(r >= 0.3) & (r < 0.6)]])
    return _dedupe(src, dst)


# -- road (undirected; Table 3) ------------------------------------------
def road(rows: int, cols: int, *, seed: int = 0):
    """Road-network analogue: non-circular grid with 10% edges removed
    and a few long 'highway' shortcuts; symmetric."""
    g = np.random.default_rng(seed)
    ids = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    u = np.concatenate([ids[:, :-1].ravel(), ids[:-1, :].ravel()])
    v = np.concatenate([ids[:, 1:].ravel(), ids[1:, :].ravel()])
    keep = g.random(len(u)) > 0.1
    u, v = u[keep], v[keep]
    n_hw = max(1, rows * cols // 200)
    hu = g.integers(0, rows * cols, n_hw)
    hv = g.integers(0, rows * cols, n_hw)
    src = np.concatenate([u, v, hu, hv]).astype(np.int64)
    dst = np.concatenate([v, u, hv, hu]).astype(np.int64)
    return _dedupe(src, dst)
