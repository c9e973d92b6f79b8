"""BGSS per-batch labeling (Alg. 1 lines 8-13, paper Sec. 4.4).

After a batch's forward/backward multi-reachability searches produce pair
sets L_out (s reaches v) and L_in (v reaches s):

- a vertex with some source in *both* sets is strongly connected to that
  source: it is **finished** and labeled with the largest such source id
  (all members of the SCC share that max, so the label is consistent);
- any other vertex touched by the searches gets a new **signature** label
  hashing (old label, R_in, R_out), so vertices with different
  reachability information — which cannot share an SCC — end up with
  different labels, and later searches skip the cross edges between them.

:func:`label_batch` sorts and segments packed pair keys ``v * n + s`` on
the driver.  Only label *equality* matters (kernels skip an edge whose
endpoint labels differ), so a signature is an order-independent set
hash: splitmix64 of each source, salted by direction, summed per vertex
in wrapping uint64, then mixed with the old label.  Two different (old
label, R_in, R_out) collide with probability about 2⁻⁶³, as with the
blake2b digest it replaced.  A signature is forced negative, so it never
equals a finished label, which is a vertex id >= 0.
"""
from __future__ import annotations

import numpy as np


def _splitmix64(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def label_batch(
    pairs_in: tuple[np.ndarray, np.ndarray],
    pairs_out: tuple[np.ndarray, np.ndarray],
    labels: np.ndarray,
    finished: np.ndarray,
) -> int:
    """Apply one batch's labeling in place; returns #newly finished."""
    n = len(labels)
    k_in, k_out = (np.unique(np.asarray(v, np.int64) * n + s) for v, s in (pairs_in, pairs_out))
    both = np.intersect1d(k_in, k_out, assume_unique=True)
    bv = both // n
    last = np.diff(bv, append=n) != 0  # end of each v's ascending segment
    idx = bv[last]
    labels[idx] = both[last] % n
    n_new = int((~finished[idx]).sum())
    finished[idx] = True

    keys = np.concatenate([k_in, k_out])
    touched, seg = np.unique(keys // n, return_inverse=True)
    salted = 2 * (keys % n) + np.repeat([0, 1], [len(k_in), len(k_out)])
    sig = np.zeros(len(touched), dtype=np.uint64)
    np.add.at(sig, seg, _splitmix64(salted))
    keep = ~finished[touched]
    t = touched[keep]
    h = _splitmix64(sig[keep] ^ _splitmix64(labels[t]))
    labels[t] = -(h >> np.uint64(1)).astype(np.int64) - 1  # always negative
    return n_new
